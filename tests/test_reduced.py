import pytest

from doublehurwitz.golden import GOLDEN_H_POLYS
from doublehurwitz.partitions import check_partition, multinomial
from doublehurwitz.recursion import XTable, compute_x, h_poly, initial_x, keys_up_to, make_xkey
from doublehurwitz.reduced import ReducedRecursion, is_reduced_key
from doublehurwitz.zseries import ZPoly, zpoly_eval


def reduced_h_poly(rr: ReducedRecursion, lam) -> ZPoly:
    """h_lam through the reduced chain: the key with all-zero psi-exponents."""
    return rr.x_value(make_xkey((i, 0) for i in check_partition(lam)))


def test_is_reduced_key():
    assert is_reduced_key(((2, 1), (1, 0), (0, 3)))
    assert not is_reduced_key(((2, 1), (1, 1)))


def test_reduced_rejects_two_mixed_entries():
    with pytest.raises(ValueError):
        ReducedRecursion().x_value([(2, 1), (1, 1)])


def test_reduced_reproduces_golden_h_polys():
    rr = ReducedRecursion()
    for lam, expected in GOLDEN_H_POLYS.items():
        got = reduced_h_poly(rr, lam)
        assert got == expected or zpoly_eval(got - expected, 10).is_zero(), lam


def test_reduced_agrees_with_full_on_mixed_keys():
    rr = ReducedRecursion()
    table = XTable()
    for key in keys_up_to(4, 3, 2):
        if not is_reduced_key(key):
            continue
        red = rr.x_value(key)
        full = compute_x(key, table)
        assert red == full or zpoly_eval(red - full, 10).is_zero(), key


def test_reduced_and_full_agree_exactly_at_higher_degree():
    # the reduced engine keeps the term-by-term correction sum, the full one
    # reads it off block products: equal polynomials, not just equal series
    rr = ReducedRecursion()
    for lam in [(12,), (2,) * 5]:
        assert reduced_h_poly(rr, lam) == h_poly(lam), lam


def test_initial_coefficient_formula():
    # key value at p = 0: multinomial(|nu|; nu) z_{|nu|, len(nu)}
    assert initial_x((0,)) == ZPoly.gen(0, 1)
    assert initial_x((1, 1)) == ZPoly.gen(2, 2) * 2
    assert initial_x((2, 0)) == ZPoly.gen(2, 2)  # multinomial(2;2,0) = 1
    with pytest.raises(ValueError):
        initial_x(())


def test_reduced_initial_keys_match_initial_data():
    rr = ReducedRecursion()
    for nu in [(0,), (1,), (2, 0), (1, 1), (2, 1, 0)]:
        got = rr.x_value([(0, v) for v in nu])
        assert got == ZPoly.gen(sum(nu), len(nu)) * multinomial(nu), nu


def test_reduced_h_chain_concrete_values():
    rr = ReducedRecursion()
    # the first derivative chain bottom: single marked zero of order 1
    assert rr.x_value([(1, 0)]) == ZPoly.gen(0, 1)
    assert rr.x_value([(1, 1)]) == ZPoly.gen(1, 1)
    assert rr.x_value([(2, 1)]) == ZPoly.gen(1, 1) + ZPoly.gen(2, 1)
