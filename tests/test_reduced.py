from fractions import Fraction

import pytest

from doublehurwitz.golden import GOLDEN_H_POLYS
from doublehurwitz.partitions import aut_order, multinomial
from doublehurwitz.recursion import XTable, compute_x, h_poly, keys_up_to
from doublehurwitz.reduced import (
    ReducedRecursion,
    is_reduced_key,
    reduced_initial_coefficient,
)
from doublehurwitz.zseries import ZPoly, zpoly_eval


def test_is_reduced_key():
    assert is_reduced_key(((2, 1), (1, 0), (0, 3)))
    assert not is_reduced_key(((2, 1), (1, 1)))


def test_reduced_rejects_two_mixed_entries():
    with pytest.raises(ValueError):
        ReducedRecursion().x_value([(2, 1), (1, 1)])


def test_reduced_reproduces_golden_h_polys():
    rr = ReducedRecursion()
    for lam, expected in GOLDEN_H_POLYS.items():
        got = rr.h_poly(lam)
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
        assert rr.h_poly(lam) == h_poly(lam), lam


def test_initial_coefficient_formula():
    # coefficient of t_nu in the potential at p = 0
    assert reduced_initial_coefficient((0,)) == ZPoly.gen(0, 1)
    assert reduced_initial_coefficient((1, 1)) == ZPoly.gen(2, 2)  # 2 z / |Aut| = z * 2/2
    assert reduced_initial_coefficient((2, 0)) == ZPoly.gen(2, 2)  # multinomial(2;2,0) = 1
    assert reduced_initial_coefficient(()) == ZPoly.zero()


def test_xbar_coefficient_matches_initial_data():
    rr = ReducedRecursion()
    for nu in [(0,), (1,), (2, 0), (1, 1), (2, 1, 0)]:
        got = rr.xbar_coefficient((), nu)
        expected = ZPoly.gen(sum(nu), len(nu)) * Fraction(multinomial(nu), aut_order(tuple(sorted(nu, reverse=True))))
        assert got == expected, nu


def test_derivative_windows_are_consistent():
    # reading the same coefficient through the p-window and through a
    # derivative window differs only by the multiplicity bookkeeping
    rr = ReducedRecursion()
    lam, nu = (2, 1), (1,)
    via_xbar = rr.xbar_coefficient(lam, nu)
    via_p_window = rr.derivative_coefficient(2, 0, (1,), nu)
    assert via_p_window == via_xbar * aut_order(lam)  # |Aut (2,1)| = 1 ... kept explicit
    lam2 = (2, 2)
    via_xbar2 = rr.xbar_coefficient(lam2, ())
    via_window2 = rr.derivative_coefficient(2, 0, (2,), ())
    # d/dp_2 halves the Aut factor of (2,2): mult 2 over |Aut| 2
    assert via_window2 == via_xbar2 * 2


def test_reduced_h_chain_concrete_values():
    rr = ReducedRecursion()
    # the first derivative chain bottom: single marked zero of order 1
    assert rr.x_value([(1, 0)]) == ZPoly.gen(0, 1)
    assert rr.x_value([(1, 1)]) == ZPoly.gen(1, 1)
    assert rr.x_value([(2, 1)]) == ZPoly.gen(1, 1) + ZPoly.gen(2, 1)
