from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from doublehurwitz.cutjoin import evolve, frobenius_eH, h_lambda_series
from doublehurwitz.exact import ratio
from doublehurwitz.kp import homogeneous_part, kp_residual, kp_residual_of, scaled_schur, tau_series
from doublehurwitz.partitions import (
    aut_order,
    check_bound,
    check_partition,
    check_profile,
    class_size,
    compositions,
    gen_binomial,
    multinomial,
    partitions_of,
    zee,
)
from doublehurwitz.recursion import keys_up_to, make_xkey, populate_table
from doublehurwitz.series import PACKER, GradedSeries, Truncation, pvar, qvar, svar, tvar
from doublehurwitz.zseries import ZPoly, check_gen, psi_series, z_series, zpoly_eval


def brute_force_partitions(n):
    """Independent enumeration: weakly decreasing positive tuples summing to n."""
    found = set()
    for length in range(n + 1):
        for tup in product(range(1, n + 1), repeat=length):
            if sum(tup) == n and all(tup[i] >= tup[i + 1] for i in range(length - 1)):
                found.add(tup)
    if n == 0:
        found.add(())
    return found


def test_partitions_of_trivial_cases():
    assert partitions_of(0) == ((),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))


def test_partitions_of_against_brute_force():
    for n in range(7):
        got = partitions_of(n)
        assert set(got) == brute_force_partitions(n)
        assert len(set(got)) == len(got)
    assert len(partitions_of(5)) == 7


def test_partitions_of_reverse_lex_order():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    # reverse lexicographic: each partition is lexicographically after the next
    for n in range(2, 9):
        parts = partitions_of(n)
        for a, b in zip(parts, parts[1:]):
            assert a > b


def test_partitions_of_max_part():
    assert partitions_of(4, 2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))
    for n in range(7):
        for mp in range(1, n + 1):
            assert set(partitions_of(n, mp)) == {
                p for p in partitions_of(n) if all(x <= mp for x in p)
            }


def test_check_partition_sorts_and_validates():
    assert check_partition([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        check_partition([2, 0])


@pytest.mark.parametrize("parts", [("3",), (True,), (2.5,), (3, 1.0), (None,)])
def test_check_partition_rejects_non_ints(parts):
    with pytest.raises(TypeError, match="expected an int"):
        check_partition(parts)


def test_aut_order():
    assert aut_order((4, 3, 3, 1, 1, 1)) == 12
    assert aut_order((7,)) == 1
    assert aut_order((1, 1, 1)) == 6
    assert aut_order(()) == 1


def test_class_size_examples():
    assert class_size((1, 1)) == 1
    assert class_size((2,)) == 1
    assert class_size((2, 1)) == 3
    with pytest.raises(ValueError):
        class_size(())


def test_class_sizes_sum_to_group_order():
    for K in range(1, 9):
        assert sum(class_size(lam) for lam in partitions_of(K)) == factorial(K)


def test_zee_is_group_order_over_class_size():
    for K in range(1, 9):
        for lam in partitions_of(K):
            assert zee(lam) == factorial(K) // class_size(lam)


def test_gen_binomial_examples():
    assert gen_binomial(-1, 0) == 1
    assert gen_binomial(-1, 2) == 1
    assert gen_binomial(3, 2) == 3
    assert gen_binomial(-1, 1) == -1
    assert gen_binomial(2, 5) == 0


def test_gen_binomial_matches_comb_for_standard_range():
    for a in range(0, 9):
        for d in range(0, 9):
            assert gen_binomial(a, d) == comb(a, d)


def test_gen_binomial_is_the_int_of_the_fraction_formula():
    for a in range(-6, 7):
        for d in range(0, 7):
            value = gen_binomial(a, d)
            assert type(value) is int
            assert value == Fraction(prod(a - i for i in range(d)), factorial(d))
    for a in (2.0, True):  # 2.0 would give the float 1.0 through the int division
        with pytest.raises(TypeError, match="expected an int"):
            gen_binomial(a, 2)


def test_multinomial_examples():
    assert multinomial((0, 0, 0)) == 1
    assert multinomial((1, 1)) == 2
    assert multinomial((2, 1)) == 3
    assert multinomial(()) == 1


@pytest.mark.parametrize("nu", [(1.9, 1.2), (2, True), ("1",)])
def test_multinomial_rejects_non_ints(nu):
    # int() would truncate (1.9, 1.2) to (1, 1) and answer 2
    with pytest.raises(TypeError, match="expected an int"):
        multinomial(nu)


def test_check_profile():
    assert check_profile(1, [1, 3], (2, 2)) == ((3, 1), (2, 2), 4)
    assert check_profile(0, (1,), (1,)) == ((1,), (1,), 0)
    for g in (True, 0.0, "0"):
        with pytest.raises(TypeError, match="expected an int"):
            check_profile(g, (2,), (1, 1))
    for lam, mu in (((2,), (3,)), ((), ()), ((2,), ())):
        with pytest.raises(ValueError, match="partition the same positive integer"):
            check_profile(0, lam, mu)
    with pytest.raises(ValueError, match="need genus >= 0"):
        check_profile(-1, (3,), (1, 1, 1))  # m = 0, but no genus is negative


def test_compositions():
    assert list(compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 3)) == []
    # number of compositions of n into k positive parts is C(n-1, k-1)
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert len(list(compositions(n, k))) == comb(n - 1, k - 1)


def test_fraction_round_trip():
    for f in (Fraction(1, 2), Fraction(-5, 3), Fraction(7)):
        assert Fraction(ratio(f.numerator, f.denominator)) == f
    assert ratio(7, 1) == "7/1"


_NO_S = GradedSeries.from_ints(Truncation(s_weight=4), {})

# (builder of one int argument v, least v, name in the refusal, whether None
# means "no bound" there): every count the package takes goes through
# check_bound
BOUNDED = {
    "check_profile genus": (lambda v: check_profile(v, (2,), (1, 1)), 0, "genus", False),
    "partitions_of": (partitions_of, 0, "n", False),
    "gen_binomial": (lambda v: gen_binomial(3, v), 0, "d", False),
    "multinomial": (lambda v: multinomial((1, v)), 0, "nu_i", False),
    "qvar": (qvar, 1, "k", False),
    "pvar": (pvar, 1, "i", False),
    "tvar i": (lambda v: tvar(v, 0), 0, "i", False),
    "tvar j": (lambda v: tvar(0, v), 0, "j", False),
    "svar": (svar, 1, "k", False),
    "check_gen d": (lambda v: check_gen(v, 1), 0, "d", False),
    "check_gen r": (lambda v: check_gen(0, v), 1, "r", False),
    "z_series q": (lambda v: z_series(0, 1, v), 1, "q_weight_bound", False),
    "z_series n_bound": (lambda v: z_series(0, 1, 2, v), 1, "n_bound", True),
    "psi_series a": (lambda v: psi_series(v, 1, 3), 0, "a", False),
    "psi_series ell": (lambda v: psi_series(0, v, 3), 1, "ell", False),
    "psi_series W": (lambda v: psi_series(0, 1, v), 0, "t_weight_bound", False),
    "zpoly_eval": (lambda v: zpoly_eval(ZPoly.constant(1), v), 0, "q_weight_bound", False),
    "evolve q": (lambda v: evolve(v, 1), 1, "q_weight_bound", False),
    "evolve beta": (lambda v: evolve(2, v), 0, "beta_bound", False),
    "evolve max_genus": (lambda v: evolve(4, 3, max_genus=v), 0, "max_genus", True),
    "frobenius_eH q": (lambda v: frobenius_eH(v, 1), 1, "q_weight_bound", False),
    "frobenius_eH beta": (lambda v: frobenius_eH(2, v), 0, "beta_bound", False),
    "h_lambda_series": (lambda v: h_lambda_series([(1,)], v), 1, "q_weight_bound", False),
    "scaled_schur": (lambda v: scaled_schur(v, Truncation(s_weight=2)), 0, "k", False),
    "tau_series": (tau_series, 1, "t_weight_bound", False),
    "kp_residual": (kp_residual, 0, "t_weight_bound", False),
    "kp_residual_of": (lambda v: kp_residual_of(_NO_S, v), 0, "t_weight_bound", False),
    "homogeneous_part": (lambda v: homogeneous_part(_NO_S, v), 0, "t_weight", False),
    "make_xkey lam": (lambda v: make_xkey([(v, 0)]), 0, "lam_i", False),
    "make_xkey nu": (lambda v: make_xkey([(0, v)]), 0, "nu_i", False),
    "keys_up_to lam": (lambda v: keys_up_to(v, 1, 0), 0, "max_lam_weight", False),
    "keys_up_to r": (lambda v: keys_up_to(1, v, 0), 1, "max_r", False),
    "keys_up_to nu": (lambda v: keys_up_to(1, 1, v), 0, "max_nu_weight", False),
    "populate_table lam": (lambda v: populate_table(v, 1, 0), 0, "max_lam_weight", False),
    "populate_table r": (lambda v: populate_table(1, v, 0), 1, "max_r", False),
    "populate_table nu": (lambda v: populate_table(1, 1, v), 0, "max_nu_weight", False),
}


@pytest.mark.parametrize("case", BOUNDED)
def test_every_count_is_refused_by_check_bound(case):
    # a bool, a float or None was a silently wrong count or a bare '<' error
    build, least, name, none_is_unbounded = BOUNDED[case]
    for bad in (True, 1.5) if none_is_unbounded else (None, True, 1.5):
        with pytest.raises(TypeError, match="expected an int"):
            build(bad)
    with pytest.raises(ValueError, match=f"^need {name} >= {least}$"):
        build(least - 1)


def test_check_bound():
    assert check_bound(3, 3, "n") == 3
    for bad in (None, True, 1.5, "3"):
        with pytest.raises(TypeError, match="expected an int"):
            check_bound(bad, 0, "n")
    with pytest.raises(ValueError, match="^need n >= 3$"):
        check_bound(2, 3, "n")


def test_tvar_refuses_a_bool_before_a_letter_is_registered():
    # GradedSeries.var(trunc, tvar(True, 0)) printed 1*t_{True,0}
    letters = list(PACKER.variables)
    with pytest.raises(TypeError, match="expected an int"):
        GradedSeries.var(Truncation(t_weight=4), tvar(True, 0))
    assert PACKER.variables == letters
