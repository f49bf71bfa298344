"""Hurwitz's closed formula for genus-0 covers with mu = 1^K, as a check of
the oracle within its budget and of the two series methods beyond it.

Pinned against oracle_count on every lam of degree K <= 6 within the budget:

    h_0(lam, 1^K) = (K + l - 2)! K^(l - 3) prod_i lam_i^lam_i / lam_i!  /  |Aut lam|,

with l = len(lam) and |Aut lam| the product of the multiplicity factorials.
The formula lives here only; the package never uses it.
"""

from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from doublehurwitz.cutjoin import BETA_VAR, evolve, frobenius_eH
from doublehurwitz.oracle import MAX_DEGREE, MAX_TRANSPOSITIONS, oracle_count
from doublehurwitz.partitions import partitions_of
from doublehurwitz.series import mono_from_vars, pvar, qvar


def hurwitz_formula(lam: tuple) -> Fraction:
    K, ell = sum(lam), len(lam)
    aut = prod(factorial(n) for n in Counter(lam).values())
    return (
        factorial(K + ell - 2)
        * Fraction(K) ** (ell - 3)
        * prod(Fraction(part**part, factorial(part)) for part in lam)
        / aut
    )


def literal_from_H(H, lam: tuple) -> Fraction:
    """m! times the coefficient of beta^m p_lam q_1^K in H, m = K + len(lam) - 2."""
    K = sum(lam)
    m = K + len(lam) - 2
    mono = mono_from_vars(
        [(pvar(part), 1) for part in lam] + [(qvar(1), K), (BETA_VAR, m)]
    )
    return Fraction(H.coefficient(mono)) * factorial(m)


def test_formula_matches_oracle_within_budget():
    checked = 0
    for K in range(1, MAX_DEGREE + 1):
        for lam in partitions_of(K):
            if K + len(lam) - 2 > MAX_TRANSPOSITIONS:
                continue
            assert oracle_count(0, lam, (1,) * K) == hurwitz_formula(lam), lam
            checked += 1
    assert checked == 20


@pytest.mark.parametrize("K, m", [(7, 8), (8, 8)])
def test_formula_matches_series_methods_beyond_oracle(K, m):
    # every lam of K with K + len(lam) - 2 <= m: len <= 3 at K = 7, <= 2 at K = 8
    lams = [lam for lam in partitions_of(K) if K + len(lam) - 2 <= m]
    assert K > MAX_DEGREE and len(lams) > 1
    by_cutjoin = evolve(K, m)
    by_frobenius = frobenius_eH(K, m).log()
    for lam in lams:
        expected = hurwitz_formula(lam)
        assert literal_from_H(by_cutjoin, lam) == expected, ("cutjoin", lam)
        assert literal_from_H(by_frobenius, lam) == expected, ("frobenius", lam)
