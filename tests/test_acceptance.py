"""Acceptance suite: the ten exit criteria, one test each, all exact.

Every tolerance is exact equality.  Each test prints one line
"ACCEPTANCE <n> <name>: PASS" on success so the suite doubles as a report
(run pytest with -s to stream them).
"""

from fractions import Fraction
from math import factorial

import pytest

from doublehurwitz.cutjoin import (
    cut_join_apply,
    evolve,
    frobenius_eH,
    h_lambda_series,
)
from doublehurwitz.golden import GOLDEN_H_POLYS
from doublehurwitz.kp import homogeneous_part, kp_residual, r_series
from doublehurwitz.oracle import oracle_count, oracle_count_calibrated
from doublehurwitz.partitions import aut_order, partitions_of
from doublehurwitz.recursion import XTable, compute_x, h_poly, keys_up_to
from doublehurwitz.reduced import ReducedRecursion, is_reduced_key
from doublehurwitz.series import (
    BETA_VAR,
    GradedSeries,
    PSI_VAR,
    XI_VAR,
    Truncation,
    mono_from_vars,
    pvar,
    qvar,
    svar,
)
from doublehurwitz.symgroup import central_weight, schur_in_power_sums
from doublehurwitz.verify import suite_string_dilaton
from doublehurwitz.zseries import check_eqzred, check_psi_string_dilaton, zpoly_eval
from test_zseries import psi_string_naive_residual


@pytest.fixture(scope="module")
def xtable():
    return XTable()


def _report(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def test_acceptance_01_golden_h_polynomials(xtable):
    exact_matches = 0
    for lam, expected in GOLDEN_H_POLYS.items():
        computed = h_poly(lam, xtable)
        # q-series equality at weight 10 is mandatory
        assert zpoly_eval(computed - expected, 10).is_zero(), lam
        if computed == expected:
            exact_matches += 1
    # exact polynomial form match is reported (and currently holds for all 7)
    assert len(GOLDEN_H_POLYS) == 7
    _report(1, f"seven golden h-polynomials (exact form matches: {exact_matches}/7)")


def test_acceptance_02_bridge_recursion_vs_classical(xtable):
    checked = 0
    lams = [lam for k in range(1, 7) for lam in partitions_of(k) if len(lam) <= 3]
    for lam, classical in zip(lams, h_lambda_series(lams, 8)):
        recursive = zpoly_eval(h_poly(lam, xtable), 8)
        assert classical == recursive, lam
        # the values are cover counts divided by positive integers
        assert all(c >= 0 for _, c in classical.terms()), lam
        checked += 1
    _report(2, f"bridge identity on {checked} profiles at q-weight 8")


def test_acceptance_03_two_formulas_for_eH():
    assert evolve(6, 6) == frobenius_eH(6, 6).log()
    _report(3, "evolution equals character formula at q-weight 6, beta 6")


def test_acceptance_04_oracle_triple_agreement():
    H = evolve(4, 4)
    assert oracle_count(0, (2,), (1, 1)) == Fraction(1, 2)
    assert oracle_count_calibrated(0, (2,), (1, 1)) == 1
    checked = 0
    for K in range(1, 5):
        for lam in partitions_of(K):
            for mu in partitions_of(K):
                for m in range(0, 5):
                    two_g = m - len(lam) - len(mu) + 2
                    if two_g < 0 or two_g % 2:
                        continue
                    mono = mono_from_vars(
                        [(pvar(i), 1) for i in lam]
                        + [(qvar(i), 1) for i in mu]
                        + ([(BETA_VAR, m)] if m else [])
                    )
                    lhs = H.coefficient(mono) * factorial(m) * aut_order(lam) * aut_order(mu)
                    rhs = oracle_count_calibrated(two_g // 2, lam, mu)
                    assert lhs == rhs, (lam, mu, m, lhs, rhs)
                    checked += 1
    _report(4, f"calibrated oracle vs H-coefficients, {checked} cases incl. sentinel")


def test_acceptance_05_schur_eigenbasis():
    tr = Truncation(p_weight=6)
    for K in range(1, 7):
        for lam in partitions_of(K):
            s = schur_in_power_sums(lam, tr)
            assert cut_join_apply(s) == s.scalar_mul(central_weight(lam)), lam
    _report(5, "cut-and-join eigenbasis property for |lam| <= 6")


def test_acceptance_06_string_dilaton():
    rows = suite_string_dilaton()
    assert all(ok for _, ok, _ in rows), rows
    for a in range(0, 4):
        for ell in range(1, 5):
            ok, detail = check_psi_string_dilaton(a, ell, a + ell + 8)
            assert ok, detail
    # the printed form of the string identity over-counts; keep the record
    assert not psi_string_naive_residual(0, 2, 10).is_zero()
    _report(6, "string/dilaton on table keys and correction series")


def test_acceptance_07_eqzred():
    for d in range(0, 4):
        for r in range(1, 4):
            ok, detail = check_eqzred(d, r, 8)
            assert ok, detail
    _report(7, "Euler-operator identities for d <= 3, r <= 3 at q-weight 8")


def test_acceptance_08_kp():
    r8 = r_series(8)
    for mono, _ in r8.terms():
        exps = dict(mono)
        assert exps.get(PSI_VAR, 0) >= 0 and exps.get(XI_VAR, 0) >= 0
    tr = r8.truncation
    t1 = GradedSeries.var(tr, svar(1))
    t2 = GradedSeries.var(tr, svar(2))
    t3 = GradedSeries.var(tr, svar(3))
    psi = GradedSeries.var(tr, PSI_VAR)
    xi = GradedSeries.var(tr, XI_VAR)
    assert homogeneous_part(r8, 1) == t1
    assert homogeneous_part(r8, 2) == t1 * t1 * Fraction(-1, 2) + (xi + psi) * t2
    assert homogeneous_part(r8, 3) == (
        t1 * t1 * t1 * Fraction(1, 3)
        - (xi + psi) * t1 * t2 * 2
        + (xi + psi) * (xi + psi * 2) * t3
    )
    assert kp_residual(6).is_zero()
    _report(8, "residual function: displayed parts, polynomiality, KP equation")


def test_acceptance_09_special_degree(xtable):
    for k in range(1, 7):
        target = mono_from_vars([(qvar(k), 1)])
        via_recursion = zpoly_eval(h_poly((k,), xtable), k).coefficient(target)
        via_classical = h_lambda_series([(k,)], k)[0].coefficient(target)
        assert via_recursion == Fraction(1, k), k
        assert via_classical == Fraction(1, k), k
    _report(9, "coefficient of q_k in h_(k) equals 1/k for k <= 6, both pipelines")


def test_acceptance_10_pivot_and_reduced_agreement(xtable):
    keys = keys_up_to(5, 3, 2)
    for key in keys:
        base = compute_x(key, xtable)
        for i in range(len(key)):
            if key[i][0] < 1 or (i > 0 and key[i] == key[i - 1]):
                continue
            alt = compute_x(key, xtable, pivot_index=i)
            assert alt == base or zpoly_eval(alt - base, 10).is_zero(), (key, i)
    reduced = ReducedRecursion()
    compared = 0
    for key in keys:
        if not is_reduced_key(key):
            continue
        red = reduced.x_value(key)
        full = compute_x(key, xtable)
        assert red == full or zpoly_eval(red - full, 10).is_zero(), key
        compared += 1
    _report(10, f"pivot independence on {len(keys)} keys; reduced agreement on {compared}")
