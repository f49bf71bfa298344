"""Verification suites: every structural identity in the package, bundled
into named, deterministic checks.  Each suite returns its checks as a list
of (name, ok, detail) rows; the CLI renders them.

Suite ids (fixed, consumed by the CLI):

* paper-examples      -- golden h-polynomials and the 1/k degree coefficients
* triple-agreement    -- oracle vs cut-and-join vs character formula,
                         plus the eigenbasis property of the Schur basis
* string-dilaton      -- string/dilaton identities on recursion-table keys
* psi-string-dilaton  -- same identities for the correction series Psi
* eqzred              -- Euler-operator identities on the generators z_{d,r}
* kp                  -- residual function: displayed parts, polynomiality,
                         and the first scaled KP equation
* pivot-independence  -- recursion pivot freedom and reduced-vs-full agreement
* bridge              -- recursion output equals the classical q-series
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import factorial

from .cutjoin import (
    cut_join_apply,
    evolve,
    frobenius_eH,
    h_lambda_series,
    hurwitz_mono,
)
from .golden import GOLDEN_H_POLYS
from .kp import homogeneous_part, kp_residual_of, r_series
from .oracle import oracle_count, oracle_count_calibrated
from .partitions import aut_order, check_profile, partitions_of
from .recursion import (
    XTable,
    compute_x,
    dilaton_identity_sides,
    h_poly,
    keys_up_to,
    string_identity_sides,
)
from .reduced import ReducedRecursion, is_reduced_key
from .series import GradedSeries, PSI_VAR, Truncation, XI_VAR, svar
from .symgroup import central_weight, schur_in_power_sums
from .zseries import check_eqzred, check_psi_string_dilaton, zpoly_eval, zpoly_values_equal


# ---------------------------------------------------------------------------
# Suite ranges.  run_suite calls every suite without arguments, so these are
# the one place to widen a check.  Each *_Q_WEIGHT is the q-weight up to which
# two sides are compared as q-series.

PAPER_EVAL_Q_WEIGHT = 10
PAPER_MAX_DEGREE = 6  # the 1/k degree coefficient of h_(k,) for k <= PAPER_MAX_DEGREE
TRIPLE_MAX_K = 4  # degree of the oracle comparison
TRIPLE_MAX_M = 4  # branch points of the oracle comparison
TRIPLE_EVOLVE_Q_WEIGHT = 4  # evolve vs frobenius_eH up to these bounds
TRIPLE_EVOLVE_BETA = 4
TRIPLE_SCHUR_MAX_WEIGHT = 6  # Schur eigenvectors s_lam for |lam| <= TRIPLE_SCHUR_MAX_WEIGHT
STRING_DILATON_MAX_LAM_WEIGHT = 3  # keys_up_to(this, STRING_DILATON_MAX_R, ..._MAX_NU_WEIGHT)
STRING_DILATON_MAX_R = 3
STRING_DILATON_MAX_NU_WEIGHT = 2
STRING_DILATON_EVAL_Q_WEIGHT = 8
PSI_MAX_A = 3  # Psi_{a,ell} for a <= PSI_MAX_A, 1 <= ell <= PSI_MAX_ELL
PSI_MAX_ELL = 4
PSI_T_WEIGHT_MARGIN = 8  # each Psi_{a,ell} checked up to t-weight a + ell + this
EQZRED_MAX_D = 3  # z_{d,r} for d <= EQZRED_MAX_D, 1 <= r <= EQZRED_MAX_R
EQZRED_MAX_R = 3
EQZRED_Q_WEIGHT = 8
KP_R_T_WEIGHT = 8  # R up to this t-weight
KP_RESIDUAL_T_WEIGHT = 6  # the KP residual up to this t-weight
PIVOT_MAX_LAM_WEIGHT = 5  # keys_up_to(PIVOT_MAX_LAM_WEIGHT, PIVOT_MAX_R, PIVOT_MAX_NU_WEIGHT)
PIVOT_MAX_R = 3
PIVOT_MAX_NU_WEIGHT = 2
PIVOT_EVAL_Q_WEIGHT = 10
BRIDGE_MAX_WEIGHT = 6  # h_lam for |lam| <= BRIDGE_MAX_WEIGHT, len(lam) <= BRIDGE_MAX_LEN
BRIDGE_MAX_LEN = 3
BRIDGE_Q_WEIGHT = 8


def suite_paper_examples() -> list:
    """The seven golden h-polynomials, plus the 1/k special-degree values."""
    rows = []
    table = XTable()
    for lam in sorted(GOLDEN_H_POLYS, key=lambda t: (sum(t), t)):
        computed = h_poly(lam, table)
        expected = GOLDEN_H_POLYS[lam]
        exact = computed == expected
        series_match = zpoly_values_equal(computed, expected, PAPER_EVAL_Q_WEIGHT)
        detail = "exact polynomial match" if exact else (
            "forms differ but q-series agree" if series_match else
            f"MISMATCH: computed {computed.pretty()} vs expected {expected.pretty()}"
        )
        rows.append((f"h_{lam}", series_match, detail))
    for k in range(1, PAPER_MAX_DEGREE + 1):
        coeff = zpoly_eval(h_poly((k,), table), k).coefficient(hurwitz_mono(0, (), (k,)))
        rows.append((
            f"degree-coefficient q_{k} of h_({k},) equals 1/{k}",
            coeff == Fraction(1, k),
            f"got {coeff}",
        ))
    return rows


def suite_triple_agreement() -> list:
    """Calibrated oracle vs generating-function coefficients, the sentinel,
    the two-formula identity, and the eigenbasis property."""
    rows = []

    sentinel_lit = oracle_count(0, (2,), (1, 1))
    sentinel_cal = oracle_count_calibrated(0, (2,), (1, 1))
    rows.append((
        "sentinel ((2),(1,1)): literal 1/2, calibrated 1",
        sentinel_lit == Fraction(1, 2) and sentinel_cal == 1,
        f"literal={sentinel_lit}, calibrated={sentinel_cal}",
    ))

    H = evolve(TRIPLE_MAX_K, TRIPLE_MAX_M)
    mismatches = []
    checked = 0
    for K in range(1, TRIPLE_MAX_K + 1):
        for lam in partitions_of(K):
            for mu in partitions_of(K):
                for g in count():
                    m = check_profile(g, lam, mu)[2]
                    if m > TRIPLE_MAX_M:
                        break
                    lhs = (H.coefficient(hurwitz_mono(m, lam, mu)) * factorial(m)
                           * aut_order(lam) * aut_order(mu))
                    rhs = oracle_count_calibrated(g, lam, mu)
                    checked += 1
                    if lhs != rhs:
                        mismatches.append((g, lam, mu, lhs, rhs))
    rows.append((
        f"H-coefficients match calibrated oracle (K<={TRIPLE_MAX_K}, m<={TRIPLE_MAX_M})",
        not mismatches,
        f"{checked} coefficients checked" if not mismatches else f"mismatches: {mismatches}",
    ))

    same = (evolve(TRIPLE_EVOLVE_Q_WEIGHT, TRIPLE_EVOLVE_BETA)
            == frobenius_eH(TRIPLE_EVOLVE_Q_WEIGHT, TRIPLE_EVOLVE_BETA).log())
    rows.append((
        "evolution and character formula agree "
        f"(q<={TRIPLE_EVOLVE_Q_WEIGHT}, beta<={TRIPLE_EVOLVE_BETA})",
        same,
        "",
    ))

    bad = []
    for k in range(1, TRIPLE_SCHUR_MAX_WEIGHT + 1):
        for lam in partitions_of(k):
            trunc = Truncation(p_weight=k)
            s = schur_in_power_sums(lam, trunc)
            if cut_join_apply(s) != s.scalar_mul(central_weight(lam)):
                bad.append(lam)
    rows.append((
        f"Schur polynomials are cut-and-join eigenvectors (|lam|<={TRIPLE_SCHUR_MAX_WEIGHT})",
        not bad,
        str(bad) if bad else "",
    ))
    return rows


def suite_string_dilaton() -> list:
    """The string and dilaton identities on every key in the STRING_DILATON_*
    ranges, the two sides compared as q-series up to
    STRING_DILATON_EVAL_Q_WEIGHT; each check lists the keys that fail."""
    table = XTable()
    strings, dilatons = [], []
    for rest in keys_up_to(
        STRING_DILATON_MAX_LAM_WEIGHT, STRING_DILATON_MAX_R, STRING_DILATON_MAX_NU_WEIGHT
    ):
        for sides, failed in ((string_identity_sides, strings), (dilaton_identity_sides, dilatons)):
            lhs, rhs = sides(rest, table)
            if not zpoly_values_equal(lhs, rhs, STRING_DILATON_EVAL_Q_WEIGHT):
                failed.append(rest)
    return [
        (f"string equation on keys (sum lam<={STRING_DILATON_MAX_LAM_WEIGHT}, "
         f"sum nu<={STRING_DILATON_MAX_NU_WEIGHT}, r<={STRING_DILATON_MAX_R})",
         not strings,
         str(strings) if strings else ""),
        ("dilaton equation on same keys", not dilatons, str(dilatons) if dilatons else ""),
    ]


def suite_psi_string_dilaton() -> list:
    rows = []
    for a in range(PSI_MAX_A + 1):
        for ell in range(1, PSI_MAX_ELL + 1):
            ok, detail = check_psi_string_dilaton(a, ell, a + ell + PSI_T_WEIGHT_MARGIN)
            rows.append((f"Psi_({a},{ell})", ok, detail))
    return rows


def suite_eqzred() -> list:
    rows = []
    for d in range(EQZRED_MAX_D + 1):
        for r in range(1, EQZRED_MAX_R + 1):
            ok, detail = check_eqzred(d, r, EQZRED_Q_WEIGHT)
            rows.append((f"z_({d},{r})", ok, detail))
    return rows


def suite_kp() -> list:
    """One R, exact up to the weight the residual reads, serves every check:
    its displayed parts are read from it truncated to KP_R_T_WEIGHT."""
    polynomial = f"R is polynomial in psi and xi up to t-weight {KP_R_T_WEIGHT}"
    try:
        r_full = r_series(max(KP_R_T_WEIGHT, KP_RESIDUAL_T_WEIGHT + 4))
    except ValueError as exc:
        return [(polynomial, False, str(exc))]
    rows = [(polynomial, True, "")]

    trunc = Truncation(s_weight=KP_R_T_WEIGHT)
    r = r_full.truncate(trunc)
    t1 = GradedSeries.var(trunc, svar(1))
    t2 = GradedSeries.var(trunc, svar(2))
    t3 = GradedSeries.var(trunc, svar(3))
    psi = GradedSeries.var(trunc, PSI_VAR)
    xi = GradedSeries.var(trunc, XI_VAR)
    expected = {
        1: t1,
        2: t1 * t1 * Fraction(-1, 2) + (xi + psi) * t2,
        3: t1 * t1 * t1 * Fraction(1, 3) - (xi + psi) * t1 * t2 * 2
        + (xi + psi) * (xi + psi * 2) * t3,
    }
    for d, series in expected.items():
        got = homogeneous_part(r, d)
        rows.append((f"R degree-{d} part", got == series, got.pretty() if got != series else ""))

    residual = kp_residual_of(r_full, KP_RESIDUAL_T_WEIGHT)
    rows.append((
        f"first scaled KP equation holds up to t-weight {KP_RESIDUAL_T_WEIGHT}",
        residual.is_zero(),
        "" if residual.is_zero() else f"first offender: {residual.terms()[0]}",
    ))
    return rows


def suite_pivot_independence() -> list:
    """Pivot freedom of the recursion and agreement with the reduced engine."""
    rows = []
    table = XTable()
    keys = keys_up_to(PIVOT_MAX_LAM_WEIGHT, PIVOT_MAX_R, PIVOT_MAX_NU_WEIGHT)

    pivot_bad = []
    for key in keys:
        base = compute_x(key, table)
        for i in range(1, len(key)):
            if key[i][0] < 1 or key[i] == key[0]:
                continue
            alt = compute_x(key, table, pivot_index=i)
            if not zpoly_values_equal(alt, base, PIVOT_EVAL_Q_WEIGHT):
                pivot_bad.append((key, key[i]))
    rows.append((
        f"pivot independence on {len(keys)} keys (sum lam<={PIVOT_MAX_LAM_WEIGHT}, r<={PIVOT_MAX_R})",
        not pivot_bad,
        str(pivot_bad) if pivot_bad else "",
    ))

    reduced = ReducedRecursion()
    red_bad = []
    exact_matches = 0
    compared = 0
    for key in keys:
        if not is_reduced_key(key):
            continue
        compared += 1
        full = compute_x(key, table)
        red = reduced.x_value(key)
        if red == full:
            exact_matches += 1
        if not zpoly_values_equal(red, full, PIVOT_EVAL_Q_WEIGHT):
            red_bad.append(key)
    rows.append((
        f"reduced-vs-full agreement on {compared} representable keys",
        not red_bad,
        f"{exact_matches}/{compared} agree in exact polynomial form" if not red_bad else str(red_bad),
    ))
    return rows


def suite_bridge() -> list:
    """Recursion values evaluated as q-series equal the classical computation."""
    rows = []
    table = XTable()
    lams = [lam for k in range(1, BRIDGE_MAX_WEIGHT + 1) for lam in partitions_of(k)
            if len(lam) <= BRIDGE_MAX_LEN]
    for lam, classical in zip(lams, h_lambda_series(lams, BRIDGE_Q_WEIGHT)):
        recursive = zpoly_eval(h_poly(lam, table), BRIDGE_Q_WEIGHT)
        ok = classical == recursive
        detail = ""
        if not ok:
            diff = (classical - recursive).terms()
            detail = f"first differing coefficient: {diff[0]}"
        rows.append((f"h_{lam}", ok, detail))
    return rows


SUITES = {
    "paper-examples": suite_paper_examples,
    "triple-agreement": suite_triple_agreement,
    "string-dilaton": suite_string_dilaton,
    "psi-string-dilaton": suite_psi_string_dilaton,
    "eqzred": suite_eqzred,
    "kp": suite_kp,
    "pivot-independence": suite_pivot_independence,
    "bridge": suite_bridge,
}


def run_suite(name: str) -> list:
    """The named suite's checks, each a (name, ok, detail) row."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
