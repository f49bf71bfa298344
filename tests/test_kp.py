from fractions import Fraction

import pytest

from doublehurwitz.kp import (
    homogeneous_part,
    kp_residual,
    kp_residual_of,
    r_from_tau,
    r_series,
    scaled_schur,
    tau_series,
)
from doublehurwitz.series import (
    PSI_VAR,
    XI_VAR,
    GradedSeries,
    Truncation,
    mono_from_vars,
    svar,
)


def _shifted(mono: tuple, deltas: dict) -> tuple:
    """mono with the exponents of deltas' letters shifted, on a dict of its
    own: the reference does not share the package's monomial canonicaliser."""
    exps = dict(mono)
    for var, d in deltas.items():
        exps[var] = exps.get(var, 0) + d
    assert all(e >= 0 for var, e in exps.items() if var != PSI_VAR), (mono, deltas)
    return tuple(sorted((var, e) for var, e in exps.items() if e))


def test_scaled_schur_low_orders():
    tr = Truncation(s_weight=3)
    assert scaled_schur(0, tr) == GradedSeries.one(tr)
    s1 = scaled_schur(1, tr)
    assert s1.term_dict() == {
        mono_from_vars([(svar(1), 1), (PSI_VAR, -1)]): Fraction(-1)
    }
    s2 = scaled_schur(2, tr)
    assert s2.term_dict() == {
        mono_from_vars([(svar(2), 1), (PSI_VAR, -1)]): Fraction(-1),
        mono_from_vars([(svar(1), 2), (PSI_VAR, -2)]): Fraction(1, 2),
    }


def test_scaled_schur_sums_to_exponential():
    # the s~_k are the homogeneous slices of exp(-(t_1+...+t_n)/psi)
    tr = Truncation(s_weight=4)
    total = GradedSeries.zero(tr)
    for k in range(5):
        total = total + scaled_schur(k, tr)
    seed = GradedSeries(
        tr,
        {
            mono_from_vars([(svar(i), 1), (PSI_VAR, -1)]): Fraction(-1)
            for i in range(1, 5)
        },
    )
    assert total == seed.exp()


def test_r_series_displayed_parts():
    r = r_series(4)
    tr = r.truncation
    t1 = GradedSeries.var(tr, svar(1))
    t2 = GradedSeries.var(tr, svar(2))
    t3 = GradedSeries.var(tr, svar(3))
    psi = GradedSeries.var(tr, PSI_VAR)
    xi = GradedSeries.var(tr, XI_VAR)
    assert homogeneous_part(r, 1) == t1
    assert homogeneous_part(r, 2) == t1 * t1 * Fraction(-1, 2) + (xi + psi) * t2
    assert homogeneous_part(r, 3) == (
        t1 * t1 * t1 * Fraction(1, 3)
        - (xi + psi) * t1 * t2 * 2
        + (xi + psi) * (xi + psi * 2) * t3
    )


def test_r_series_is_polynomial_in_psi_xi():
    r = r_series(8)  # construction itself asserts polynomiality
    for mono, _ in r.terms():
        exps = dict(mono)
        assert exps.get(PSI_VAR, 0) >= 0
        assert exps.get(XI_VAR, 0) >= 0


def test_kp_residual_vanishes():
    assert kp_residual(4).is_zero()


def test_kp_residual_vanishes_at_benchmarked_weight():
    # the weight `kp-check --max-t-weight 8` runs; log tau is taken at weight 12
    assert kp_residual(8).is_zero()


def test_log_tau_divisible_by_xi():
    tau = tau_series(4)
    r_from_tau(tau)  # would raise otherwise
    broken = tau + GradedSeries(
        tau.truncation, {mono_from_vars([(svar(1), 1)]): Fraction(1, 3)}
    )
    with pytest.raises(ValueError):
        r_from_tau(broken)


def test_perturbed_tau_fails_kp():
    bound = 8
    tau = tau_series(bound)
    # flip one scaled-schur coefficient: perturb the xi * s~_2 block
    bad = tau + GradedSeries(
        tau.truncation,
        {
            mono_from_vars([(XI_VAR, 1), (svar(2), 1), (PSI_VAR, -1)]): Fraction(1, 2)
        },
    )
    with pytest.raises(ValueError, match="negative psi power"):
        r_from_tau(bad)
    # R = -(psi/xi) log tau taken by hand, keeping the negative psi powers,
    # fails the KP equation as well
    log_bad = bad.log()
    r_bad = GradedSeries.from_ints(
        bad.truncation,
        {_shifted(m, {XI_VAR: -1, PSI_VAR: 1}): -n for m, n in log_bad.nums.items()},
        log_bad.den,
    )
    assert not kp_residual_of(r_bad, bound - 4).is_zero()
