from fractions import Fraction

import pytest

from doublehurwitz.kp import (
    homogeneous_part,
    kp_residual,
    r_from_tau,
    r_series,
    scaled_schur,
    tau_series,
)
from doublehurwitz.series import (
    PACKER,
    PSI_VAR,
    XI_VAR,
    GradedSeries,
    Truncation,
    mono_from_vars,
    svar,
)


def test_scaled_schur_low_orders():
    # s~_k at t -> psi t: the psi^-len(mu) of each t_mu is gone
    tr = Truncation(s_weight=3)
    assert scaled_schur(0, tr) == GradedSeries.one(tr)
    s1 = scaled_schur(1, tr)
    assert s1.term_dict() == {mono_from_vars([(svar(1), 1)]): Fraction(-1)}
    s2 = scaled_schur(2, tr)
    assert s2.term_dict() == {
        mono_from_vars([(svar(2), 1)]): Fraction(-1),
        mono_from_vars([(svar(1), 2)]): Fraction(1, 2),
    }


def test_scaled_schur_sums_to_exponential():
    # the h~_k are the homogeneous slices of exp(-(t_1+...+t_n))
    tr = Truncation(s_weight=4)
    total = GradedSeries.from_ints(tr, {})
    for k in range(5):
        total = total + scaled_schur(k, tr)
    seed = GradedSeries(tr, {mono_from_vars([(svar(i), 1)]): Fraction(-1) for i in range(1, 5)})
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


def _scaled_kp_residual(f: GradedSeries, t_weight_bound: int) -> GradedSeries:
    """psi F_22 - 2 xi F_11^2 - (4/3) psi F_13 + (1/3) psi F_1111, for
    F(t) = R(psi t) = -(psi/xi) log tau(psi t): with R(t) = F(t/psi), each
    t-derivative of R is 1/psi times that of F, so this is psi^3 times the
    KP residual of R, read at psi t, and has no negative psi power."""
    t1, t2, t3 = svar(1), svar(2), svar(3)
    tr = f.truncation
    psi, xi = GradedSeries.var(tr, PSI_VAR), GradedSeries.var(tr, XI_VAR)
    f11 = f.diff(t1).diff(t1)
    residual = psi * (
        f.diff(t2).diff(t2) - f.diff(t1).diff(t3) * Fraction(4, 3)
        + f11.diff(t1).diff(t1) * Fraction(1, 3)
    ) - xi * f11 * f11 * 2
    return residual.truncate(Truncation(s_weight=t_weight_bound))


def _scaled_r(tau: GradedSeries) -> GradedSeries:
    """F = -(psi/xi) log tau, for tau given at t -> psi t, unmapped: each
    packed key of log tau, every one divisible by xi, moves one unit from
    the xi field to the psi field."""
    log_tau = tau.log()
    xi_shift = PACKER.shift(XI_VAR)
    assert all(key >> xi_shift & PACKER.mask for key in log_tau.nums)
    move = PACKER.unit(PSI_VAR) - PACKER.unit(XI_VAR)
    return GradedSeries.from_ints(
        tau.truncation, {key + move: -n for key, n in log_tau.nums.items()}, log_tau.den
    )


def test_perturbed_tau_fails_kp():
    bound = 8
    tau = tau_series(bound)
    assert _scaled_kp_residual(_scaled_r(tau), bound - 4).is_zero()
    # perturb the xi * s~_2 block: xi psi^-1 t_2 / 2 in tau is xi t_2 / 2 at t -> psi t
    bad = tau + GradedSeries(
        tau.truncation, {mono_from_vars([(XI_VAR, 1), (svar(2), 1)]): Fraction(1, 2)}
    )
    with pytest.raises(ValueError, match="negative psi power"):
        r_from_tau(bad)
    # R = -(psi/xi) log tau taken by hand, at t -> psi t so that no negative
    # psi power is needed, fails the KP equation as well
    assert not _scaled_kp_residual(_scaled_r(bad), bound - 4).is_zero()
