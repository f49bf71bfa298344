"""Residual generating function of isolated singularities and its scaled KP
equation.

The tau function is assembled from scaled one-part Schur polynomials: with
s~_k the degree-k homogeneous part (weight of t_i is i) of
exp(-(t_1 + t_2 + ...)/psi),

    tau = 1 + xi s~_1 + xi (xi + psi) s~_2 + xi (xi + psi)(xi + 2 psi) s~_3 + ...

and the residual generating function is R = -(psi/xi) log tau.  R solves
the first scaled KP equation

    d2R/dt2^2 = 2 psi xi (d2R/dt1^2)^2 + (4/3) d2R/dt1dt3
                - (1/3) psi^2 d4R/dt1^4.

Here the t_k live in their own alphabet (weight k).  s~_k carries
psi^(-len(mu)) on t_mu, so this module builds tau at t_k -> psi t_k, where
every exponent is a natural number: s~_k(psi t) = h~_k(t) is the degree-k
part of exp(-(t_1 + t_2 + ...)), and R(psi t) = -(psi/xi) log tau(psi t) is
mapped back to R term by term.  Every coefficient of log tau is divisible by
xi, and no negative power of psi is left in R; both are asserted, not assumed.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import aut_order, check_bound, partitions_of
from .series import (
    PACKER,
    PSI_VAR,
    S,
    XI_VAR,
    GradedSeries,
    Truncation,
    key_weights,
    mono_from_vars,
    partition_mono,
    svar,
)


def scaled_schur(k: int, trunc: Truncation) -> GradedSeries:
    """h~_k = s~_k(psi t): sum over partitions mu of k of (-1)^len(mu) t_mu / |Aut mu|."""
    check_bound(k, 0, "k")
    terms = {partition_mono(svar, mu): Fraction((-1) ** len(mu), aut_order(mu))
             for mu in partitions_of(k)}
    return GradedSeries(trunc, terms)


def tau_series(t_weight_bound: int) -> GradedSeries:
    """tau(psi t), truncated at total t-weight t_weight_bound."""
    trunc = Truncation(s_weight=check_bound(t_weight_bound, 1, "t_weight_bound"))
    total = GradedSeries.one(trunc)
    xi = mono_from_vars([(XI_VAR, 1)])
    psi = mono_from_vars([(PSI_VAR, 1)])
    rising = GradedSeries.one(trunc)  # xi (xi + psi) ... (xi + (k-1) psi)
    for k in range(1, t_weight_bound + 1):
        rising = rising * GradedSeries(trunc, {xi: Fraction(1), psi: Fraction(k - 1)})
        total = total + rising * scaled_schur(k, trunc)
    return total


def r_from_tau(tau: GradedSeries) -> GradedSeries:
    """R = -(psi/xi) log tau, for tau given at t_k -> psi t_k (tau_series).

    Each term c psi^a xi^b t_mu of log tau maps to
    -c psi^(a + 1 - len(mu)) xi^(b - 1) t_mu, a term of R: its packed key
    moves by -1 on the xi field and 1 - len(mu) on the psi field.  Raises
    ValueError if some term of log tau is not divisible by xi, or if a
    negative psi-power survives in R; either signals a wrong tau.
    """
    xi, psi = PACKER.unit(XI_VAR), PACKER.unit(PSI_VAR)

    def image(key):
        exps = dict(PACKER.fields(key))
        if XI_VAR not in exps:
            raise ValueError(f"log tau term {PACKER.unpack(key)} is not divisible by xi")
        shift = 1 - sum(e for var, e in exps.items() if var[0] == S)  # psi^(1 - len(mu))
        if exps.get(PSI_VAR, 0) + shift < 0:
            raise ValueError(f"negative psi power survives in R, from log tau term {PACKER.unpack(key)}")
        return ((key - xi + shift * psi, -1),)

    return tau.log().map_terms(image)


def r_series(t_weight_bound: int) -> GradedSeries:
    """The residual generating function R, exact up to the t-weight bound."""
    return r_from_tau(tau_series(t_weight_bound))


def homogeneous_part(series: GradedSeries, t_weight: int) -> GradedSeries:
    """Terms of exact total t-weight t_weight >= 0 (the s-alphabet grading)."""
    check_bound(t_weight, 0, "t_weight")
    return series.map_terms(lambda k: ((k, 1),) if key_weights(k)[4] == t_weight else ())


def kp_residual_of(r: GradedSeries, t_weight_bound: int) -> GradedSeries:
    """LHS - RHS of the first scaled KP equation, truncated to the bound.

    The input r must be exact at least up to t_weight_bound + 4, since the
    equation involves fourth derivatives in t_1.  Each derivative is
    truncated to the bound before any product, so no product forms a weight
    the result drops; the fourth derivative is taken from the untruncated
    second, whose weights past the bound it lowers into the window.
    """
    t1, t2, t3 = svar(1), svar(2), svar(3)
    window = Truncation(s_weight=check_bound(t_weight_bound, 0, "t_weight_bound"))
    d_t1 = r.diff(t1)
    d2_t1 = d_t1.diff(t1)
    d4_t1 = d2_t1.diff(t1).diff(t1).truncate(window)
    d2_t1 = d2_t1.truncate(window)
    d2_t2 = r.diff(t2).diff(t2).truncate(window)
    d_t1_t3 = d_t1.diff(t3).truncate(window)
    psi_xi = GradedSeries.var(window, PSI_VAR) * GradedSeries.var(window, XI_VAR)
    psi_sq = GradedSeries.var(window, PSI_VAR, 2)
    return (
        d2_t2
        - psi_xi * (d2_t1 * d2_t1) * 2
        - d_t1_t3 * Fraction(4, 3)
        + psi_sq * d4_t1 * Fraction(1, 3)
    )


def kp_residual(t_weight_bound: int) -> GradedSeries:
    """Residual of the first scaled KP equation; identically zero when the
    tau-function formula is right."""
    check_bound(t_weight_bound, 0, "t_weight_bound")
    r = r_series(t_weight_bound + 4)
    return kp_residual_of(r, t_weight_bound)
