"""Classical computation of the double Hurwitz generating function.

The disconnected generating function is the series e^H in beta, p, q with

    e^H = e^{beta W} e^{sum_n p_n q_n / n},

where W is the cut-and-join operator

    W = (1/2) sum_{i,j >= 1} ( (i+j) p_i p_j d/dp_{i+j}
                               + i j p_{i+j} d^2/(dp_i dp_j) ).

The same series has the character expansion ("Frobenius formula")

    e^H = sum_lam e^{w(lam) beta} s_lam(p) s_lam(q),

with w(lam) the cut-and-join eigenvalue; both constructions are implemented
and compared.  The connected function H = log e^H carries one monomial
beta^m p_lam q_mu per factorization type; genus 0 is the slice
m = len(lam) + len(mu) - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .partitions import aut_order, check_partition, partitions_of
from .series import (
    BETA_VAR,
    GradedSeries,
    P,
    Q,
    Truncation,
    mono_adjust,
    mono_from_vars,
    mono_mul,
    pvar,
    qvar,
)
from .symgroup import central_weight, schur_in_power_sums


def cut_join_apply(series: GradedSeries) -> GradedSeries:
    """Apply the cut-and-join operator W exactly (degree 0 in p-weight)."""
    half = Fraction(1, 2)
    out: dict = {}
    for mono, coeff in series.term_dict().items():
        pexps = [(var, e) for var, e in mono if var[0] == P]
        # cut: (i+j) p_i p_j d/dp_{i+j}, ordered pairs (i, j) with i+j = k
        for var, e in pexps:
            k = var[1]
            base = coeff * half * k * e
            for i in range(1, k):
                j = k - i
                new = mono_adjust(mono, {var: -1, pvar(i): +1, pvar(j): +1} if i != j
                                  else {var: -1, pvar(i): +2})
                out[new] = out.get(new, 0) + base
        # join: i j p_{i+j} d^2/(dp_i dp_j), ordered pairs of variables in mono
        for vi, ei in pexps:
            for vj, ej in pexps:
                i, j = vi[1], vj[1]
                mult = ei * (ej - 1) if vi == vj else ei * ej
                if mult == 0:
                    continue
                deltas = {pvar(i + j): +1}
                if vi == vj:
                    deltas[vi] = -2 + deltas.get(vi, 0)
                else:
                    deltas[vi] = -1
                    deltas[vj] = deltas.get(vj, 0) - 1
                new = mono_adjust(mono, deltas)
                out[new] = out.get(new, 0) + coeff * half * i * j * mult
    return GradedSeries.from_terms(series.truncation, out)


@dataclass(frozen=True)
class HurwitzPotential:
    """The pair (e^H, H) at fixed truncation bounds."""

    eH: GradedSeries
    H: GradedSeries
    q_weight_bound: int
    beta_bound: int


def _diagonal_seed(trunc: Truncation, q_weight_bound: int) -> GradedSeries:
    """H at beta = 0: sum_{n <= bound} p_n q_n / n."""
    terms = {
        mono_from_vars([(pvar(n), 1), (qvar(n), 1)]): Fraction(1, n)
        for n in range(1, q_weight_bound + 1)
    }
    return GradedSeries(trunc, terms)


def evolve(q_weight_bound: int, beta_bound: int) -> HurwitzPotential:
    """Compute e^H = sum_m beta^m W^m(e^{H_0})/m! and its logarithm H.

    The logarithm is taken slice-by-slice in the beta-grading: with
    e^H = sum E_m beta^m and H = sum H_m beta^m, differentiating
    e^H in beta gives m E_m = sum_{b=1}^{m} b H_b E_{m-b}, which determines
    H_m from lower slices once H_0 = sum p_n q_n / n is known.
    """
    if q_weight_bound < 1 or beta_bound < 0:
        raise ValueError("need q_weight_bound >= 1 and beta_bound >= 0")
    trunc = Truncation(
        q_weight=q_weight_bound, p_weight=q_weight_bound, beta_deg=beta_bound
    )
    h0 = _diagonal_seed(trunc, q_weight_bound)
    e0 = h0.exp()
    e0_inv = (-h0).exp()

    E = [e0]
    for m in range(1, beta_bound + 1):
        E.append(cut_join_apply(E[m - 1]).scalar_mul(Fraction(1, m)))

    Hs = [h0]
    for m in range(1, beta_bound + 1):
        acc = E[m]
        for b in range(1, m):
            acc = acc - (Hs[b] * E[m - b]).scalar_mul(Fraction(b, m))
        Hs.append(acc * e0_inv)

    eH = GradedSeries.zero(trunc)
    H = GradedSeries.zero(trunc)
    for m in range(beta_bound + 1):
        beta_m = ((BETA_VAR, m),) if m else ()
        eH = eH + E[m].mul_monomial(beta_m)
        H = H + Hs[m].mul_monomial(beta_m)
    return HurwitzPotential(eH=eH, H=H, q_weight_bound=q_weight_bound, beta_bound=beta_bound)


def frobenius_eH(q_weight_bound: int, beta_bound: int, cache_dir=None) -> GradedSeries:
    """Character expansion of e^H, truncated to the same bounds as evolve().

    When cache_dir is given, character tables are loaded from (or written to)
    their JSON cache there, one file per symmetric-group degree."""
    if q_weight_bound < 1 or beta_bound < 0:
        raise ValueError("need q_weight_bound >= 1 and beta_bound >= 0")
    from .symgroup import CharTable

    trunc = Truncation(
        q_weight=q_weight_bound, p_weight=q_weight_bound, beta_deg=beta_bound
    )
    total: dict = {}
    for k in range(0, q_weight_bound + 1):
        chartable = CharTable.load_or_build(cache_dir, k) if cache_dir and k else None
        for lam in partitions_of(k):
            w = central_weight(lam)
            spq = (schur_in_power_sums(lam, trunc, "p", chartable)
                   * schur_in_power_sums(lam, trunc, "q", chartable)).term_dict()
            for m in range(beta_bound + 1):
                if m > 0 and w == 0:
                    break
                coeff = Fraction(w**m, factorial(m))
                beta_m = ((BETA_VAR, m),) if m else ()
                for mono, c in spq.items():  # spq has no beta: stays in trunc
                    mm = mono_mul(mono, beta_m)
                    total[mm] = total.get(mm, 0) + c * coeff
    return GradedSeries.from_terms(trunc, total)


def genus0_part(H: GradedSeries) -> GradedSeries:
    """Keep the monomials beta^m p_lam q_mu with m = len(lam) + len(mu) - 2."""

    def keep(mono) -> bool:
        m = lp = lq = 0
        for var, e in mono:
            tag = var[0]
            if tag == P:
                lp += e
            elif tag == Q:
                lq += e
            elif var == BETA_VAR:
                m = e
        return m == lp + lq - 2

    kept = {m: c for m, c in H.term_dict().items() if keep(m)}
    return GradedSeries.from_terms(H.truncation, kept)


@lru_cache(maxsize=None)
def shifted_genus0(q_weight_bound: int) -> GradedSeries:
    """Genus-0 connected series at beta = 1 after the shift p_1 -> p_1 + 1.

    The coefficient of p_lam q_mu here is h_lam's q_mu coefficient divided by
    |Aut lam|.  The beta bound 2*Q - 2 is forced: a genus-0 term with
    |mu| <= Q has at most Q parts on each side, so m <= 2Q - 2.
    """
    beta_bound = max(0, 2 * q_weight_bound - 2)
    pot = evolve(q_weight_bound, beta_bound)
    g0 = genus0_part(pot.H)
    return g0.substitute_one(BETA_VAR).substitute_p1_shift()


def h_lambda_series(lam, q_weight_bound: int) -> GradedSeries:
    """The series h_lam(q): generating function of genus-0 covers with marked
    zeros of orders lam, any number of extra simple zeros, arbitrary profile
    over infinity, and simple branching elsewhere.

    Exact up to q-weight q_weight_bound; independent of the order of lam.
    """
    lam = check_partition(lam)
    if not lam:
        raise ValueError("lam must be a nonempty partition")
    shifted = shifted_genus0(q_weight_bound)
    target = mono_from_vars([(pvar(part), 1) for part in lam])
    aut = aut_order(lam)
    out: dict = {}
    for mono, coeff in shifted.term_dict().items():
        ppart = tuple((v, e) for v, e in mono if v[0] == P)
        if ppart != target:
            continue
        qpart = tuple((v, e) for v, e in mono if v[0] == Q)
        out[qpart] = out.get(qpart, 0) + coeff * aut
    return GradedSeries(Truncation(q_weight=q_weight_bound), out)


def hurwitz_number_by_series(g: int, lam, mu, method: str, cache_dir=None) -> Fraction:
    """Literal double Hurwitz number h_{g; lam, mu} read off the generating
    function: H-coefficient of beta^m p_lam q_mu times m!.

    method is "cutjoin" (evolution by W) or "frobenius" (character formula,
    then a logarithm)."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    K = sum(lam)
    if K != sum(mu) or K == 0:
        raise ValueError("lam and mu must partition the same positive integer")
    m = len(lam) + len(mu) + 2 * g - 2
    if m < 0:
        raise ValueError(f"no covers: m = {m} < 0")
    if method == "cutjoin":
        H = evolve(K, m).H
    elif method == "frobenius":
        H = frobenius_eH(K, m, cache_dir=cache_dir).log()
    else:
        raise ValueError(f"unknown method {method!r}")
    mono = mono_from_vars(
        [(pvar(i), 1) for i in lam] + [(qvar(i), 1) for i in mu] + ([(BETA_VAR, m)] if m else [])
    )
    return Fraction(H.coefficient(mono)) * factorial(m)
