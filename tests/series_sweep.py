"""Exhaustive check of the int-numerator GradedSeries against the Fraction
reference.

``GradedSeries`` holds int numerators over one common denominator, and its
products, sums, derivatives and logarithms run on ints.  ``_FractionSeries``
from ``test_series.py`` keeps one Fraction per coefficient, with the kernels
as they were before.  The sweep runs the package's series pipelines both ways
and requires the same coefficients, as exact dicts:

* ``kp.r_series(b)`` for b <= 12, against the tau function of the paper,
  with its psi^-len(mu) on the reference's own Laurent monomials, built and
  its logarithm taken on the reference, then divided by xi and multiplied by
  -psi term by term (``kp`` builds tau at t -> psi t instead, with no
  negative exponent);
* ``frobenius_eH(K, m).log()`` for K <= 8, m <= 6;
* ``evolve(Q, 2Q - 2, max_genus=0)`` for Q <= 9, against the genus-0 slices stepped on the
  reference by the connected cut-and-join equation
  (m+1) H_{m+1} = W(H_m) + (1/2) sum_{a+b=m} J(H_a, H_b);
* ``zpoly_eval(h_poly(lam), 9)`` for every lam with |lam| <= 7 and at most 4
  parts, against a product of reference z-series per monomial;
* ``evolve(K, m).exp()`` for K <= 8, m <= 6, against the reference exp;
* products, squares, exps and logs of seeded random series over one
  truncation that bounds q, p, t, beta and s at once, each term also
  carrying psi (up to psi^6) and xi, so that one product meets all seven
  alphabets;
* ``kp.kp_residual_of(r_series(b + 4), b)`` for b = 6, 8 and 10, which
  truncates each derivative before its products, against the residual
  formed on the reference R at full weight and truncated at the end: for R
  itself, where both are zero, and for R plus three terms, where they are
  not.

Too slow for the tier-1 suite, and named without a ``test_`` prefix so pytest
does not collect it.

Run from the repository root:

    PYTHONPATH=src python tests/series_sweep.py

Exits 1 on any mismatch.
"""

import random
import sys
import time
from fractions import Fraction

from test_cutjoin import _loop_cut_join_apply
from test_series import _FractionSeries, reference_r_series

from doublehurwitz.cutjoin import evolve, frobenius_eH
from doublehurwitz.kp import kp_residual_of, r_series
from doublehurwitz.partitions import partitions_of
from doublehurwitz.recursion import XTable, h_poly
from doublehurwitz.series import (
    BETA_VAR,
    PSI_VAR,
    XI_VAR,
    GradedSeries,
    Truncation,
    mono_from_vars,
    pvar,
    qvar,
    svar,
    tvar,
)
from doublehurwitz.zseries import z_series, zpoly_eval


def reference_genus0_slices(q: int) -> list:
    """[H_0, ..., H_{2q-2}] of the genus-0 series, beta stripped."""
    trunc = Truncation(q_weight=q, p_weight=q)
    half = Fraction(1, 2)
    p = {n: _FractionSeries(trunc, {mono_from_vars([(pvar(n), 1)]): 1}) for n in range(1, q + 1)}
    slices = [_FractionSeries(trunc, {mono_from_vars([(pvar(n), 1), (qvar(n), 1)]): Fraction(1, n)
                                      for n in range(1, q + 1)})]
    derivatives = []  # derivatives[a][i] = i dH_a/dp_i
    for m in range(max(0, 2 * q - 2)):
        derivatives.append({i: slices[m].diff(pvar(i)).scalar_mul(i) for i in range(1, q + 1)})
        rhs = _FractionSeries.of(_loop_cut_join_apply(slices[m]))
        for a in range(m + 1):
            for i, da in derivatives[a].items():
                for j in range(1, q + 1 - i):
                    rhs = rhs + (p[i + j] * da * derivatives[m - a][j]).scalar_mul(half)
        # genus 0 in slice m + 1 means m + 3 parts
        kept = {mono: c for mono, c in rhs.items() if sum(e for _, e in mono) == m + 3}
        slices.append(_FractionSeries.from_terms(trunc, kept).scalar_mul(Fraction(1, m + 1)))
    return slices


def genus0_slices(q: int) -> list:
    slices = [{} for _ in range(max(1, 2 * q - 1))]
    for mono, coeff in evolve(q, max(0, 2 * q - 2), max_genus=0).items():
        slices[dict(mono).get(BETA_VAR, 0)][tuple(pair for pair in mono if pair[0] != BETA_VAR)] = coeff
    return slices


def reference_kp_residual(r: _FractionSeries, b: int) -> _FractionSeries:
    """The first scaled KP residual of r, every product formed at the full
    weight of r and the sum truncated to t-weight b at the end."""
    t1, t2, t3 = svar(1), svar(2), svar(3)
    trunc = r.truncation
    psi_xi = _FractionSeries(trunc, {mono_from_vars([(PSI_VAR, 1), (XI_VAR, 1)]): 1})
    psi_sq = _FractionSeries(trunc, {mono_from_vars([(PSI_VAR, 2)]): 1})
    d2_t1 = r.diff(t1).diff(t1)
    residual = (r.diff(t2).diff(t2) - (psi_xi * (d2_t1 * d2_t1)).scalar_mul(2)
                - r.diff(t1).diff(t3).scalar_mul(Fraction(4, 3))
                + (psi_sq * d2_t1.diff(t1).diff(t1)).scalar_mul(Fraction(1, 3)))
    return residual.truncate(Truncation(s_weight=b))


def kp_residual_pairs(b: int) -> list:
    """(kp_residual_of, reference residual) for R = r_series(b + 4), and
    for R plus terms at t-weights 4 and b + 4, whose residual is not 0."""
    r = r_series(b + 4)
    ref = _FractionSeries.from_terms(r.truncation, reference_r_series(b + 4))
    bump = {mono_from_vars([(svar(1), b + 4), (XI_VAR, 1)]): Fraction(1, 3),
            mono_from_vars([(svar(1), 2), (svar(2), 1), (PSI_VAR, 1)]): Fraction(2),
            mono_from_vars([(svar(2), (b + 4) // 2)]): Fraction(-1, 5)}
    return [(kp_residual_of(r, b), reference_kp_residual(ref, b)),
            (kp_residual_of(r + GradedSeries(r.truncation, bump), b),
             reference_kp_residual(ref + _FractionSeries(r.truncation, bump), b))]


def reference_zpoly_eval(poly, q: int) -> dict:
    trunc = Truncation(q_weight=q)
    total = _FractionSeries(trunc)
    for key, coeff in sorted(poly.terms.items()):
        prod = _FractionSeries.one(trunc)
        for d, r in key:
            prod = prod * _FractionSeries.of(z_series(d, r, q))
        total = total + prod.scalar_mul(coeff)
    return total.term_dict()


MIXED_TRUNCATION = Truncation(q_weight=3, p_weight=3, t_weight=3, beta_deg=2, s_weight=3)
MIXED_LETTERS = [qvar(1), qvar(2), pvar(1), pvar(2), tvar(0, 0), tvar(1, 0), tvar(0, 1), BETA_VAR,
                 svar(1), svar(2)]


def mixed_series(rng, n_terms: int) -> GradedSeries:
    """n_terms random terms over MIXED_TRUNCATION, no constant: one to three
    bounded letters times psi^a xi^b with 0 <= a <= 6 and 0 <= b <= 2."""
    terms: dict = {}
    while len(terms) < n_terms:
        letters = [(rng.choice(MIXED_LETTERS), 1) for _ in range(rng.randint(1, 3))]
        mono = mono_from_vars(letters + [(PSI_VAR, rng.randint(0, 6)), (XI_VAR, rng.randint(0, 2))])
        if MIXED_TRUNCATION.admits(mono):
            terms[mono] = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 12))
    return GradedSeries(MIXED_TRUNCATION, terms)


def mixed_cases(seed: int) -> list:
    """(name, int-form result, reference result) for one seed."""
    rng = random.Random(seed)
    a, b = mixed_series(rng, 24), mixed_series(rng, 24)
    ra, rb = _FractionSeries.of(a), _FractionSeries.of(b)
    one, ref_one = GradedSeries.one(MIXED_TRUNCATION), _FractionSeries.one(MIXED_TRUNCATION)
    small = mixed_series(rng, 5)
    rsmall = _FractionSeries.of(small)
    return [
        ("a * b", a * b, ra * rb),
        ("(a * b) * a", (a * b) * a, (ra * rb) * ra),
        ("exp(small)", small.exp(), rsmall.exp()),
        ("log(1 + small)", (one + small).log(), (ref_one + rsmall).log()),
    ]


def main() -> int:
    failures = 0

    def report(name, same, seconds):
        nonlocal failures
        failures += not same
        print(f"{name}: {'equal' if same else 'MISMATCH'} ({seconds:.2f} s)")

    for b in range(1, 13):
        start = time.perf_counter()
        report(f"r_series({b})", r_series(b).term_dict() == reference_r_series(b),
               time.perf_counter() - start)
    for k in range(1, 9):
        start = time.perf_counter()
        same = all(frobenius_eH(k, m).log().term_dict()
                   == _FractionSeries.of(frobenius_eH(k, m)).log().term_dict() for m in range(7))
        report(f"frobenius_eH({k}, m).log(), m <= 6", same, time.perf_counter() - start)
    for q in range(1, 10):
        start = time.perf_counter()
        same = genus0_slices(q) == [s.term_dict() for s in reference_genus0_slices(q)]
        report(f"evolve({q}, {max(0, 2 * q - 2)}, max_genus=0)", same, time.perf_counter() - start)
    table = XTable()
    lams = [lam for n in range(1, 8) for lam in partitions_of(n) if len(lam) <= 4]
    start = time.perf_counter()
    bad = [lam for lam in lams if zpoly_eval(h_poly(lam, table), 9).term_dict()
           != reference_zpoly_eval(h_poly(lam, table), 9)]
    report(f"zpoly_eval(h_poly(lam), 9), {len(lams)} lam" + (f", at {bad}" if bad else ""),
           not bad, time.perf_counter() - start)
    for k in range(1, 9):
        start = time.perf_counter()
        same = all(evolve(k, m).exp().term_dict() == _FractionSeries.of(evolve(k, m)).exp().term_dict()
                   for m in range(7))
        report(f"evolve({k}, m).exp(), m <= 6", same, time.perf_counter() - start)
    for seed in range(1, 9):
        start = time.perf_counter()
        bad = [name for name, got, ref in mixed_cases(seed) if got.term_dict() != ref.term_dict()]
        report(f"mixed-alphabet series, seed {seed}" + (f", at {bad}" if bad else ""),
               not bad, time.perf_counter() - start)
    for b in (6, 8, 10):
        start = time.perf_counter()
        (zero, ref_zero), (bumped, ref_bumped) = kp_residual_pairs(b)
        # the bumped residual must be nonzero, or comparing it shows nothing
        same = (zero.term_dict() == ref_zero.term_dict() == {}
                and bumped.term_dict() == ref_bumped.term_dict() != {})
        report(f"kp_residual_of(r_series({b + 4}), {b}), as is and bumped", same,
               time.perf_counter() - start)
    print(f"{failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
