"""Exhaustive check of evolve's direct evolution against the e^H logarithm,
of its genus and q-caps, and of h_lambda_series against the whole-series p_1
shift.

``cutjoin.evolve`` steps the connected series H by its own cut-and-join
equation.  ``graded_evolve`` below reaches the same H the other way, as it
was computed before: it evolves the disconnected e^H slice by slice and takes
a beta-slice logarithm with ``GradedSeries`` products, seeded by the generic
``exp()``.  The sweep requires equal H, as exact dicts, at every Q <= 9 with
B = 2Q - 2 (the genus-0 bounds of the h-series) and at (10, 6), (15, 2),
(16, 2), (10, 18), (11, 8) and (12, 4).  Equal H means equal
e^H = exp(H).  At each bound it also requires the ``exp()`` seeds
e^{+-H_0} to equal the Cauchy sums (both seeds come from
``test_cutjoin.py``), and ``evolve(Q, B, max_genus=G)`` to equal the
genus <= G terms of the full H for G = 0 and 1.  At every B = 2Q - 2 with
Q <= 10 it requires ``h_lambda_series`` to equal the reference read off the
p_1-shifted genus-0 part of the full H, for every lam with |lam| <= Q + 1:
``h_lambda_series`` evolves only on the q-parts that divide
q_lam' q_1^(Q - |lam'|) and reads p_mu q_lam' q_1^e by the p <-> q symmetry
of H, while the reference reads p_lam' p_1^e q_mu off the whole series.
For every K <= 8 it requires ``evolve(K, 9, q_cap=mu)`` to equal the terms of
``evolve(K, 9)`` whose q-part divides q_mu, for every mu of K, and
``hurwitz_number_by_series(g, lam, mu, "cutjoin")``, which evolves on the
divisors of q_mu, to equal m! times the coefficient of beta^m p_lam q_mu in
``evolve(K, 9)`` on every profile with g <= 2 and m <= 9.
Last, it runs ``compute-hurwitz --genus 0 --lambda K --mu 1^K --method
cutjoin`` through the CLI at K = 16 and 24 and requires K^(K-3), the
one-part count (each under 1 s).  At K = 16 the q_1-exponent of the top J
products reaches 16 = 2^4, the first exponent to need a fifth bit, and at
K = 24 the slices run to p-weight 24 and q_1^24; every product must pass
series.PACKER's width rule and decode whole.  It also requires the cutjoin
and frobenius numbers of (6,5,4,3,2,1)/(6,5,4,3,2,1) to agree (K = 21,
m = 10, under 2 s): the one cross check of the two methods above degree 20
on a profile of many parts, where J makes most of the products.  Too slow
for the tier-1 suite (about 25 s in all), and named without a ``test_``
prefix so pytest does not collect it.

Run from the repository root:

    PYTHONPATH=src python tests/evolve_sweep.py

Exits 1 on any mismatch.
"""

import io
import sys
import tempfile
import time
from fractions import Fraction
from math import factorial

from test_cutjoin import (
    _cauchy_seed,
    _diagonal_seed,
    _genus,
    _q_part_divides,
    _shifted_h_lambda_series,
    set_beta_one,
    substitute_p1_shift,
)

from doublehurwitz.cli import run
from doublehurwitz.cutjoin import (
    cut_join_apply,
    evolve,
    genus0_part,
    h_lambda_series,
    hurwitz_mono,
    hurwitz_number_by_series,
)
from doublehurwitz.exact import div
from doublehurwitz.partitions import partitions_of
from doublehurwitz.series import BETA_VAR, GradedSeries, Truncation, mono_from_vars

BOUNDS = [(q, max(0, 2 * q - 2)) for q in range(1, 10)] + [
    (10, 6), (15, 2), (16, 2), (10, 18), (11, 8), (12, 4)
]


def graded_evolve(q_weight_bound: int, beta_bound: int) -> GradedSeries:
    """Compute the logarithm H of e^H = sum_m beta^m W^m(e^{H_0})/m!.

    The logarithm is taken slice-by-slice in the beta-grading: with
    e^H = sum E_m beta^m and H = sum H_m beta^m, differentiating
    e^H in beta gives m E_m = sum_{b=1}^{m} b H_b E_{m-b}, which determines
    H_m from lower slices once H_0 = sum p_n q_n / n is known.

    The slices are evolved on integer numerators over one common
    denominator D = Q! B! (Q = q_weight_bound, B = beta_bound).  The
    coefficient of beta^m p_lam q_mu in e^H or in H is a count of
    transposition tuples (disconnected or connected covers) over |lam|! m!,
    which divides D; so D E_m, D H_m and D e^{-H_0} have integer
    coefficients, and so does D (H_m E_0), whose terms are products of an
    H-coefficient over d! m! and a 1/z_nu over |nu|!, with d + |nu| <= Q.
    In numerators the steps read

        D E_m = W(D E_{m-1}) / m,
        D (H_m E_0) = (m D^2 E_m - sum_{b<m} b (D H_b)(D E_{m-b})) / (m D),
        D H_m = (D (H_m E_0)) (D e^{-H_0}) / D,

    every division is checked to be exact, and each coefficient becomes a
    Fraction once, at the end.
    """
    if q_weight_bound < 1 or beta_bound < 0:
        raise ValueError("need q_weight_bound >= 1 and beta_bound >= 0")
    trunc = Truncation(
        q_weight=q_weight_bound, p_weight=q_weight_bound, beta_deg=beta_bound
    )
    D = factorial(q_weight_bound) * factorial(beta_bound)

    def numerators(series: GradedSeries) -> GradedSeries:
        return GradedSeries(
            trunc, {m: div(c.numerator * D, c.denominator) for m, c in series.items()}
        )

    def divided(series: GradedSeries, d: int) -> GradedSeries:
        return GradedSeries(trunc, {m: div(c, d) for m, c in series.items()})

    h0 = _diagonal_seed(trunc, q_weight_bound)
    e0, e0_inv = h0.exp(), (-h0).exp()
    if e0 != _cauchy_seed(trunc, q_weight_bound, 1) or e0_inv != _cauchy_seed(trunc, q_weight_bound, -1):
        raise AssertionError(f"exp() seeds differ from the Cauchy sums at Q = {q_weight_bound}")
    e0_inv = numerators(e0_inv)

    E = [numerators(e0)]  # E[m] = D E_m
    for m in range(1, beta_bound + 1):
        E.append(divided(cut_join_apply(E[m - 1]), m))

    Hs = [numerators(h0)]  # Hs[m] = D H_m
    for m in range(1, beta_bound + 1):
        acc = {mono: m * D * c for mono, c in E[m].items()}  # m D^2 E_m
        for b in range(1, m):
            for mono, c in (Hs[b] * E[m - b]).items():
                acc[mono] = acc.get(mono, 0) - b * c
        hm_e0 = divided(GradedSeries(trunc, acc), m * D)  # D H_m E_0
        Hs.append(divided(hm_e0 * e0_inv, D))

    H: dict = {}
    for m in range(beta_bound + 1):
        beta_m = ((BETA_VAR, m),) if m else ()
        for mono, c in Hs[m].items():
            H[mono_from_vars(beta_m + mono)] = Fraction(c, D)
    return GradedSeries(trunc, H)


def genus_cap_mismatches(q: int, b: int, full: GradedSeries) -> list:
    """The caps G in (0, 1) at which evolve(q, b, max_genus=G) is not the
    genus <= G part of the full H."""
    return [cap for cap in (0, 1) if evolve(q, b, max_genus=cap).term_dict()
            != {m: c for m, c in full.items() if _genus(m) <= cap}]


def h_series_mismatches(q: int, full: GradedSeries) -> list:
    """The lam with |lam| <= q + 1 whose h_lambda_series differs from the
    reference read off the p_1-shifted genus-0 part of full = evolve(q, 2q - 2)."""
    shifted = substitute_p1_shift(set_beta_one(genus0_part(full)))
    lams = [lam for n in range(1, q + 2) for lam in partitions_of(n)]
    return [lam for lam, h in zip(lams, h_lambda_series(lams, q), strict=True)
            if h != _shifted_h_lambda_series(shifted, lam, q)]


def q_cap_mismatches(K: int) -> tuple:
    """(number of checks, the mu and profiles (g, lam, mu) at degree K where
    the evolution on the divisors of q_mu differs from the full evolve(K, 9))."""
    full = evolve(K, 9)
    bad, checks = [], 0
    for mu in partitions_of(K):
        checks += 1
        expected = {m: c for m, c in full.items() if _q_part_divides(m, mu)}
        if evolve(K, 9, q_cap=mu).term_dict() != expected:
            bad.append(mu)
    for g in range(3):
        for lam in partitions_of(K):
            for mu in partitions_of(K):
                m = len(lam) + len(mu) + 2 * g - 2
                if m <= 9:
                    checks += 1
                    expected = full.coefficient(hurwitz_mono(m, lam, mu)) * factorial(m)
                    if hurwitz_number_by_series(g, lam, mu, "cutjoin") != expected:
                        bad.append((g, lam, mu))
    return checks, bad


def one_part_mismatch(K: int) -> bool:
    """Whether compute-hurwitz at genus 0, lam = (K), mu = 1^K by cutjoin
    misses K^(K-3), the one-part count."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as cache_dir:
        code = run(["--cache-dir", cache_dir, "compute-hurwitz", "--genus", "0", "--lambda", str(K),
                    "--mu", ",".join(["1"] * K), "--method", "cutjoin"], out=out, err=err)
    got = out.getvalue().strip() if code == 0 else f"exit {code}: {err.getvalue().strip()}"
    bad = got != f"{K ** (K - 3)}/1"
    print(f"compute-hurwitz --lambda {K} --mu 1^{K} --method cutjoin: {got}"
          f" ({'MISMATCH' if bad else 'equal'} to {K}^{K - 3};"
          f" {time.perf_counter() - start:.2f} s)")
    return bad


def many_part_methods_mismatch() -> bool:
    """Whether the cutjoin and frobenius numbers of (6,5,4,3,2,1)/(6,5,4,3,2,1)
    at genus 0 differ."""
    lam = (6, 5, 4, 3, 2, 1)
    start = time.perf_counter()
    numbers = [hurwitz_number_by_series(0, lam, lam, method) for method in ("cutjoin", "frobenius")]
    bad = numbers[0] != numbers[1]
    print(f"(6,5,4,3,2,1)/(6,5,4,3,2,1): cutjoin {numbers[0]}, frobenius {numbers[1]}"
          f" ({'MISMATCH' if bad else 'equal'}; {time.perf_counter() - start:.2f} s)")
    return bad


def main() -> int:
    failures = 0
    for q, b in BOUNDS:
        start = time.perf_counter()
        new = evolve(q, b)
        direct_seconds = time.perf_counter() - start
        start = time.perf_counter()
        ref = graded_evolve(q, b)
        log_seconds = time.perf_counter() - start
        same = new.term_dict() == ref.term_dict()
        bad_caps = genus_cap_mismatches(q, b, new)
        bad_lams = h_series_mismatches(q, new) if b == max(0, 2 * q - 2) else []
        failures += (not same) + len(bad_caps) + len(bad_lams)
        print(f"evolve({q}, {b}): {len(new)} terms, "
              f"{'equal' if same else 'MISMATCH'} "
              f"(direct {direct_seconds:.2f} s, e^H logarithm {log_seconds:.2f} s)"
              + (f"; genus cap MISMATCH at G = {bad_caps}" if bad_caps else "; genus caps equal")
              + (f"; h_lambda_series MISMATCH at {bad_lams}" if bad_lams else ""))
    for K in range(1, 9):
        start = time.perf_counter()
        checks, bad = q_cap_mismatches(K)
        failures += len(bad)
        print(f"q-cap at K = {K}: {checks} checks, "
              + (f"MISMATCH at {bad}" if bad else "all equal")
              + f" ({time.perf_counter() - start:.2f} s)")
    failures += one_part_mismatch(16) + one_part_mismatch(24) + many_part_methods_mismatch()
    print(f"{len(BOUNDS)} bounds, 8 degrees of q-caps, two CLI checks and one cross-method check,"
          f" {failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
