"""Exhaustive checks of the character-formula method.

Three parts, each exact:

* ``cutjoin.frobenius_eH``, which sums the character table directly, against
  ``_schur_product_eH`` from ``test_cutjoin.py``, which multiplies one pair of
  Schur series per partition: equal e^H, as exact dicts, at every Q <= 9 with
  B <= 6 and at (10, 8) and (11, 2);
* the frobenius number ``hurwitz_number_by_series(g, lam, mu, "frobenius")``,
  read off the divisor lattice of beta^m p_lam q_mu, against m! times that
  coefficient of ``frobenius_eH(K, m).log()``, on every profile with K <= 8
  and m <= 8 (every genus that m admits);
* the frobenius number of (K)/(1^K) against K^(K-3), for K <= 20.

Too slow for the tier-1 suite (about 25 s, nearly all in the two references),
and named without a ``test_`` prefix so pytest does not collect it.

Run from the repository root:

    PYTHONPATH=src python tests/frobenius_sweep.py

Exits 1 on any mismatch.
"""

import sys
import time
from fractions import Fraction
from math import factorial

from test_cutjoin import _schur_product_eH

from doublehurwitz.cutjoin import frobenius_eH, hurwitz_mono, hurwitz_number_by_series
from doublehurwitz.partitions import partitions_of

BOUNDS = [(q, b) for q in range(1, 10) for b in range(7)] + [(10, 8), (11, 2)]
LATTICE_K, LATTICE_M = 8, 8
ONE_PART_K = 20


def table_against_schur_products() -> int:
    failures = 0
    for q, b in BOUNDS:
        start = time.perf_counter()
        new = frobenius_eH(q, b).term_dict()
        table_seconds = time.perf_counter() - start
        start = time.perf_counter()
        ref = _schur_product_eH(q, b)
        ref_seconds = time.perf_counter() - start
        same = new == ref
        failures += not same
        print(f"frobenius_eH({q}, {b}): {len(new)} terms, {'equal' if same else 'MISMATCH'} "
              f"(table {table_seconds:.2f} s, Schur products {ref_seconds:.2f} s)")
    print(f"{len(BOUNDS)} bounds, {failures} mismatches")
    return failures


def lattice_against_logarithm() -> int:
    failures = checked = 0
    for K in range(1, LATTICE_K + 1):
        start = time.perf_counter()
        log = frobenius_eH(K, LATTICE_M).log()  # every m <= LATTICE_M at once
        log_seconds = time.perf_counter() - start
        start = time.perf_counter()
        for lam in partitions_of(K):
            for mu in partitions_of(K):
                least = len(lam) + len(mu) - 2  # m at genus 0
                for m in range(least, LATTICE_M + 1, 2):
                    expected = log.coefficient(hurwitz_mono(m, lam, mu)) * factorial(m)
                    got = hurwitz_number_by_series((m - least) // 2, lam, mu, "frobenius")
                    checked += 1
                    if got != expected:
                        failures += 1
                        print(f"MISMATCH at m = {m}, {lam}/{mu}: {got} != {expected}")
        print(f"K = {K}: lattice numbers against the log of frobenius_eH({K}, {LATTICE_M}) "
              f"(log {log_seconds:.2f} s, lattice {time.perf_counter() - start:.2f} s)")
    print(f"{checked} profiles with K <= {LATTICE_K}, m <= {LATTICE_M}, {failures} mismatches")
    return failures


def one_part_against_cayley() -> int:
    failures = 0
    for K in range(1, ONE_PART_K + 1):
        start = time.perf_counter()
        got = hurwitz_number_by_series(0, (K,), (1,) * K, "frobenius")
        same = got == Fraction(K) ** (K - 3)
        failures += not same
        print(f"({K})/(1^{K}): {got}, {'equal' if same else 'MISMATCH'} to K^(K-3) "
              f"({time.perf_counter() - start:.2f} s)")
    return failures


def main() -> int:
    failures = table_against_schur_products() + lattice_against_logarithm() + one_part_against_cayley()
    print(f"{failures} mismatches in all")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
