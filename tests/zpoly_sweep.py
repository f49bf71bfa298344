"""Exhaustive check of the int-numerator ZPoly against the Fraction reference.

Runs ``recursion.h_poly`` for every partition lam of n <= 14 with at most 4
parts, once on ``ZPoly`` and once on ``_FractionZPoly`` from
``test_zseries.py``, each with one table for all partitions, and requires
every h_lam and every table entry to have the same coefficients.  Too slow for
the tier-1 suite (the reference side takes about 20 s), and named without a
``test_`` prefix so pytest does not collect it.

Run from the repository root:

    PYTHONPATH=src python tests/zpoly_sweep.py

Exits 1 on any mismatch.
"""

import sys
import time

from test_zseries import _FractionZPoly

from doublehurwitz import recursion
from doublehurwitz.partitions import partitions_of

MAX_WEIGHT = 14
MAX_PARTS = 4


def sweep_partitions():
    return [lam for n in range(1, MAX_WEIGHT + 1) for lam in partitions_of(n) if len(lam) <= MAX_PARTS]


def h_polys(lams, ring):
    """Every h_lam with the recursion on the given ring, and the table."""
    saved = recursion.ZPoly
    recursion.ZPoly = ring
    try:
        table = recursion.XTable()
        return {lam: recursion.h_poly(lam, table) for lam in lams}, table
    finally:
        recursion.ZPoly = saved


def main() -> int:
    lams = sweep_partitions()
    start = time.perf_counter()
    polys, table = h_polys(lams, recursion.ZPoly)
    int_seconds = time.perf_counter() - start
    start = time.perf_counter()
    ref_polys, ref_table = h_polys(lams, _FractionZPoly)
    ref_seconds = time.perf_counter() - start

    mismatches = [lam for lam in lams if polys[lam].terms != ref_polys[lam].terms]
    for lam in mismatches:
        print(f"mismatch: h_poly{lam}")
    if table.entries.keys() != ref_table.entries.keys():
        mismatches.append("table keys")
        print("mismatch: the two tables hold different keys")
    else:
        for key, value in table.entries.items():
            if value.terms != ref_table.entries[key].terms:
                mismatches.append(key)
                print(f"mismatch: table entry {key}")
    print(
        f"{len(lams)} partitions, {len(table)} table entries, {len(mismatches)} mismatches; "
        f"ZPoly {int_seconds:.1f} s, Fraction reference {ref_seconds:.1f} s"
    )
    return 1 if mismatches or not lams else 0


if __name__ == "__main__":
    sys.exit(main())
