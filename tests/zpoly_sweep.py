"""Exhaustive check of the int-numerator ZPoly against the Fraction reference.

Runs ``recursion.h_poly`` for every partition lam of n <= 14 with at most 4
parts, once on ``ZPoly`` and once on ``_FractionZPoly`` from
``test_zseries.py``, each with one table for all partitions, and requires
every h_lam and every table entry to have the same coefficients.  Then builds
``recursion.populate_table(7, 3, 2)`` (the keys of ``x-table
--max-lambda-weight 7 --max-r 3``, with nu-weight <= 2) on both rings and
requires the same keys, every entry to have the same coefficients and the
file ``XTable.save`` writes to be the reference encoder's text of the
Fraction table, byte for byte.  Too
slow for the tier-1 suite (the reference side takes about 20 s), and named
without a ``test_`` prefix so pytest does not collect it.

Run from the repository root:

    PYTHONPATH=src python tests/zpoly_sweep.py

Exits 1 on any mismatch.
"""

import sys
import tempfile
import time
from pathlib import Path

from test_zseries import _FractionZPoly, reference_table_text

from doublehurwitz import recursion
from doublehurwitz.partitions import partitions_of

MAX_WEIGHT = 14
MAX_PARTS = 4


def sweep_partitions():
    return [lam for n in range(1, MAX_WEIGHT + 1) for lam in partitions_of(n) if len(lam) <= MAX_PARTS]


def on_ring(ring, build):
    """build() with the recursion running on the given ring."""
    saved = recursion.ZPoly
    recursion.ZPoly = ring
    try:
        return build()
    finally:
        recursion.ZPoly = saved


def h_polys(lams):
    """Every h_lam with one table for all, and the table."""
    table = recursion.XTable()
    return {lam: recursion.h_poly(lam, table) for lam in lams}, table


def timed_on_both_rings(build):
    """(result on ZPoly, on the Fraction reference, seconds of each)."""
    start = time.perf_counter()
    got = on_ring(recursion.ZPoly, build)
    middle = time.perf_counter()
    want = on_ring(_FractionZPoly, build)
    return got, want, middle - start, time.perf_counter() - middle


def table_mismatches(name, table, ref_table) -> list:
    if table.entries.keys() != ref_table.entries.keys():
        print(f"mismatch: the two {name} tables hold different keys")
        return [f"{name} keys"]
    mismatches = [key for key, value in table.entries.items() if value.terms != ref_table.entries[key].terms]
    for key in mismatches:
        print(f"mismatch: {name} table entry {key}")
    return mismatches


def main() -> int:
    lams = sweep_partitions()
    (polys, table), (ref_polys, ref_table), int_seconds, ref_seconds = timed_on_both_rings(lambda: h_polys(lams))
    mismatches = [lam for lam in lams if polys[lam].terms != ref_polys[lam].terms]
    for lam in mismatches:
        print(f"mismatch: h_poly{lam}")
    mismatches += table_mismatches("h_poly", table, ref_table)
    print(
        f"{len(lams)} partitions, {len(table)} table entries; "
        f"ZPoly {int_seconds:.1f} s, Fraction reference {ref_seconds:.1f} s"
    )

    populated, ref_populated, int_seconds, ref_seconds = timed_on_both_rings(
        lambda: recursion.populate_table(7, 3, 2)
    )
    mismatches += table_mismatches("populate_table(7, 3, 2)", populated, ref_populated)
    with tempfile.TemporaryDirectory(prefix="zpoly-sweep-") as tmp:
        saved = populated.save(Path(tmp) / "x.json").read_text()
    if saved != reference_table_text(ref_populated):
        print("mismatch: the x-table file of populate_table(7, 3, 2)")
        mismatches.append("populate_table(7, 3, 2) JSON")
    print(
        f"populate_table(7, 3, 2): {len(populated)} table entries; "
        f"ZPoly {int_seconds:.1f} s, Fraction reference {ref_seconds:.1f} s"
    )
    print(f"{len(mismatches)} mismatches")
    return 1 if mismatches or not lams or not populated.entries else 0


if __name__ == "__main__":
    sys.exit(main())
