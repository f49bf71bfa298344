"""Exhaustive check of frobenius_eH against the Schur-series reference.

Runs ``cutjoin.frobenius_eH``, which sums the character table directly, and
``_schur_product_eH`` from ``test_cutjoin.py``, which multiplies one pair of
Schur series per partition, and requires equal e^H, as exact dicts, at every
Q <= 9 with B <= 6 and at (10, 8) and (11, 2).  Too slow for the tier-1
suite (about 20 s, nearly all in the reference), and named without a
``test_`` prefix so pytest does not collect it.

Run from the repository root:

    PYTHONPATH=src python tests/frobenius_sweep.py

Exits 1 on any mismatch.
"""

import sys
import time

from test_cutjoin import _schur_product_eH

from doublehurwitz.cutjoin import frobenius_eH

BOUNDS = [(q, b) for q in range(1, 10) for b in range(7)] + [(10, 8), (11, 2)]


def main() -> int:
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
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
