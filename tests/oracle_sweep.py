"""Exhaustive check of the oracle's layer count against the DFS reference.

Compares ``oracle._count_fixed_sigma`` with ``_dfs_count_fixed_sigma`` from
``test_oracle.py`` on every (g, lam, mu) inside the oracle's budget except
m = 6 at K >= 5, where the DFS takes minutes.  Too slow for the tier-1 suite,
and named without a ``test_`` prefix so pytest does not collect it.

Run from the repository root:

    PYTHONPATH=src python tests/oracle_sweep.py

Exits 1 on any mismatch.
"""

import sys
import time

from test_oracle import budget_cases, dfs_counts_by_mu

from doublehurwitz.oracle import (
    MAX_DEGREE,
    MAX_TRANSPOSITIONS,
    _count_fixed_sigma,
    perm_of_cycle_type,
)


def main() -> int:
    start = time.perf_counter()
    walks = {}
    checked = mismatches = 0
    for g, lam, mu, m in budget_cases(MAX_DEGREE, MAX_TRANSPOSITIONS):
        if m == 6 and sum(lam) >= 5:
            continue
        sigma = perm_of_cycle_type(lam)
        if (lam, m) not in walks:
            walks[lam, m] = dfs_counts_by_mu(sigma, m)
        layered, reference = _count_fixed_sigma(sigma, mu, m), walks[lam, m][mu]
        checked += 1
        if layered != reference:
            mismatches += 1
            print(f"mismatch: g={g} lam={lam} mu={mu}: layer count {layered}, DFS {reference}")
    seconds = time.perf_counter() - start
    print(f"{checked} cases, {len(walks)} DFS walks, {mismatches} mismatches, {seconds:.1f} s")
    return 1 if mismatches or not checked else 0


if __name__ == "__main__":
    sys.exit(main())
