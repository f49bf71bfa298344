"""Seeded job lists for the three benchmark workloads.

A job is one fresh ``python -m doublehurwitz ...`` process.  The seed picks
lambda and mu (and, where the CLI offers equivalent renderings, the output
format) inside each job's size class.  A size class fixes everything the
cost depends on -- Q, t-weight, K, m, |lambda| and the part count -- so a new
seed changes the inputs but not the amount of work.  ``SLOTS`` lists every
choice a seed can make; ``make_refs.py`` records a reference output for each
of them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

VERIFY_SUITES = (
    "paper-examples",
    "triple-agreement",
    "string-dilaton",
    "psi-string-dilaton",
    "eqzred",
    "kp",
    "pivot-independence",
    "bridge",
)

# How each job's output is checked (see gate.py).
BYTES = "bytes"  # stdout byte-equal to the reference
ZPOLY = "zpoly"  # h-poly JSON equal to the reference as q-series
COUNT = "count"  # exit 0 and the reference's "wrote N entries" count


def partitions(n: int, parts: int, min_part: int = 1) -> list:
    """Partitions of n into exactly `parts` parts >= min_part, weakly
    decreasing, in reverse-lexicographic order."""

    def gen(rest, k, cap):
        if k == 0:
            if rest == 0:
                yield ()
            return
        for first in range(min(rest - min_part * (k - 1), cap), min_part - 1, -1):
            for tail in gen(rest - first, k - 1, first):
                yield (first,) + tail

    return list(gen(n, parts, n))


def csv(lam) -> str:
    return ",".join(str(p) for p in lam)


FORMATS3 = ("pretty", "csv", "json")
FORMATS2 = ("pretty", "json")


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `argv` follows the global options; jobs with the
    same `cache_group` share one fresh cache directory inside a batch."""

    argv: tuple
    check: str = BYTES
    cache_group: Optional[str] = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _h_series(q):
    return lambda c: [Job(("h-series", "--lambda", csv(c["lam"]), "--max-q-weight", str(q),
                           "--format", c["format"]))]


def _compute_hurwitz(method, runs=1):
    def make(c):
        argv = ("compute-hurwitz", "--genus", "0", "--lambda", csv(c["lam"]), "--mu", csv(c["mu"]),
                "--method", method)
        return [Job(argv, cache_group=method)] * runs

    return make


def _h_poly(c):
    return [Job(("h-poly", "--lambda", csv(c["lam"]), "--format", "json"), check=ZPOLY)]


def _verify(suite):
    return lambda c: [Job(("verify", "--suite", suite, "--format", c["format"]))]


# slot -> (make jobs, size class).  A size class maps each free input to every
# value a seed can choose for it; the function turns one choice into jobs.
SLOTS = {
    # classical
    "h-series-q9": (_h_series(9), {"lam": partitions(6, 3), "format": FORMATS3}),
    "h-series-q8": (_h_series(8), {"lam": partitions(4, 2), "format": FORMATS3}),
    "cutjoin-k10": (_compute_hurwitz("cutjoin"), {"lam": partitions(10, 4), "mu": partitions(10, 4)}),
    # recursion
    "h-poly-16": (_h_poly, {"lam": partitions(16, 1)}),
    "h-poly-12x6": (_h_poly, {"lam": partitions(12, 6, min_part=2)}),
    "h-poly-12x4": (_h_poly, {"lam": partitions(12, 4, min_part=2)}),
    "x-table": (
        lambda c: [Job(("x-table", "--max-lambda-weight", "7", "--max-r", "3", "--out", "x.json"),
                       check=COUNT)],
        {},
    ),
    # crosscheck
    **{f"verify-{suite}": (_verify(suite), {"format": FORMATS2}) for suite in VERIFY_SUITES},
    "kp-check-8": (lambda c: [Job(("kp-check", "--max-t-weight", "8"))], {}),
    "oracle-k6": (
        lambda c: [Job(("oracle", "--genus", "0", "--lambda", csv(c["lam"]), "--mu", csv(c["mu"])))],
        {"lam": partitions(6, 4), "mu": partitions(6, 3)},
    ),
    # Run twice on one cache dir: the first run builds and writes the
    # character tables, the second reads them.
    "frobenius-k9": (_compute_hurwitz("frobenius", runs=2),
                     {"lam": partitions(9, 3), "mu": partitions(9, 2)}),
}

WORKLOAD_SLOTS = {
    "classical": ("h-series-q9", "h-series-q8", "cutjoin-k10"),
    "recursion": ("h-poly-16", "h-poly-12x6", "h-poly-12x4", "x-table"),
    "crosscheck": (*(f"verify-{s}" for s in VERIFY_SUITES), "kp-check-8", "oracle-k6", "frobenius-k9"),
}
WORKLOADS = tuple(WORKLOAD_SLOTS)


def jobs_for(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for slot in WORKLOAD_SLOTS[workload]:
        make, size_class = SLOTS[slot]
        jobs += make({name: rng.choice(values) for name, values in size_class.items()})
    return jobs


def all_reference_jobs() -> list:
    """Every job any seed can produce, deduplicated by key."""
    jobs = {}
    for make, size_class in SLOTS.values():
        for combo in itertools.product(*size_class.values()):
            for job in make(dict(zip(size_class, combo))):
                jobs.setdefault(job.key, job)
    return list(jobs.values())
