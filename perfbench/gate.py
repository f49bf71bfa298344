"""Output gate: every job's result is compared with the reference recorded by
``make_refs.py`` at the commit that defined the benchmark.

* ``bytes`` jobs (h-series, compute-hurwitz, oracle, kp-check, verify) must
  print exactly the reference stdout; the CLI promises byte-identical output.
* ``zpoly`` jobs (h-poly --format json) must equal the reference as q-series,
  decided by ``zpoly_values_equal``: the polynomial form may change correctly.
  h_lambda vanishes below q-weight |lambda|, so the evaluation runs at
  q-weight max(10, |lambda|); at the package default of 10 it would accept
  any polynomial for |lambda| > 10.  Identical forms skip the evaluation;
  a changed form costs up to about 35 s (|lambda| = 16) once per run,
  because ``Gate`` remembers each verdict.
* ``count`` jobs (x-table) must exit 0 and report the reference entry count.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Optional

from jobs import BYTES, COUNT, ZPOLY

REFERENCE_PATH = Path(__file__).with_name("reference.json")

_ENTRIES = re.compile(rb"wrote (\d+) entries to ")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """Job key -> reference stdout (str)."""
    return json.loads(path.read_text())["outputs"]


class Gate:
    """Checks job results against the references, remembering each verdict
    so a repeated output is judged once."""

    def __init__(self, reference: dict):
        self.reference = reference
        self._verdicts: dict = {}

    def check(self, job, returncode: int, stdout: bytes) -> Optional[str]:
        """None when the job's result is right, else why it is wrong."""
        memo = (job.key, returncode, stdout)
        if memo not in self._verdicts:
            self._verdicts[memo] = check(job, returncode, stdout, self.reference)
        return self._verdicts[memo]


def _lambda_weight(job) -> int:
    return sum(int(p) for p in job.argv[job.argv.index("--lambda") + 1].split(","))


def check(job, returncode: int, stdout: bytes, reference: dict) -> Optional[str]:
    """None when the job's result is right, else why it is wrong."""
    if returncode != 0:
        return f"exit status {returncode}"
    expected = reference.get(job.key)
    if expected is None:
        return "no reference output for this job"
    expected = expected.encode()
    if job.check == BYTES:
        return None if stdout == expected else "stdout differs from the reference"
    if job.check == COUNT:
        got, want = _ENTRIES.match(stdout), _ENTRIES.match(expected)
        if got is None or got.group(1) != want.group(1):
            return f"entry count differs from the reference ({want.group(1).decode()})"
        return None
    if job.check == ZPOLY:
        from doublehurwitz.zseries import ZPoly, zpoly_values_equal

        try:
            got = ZPoly.from_json_list(json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return f"stdout is not an h-poly JSON list: {exc}"
        want = ZPoly.from_json_list(json.loads(expected))
        weight = max(10, _lambda_weight(job))
        if zpoly_values_equal(got, want, weight):
            return None
        return f"polynomial differs from the reference as a q-series up to q-weight {weight}"
    raise ValueError(f"unknown check kind {job.check!r}")
