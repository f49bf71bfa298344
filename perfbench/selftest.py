#!/usr/bin/env python3
"""Self-test of the benchmark: the output gate trips on corrupted references,
every seed's jobs have a reference, the traced launcher sees the layers, and
BENCHMARK.json names exactly the metrics run.py prints.

    python3 perfbench/selftest.py

Runs three short CLI jobs (a few seconds in all); exits 0 when every check
passes.  Kept out of the package's test suite on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import jobs
import run
import tracer

class Checks:
    """Prints each check as it runs and keeps the failed ones."""

    def __init__(self):
        self.failures = []

    def __call__(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'}  {what}")
        if not ok:
            self.failures.append(what)


def run_job(argv, workdir: Path, traced: bool = False):
    job_dir = Path(tempfile.mkdtemp(dir=workdir))
    cache = job_dir / "cache"
    result = run.run_process(run.job_command(job_dir, cache, argv, traced), job_dir, run.job_env(cache), 60)
    spans = json.loads((job_dir / "spans.json").read_text()) if traced else None
    return result, spans


def corrupt_bytes(text: str) -> str:
    """Change one digit of the text."""
    i = next(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def check_gate(expect, reference: dict, workdir: Path) -> None:
    verify = jobs.Job(("verify", "--suite", "paper-examples", "--format", "pretty"))
    result, _ = run_job(verify.argv, workdir)
    expect(gate.check(verify, result.returncode, result.stdout, reference) is None, "verify output matches")
    bad = dict(reference, **{verify.key: corrupt_bytes(reference[verify.key])})
    expect(gate.check(verify, result.returncode, result.stdout, bad) is not None, "corrupted verify reference trips")
    expect(gate.check(verify, 1, result.stdout, reference) is not None, "nonzero exit trips")

    hpoly = jobs.Job(("h-poly", "--lambda", "3,3,3,3", "--format", "json"), check=jobs.ZPOLY)
    result, _ = run_job(hpoly.argv, workdir)
    expect(gate.check(hpoly, result.returncode, result.stdout, reference) is None, "h-poly matches by value")
    terms = json.loads(reference[hpoly.key])
    terms[0]["coeff"] = corrupt_bytes(terms[0]["coeff"])
    bad = dict(reference, **{hpoly.key: json.dumps(terms)})
    expect(gate.check(hpoly, result.returncode, result.stdout, bad) is not None, "corrupted h-poly reference trips")
    expect(gate.check(hpoly, 0, b"[]", reference) is not None, "wrong h-poly value trips")

    xtable = next(j for j in jobs.all_reference_jobs() if j.check == jobs.COUNT)
    good = reference[xtable.key].encode()
    expect(gate.check(xtable, 0, good, reference) is None, "x-table count matches")
    bad = dict(reference, **{xtable.key: corrupt_bytes(reference[xtable.key])})
    expect(gate.check(xtable, 0, good, bad) is not None, "corrupted x-table count trips")


def check_seeds(expect, reference: dict) -> None:
    missing = {job.key for w in jobs.WORKLOADS for seed in range(500) for job in jobs.jobs_for(w, seed)}
    missing -= set(reference)
    expect(not missing, f"every job of seeds 0..499 has a reference ({sorted(missing)[:3]})")
    expect(jobs.jobs_for("crosscheck", 7) == jobs.jobs_for("crosscheck", 7), "same seed, same jobs")


def check_tracer(expect, workdir: Path) -> None:
    result, spans = run_job(["verify", "--suite", "bridge"], workdir, traced=True)
    expect(result.returncode == 0, "traced job exits 0")
    metrics = tracer.layer_metrics(spans)
    for name in ("verify.bridge.total_s", "recursion.compute_x.self_s", "zseries.ZPoly.mul.calls",
                 "zseries.ZPoly.add.calls", "zseries.zpoly_eval.total_s", "cutjoin.cut_join_apply.calls",
                 "series.mul.term_pairs_admitted", "zseries.z_series.misses"):
        expect(metrics.get(name, 0) > 0, f"traced bridge suite reports {name}")
    # The suite reaches evolve only through shifted_genus0, via cutjoin's globals.
    expect(metrics.get("cutjoin.evolve.total_s", 0) > 0, "evolve traced through shifted_genus0")


def check_benchmark_json(expect) -> None:
    path = run.ROOT / "BENCHMARK.json"
    if not path.exists():
        expect(False, "BENCHMARK.json exists")
        return
    doc = json.loads(path.read_text())
    expect([(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"]) for m in doc["per_layer"]] == run.layer_metric_names(),
           "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in doc["workloads"]] == list(jobs.WORKLOADS), "BENCHMARK.json workloads match jobs.py")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference = gate.load_reference()
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    expect = Checks()
    try:
        check_gate(expect, reference, workdir)
        check_seeds(expect, reference)
        check_tracer(expect, workdir)
        check_benchmark_json(expect)
    finally:
        shutil.rmtree(workdir)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    print(f"{len(expect.failures)} failed" if expect.failures else "all checks passed")
    return 1 if expect.failures else 0


if __name__ == "__main__":
    sys.exit(main())
