#!/usr/bin/env python3
"""Benchmark of the doublehurwitz CLI.

    python3 perfbench/run.py --workload {classical,recursion,crosscheck}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each job is a fresh ``python -m doublehurwitz`` process and jobs
run one at a time (a closed loop with a single client): CLI users pay the
cold ``lru_cache``s on every run, so this measures the work, not cache hits.
The job list comes from ``jobs.jobs_for(workload, seed)``; the benchmark
runs it as one batch, again and again, until S seconds have passed, and
reports medians over the batches.  A batch's times are the sums (or the
maximum) over its jobs, scaled to a reference speed that a calibration loop
measures between the jobs.  Outputs are checked after each batch, outside
the timed region.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced batches with batches whose jobs run under
``tracer.py``, and reports the per-layer metrics of the traced batches plus
the tracing overhead.  The last line of stdout is one JSON object; progress
goes to stderr.  Every job gets its own working directory and a fresh
``--cache-dir`` (``DOUBLEHURWITZ_CACHE_DIR`` too) under ``.perfbench_work/``,
which is removed at the end, so the checkout's own cache is never touched.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = HERE / "tracer.py"

SETUP_PROBES = 5  # before the first batch and after every untraced batch

# Host speed drifts by 20-30% over minutes on shared machines, so the times
# of each batch are scaled to a reference speed measured around its jobs: a
# fixed pure-Python loop, the same kind of work as the package's, that takes
# REFERENCE_CALIBRATION_S on the reference machine (see README.md).
CALIBRATION_LOOPS = 200_000
REFERENCE_CALIBRATION_S = 0.02
RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take
JOB_TIMEOUT_S = 60

END_TO_END = (
    ("batch_s", "s"),
    ("cpu_s", "s"),
    ("job_max_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def layer_metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    from jobs import VERIFY_SUITES

    counts = ("calls", "term_pairs", "term_pairs_admitted", "terms_out", "terms_in", "terms_kept",
              "hits", "misses", "terms_max", "table_entries_max")
    names = [
        "series.mul.calls", "series.mul.self_s", "series.mul.term_pairs",
        "series.mul.term_pairs_admitted", "series.mul.terms_out",
        "series.add.calls", "series.add.self_s",
        "series.exp.total_s", "series.log.total_s", "series.terms_max",
        "cutjoin.cut_join_apply.calls", "cutjoin.cut_join_apply.self_s", "cutjoin.cut_join_apply.terms_in",
        "cutjoin.evolve.total_s", "cutjoin.frobenius_eH.total_s",
        "cutjoin.genus0_part.terms_in", "cutjoin.genus0_part.terms_kept",
        "recursion.compute_x.calls", "recursion.compute_x.self_s", "recursion.table_entries_max",
        "recursion.XTable.save.total_s", "recursion.XTable.load.total_s",
        "zseries.ZPoly.mul.calls", "zseries.ZPoly.mul.self_s", "zseries.ZPoly.add.calls",
        "zseries.z_series.hits", "zseries.z_series.misses", "zseries.zpoly_eval.total_s",
        "symgroup.mn_character.misses", "symgroup.CharTable.build.calls",
        "symgroup.CharTable.load_or_build.calls", "symgroup.CharTable.load_or_build.total_s",
        "symgroup.schur_in_power_sums.total_s",
        "oracle.oracle_raw_count.calls", "oracle.oracle_raw_count.total_s",
        "reduced.x_value.calls", "reduced.x_value.self_s",
        "kp.tau_series.total_s", "kp.r_from_tau.total_s", "kp.kp_residual_of.total_s",
        *(f"verify.{suite}.total_s" for suite in VERIFY_SUITES),
    ]
    out = [(n, "count" if n.rsplit(".", 1)[1] in counts else "s") for n in names]
    return out + [("trace.overhead_s", "s"), ("fail_ratio", "ratio")]


@dataclass
class JobResult:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    stdout: bytes
    spans: Optional[dict] = None  # per-layer metrics of a traced job


@dataclass
class Batch:
    traced: bool
    results: list
    scale: float  # REFERENCE_CALIBRATION_S / mean calibration around the jobs
    failures: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Unscaled wall seconds of the batch's jobs."""
        return sum(r.wall_s for r in self.results)

    def metric(self, name: str) -> float:
        if name == "batch_s":
            return self.wall_s * self.scale
        if name == "cpu_s":
            return sum(r.cpu_s for r in self.results) * self.scale
        if name == "job_max_s":
            return max(r.wall_s for r in self.results) * self.scale
        if name == "peak_rss_mb":
            return max(r.maxrss_kb for r in self.results) / 1024
        raise KeyError(name)


def calibration_s() -> float:
    """Best of three timings of the calibration loop in this process."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def run_calibrated(commands):
    """Run (cmd, cwd, env, timeout) tuples one at a time, calibrating before
    the first and after each.  Returns the results and the factor that
    scales their times to the reference speed."""
    results, cals = [], [calibration_s()]
    for cmd, cwd, env, timeout in commands:
        results.append(run_process(cmd, cwd, env, timeout()))
        cals.append(calibration_s())
    return results, REFERENCE_CALIBRATION_S * len(cals) / sum(cals)


def job_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    # Let the first probe write the package's bytecode, as an installed
    # package has it, so later start-ups do not compile the source again.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["DOUBLEHURWITZ_CACHE_DIR"] = str(cache_dir)
    return env


def job_command(job_dir: Path, cache: Path, argv, traced: bool) -> list:
    """The CLI with its arguments, run directly or under tracer.py."""
    head = [sys.executable, str(TRACER), str(job_dir / "spans.json"), "--"] if traced \
        else [sys.executable, "-m", "doublehurwitz"]
    return [*head, "--cache-dir", str(cache), *argv]


def run_process(cmd, cwd: Path, env: dict, timeout: float) -> JobResult:
    """Run one process to completion with its stdout and stderr in files in
    cwd; kill it after `timeout` seconds.  Returns its wall time and rusage."""
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        returncode=proc.returncode,
        stdout=(cwd / "stdout").read_bytes(),
    )


def run_batch(job_list, workdir: Path, traced: bool, checker, deadline: float) -> Batch:
    import tracer

    batch_dir = Path(tempfile.mkdtemp(dir=workdir))
    dirs, caches = [], {}
    for i, job in enumerate(job_list):
        job_dir = batch_dir / f"job{i}"
        job_dir.mkdir()
        cache = caches.setdefault(job.cache_group, batch_dir / f"cache-{job.cache_group}") \
            if job.cache_group else job_dir / "cache"
        dirs.append((job_dir, cache))

    def timeout():
        return max(1.0, min(JOB_TIMEOUT_S, deadline - time.perf_counter()))

    batch = Batch(traced, *run_calibrated(
        (job_command(job_dir, cache, job.argv, traced), job_dir, job_env(cache), timeout)
        for job, (job_dir, cache) in zip(job_list, dirs)
    ))

    for job, (job_dir, _), result in zip(job_list, dirs, batch.results):
        why = checker.check(job, result.returncode, result.stdout)
        if why is None and traced:
            try:
                result.spans = tracer.layer_metrics(json.loads((job_dir / "spans.json").read_text()))
            except (OSError, ValueError) as exc:
                why = f"no readable spans: {exc}"
        if why is not None:
            batch.failures.append(f"{job.key}: {why}")
    shutil.rmtree(batch_dir)
    return batch


def setup_probes(workdir: Path, count: int) -> list:
    """Scaled wall seconds of `count` fresh interpreters, each importing the
    package, building the CLI parser and printing its help."""
    probe_dir = Path(tempfile.mkdtemp(dir=workdir))
    cmd = [sys.executable, "-m", "doublehurwitz", "--help"]
    try:
        env = job_env(probe_dir / "cache")
        results, scale = run_calibrated((cmd, probe_dir, env, lambda: JOB_TIMEOUT_S) for _ in range(count))
    finally:
        shutil.rmtree(probe_dir)
    for result in results:
        if result.returncode != 0:
            raise RuntimeError(f"`doublehurwitz --help` exited {result.returncode}")
    return [r.wall_s * scale for r in results]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import gate
    from jobs import jobs_for

    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    checker = gate.Gate(gate.load_reference())
    job_list = jobs_for(workload, seed)
    for job in job_list:
        print(f"job: {job.key}", file=sys.stderr)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        setup_probes(workdir, 1)  # writes the package's bytecode once
        probes = 0 if trace else SETUP_PROBES
        setups = setup_probes(workdir, probes)
        batches = []
        measure_end = time.perf_counter() + seconds
        while True:
            for traced in ((False, True) if trace else (False,)):
                batch = run_batch(job_list, workdir, traced, checker, deadline)
                batches.append(batch)
                if not traced:
                    setups += setup_probes(workdir, probes)
                print(f"{'traced ' if traced else ''}batch: {batch.metric('batch_s'):.3f} s scaled, "
                      f"{batch.wall_s:.3f} s unscaled, {len(batch.failures)} failed", file=sys.stderr)
                for failure in batch.failures:
                    print(f"  FAILED {failure}", file=sys.stderr)
            now = time.perf_counter()
            if now >= measure_end or now + batches[-1].wall_s * (1 + trace) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = sum(len(b.results) for b in batches)
    failed = sum(len(b.failures) for b in batches)
    plain = [b for b in batches if not b.traced]
    metrics = {}
    if trace:
        traced = [b for b in batches if b.traced]
        for name, unit in layer_metric_names():
            if name == "trace.overhead_s":
                value = median(b.metric("batch_s") for b in traced) - median(b.metric("batch_s") for b in plain)
            elif name == "fail_ratio":
                value = failed / attempted
            else:
                fold = max if name.endswith("_max") else sum
                value = median(fold((r.spans or {}).get(name, 0) for r in b.results) for b in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in END_TO_END:
            value = median(setups) if name == "setup_s" else median(b.metric(name) for b in plain)
            metrics[name] = {"value": value, "unit": unit}
    print(f"{len(batches)} batches, {attempted} jobs, {failed} failed, "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    from jobs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "doublehurwitz" / "__init__.py").is_file():
        print(f"error: no doublehurwitz package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
