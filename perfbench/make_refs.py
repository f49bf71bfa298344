#!/usr/bin/env python3
"""Record the reference output of every job any seed can choose.

    python3 perfbench/make_refs.py

Runs each job once through ``doublehurwitz.cli.run`` in this process (the CLI
code path, with stdout captured) from a scratch directory and a fresh cache
directory, and writes ``perfbench/reference.json``.  Run it only at a commit
whose outputs are trusted: the gate treats these outputs as the truth.
Takes a few minutes.
"""

from __future__ import annotations

import io
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from doublehurwitz import cli  # noqa: E402

from gate import REFERENCE_PATH  # noqa: E402
from jobs import all_reference_jobs  # noqa: E402


def main() -> int:
    outputs = {}
    job_list = all_reference_jobs()
    scratch = Path(tempfile.mkdtemp(prefix="refs-", dir=HERE))
    cwd = os.getcwd()
    try:
        os.chdir(scratch)
        for i, job in enumerate(job_list):
            cache = scratch / f"cache{i}"
            out = io.StringIO()
            t0 = time.perf_counter()
            code = cli.run(["--cache-dir", str(cache), *job.argv], out=out)
            if code != 0:
                print(f"error: {job.key} exited {code}", file=sys.stderr)
                return 1
            outputs[job.key] = out.getvalue()
            print(f"{time.perf_counter() - t0:7.2f}s  {job.key}", file=sys.stderr, flush=True)
    finally:
        os.chdir(cwd)
        shutil.rmtree(scratch)
    doc = {"python": platform.python_version(), "outputs": outputs}
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} reference outputs to {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
