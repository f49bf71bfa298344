#!/usr/bin/env python3
"""Traced launcher: run one CLI job with spans recorded around the package's
public functions, from outside the package.

    python3 perfbench/tracer.py SPANS_JSON -- [doublehurwitz CLI arguments]

Each traced function is replaced by a wrapper everywhere it is bound inside
the package: module globals, names imported into other modules, class
attributes and their aliases (``ZPoly.__rmul__`` is ``ZPoly.__mul__``) and
dispatch dicts such as ``verify.SUITES``, so no call slips past the trace.
Spans stay in memory and are written to SPANS_JSON when the job ends;
``layer_metrics`` folds the spans of one job into the per-layer metrics.

A span records its name, its parent, start and end (which include the
wrapper's own bookkeeping), the duration of the wrapped call alone, its self
time (that duration minus the extent of its child spans) and whether a span
of the same name encloses it.  Wrappers add no work inside the wrapped call.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from functools import wraps
from operator import add
from time import perf_counter

PACKAGE = "doublehurwitz"

SPAN_FIELDS = ("id", "parent", "name", "start", "end", "dur", "self", "nested", "attrs")


def _terms_out(args, result):
    return {"terms_out": len(result)}


def _series_mul(args, result):
    from doublehurwitz.series import GradedSeries, mono_weights

    left, right = args
    attrs = {"terms_out": len(result)}
    if isinstance(right, GradedSeries):
        admits = left.truncation.admits_weights
        lw = Counter(map(mono_weights, left.term_dict()))
        rw = Counter(map(mono_weights, right.term_dict()))
        attrs["term_pairs"] = len(left) * len(right)
        attrs["term_pairs_admitted"] = sum(
            nl * nr for wl, nl in lw.items() for wr, nr in rw.items() if admits(tuple(map(add, wl, wr)))
        )
    return attrs


def _terms_in(args, result):
    return {"terms_in": len(args[0])}


def _genus0_part(args, result):
    return {"terms_in": len(args[0]), "terms_kept": len(result)}


def _compute_x(args, result):
    table = args[1] if len(args) > 1 else None
    return {"table_entries": len(table)} if table is not None else {}


SPAN, COUNT = "span", "count"

# (span name, "module:attribute", kind, attrs(args, result) or None).
# Verify suites are added from verify.SUITES at patch time.
TARGETS = (
    ("series.mul", "series:GradedSeries.__mul__", SPAN, _series_mul),
    ("series.add", "series:GradedSeries.__add__", SPAN, _terms_out),
    ("series.exp", "series:GradedSeries.exp", SPAN, _terms_out),
    ("series.log", "series:GradedSeries.log", SPAN, _terms_out),
    ("cutjoin.cut_join_apply", "cutjoin:cut_join_apply", SPAN, _terms_in),
    ("cutjoin.evolve", "cutjoin:evolve", SPAN, None),
    ("cutjoin.frobenius_eH", "cutjoin:frobenius_eH", SPAN, None),
    ("cutjoin.genus0_part", "cutjoin:genus0_part", SPAN, _genus0_part),
    ("recursion.compute_x", "recursion:compute_x", SPAN, _compute_x),
    ("recursion.XTable.save", "recursion:XTable.save", SPAN, None),
    ("recursion.XTable.load", "recursion:XTable.load", SPAN, None),
    ("zseries.ZPoly.mul", "zseries:ZPoly.__mul__", SPAN, None),
    ("zseries.ZPoly.add", "zseries:ZPoly.__add__", COUNT, None),
    ("zseries.zpoly_eval", "zseries:zpoly_eval", SPAN, None),
    ("symgroup.CharTable.build", "symgroup:CharTable.build", SPAN, None),
    ("symgroup.CharTable.load_or_build", "symgroup:CharTable.load_or_build", SPAN, None),
    ("symgroup.schur_in_power_sums", "symgroup:schur_in_power_sums", SPAN, None),
    ("oracle.oracle_raw_count", "oracle:oracle_raw_count", SPAN, None),
    ("reduced.x_value", "reduced:ReducedRecursion.x_value", SPAN, None),
    ("kp.tau_series", "kp:tau_series", SPAN, None),
    ("kp.r_from_tau", "kp:r_from_tau", SPAN, None),
    ("kp.kp_residual_of", "kp:kp_residual_of", SPAN, None),
)

# Cached functions: hit and miss counts come from their own cache_info().
CACHED = (("zseries.z_series", "zseries:z_series"), ("symgroup.mn_character", "symgroup:mn_character"))

# Per-layer maxima: metric -> (span-name prefix, attribute).
MAXIMA = {
    "series.terms_max": ("series.", "terms_out"),
    "recursion.table_entries_max": ("recursion.compute_x", "table_entries"),
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []  # open spans: [id, child extent]
        self._open = Counter()  # open spans per name

    def span(self, name, fn, attrs=None):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [span_id, 0.0]
            nested = tracer._open[name] > 0
            tracer._open[name] += 1
            tracer._stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - start
                tracer._stack.pop()
                tracer._open[name] -= 1
                extra = attrs(args, result) if attrs and result is not None else {}
                end = perf_counter()
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.append(
                    (span_id, parent[0] if parent else None, name, start, end, dur, dur - frame[1], nested, extra)
                )

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


def rebind(orig, replacement) -> int:
    """Replace every binding of `orig` inside the package; returns how many."""
    sites = 0
    for module in _package_modules():
        for name, value in list(vars(module).items()):
            if value is orig:
                setattr(module, name, replacement)
                sites += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is orig:
                        value[key] = replacement
                        sites += 1
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for key, item in list(vars(value).items()):
                    if item is orig:
                        setattr(value, key, replacement)
                        sites += 1
                    elif isinstance(item, staticmethod) and item.__func__ is orig:
                        setattr(value, key, staticmethod(replacement))
                        sites += 1
    return sites


def _resolve(spec):
    module_name, _, path = spec.partition(":")
    obj = sys.modules[f"{PACKAGE}.{module_name}"]
    *owners, attr = path.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    value = vars(obj)[attr] if isinstance(obj, type) else getattr(obj, attr)
    return value.__func__ if isinstance(value, staticmethod) else value


def install(tracer: Tracer) -> None:
    """Wrap every target in every module, class and dict that binds it."""
    import doublehurwitz.cli  # noqa: F401  (the CLI binds names too)
    from doublehurwitz.verify import SUITES

    targets = [(name, _resolve(spec), kind, attrs) for name, spec, kind, attrs in TARGETS]
    targets += [(f"verify.{suite}", fn, SPAN, None) for suite, fn in sorted(SUITES.items())]
    for name, orig, kind, attrs in targets:
        wrapper = tracer.span(name, orig, attrs) if kind == SPAN else tracer.counter(name, orig)
        if rebind(orig, wrapper) == 0:
            raise RuntimeError(f"{name} is bound nowhere in the package")


def cache_counts() -> dict:
    out = {}
    for name, spec in CACHED:
        info = _resolve(spec).cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses}
    return out


def layer_metrics(doc: dict) -> dict:
    """Per-layer metric values of one traced job (sums, plus MAXIMA)."""
    flat = Counter()
    maxima = dict.fromkeys(MAXIMA, 0)
    for row in doc["spans"]:
        span = dict(zip(SPAN_FIELDS, row))
        name = span["name"]
        flat[f"{name}.calls"] += 1
        flat[f"{name}.self_s"] += span["self"]
        if not span["nested"]:
            flat[f"{name}.total_s"] += span["dur"]
        for key, value in span["attrs"].items():
            flat[f"{name}.{key}"] += value
        for metric, (prefix, key) in MAXIMA.items():
            if name.startswith(prefix) and key in span["attrs"]:
                maxima[metric] = max(maxima[metric], span["attrs"][key])
    for name, count in doc["counts"].items():
        flat[f"{name}.calls"] += count
    for name, info in doc["caches"].items():
        for key, value in info.items():
            flat[f"{name}.{key}"] += value
    return {**flat, **maxima}


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- [CLI arguments]", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    import doublehurwitz.cli

    tracer = Tracer()
    install(tracer)
    run = tracer.span("job", doublehurwitz.cli.run)
    try:
        return run(cli_argv)
    finally:
        doc = {
            "fields": SPAN_FIELDS,
            "argv": cli_argv,
            "spans": tracer.spans,
            "counts": tracer.counts,
            "caches": cache_counts(),
        }
        with open(spans_path, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
