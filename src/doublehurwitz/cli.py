"""Command-line interface.

Subcommands: compute-hurwitz, h-series, h-poly, x-table, z-series, kp-check,
verify, oracle.  All numeric output is exact ("num/den" rationals, never
floats) and byte-identical across runs with the same flags.

Exit status: 0 success, 1 verification failure, 2 usage error (including an
output path that cannot be used), 3 resource budget exceeded,
4 internal error (an ArithmeticError, such as a division that should be exact
and is not).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import redirect_stdout
from math import factorial

from .cutjoin import h_lambda_series, hurwitz_number_by_series
from .exact import ratio
from .kp import kp_residual
from .oracle import ResourceBudgetError, oracle_count, oracle_raw_count
from .partitions import check_partition
from .recursion import h_poly, populate_table
from .series import GradedSeries, mono_str, mono_weights
from .verify import SUITES, run_suite
from .zseries import z_series

# (pattern, what it spells): a bound may be 0, a partition's part may not
_BOUND = (re.compile("0|[1-9][0-9]*"), "0 or a positive integer")
_PART = (re.compile("[1-9][0-9]*"), "a positive integer")


def _number(text: str, grammar=_BOUND) -> int:
    """The int that text spells in the grammar's ASCII digits; every number
    the CLI reads comes through here.  Anything else, such as ``3_0``, ``+3``,
    ``03`` or a non-ASCII digit, is refused: int() alone would accept them."""
    pattern, kind = grammar
    if not pattern.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected {kind} in ASCII digits, not {text!r}")
    try:
        return int(text)
    except ValueError:  # past Python's int-string limit (4300 digits by default)
        raise argparse.ArgumentTypeError(f"{len(text)} digits are more than int() reads") from None


def _partition(text: str) -> tuple:
    """A comma-separated partition, each part read by _number."""
    return check_partition(_number(part, _PART) for part in text.split(","))


def _series_rows(series: GradedSeries):
    """(rendered monomial, rendered coeff) rows ordered by weight, then letter
    count, then monomial order."""
    monos = sorted(series.nums, key=lambda m: (sum(mono_weights(m)), sum(e for _, e in m), m))
    return [(mono_str(mono), ratio(series.nums[mono], series.den)) for mono in monos]


def _emit_series(series: GradedSeries, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(series.to_json_dict()))
        out.write("\n")
    elif fmt == "csv":
        out.write("monomial,coeff\n")
        for name, coeff in _series_rows(series):
            out.write(f"{name},{coeff}\n")
    else:
        rows = _series_rows(series)
        if not rows:
            out.write("0\n")
        for name, coeff in rows:
            out.write(f"{coeff} * {name}\n")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises ValueError on a usage error, instead of
    printing its usage block to sys.stderr and exiting.  It reads an option
    only by its full name: the parser and each subparser, all of this class,
    refuse an abbreviation such as ``--lam``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="doublehurwitz",
        description="Exact genus-0 double Hurwitz numbers, four ways, cross-validated.",
    )
    parser.add_argument("--cache-dir", default=".doublehurwitz_cache",
                        help="unused: no command reads or writes it (default %(default)s). "
                             "The benchmark harness passes it to every job, so it stays until "
                             "ROADMAP item 5 removes it with the harness's own copy")
    sub = parser.add_subparsers(dest="command", required=True)

    ch = sub.add_parser("compute-hurwitz", help="one double Hurwitz number")
    ch.add_argument("--genus", type=_number, required=True)
    ch.add_argument("--lambda", dest="lam", type=_partition, required=True,
                    help="comma-separated partition")
    ch.add_argument("--mu", type=_partition, required=True, help="comma-separated partition")
    ch.add_argument("--method", choices=("oracle", "frobenius", "cutjoin"), default="cutjoin",
                    help="cutjoin (default) evolves only the terms whose q-part divides q_mu, so "
                         "its cost follows the divisors of mu; frobenius takes the logarithm of "
                         "the character sum on the divisors of p_lam q_mu alone, so its cost "
                         "follows the divisors of lam and mu; oracle counts factorizations")

    hs = sub.add_parser("h-series", help="q-expansion of h_lambda by the classical pipeline")
    hs.add_argument("--lambda", dest="lam", type=_partition, required=True)
    hs.add_argument("--max-q-weight", type=_number, required=True)
    hs.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")

    hp = sub.add_parser("h-poly", help="h_lambda as a polynomial in the generators z_{d,r}")
    hp.add_argument("--lambda", dest="lam", type=_partition, required=True)
    hp.add_argument("--format", choices=("json", "pretty"), default="pretty")

    xt = sub.add_parser("x-table", help="populate the recursion table and write it to JSON")
    xt.add_argument("--max-lambda-weight", type=_number, required=True)
    xt.add_argument("--max-r", type=_number, required=True)
    xt.add_argument("--max-nu-weight", type=_number, default=2)
    xt.add_argument("--out", required=True)

    zs = sub.add_parser("z-series", help="q-expansion of a generator z_{d,r}")
    zs.add_argument("--d", type=_number, required=True)
    zs.add_argument("--r", type=_number, required=True)
    zs.add_argument("--max-q-weight", type=_number, required=True)
    zs.add_argument("--n-bound", type=_number, default=None)
    zs.add_argument(
        "--drop-negative-k-powers",
        action="store_true",
        help="diagnostic: zero the d>=1 terms with negative K-powers",
    )
    zs.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")

    kp = sub.add_parser("kp-check", help="residual of the first scaled KP equation")
    kp.add_argument("--max-t-weight", type=_number, required=True)

    vf = sub.add_parser("verify", help="run a named verification suite")
    vf.add_argument("--suite", required=True, choices=sorted(SUITES))
    vf.add_argument("--format", choices=("json", "pretty"), default="pretty")

    orc = sub.add_parser("oracle", help="brute-force factorization count")
    orc.add_argument("--genus", type=_number, required=True)
    orc.add_argument("--lambda", dest="lam", type=_partition, required=True)
    orc.add_argument("--mu", type=_partition, required=True)
    return parser


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with redirect_stdout(out):  # where --help writes
            args = _build_parser().parse_args(argv)
        return _dispatch(args, out, err)
    except SystemExit as exc:  # after --help
        return exc.code
    except ResourceBudgetError as exc:
        err.write(f"resource-budget: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:  # bad input, or a path that cannot be used
        err.write(f"error: {exc}\n")
        return 2
    except ArithmeticError as exc:  # a bug, not bad input: no number is printed
        err.write(f"internal error: {exc}\n")
        return 4


def _dispatch(args, out, err) -> int:
    if args.command == "compute-hurwitz":
        if args.method == "oracle":
            value = oracle_count(args.genus, args.lam, args.mu)
        else:
            value = hurwitz_number_by_series(args.genus, args.lam, args.mu, args.method)
        out.write(ratio(value.numerator, value.denominator) + "\n")
        return 0

    if args.command == "h-series":
        series = h_lambda_series([args.lam], args.max_q_weight)[0]
        _emit_series(series, args.format, out)
        return 0

    if args.command == "h-poly":
        poly = h_poly(args.lam)
        if args.format == "json":
            out.write(json.dumps(poly.to_json_list()))
            out.write("\n")
        else:
            out.write(poly.pretty() + "\n")
        return 0

    if args.command == "x-table":
        table = populate_table(args.max_lambda_weight, args.max_r, args.max_nu_weight)
        path = table.save(args.out)
        out.write(f"wrote {len(table)} entries to {path}\n")
        return 0

    if args.command == "z-series":
        series = z_series(
            args.d,
            args.r,
            args.max_q_weight,
            args.n_bound,
            drop_negative_k_powers=args.drop_negative_k_powers,
        )
        _emit_series(series, args.format, out)
        return 0

    if args.command == "kp-check":
        residual = kp_residual(args.max_t_weight)
        if residual.is_zero():
            out.write(f"pass: residual vanishes up to t-weight {args.max_t_weight}\n")
            return 0
        mono = min(residual.nums)
        out.write(f"fail: residual has {ratio(residual.nums[mono], residual.den)} * {mono_str(mono)}\n")
        return 1

    if args.command == "verify":
        report = run_suite(args.suite)
        doc = report.to_json_dict()
        if args.format == "json":
            out.write(json.dumps(doc))
            out.write("\n")
        else:
            for check in doc["checks"]:
                line = f"{check['status']:4s}  {check['name']}"
                if check["detail"]:
                    line += f"  [{check['detail']}]"
                out.write(line + "\n")
            passed = sum(ok for _, ok, _ in report.checks)
            out.write(f"{report.suite}: {passed}/{len(report.checks)} checks passed\n")
        return 0 if report.ok else 1

    if args.command == "oracle":
        raw = oracle_raw_count(args.genus, args.lam, args.mu)
        # the value oracle_count returns, without a second count
        out.write(f"{ratio(raw, factorial(sum(args.lam)))} {raw}\n")
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
