import io
import json
import subprocess
import sys
import time

import pytest

from doublehurwitz import cutjoin
from doublehurwitz.cli import run
from doublehurwitz.cutjoin import FROBENIUS_MAX_DEGREE
from doublehurwitz.recursion import XTable, h_poly, populate_table
from test_zseries import reference_json_list, reference_table_text


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_compute_hurwitz_oracle_example():
    code, out, _ = run_cli(
        "compute-hurwitz", "--genus", "0", "--lambda", "2", "--mu", "2", "--method", "oracle"
    )
    assert code == 0
    assert out == "1/2\n"


def test_compute_hurwitz_methods_agree(tmp_path):
    results = []
    for method in ("oracle", "cutjoin", "frobenius"):
        code, out, _ = run_cli(
            "--cache-dir",
            str(tmp_path),
            "compute-hurwitz",
            "--genus",
            "0",
            "--lambda",
            "2",
            "--mu",
            "1,1",
            "--method",
            method,
        )
        assert code == 0
        results.append(out)
    assert results == ["1/2\n"] * 3


def test_compute_hurwitz_mixed_profile(tmp_path):
    # degree 3, profiles (2,1) and (3), one transposition: 6 factorizations / 3!
    for method in ("oracle", "cutjoin", "frobenius"):
        code, out, _ = run_cli(
            "--cache-dir", str(tmp_path), "compute-hurwitz", "--genus", "0",
            "--lambda", "2,1", "--mu", "3", "--method", method,
        )
        assert code == 0
        assert out == "1/1\n"


def test_frobenius_writes_no_cache_file(tmp_path, monkeypatch):
    # no command reads or writes a cache: not under the default --cache-dir
    # in the working directory, nor where the old environment variable points
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DOUBLEHURWITZ_CACHE_DIR", str(tmp_path / "from-env"))
    code, out, _ = run_cli(
        "compute-hurwitz", "--genus", "0", "--lambda", "2", "--mu", "1,1", "--method", "frobenius"
    )
    assert (code, out) == (0, "1/2\n")
    assert list(tmp_path.iterdir()) == []


def test_h_series_pretty_format():
    code, out, _ = run_cli("h-series", "--lambda", "2", "--max-q-weight", "2")
    assert code == 0
    assert out == "1/2 * q_2\n1/2 * q_1^2\n"


def test_h_series_csv_rows():
    code, out, _ = run_cli(
        "h-series", "--lambda", "2", "--max-q-weight", "2", "--format", "csv"
    )
    assert code == 0
    assert out == "monomial,coeff\nq_2,1/2\nq_1^2,1/2\n"


def test_h_series_json_round_trip():
    code, out, _ = run_cli(
        "h-series", "--lambda", "2", "--max-q-weight", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["truncation"] == {"q_weight": 3}
    assert {"monomial": [["q", 2, 1]], "coeff": "1/2"} in data["terms"]


def test_h_poly_pretty():
    code, out, _ = run_cli("h-poly", "--lambda", "2")
    assert code == 0
    assert out == "z_{0,1} + z_{1,1}\n"


def test_h_poly_json():
    code, out, _ = run_cli("h-poly", "--lambda", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"gens": [[0, 1]], "coeff": "1/1"},
        {"gens": [[1, 1]], "coeff": "1/1"},
    ]


@pytest.mark.parametrize("lam", ["5", "3,2", "2,2,2"])
def test_h_poly_json_is_the_reference_encoding_byte_for_byte(lam):
    # h_5 has coefficients with den > 1 and negative ones
    code, out, err = run_cli("h-poly", "--lambda", lam, "--format", "json")
    poly = h_poly(tuple(map(int, lam.split(","))))
    assert (code, err) == (0, "")
    assert out == json.dumps(reference_json_list(poly)) + "\n"


def test_z_series_output():
    code, out, _ = run_cli(
        "z-series", "--d", "1", "--r", "1", "--max-q-weight", "2", "--format", "csv"
    )
    assert code == 0
    assert out == "monomial,coeff\nq_1,-1/1\nq_2,-1/2\n"


def test_x_table_write_and_reload(tmp_path):
    path = tmp_path / "cache.json"
    code, out, _ = run_cli(
        "x-table",
        "--max-lambda-weight",
        "3",
        "--max-r",
        "2",
        "--max-nu-weight",
        "1",
        "--out",
        str(path),
    )
    assert code == 0
    assert "wrote" in out and str(path) in out
    blob = json.loads(path.read_text())
    assert blob["version"].startswith("xtable-")
    assert blob["entries"]


def test_x_table_does_not_read_back_its_file(tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError("x-table read back the file it wrote")

    monkeypatch.setattr(XTable, "load", staticmethod(refuse))
    path = tmp_path / "cache.json"
    code, out, err = run_cli(
        "x-table", "--max-lambda-weight", "3", "--max-r", "2",
        "--max-nu-weight", "1", "--out", str(path),
    )
    table = populate_table(3, 2, 1)
    assert (code, out, err) == (0, f"wrote {len(table)} entries to {path}\n", "")
    assert path.read_text() == reference_table_text(table)


def test_x_table_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            "x-table", "--max-lambda-weight", "2", "--max-r", "2",
            "--max-nu-weight", "1", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_kp_check_passes():
    code, out, _ = run_cli("kp-check", "--max-t-weight", "5")
    assert code == 0
    assert out.startswith("pass")


def test_verify_suite_json_schema():
    code, out, _ = run_cli("verify", "--suite", "eqzred", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "eqzred"
    assert report["checks"]
    for check in report["checks"]:
        assert set(check) == {"name", "status", "detail"}
        assert check["status"] in ("pass", "fail")


def test_verify_pretty_output_deterministic():
    first = run_cli("verify", "--suite", "paper-examples")
    second = run_cli("verify", "--suite", "paper-examples")
    assert first == second
    assert first[0] == 0


def test_bad_profile_gives_one_error_for_every_method():
    # one check serves the oracle and both series methods, so one message
    results = {
        run_cli(*argv, "--genus", "0", "--lambda", "2", "--mu", "3")
        for argv in [("compute-hurwitz", "--method", method)
                     for method in ("oracle", "cutjoin", "frobenius")] + [("oracle",)]
    }
    assert results == {(2, "", "error: lam and mu must partition the same positive integer\n")}


def test_usage_errors_exit_2(tmp_path):
    code, _, _ = run_cli("no-such-command")
    assert code == 2
    code, _, err = run_cli("h-poly", "--lambda", "2,x")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli("compute-hurwitz", "--genus", "0", "--lambda", "2", "--mu", "3")
    assert code == 2
    # a negative genus has no covers to count, even where m = len(lam) + len(mu) + 2g - 2 >= 0
    negative_genus = ("--genus", "-1", "--lambda", "3", "--mu", "1,1,1")
    for argv in [("compute-hurwitz", *negative_genus, "--method", method)
                 for method in ("oracle", "cutjoin", "frobenius")] + [("oracle", *negative_genus)]:
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert "genus" in err
    # meaningless ranges are rejected, not answered with an empty result
    for n_bound in ("0", "-1"):
        code, out, err = run_cli(
            "z-series", "--d", "1", "--r", "1", "--max-q-weight", "3", "--n-bound", n_bound
        )
        assert (code, out) == (2, ""), n_bound
        assert "error:" in err
    # h-series names its own bound, not the beta bound of the evolution
    for command in (("h-series", "--lambda", "2"), ("z-series", "--d", "1", "--r", "1")):
        code, out, err = run_cli(*command, "--max-q-weight", "0")
        assert (code, out, err) == (2, "", "error: need q_weight_bound >= 1\n"), command
    for flags in (
        ("--max-lambda-weight", "2", "--max-r", "0"),
        ("--max-lambda-weight", "-1", "--max-r", "2"),
        ("--max-lambda-weight", "2", "--max-r", "2", "--max-nu-weight", "-1"),
    ):
        code, out, err = run_cli("x-table", *flags, "--out", str(tmp_path / "x.json"))
        assert (code, out) == (2, ""), flags
        assert "error:" in err


def test_unusable_paths_exit_2(tmp_path):
    # --cache-dir is read by no command, so a regular file there is no error
    a_file = tmp_path / "file"
    a_file.write_text("kept")
    code, out, err = run_cli(
        "--cache-dir", str(a_file),
        "compute-hurwitz", "--genus", "0", "--lambda", "2,1", "--mu", "3", "--method", "frobenius",
    )
    assert (code, out, err) == (0, "1/1\n", "")
    assert a_file.read_text() == "kept"
    code, out, err = run_cli(
        "x-table", "--max-lambda-weight", "2", "--max-r", "2", "--out", str(tmp_path)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_budget_error_exit_3():
    code, _, err = run_cli(
        "oracle", "--genus", "0", "--lambda", "7", "--mu", "7"
    )
    assert code == 3
    assert "resource-budget" in err


def test_frobenius_refuses_a_degree_above_its_cap_before_any_work():
    # (200)/(200) has a two-point lattice, but the character sums run over
    # every rho |- 200: the process ran out of memory before the cap
    t0 = time.perf_counter()
    code, out, err = run_cli(
        "compute-hurwitz", "--genus", "0", "--lambda", "200", "--mu", "200", "--method", "frobenius"
    )
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (3, "")
    assert err == (f"resource-budget: frobenius budget exceeded: K=200 (max {FROBENIUS_MAX_DEGREE}); "
                   "try --method cutjoin\n")
    assert run_cli("compute-hurwitz", "--genus", "0", "--lambda", "200", "--mu", "200") == (0, "1/200\n", "")


def test_frobenius_cap_is_the_largest_degree_it_takes(monkeypatch):
    monkeypatch.setattr(cutjoin, "FROBENIUS_MAX_DEGREE", 5)
    assert run_cli("compute-hurwitz", "--genus", "0", "--lambda", "5", "--mu", "5",
                   "--method", "frobenius") == (0, "1/5\n", "")
    code, out, err = run_cli("compute-hurwitz", "--genus", "0", "--lambda", "3,3", "--mu", "6",
                             "--method", "frobenius")
    assert (code, out) == (3, "")
    assert err.startswith("resource-budget: frobenius budget exceeded: K=6 (max 5)")


def test_help_names_the_frobenius_partition_count_and_cap():
    code, out, _ = run_cli("compute-hurwitz", "--help")
    text = " ".join(out.split())  # argparse wraps the help at the terminal width
    assert code == 0
    assert "p(K)" in text
    assert f"FROBENIUS_MAX_DEGREE ({FROBENIUS_MAX_DEGREE})" in text
    assert "follows the divisors of lam and mu" not in text


def test_oracle_prints_rational_and_raw_count():
    code, out, _ = run_cli("oracle", "--genus", "0", "--lambda", "2", "--mu", "1,1")
    assert code == 0
    assert out == "1/2 1\n"


def test_kp_check_failure_exit_code(monkeypatch):
    import doublehurwitz.cli as cli
    from doublehurwitz.series import GradedSeries, Truncation, mono_from_vars, svar
    from fractions import Fraction

    def broken_residual(bound):
        tr = Truncation(s_weight=bound)
        return GradedSeries(tr, {mono_from_vars([(svar(1), 1)]): Fraction(1, 3)})

    monkeypatch.setattr(cli, "kp_residual", broken_residual)
    code, out, _ = run_cli("kp-check", "--max-t-weight", "4")
    assert code == 1
    assert out.startswith("fail:") and "t_1" in out


def test_internal_arithmetic_error_exit_4(monkeypatch, tmp_path):
    import doublehurwitz.exact as exact

    def inexact_div(n, d):
        raise ArithmeticError(f"{n} is not divisible by {d}")

    monkeypatch.setattr(exact, "div", inexact_div)
    code, out, err = run_cli(
        "--cache-dir", str(tmp_path), "compute-hurwitz", "--genus", "1",
        "--lambda", "2,1", "--mu", "3", "--method", "cutjoin",
    )
    assert (code, out) == (4, "")
    assert err.startswith("internal error: ") and "not divisible" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "doublehurwitz", "h-poly", "--lambda", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "z_{0,1}" in proc.stdout


def test_output_bytes_stable_across_hash_seeds(tmp_path):
    import os

    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [
                sys.executable, "-m", "doublehurwitz",
                "h-series", "--lambda", "2,2", "--max-q-weight", "5",
                "--format", "json",
            ],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# one valid command per subcommand that reads numbers
VALID = {
    "compute-hurwitz": ("--genus", "0", "--lambda", "2", "--mu", "1,1"),
    "oracle": ("--genus", "0", "--lambda", "2", "--mu", "1,1"),
    "h-series": ("--lambda", "2", "--max-q-weight", "2"),
    "h-poly": ("--lambda", "2"),
    "x-table": ("--max-lambda-weight", "1", "--max-r", "1", "--max-nu-weight", "1", "--out", "x.json"),
    "z-series": ("--d", "1", "--r", "1", "--max-q-weight", "2", "--n-bound", "2"),
    "kp-check": ("--max-t-weight", "2"),
}
NUMERIC_ARGUMENTS = [(command, flag) for command, argv in VALID.items()
                     for flag in argv[::2] if flag != "--out"]
PARTITIONS = ("--lambda", "--mu")


def _with(command, flag, value):
    argv = list(VALID[command])
    argv[argv.index(flag) + 1] = value
    return [command, *argv]


def test_number_grammar_accepts_the_valid_commands(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command, argv in VALID.items():
        code, out, err = run_cli(command, *argv)
        assert (code, err) == (0, ""), command
        assert out


@pytest.mark.parametrize("value", ["3_0", "\u0663", "+3", " 3", "03", "-1", "1e3"])
@pytest.mark.parametrize("command, flag", NUMERIC_ARGUMENTS)
def test_number_grammar_refuses_what_int_would_accept(tmp_path, monkeypatch, command, flag, value):
    # a partition's later part is read by the same grammar as its first
    monkeypatch.chdir(tmp_path)
    text = f"1,{value}" if flag in PARTITIONS else value
    code, out, err = run_cli(*_with(command, flag, text))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1
    assert err.endswith(f"not {value!r}\n")
    assert not (tmp_path / "x.json").exists()


def test_run_writes_help_and_usage_errors_to_its_own_streams(capsys):
    code, out, err = run_cli("--help")
    assert (code, err) == (0, "") and out.startswith("usage: doublehurwitz")
    code, out, err = run_cli("h-series", "--help")
    assert (code, err) == (0, "") and out.startswith("usage: doublehurwitz h-series")
    code, out, err = run_cli("compute-hurwitz", "--genus", "x", "--lambda", "2", "--mu", "2")
    assert (code, out, err) == (
        2, "", "error: argument --genus: expected 0 or a positive integer in ASCII digits, not 'x'\n")
    code, out, err = run_cli("h-series", "--lambda", "2")
    assert (code, out, err) == (2, "", "error: the following arguments are required: --max-q-weight\n")
    code, out, err = run_cli("h-series", "--lambda", "2", "--max-q-weight", "9" * 5000)
    assert (code, out, err) == (
        2, "", "error: argument --max-q-weight: 5000 digits are more than int() reads\n")
    assert tuple(capsys.readouterr()) == ("", "")


def test_abbreviated_option_names_are_refused(tmp_path):
    # each option is read by its full name only, on the parser and every subparser
    for argv in (("h-series", "--lam", "2", "--max", "2"),
                 ("--cache", str(tmp_path), "h-series", "--lambda", "2", "--max-q-weight", "2"),
                 ("compute-hurwitz", "--genus", "0", "--lambda", "2", "--mu", "2", "--meth", "oracle")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("K", [16, 24])
def test_cutjoin_one_part_count_at_large_degree(tmp_path, K):
    # h_{0; (K), 1^K} = K^(K-3); the evolution keeps only the q_1^e terms
    code, out, err = run_cli("--cache-dir", str(tmp_path), "compute-hurwitz", "--genus", "0",
                             "--lambda", str(K), "--mu", ",".join(["1"] * K), "--method", "cutjoin")
    assert (code, out, err) == (0, f"{K ** (K - 3)}/1\n", "")
