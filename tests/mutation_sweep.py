"""Planted-bug sweep: each named one-line mutant of the package must fail tier-1.

Each mutant replaces one line of one module.  The sweep copies ``src/`` to a
temporary directory, checks that the mutant's old text occurs there exactly
once, applies it, and runs the tier-1 suite against the copy with ``-x``,
the mutated module's own test file first.  A mutant survives if the suite
still passes.  The unmutated copy runs first and must pass, so a kill is the
mutant's doing.  ``src/`` itself is never edited.

The mutants cover the packed-monomial format of ``packing.py``: each call of
its width rule (ZPoly's derivations sum through ``ZPoly.combine``, so its
call covers them), the rule's bound, the lower end of ``pack``'s range test
and the whole test, the sorted (canonical) order of ``unpack``, and the
field width of each of the two packers.  Two cover the series kernel: it keeps
cancelled products, so their keys reach the width rule, and it drops the
truncation test of a bucket pair.  Three cover series keyed by packed ints:
a factor of the kernel skips the width rule, the packed ``diff`` drops its
exponent factor, and ``kp_residual_of`` takes the fourth t_1-derivative of R
from the window-truncated second, which has lost the weights it lowers into
the window.  Two more
cover the layout of beta^m p_lam q_mu in ``cutjoin.py`` and the checked
division of ``exact.py``: the writer ``hurwitz_mono`` writes beta^0 as a
letter, and ``exact.div`` drops its remainder test.  Three cover helpers that other modules share
instead of keeping a copy of their own: ``mono_from_vars`` keeps the last
exponent of a repeated letter instead of their sum, ``aut_order`` multiplies
by m instead of m!, and the string-dilaton suite drops its dilaton failures.
Two keep every exponent a natural number: ``mono_from_vars`` lets psi go
negative again, and ``r_from_tau`` gives t_mu psi^-len(mu) instead of
psi^(1 - len(mu)) when it maps log tau(psi t) back to R.
Two cover the q-cap of ``evolve``: its divisor test drops the terms whose
exponent equals the cap, and ``h_lambda_series`` evolves on the intersection
of its lams' caps instead of their union.  Four cover the steps of
``evolve`` on series.PACKER keys: its genus cap counts the p-letters of a
term and not its q-letters, W's join of p_k with itself takes e e_k where
e (e_k - 1) is due, W's cut of p_k gives p_i p_(k-i-1), and the i d/dp_i
of ``_derivatives`` drops its factor i.
Three cover the code that each job of the series ring has in one place:
``exact.add_into``, the one running sum, ignores its ``mult``;
``GradedSeries.map_terms``, the one term-wise linear map, drops the factor
c of each image pair; and the alphabet table ``_ALPHABETS`` gives t_{i,j}
the weight i + j.  Two are bugs that only a narrow check kills: the
Murnaghan-Nakayama rule flips the sign of border strips of height >= 6
(the frobenius number of ``compute-hurwitz`` reads it on the divisor
lattice, through the one-part and Hurwitz formulas at degree >= 7), and
``recursion._block_product`` skips the factors with t_head >= 7.
Two cover that divisor lattice, ``cutjoin._lattice_number``: its logarithm
weighs the subtracted products by the p-weight d(M) of the monomial instead
of d(M1) of their H factor, and its sub-multisets of lam stop one short of
each part's multiplicity.
Two cover a job that one place does for every caller: the partition-monomial
writer ``series.partition_mono`` gives every letter exponent 1, and the CLI
renders every ``verify`` row as pass.
Five cover the recursion's table entry and its int block products: the
entry drops the factor s of x_{(s,m+1) u R}, G~_1(c, t) = t x_{(t,0) u c}
loses its scalar t, the block product's binomial C(c, head) becomes 1, a
row of the correction's bookkeeping takes nu! where k consumed copies of a
pair need nu!^k, and the correction divides by (l-1)! instead of l!.
One drops ``compute_x``'s refusal of a forced pivot with lam = 0, and one
lets ``exact.ratio``, the one renderer of num/den that the ZPoly JSON writer
shares, skip its gcd, so a coefficient such as 2/4 is written unreduced when
the common denominator is above 1.
Two cover the letter pass of ``psi_series``: appending t_{i,j} multiplies by 1
instead of C(sum nu + j, j), and its last slice (W - a - l + 3) // 2 loses
its + 3.
Two cover ``partitions.check_bound``, the one range check of every int
argument: it compares with <= and so refuses its least value, and it skips
``check_int``, so a bool passes as an int and None fails with a bare '<'.
Forty-eight mutants in all.
A module with no test file of its own goes straight to the whole suite.

Run from the repository root:

    PYTHONPATH=src python tests/mutation_sweep.py

Prints the test that killed each mutant, and exits 1 if any survives (or an
old text is not found exactly once).  Takes about three minutes.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]

# (name, module, old text, new text): the old text occurs once in the module
MUTANTS = [
    ("evolve skips the width rule", "cutjoin.py",
     "        PACKER.check(joined)\n", ""),
    ("ZPoly.combine skips the width rule", "zseries.py",
     "        PACKER.check(acc)\n        return _poly", "        return _poly"),
    ("exp skips the width rule", "series.py",
     "            PACKER.check([p for b in F[n].values() for p in b])\n", ""),
    ("log skips the width rule", "series.py",
     "                PACKER.check([p for b in grade.values() for p in b])\n", ""),
    ("the range rule admits its limit", "packing.py",
     "if not 0 <= e < limit:", "if not 0 <= e <= limit:"),
    ("pack admits a negative exponent", "packing.py",
     "if not 0 <= e < limit:", "if not e < limit:"),
    ("pack without its range test", "packing.py",
     "if not 0 <= e < limit:", "if False:"),
    ("unpack returns field order", "packing.py",
     "mono = self.decoded[key] = tuple(sorted(self.fields(key)))",
     "mono = self.decoded[key] = tuple(self.fields(key))"),
    ("the series kernel keeps cancelled products", "series.py",
     "bucket = {p: c for p, c in acc.items() if c}", "bucket = dict(acc)"),
    ("_mul_into without its caps test", "series.py",
     "            if any(w > cap for w, cap in zip(key, caps)):\n                continue\n", ""),
    ("a factor skips the width rule", "series.py",
     "            PACKER.check(self.nums)\n", ""),
    ("the packed diff drops its exponent factor", "series.py",
     "{key - unit: n * e for key, n", "{key - unit: n for key, n"),
    ("the fourth t_1-derivative of R is taken from the window-truncated second", "kp.py",
     "    d4_t1 = d2_t1.diff(t1).diff(t1).truncate(window)\n    d2_t1 = d2_t1.truncate(window)\n",
     "    d2_t1 = d2_t1.truncate(window)\n    d4_t1 = d2_t1.diff(t1).diff(t1).truncate(window)\n"),
    ("ZPoly's fields one bit short", "zseries.py",
     "PACKER = Packer(8)", "PACKER = Packer(7)"),
    ("the series kernel's fields one bit short", "series.py",
     "PACKER = Packer(15)", "PACKER = Packer(14)"),
    ("hurwitz_mono writes beta^0", "cutjoin.py",
     "(((BETA_VAR, m),) if m else ())", "((BETA_VAR, m),)"),
    ("exact.div drops its remainder test", "exact.py",
     "    if remainder:\n", "    if False:\n"),
    ("mono_from_vars keeps the last exponent of a letter", "series.py",
     "acc[var] = acc.get(var, 0) + e", "acc[var] = e"),
    ("mono_from_vars exempts psi again", "series.py",
     "        if e < 0:\n            raise ValueError(f\"negative exponent",
     "        if e < 0 and var != PSI_VAR:\n            raise ValueError(f\"negative exponent"),
    ("r_from_tau maps by psi^-len(mu) instead of psi^(1 - len(mu))", "kp.py",
     "shift = 1 - sum(", "shift = -sum("),
    ("aut_order multiplies by m, not m!", "partitions.py",
     "        out *= factorial(m)\n", "        out *= m\n"),
    ("suite_string_dilaton drops its dilaton failures", "verify.py",
     "(dilaton_identity_sides, dilatons)", "(dilaton_identity_sides, [])"),
    ("evolve's divisor test drops the exponent at the cap", "cutjoin.py",
     "cap.get(var, 0) < e", "cap.get(var, 0) <= e"),
    ("h_lambda_series intersects its caps", "cutjoin.py",
     "cap |= Counter(rest)", "cap &= Counter(rest)"),
    ("the genus cap counts only p-letters", "cutjoin.py",
     "_p_part(key & pmask)[1] + q_part(key)[0] >= least_parts",
     "_p_part(key & pmask)[1] >= least_parts"),
    ("W's join of a letter with itself takes e e_j, not e (e_j - 1)", "cutjoin.py",
     "mult = e * (ej - 1 if j == k else ej)", "mult = e * ej"),
    ("W's cut of p_k gives p_i p_(k-i-1)", "cutjoin.py",
     "move = unit[i] + unit[k - i] - unit[k]", "move = unit[i] + unit[k - i - 1] - unit[k]"),
    ("_derivatives drops the factor i from i e c", "cutjoin.py",
     "coefficients.append(i * e * c)", "coefficients.append(e * c)"),
    ("add_into ignores mult", "exact.py",
     "    scale = den // part_den * mult\n", "    scale = den // part_den\n"),
    ("map_terms drops the image's factor c", "series.py",
     "out[new] = get(new, 0) + n * c", "out[new] = get(new, 0) + n"),
    ("the alphabet table gives t_{i,j} the weight i + j", "series.py",
     'T: (2, 1, "t_{{{},{}}}"),', 'T: (2, 0, "t_{{{},{}}}"),'),
    ("Murnaghan-Nakayama flips the sign of hooks of height >= 6", "symgroup.py",
     "total += (-1) ** jumped * _mn(", "total += (-1) ** (jumped + (jumped >= 6)) * _mn("),
    ("_block_product skips t_head >= 7", "recursion.py",
     "for t_head in range(1, t - j + 2):", "for t_head in range(1, min(t - j + 2, 7)):"),
    ("the lattice's subtracted sum weighs by d(M), not d(M1)", "cutjoin.py",
     "h *= d1\n", "h *= d\n"),
    ("the sub-multisets of lam stop one short of each multiplicity", "cutjoin.py",
     "for mults in (Counter(lam), Counter(mu)):",
     "for mults in (Counter(lam) - Counter(set(lam)), Counter(mu)):"),
    ("the partition-monomial writer gives every letter exponent 1", "series.py",
     "(var(i), e) for i, e in sorted(Counter(parts).items())",
     "(var(i), 1) for i, e in sorted(Counter(parts).items())"),
    ("the CLI renders every verify row as pass", "cli.py",
     '"status": "pass" if ok else "fail"', '"status": "pass"'),
    ("the table entry drops the factor s", "recursion.py",
     "terms = [(s, _x(", "terms = [(1, _x("),
    ("G~_1(c, t) gets the scalar 1 instead of t", "recursion.py",
     "value = t, _x(", "value = 1, _x("),
    ("the block product's C(c, head) becomes 1", "recursion.py",
     "prod(map(comb, c, head))", "1"),
    ("a correction row takes nu! for nu!^k", "recursion.py",
     "factorial(nu) ** k", "factorial(nu)"),
    ("the correction divides by (l-1)! instead of l!", "recursion.py",
     "factorial(ell)", "factorial(ell - 1)"),
    ("compute_x rewrites a pivot with lam = 0", "recursion.py",
     "        if key[pivot_index][0] < 1:\n", "        if False:\n"),
    ("ratio, the JSON writer's renderer, skips its gcd", "exact.py",
     "    g = gcd(n, den)\n", "    g = 1\n"),
    ("psi_series' letter factor C(sum nu + j, j) becomes 1", "zseries.py",
     "c = comb(nu + j, j)", "c = 1"),
    ("psi_series' last slice loses its + 3", "zseries.py",
     "top = (t_weight_bound - a - ell + 3) // 2", "top = (t_weight_bound - a - ell) // 2"),
    ("check_bound compares with <=", "partitions.py",
     "    if check_int(v) < least:\n", "    if check_int(v) <= least:\n"),
    ("check_bound skips check_int", "partitions.py",
     "    if check_int(v) < least:\n", "    if v < least:\n"),
]


def tier1(src: Path, first: Optional[str] = None) -> tuple:
    """(passed, first failing test or error line) of tier-1 against src.
    The test file first, if given, runs on its own before the whole suite,
    so a mutant its own module's tests kill costs seconds."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for target in ([first] if first and (ROOT / first).exists() else []) + ["tests"]:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", target],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        if proc.returncode:
            failed = [line.split(" - ")[0] for line in proc.stdout.splitlines()
                      if line.startswith(("FAILED", "ERROR"))]
            return False, (failed or proc.stdout.splitlines()[-1:] or ["?"])[0]
    return True, ""


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        passed, detail = tier1(src)
        if not passed:
            print(f"the unmutated copy fails tier-1: {detail}")
            return 1
        for name, module, old, new in MUTANTS:
            path = src / "doublehurwitz" / module
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: the old text occurs {text.count(old)} times in {module}")
                survivors.append(name)
                continue
            path.write_text(text.replace(old, new))
            t0 = time.perf_counter()
            try:
                passed, detail = tier1(src, f"tests/test_{module[:-3]}.py")
            finally:
                path.write_text(text)
            verdict = "SURVIVED" if passed else f"killed by {detail}"
            print(f"{name}: {verdict} ({time.perf_counter() - t0:.1f} s)", flush=True)
            if passed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
