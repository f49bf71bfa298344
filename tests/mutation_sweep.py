"""Planted-bug sweep: each named one-line mutant of the package must fail tier-1.

Each mutant replaces one line of one module.  The sweep copies ``src/`` to a
temporary directory, checks that the mutant's old text occurs there exactly
once, applies it, and runs the tier-1 suite against the copy with ``-x``,
the mutated module's own test file first.  A mutant survives if the suite
still passes.  The unmutated copy runs first and must pass, so a kill is the
mutant's doing.  ``src/`` itself is never edited.

The mutants cover the packed-monomial format of ``packing.py``: each call of
its width rule, the rule's bound, the lower end of ``pack``'s range test and
the whole test, the sorted (canonical) order of ``unpack``, and the field
width of each of the three packers.  Two cover the series kernel: it keeps
cancelled products, so their keys reach the width rule, and it drops the
truncation test of a bucket pair.  Three more
cover the layout of beta^m p_lam q_mu in ``cutjoin.py`` and the checked
division of ``exact.py``: the reader ``_blocks`` no longer skips beta, the
writer ``hurwitz_mono`` writes beta^0 as a letter, and ``exact.div`` drops
its remainder test.  Three cover helpers that other modules share
instead of keeping a copy of their own: ``mono_from_vars`` keeps the last
exponent of a repeated letter instead of their sum, ``aut_order`` multiplies
by m instead of m!, and the string-dilaton suite drops its dilaton failures.
Two keep every exponent a natural number: ``mono_from_vars`` lets psi go
negative again, and ``r_from_tau`` gives t_mu psi^-len(mu) instead of
psi^(1 - len(mu)) when it maps log tau(psi t) back to R.
Two cover the q-cap of ``evolve``: its divisor test drops the terms whose
exponent equals the cap, and ``h_lambda_series`` evolves on the intersection
of its lams' caps instead of their union.
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
Three cover the recursion's table entry and its int block products: the
entry drops the factor s of x_{(s,m+1) u R}, the block product's binomial
C(c, head) becomes 1, and the correction divides by (l-1)! instead of l!.
One drops ``compute_x``'s refusal of a forced pivot with lam = 0.
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
     "        packer.check(joined)\n", ""),
    ("ZPoly.combine skips the width rule", "zseries.py",
     "        PACKER.check(acc)\n        return _poly", "        return _poly"),
    ("_zpoly_derivation skips the width rule", "zseries.py",
     "    PACKER.check(acc)\n    return _poly", "    return _poly"),
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
     "mono = self.decoded[key] = tuple(sorted(out))", "mono = self.decoded[key] = tuple(out)"),
    ("the series kernel keeps cancelled products", "series.py",
     "bucket = {p: c for p, c in acc.items() if c}", "bucket = dict(acc)"),
    ("_mul_into without its caps test", "series.py",
     "            if any(w > cap for w, cap in zip(key, caps)):\n                continue\n", ""),
    ("evolve's fields one bit short", "cutjoin.py",
     "Packer(q_bound.bit_length() + 1,", "Packer(q_bound.bit_length() + 0,"),
    ("ZPoly's fields one bit short", "zseries.py",
     "PACKER = Packer(8)", "PACKER = Packer(7)"),
    ("the series kernel's fields one bit short", "series.py",
     "PACKER = Packer(15)", "PACKER = Packer(14)"),
    ("_blocks does not skip beta", "cutjoin.py",
     "lo = hi = 1 if mono and mono[0][0] == BETA_VAR else 0", "lo = hi = 0"),
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
    ("the block product's C(c, head) becomes 1", "recursion.py",
     "choose = prod(comb(c_i, h_i) for c_i, h_i in zip(c, head))", "choose = 1"),
    ("the correction divides by (l-1)! instead of l!", "recursion.py",
     "factorial(ell)", "factorial(ell - 1)"),
    ("compute_x rewrites a pivot with lam = 0", "recursion.py",
     "        if key[pivot_index][0] < 1:\n", "        if False:\n"),
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
