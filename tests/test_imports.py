"""No module of the package imports a name it never uses, no definition
goes unread, and the CLI starts without the slow-to-import standard modules.

A deletion that leaves its imports behind shows up here.  A name counts as
used if it is read anywhere in the module (quoted annotations included) or
listed in the module's ``__all__``.  A private (``_``-prefixed) module- or
class-level definition counts as read if some module of the package reads its
name, bare or as an attribute, outside the definition itself; a helper left
behind by a refactor shows up here.  A public module-level function or class
must be read the same way, or be named in a benchmark file
(``perfbench/*.py``): one that only the tests call shows up here.
"""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import doublehurwitz

MODULES = sorted(Path(doublehurwitz.__file__).parent.glob("*.py"))
BENCHMARK_FILES = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """Each name an import statement binds, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):  # a quoted annotation such as "ZPoly"
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            parsed = ast.parse(annotation.value, mode="eval")
            used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_found():
    assert {"cli.py", "series.py", "zseries.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    unused = {name: line for name, line in _imported(tree).items() if name not in _used(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _definitions(tree: ast.Module):
    """Each private (single-underscore) definition at module or class level:
    (name, the statement that defines it)."""
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    yield name, node


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under node, as a bare name or an attribute."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            reads[sub.attr] += 1
    return reads


def test_every_private_definition_is_read():
    # By name across the package: a read inside the definition itself (a
    # function that only calls itself) does not count.
    trees = [ast.parse(path.read_text()) for path in MODULES]
    reads = sum((_reads(tree) for tree in trees), Counter())
    unread = [name for tree in trees for name, node in _definitions(tree)
              if reads[name] - _reads(node)[name] <= 0]
    assert not unread, f"private definitions nothing in the package reads: {unread}"


def test_every_public_function_and_class_is_read_outside_the_tests():
    # __init__.py only re-exports: its imports and __all__ read nothing, so a
    # name read nowhere else is one that only the tests call
    trees = [ast.parse(path.read_text()) for path in MODULES]
    reads = sum((_reads(tree) for tree in trees), Counter())
    benchmark = "\n".join(path.read_text() for path in BENCHMARK_FILES)
    unread = [node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and reads[node.name] - _reads(node)[node.name] <= 0
              and not re.search(rf"\b{node.name}\b", benchmark)]
    assert not unread, f"public definitions only the tests read: {unread}"


def test_cli_imports_without_dataclasses_or_inspect():
    # every CLI job pays its imports at start-up; dataclasses pulls in
    # inspect, and the two took about 10 ms of each start (Python 3.11, 2-core
    # Xeon)
    src = str(Path(doublehurwitz.__file__).parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import doublehurwitz.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
