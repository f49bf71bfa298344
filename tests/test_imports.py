"""No module of the package imports a name it never uses.

A deletion that leaves its imports behind shows up here.  A name counts as
used if it is read anywhere in the module (quoted annotations included) or
listed in the module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import doublehurwitz

MODULES = sorted(Path(doublehurwitz.__file__).parent.glob("*.py"))


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
