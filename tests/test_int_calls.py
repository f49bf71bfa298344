"""No ``int(...)`` call in the package outside the parsers of text and JSON.

``int()`` truncates a float and accepts a bool, so a value that should be
rejected becomes a silently wrong index.  Values from callers go through
``partitions.check_int``; only the functions that parse strings or JSON
documents may convert with ``int()``.
"""

import ast
from pathlib import Path

import doublehurwitz

MODULES = sorted(Path(doublehurwitz.__file__).parent.glob("*.py"))

PARSERS = {
    ("cli.py", "_number"),
    ("zseries.py", "ZPoly.from_json_list"),
}


def _int_calls(tree: ast.Module):
    """(qualified name of the enclosing function, line) of each int(...) call."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "int"):
                yield scope, child.lineno
            yield from walk(child, inner)

    yield from walk(tree, "")


def test_int_calls_only_in_parsers():
    found = [(path.name, scope, line)
             for path in MODULES
             for scope, line in _int_calls(ast.parse(path.read_text()))
             if (path.name, scope) not in PARSERS]
    assert not found, f"int() outside the text and JSON parsers: {found}"


def test_check_sees_an_int_call():
    tree = ast.parse("def f(x):\n    return int(x)\n\nclass C:\n    def g(self, y):\n        return [int(y)]\n")
    assert list(_int_calls(tree)) == [("f", 2), ("C.g", 6)]
