"""No module of the package imports a name it never uses, no definition
goes unread, and the CLI starts without the slow-to-import standard modules.

A deletion that leaves its imports behind shows up here.  A name counts as
used if it is read anywhere in the module (quoted annotations included) or
listed in the module's ``__all__``.  A private (``_``-prefixed) module- or
class-level definition counts as read if some module of the package reads its
name, bare or as an attribute, outside the definition itself; a helper left
behind by a refactor shows up here.  A public module-level function or class
must be read the same way, or be named in a benchmark file
(``perfbench/*.py``): one that only the tests call shows up here.  So must a
public method of a module-level class: read as an attribute somewhere in the
package, named as ``.method`` in a benchmark file, or an override of a base
class's method (``_Parser.error``), which the base class calls.

A range refusal on an int argument has one writer, ``partitions.check_bound``:
outside ``partitions.py`` no ``if`` that compares a parameter of its
function with an int literal raises ``ValueError``.
"""

import ast
import importlib.util
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import doublehurwitz

MODULES = sorted(Path(doublehurwitz.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCHMARK_FILES = sorted(PERFBENCH.glob("*.py"))


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


def _attribute_reads(node: ast.AST) -> Counter:
    """How often each name is read under node as an attribute."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


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


def _overrides(path: Path, cls: str, name: str) -> bool:
    """Whether method name of class cls in module path overrides a base's."""
    module = importlib.import_module(f"doublehurwitz.{path.stem}")
    return any(name in vars(base) for base in getattr(module, cls).__mro__[1:])


def test_every_public_method_is_read_outside_the_tests():
    # read by attribute in the package outside its own body, named as
    # .name in a benchmark file, or an override that the base class calls
    trees = {path: ast.parse(path.read_text()) for path in MODULES}
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    benchmark = "\n".join(path.read_text() for path in BENCHMARK_FILES)
    unread = [f"{cls.name}.{node.name}" for path, tree in trees.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")
              and reads[node.name] - _attribute_reads(node)[node.name] <= 0
              and not re.search(rf"\.{node.name}\b", benchmark)
              and not _overrides(path, cls.name, node.name)]
    assert not unread, f"public methods only the tests read: {unread}"


def _benchmark_tracer():
    """perfbench/tracer.py as a module; importing it patches nothing."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_benchmark_tracer_binds_exists():
    # the tracer resolves these "module:attribute" names when a traced job
    # starts; a deleted one would fail only there
    tracer = _benchmark_tracer()
    specs = [target[1] for target in tracer.TARGETS] + [spec for _, spec in tracer.CACHED]
    for spec in specs:
        importlib.import_module(f"doublehurwitz.{spec.partition(':')[0]}")
    resolved = {}
    for spec in specs:
        try:
            resolved[spec] = tracer._resolve(spec)
        except (AttributeError, KeyError):
            pytest.fail(f"the benchmark tracer binds {spec}, which the package lacks")
    assert all(callable(value) for value in resolved.values())
    assert all(hasattr(resolved[spec], "cache_info") for _, spec in tracer.CACHED)
    # two names for one function leave the second rebind no site to wrap
    assert len({id(value) for value in resolved.values()}) == len(resolved)


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


def _is_int_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _raises_value_error(body: list) -> bool:
    for node in (sub for stmt in body for sub in ast.walk(stmt)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                return True
    return False


def _range_refusals(tree: ast.Module):
    """(enclosing function, line) of each if that compares a parameter of
    that function with an int literal and raises ValueError in its body."""

    def compares_a_parameter(test, params) -> bool:
        for node in ast.walk(test):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for x, y in zip(operands, operands[1:]):
                    for name, literal in ((x, y), (y, x)):
                        if isinstance(name, ast.Name) and name.id in params and _is_int_literal(literal):
                            return True
        return False

    def walk(node, scope, params):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
                yield from walk(child, child.name, names)
                continue
            if (isinstance(child, ast.If) and compares_a_parameter(child.test, params)
                    and _raises_value_error(child.body)):
                yield scope, child.lineno
            yield from walk(child, scope, params)

    yield from walk(tree, "", set())


def test_only_check_bound_writes_a_range_refusal():
    # one wording and one type check for every count: a hand-written
    # "if n < 1: raise ValueError" let None, a bool or a float through
    found = [(path.name, scope, line) for path in MODULES if path.name != "partitions.py"
             for scope, line in _range_refusals(ast.parse(path.read_text()))]
    assert not found, f"range refusals outside partitions.check_bound: {found}"


def test_range_refusal_rule_sees_a_hand_written_refusal():
    source = (
        "def f(n, bound=None):\n"
        "    if bound is not None and bound < -1:\n"
        "        raise ValueError('need bound >= -1')\n"
        "    if 0 > n:\n"
        "        raise TypeError('not this one')\n"
        "    def g(k):\n"
        "        if n < 1:\n"  # n is no parameter of g
        "            raise ValueError('n')\n"
        "        if k < len(n):\n"  # no int literal
        "            raise ValueError('k')\n"
        "        if 1 <= k:\n"
        "            raise ValueError(f'need k < 1, not {k}')\n"
    )
    assert list(_range_refusals(ast.parse(source))) == [("f", 2), ("g", 11)]
