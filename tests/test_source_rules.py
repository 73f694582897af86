"""Rules that every module under src/adaptsim keeps, checked on its syntax
tree: the imports, names and attributes it uses.  Docstrings, comments and
other strings are not code, so they may name anything."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "adaptsim"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def places(module: str):
    """Each node of ``module`` with the dotted name of the innermost
    function or class that holds it, which starts with the module's name."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}" if isinstance(child, SCOPES) else scope
            yield child, inner
            yield from walk(child, inner)

    yield from walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), module)


def words(node) -> set[str]:
    """The identifiers that ``node`` itself uses: a name, an attribute, or
    each part of an imported module or name and of its alias."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {*node.name.split("."), node.asname}
    if isinstance(node, ast.ImportFrom):
        return set((node.module or "").split("."))
    return set()


# Each rule's identifiers, and the one function that may use them.
ONE_PLACE = {
    "dataclasses.dataclass builds classes only in errors.frozen": ({"dataclass"}, "errors.frozen"),
    "pools and CPU counts live only in engine.map_ordered": (
        {"ThreadPoolExecutor", "ProcessPoolExecutor", "cpu_count", "sched_getaffinity", "concurrent"},
        "engine.map_ordered",
    ),
}


@pytest.mark.parametrize("rule", ONE_PLACE)
def test_a_job_with_one_implementation_is_named_only_there(rule):
    names, home = ONE_PLACE[rule]
    uses = [
        (scope, f"{module}.py:{node.lineno} in {scope}: {', '.join(sorted(names & words(node)))}")
        for module in MODULES
        for node, scope in places(module)
        if names & words(node)
    ]
    assert [where for scope, where in uses if scope != home and not scope.startswith(home + ".")] == []
    assert uses, f"nothing under src/adaptsim uses {sorted(names)}; {home} has moved"


def test_no_membership_test_scans_a_slice():
    """``x in seq[:i]`` copies the slice and compares x with each item; a
    loop of them is quadratic where ``errors.check_unique`` is one pass."""
    scans = [
        f"{module}.py:{node.lineno} in {scope}"
        for module in MODULES
        for node, scope in places(module)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(op, (ast.In, ast.NotIn)) and isinstance(right, ast.Subscript) and isinstance(right.slice, ast.Slice)
            for op, right in zip(node.ops, node.comparators)
        )
    ]
    assert scans == []
