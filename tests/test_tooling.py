"""Tooling guards: the benchmark's tracer patches secat by dotted names,
which must resolve, and no float may enter the exact arithmetic."""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    """The keys of TARGETS in perfbench/tracer.py, read without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [ast.literal_eval(k) for k in node.value.keys]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("name", _tracer_targets())
def test_tracer_target_resolves(name):
    module, *path = name.split(".")
    owner = importlib.import_module(f"secat.{module}")
    for part in path:
        assert hasattr(owner, part), f"{name}: secat.{module} has no {part}"
        owner = getattr(owner, part)
    assert callable(owner)


PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "secat"


def _float_sources(tree):
    """(line, what) for each true division and float(...) call in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_float_can_enter_exact_arithmetic(path):
    """Coefficients are ints or Fractions, so `a / b` on two ints would make a
    float silently; the package divides only with // or Fraction."""
    found = list(_float_sources(ast.parse(path.read_text(encoding="utf-8"))))
    assert not found, f"{path.name}: {found}"


def test_float_scan_sees_division_and_float_calls():
    tree = ast.parse("x = a / b\ny /= 2\nz = float(c)\nw = a // b\n")
    assert sorted(_float_sources(tree)) == [
        (1, "true division"), (2, "true division"), (3, "float() call")]
