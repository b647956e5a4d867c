"""The benchmark's tracer patches secat by dotted names; they must resolve."""

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
