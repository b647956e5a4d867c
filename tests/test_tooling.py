"""Tooling guards: the benchmark's tracer patches secat by dotted names,
which must resolve, no float may enter the exact arithmetic, every
definition in the package has a caller outside tests, and no module imports
a name it does not use."""

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


ROOT = PACKAGE.parent.parent

# Definitions kept on purpose although no package, script or benchmark code
# calls them, each with the reason.
KEPT_UNCALLED = {
    "to_vector": "Presentation and SemiFreeModule: dense reference views "
                 "that tests compare the sparse coordinates against",
    "monomial": "Presentation.monomial: the element factory that tests use",
    "tensor": "products of presentations for tests and for the metamorphic "
              "suite of ROADMAP item 3",
    "print_morphism": "the writer half of the text format's morphism syntax",
    "split_retraction_certificate": "the only producer of relative-split "
                                    "certificates; models/stanley_retraction.cert "
                                    "is its frozen output",
}


def _definitions(tree):
    """(name, line) of each module-level def/class and each non-dunder
    method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item.lineno


def _references(tree):
    """Every name a module uses: names, attributes, imported names, and the
    dotted parts of string constants (the tracer's TARGETS keys)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def _callers():
    return ([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
            + list((ROOT / "scripts").glob("*.py"))
            + list((ROOT / "perfbench").glob("*.py")))


def test_every_definition_has_a_caller():
    """Code that no pipeline, script or benchmark reaches leaves the package:
    an export from __init__ or a test alone does not keep it."""
    used = set()
    for path in _callers():
        used.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    defined = [(path.name, line, name)
               for path in sorted(PACKAGE.glob("*.py"))
               for name, line in _definitions(ast.parse(path.read_text(encoding="utf-8")))]
    uncalled = [f"{file}:{line} {name}" for file, line, name in defined
                if name not in used and name not in KEPT_UNCALLED]
    assert not uncalled, uncalled
    # an allow-list entry whose definition is gone is stale
    assert set(KEPT_UNCALLED) <= {name for _, _, name in defined}


def _unused_imports(tree):
    """(line, name) of each imported name that the module never uses as a
    name; `from __future__` imports are directives, not names."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    """Package modules, tests and scripts import only what they use
    (`__init__` re-exports on purpose and is left out)."""
    paths = ([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
             + list((ROOT / "tests").glob("*.py"))
             + list((ROOT / "scripts").glob("*.py")))
    found = [f"{path.relative_to(ROOT)}:{line} {name}" for path in sorted(paths)
             for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, found


def test_unused_import_scan_sees_plain_from_and_aliased_imports():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "import json as j\nfrom a import b, c\nb(os)\n")
    assert _unused_imports(tree) == [(3, "j"), (4, "c")]
