"""Tooling guards: the benchmark's tracer patches secat by dotted names,
which must resolve, and sizes calls by their arguments, which must read a
real call; the benchmark's queries all pass and their outputs keep their
pinned digests; no float may enter the exact arithmetic, every
definition in the package has a caller outside tests, no module imports
a name it does not use, importing the CLI loads no dataclass machinery,
and the bound pipeline takes no knob that a construction knows."""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest
from conftest import load_model

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


def _load_perfbench(name):
    """A module of perfbench/, loaded by path without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  TRACER.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_size_recorders_read_real_calls(monkeypatch):
    """Each size recorder in perfbench/tracer.py reads the arguments of a
    real call of its target, through the tracer's own wrapper: kernel_combos
    as the homology report calls it (in the degrees below the top with a
    nonzero Betti number, and at the top), solve_sparse on a small system.
    A signature drift that would break `--trace 1` fails here."""
    tracer = _load_perfbench("tracer")
    assert {name for name, (sizes, _) in tracer.TARGETS.items() if sizes} == {
        "linalg.kernel_combos", "linalg.solve_sparse"}
    traced = tracer.Tracer()
    linalg = importlib.import_module("secat.linalg")
    homology = importlib.import_module("secat.homology")
    T = load_model("truncated_mix.cdga")[0]["T"]
    want = homology.homology(T, 0, 8).betti_table()
    monkeypatch.setattr(homology, "kernel_combos",
                        traced.wrap("linalg.kernel_combos", linalg.kernel_combos))
    assert homology.homology(T, 0, 8).betti_table() == want
    equations = [({0: 1, 1: 1}, 1), ({1: 2}, 2)]
    solve = traced.wrap("linalg.solve_sparse", linalg.solve_sparse)
    assert solve(iter(equations), 2) == linalg.solve_sparse(equations, 2)
    stats = traced.stats
    assert stats["linalg.kernel_combos"]["calls"] == sum(1 for d in range(8) if want[d]) + 1
    assert stats["linalg.kernel_combos"]["cells"] > 0
    assert dict(stats["linalg.solve_sparse"]) == {"rows": 2, "cols": 2, "nnz": 3,
                                                   "calls": 1}


# the combined output digest of each benchmark workload, as perfbench/run.py
# prints it: a hash of the per-query digests of the reports and verdicts
BENCH_DIGESTS = {"cat-cap": "9ae306956affbfed", "tc-diagonal": "dbddbb790e5b0d18",
                 "model-tower": "e6a5535c87acd469",
                 "verify-corpus": "4fbe92457d031eb2"}


@pytest.mark.parametrize("workload", sorted(BENCH_DIGESTS))
def test_bench_outputs_keep_their_digests(workload):
    """Every query of the workload, run once through the worker's own query
    builder and runner, passes its check, and the outputs combine, as
    run.py's summarize combines them, to the pinned digest: the reports and
    certificate verdicts the benchmark times stay byte-identical."""
    queries, worker = _load_perfbench("queries"), _load_perfbench("worker")
    args = types.SimpleNamespace(workload=workload, seed=0, query=None,
                                 wrong_expected=False)
    digests, problems = {}, {}
    for qid, runner in worker.build_queries(args, queries):
        found, digests[qid] = worker.run_query(runner)
        if found:
            problems[qid] = found
    assert problems == {}
    combined = json.dumps(dict(sorted(digests.items())))
    assert hashlib.sha256(combined.encode()).hexdigest()[:16] == BENCH_DIGESTS[workload]


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
    "tensor": "products of presentations for tests and for the metamorphic "
              "suite of ROADMAP item 3",
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
    parts of dotted string constants (the tracer's TARGETS keys).  A string
    without a dot, such as a certificate key, is data and keeps no
    definition of the same name alive."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "." in node.value):
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


# calls that change an attribute's value in place: a write, not a read
MUTATORS = {"append", "extend", "add", "update"}


def _attribute_uses(tree):
    """({attribute: line of its first write}, {attributes read}) in a
    module.  A write is an assignment to the attribute or a MUTATORS call
    on it; every other use of an attribute reads it."""
    writes, reads, mutated = {}, set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and isinstance(node.func.value, ast.Attribute)):
            mutated.add(node.func.value)
            writes.setdefault(node.func.value.attr, node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Store):
                writes.setdefault(node.attr, node.lineno)
            elif node not in mutated:
                reads.add(node.attr)
    return writes, reads


def _string_reads(tree, plain=True):
    """Patterns of the attribute names that a module's strings may read
    by name: each dotted part of a string constant, and for an f-string its
    literal text with a word for each replacement field, when that text
    holds a letter (getattr(self, f"{side}_absolute")).  __slots__ lists
    declare attributes and read none.  With `plain` false, a string with no
    dot reads nothing: it is data, such as a certificate's field name."""
    slots = {id(c) for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
             for c in ast.walk(node.value)}
    pieces = {id(v) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
              for v in node.values}
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value for v in node.values if isinstance(v, ast.Constant))
            if any(ch.isalpha() for ch in text):
                yield "".join(re.escape(v.value) if isinstance(v, ast.Constant) else r"\w+"
                              for v in node.values)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in slots and id(node) not in pieces
              and (plain or "." in node.value)):
            yield from (re.escape(part) for part in node.value.split("."))


def _namedtuple_fields(tree):
    """(field, line, class) of each field of a module-level NamedTuple."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.target.id, item.lineno, node.name


# NamedTuple fields kept on purpose although no package, script or
# benchmark code reads them, each with the reason.
KEPT_UNREAD_FIELDS = {
    "TensorResult.include_left": KEPT_UNCALLED["tensor"],
    "TensorResult.include_right": KEPT_UNCALLED["tensor"],
}


def test_no_attribute_is_only_written():
    """An attribute that package code sets or fills, or a NamedTuple field,
    that no package, script or benchmark code reads is state no pipeline
    uses.  A field is read by name, as an attribute or in a dotted string;
    a plain string such as a certificate's data key names no field."""
    written, fields, declared = {}, {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line in _attribute_uses(tree)[0].items():
            written.setdefault(name, f"{path.name}:{line}")
        for name, line, cls in _namedtuple_fields(tree):
            declared.add(f"{cls}.{name}")
            if f"{cls}.{name}" not in KEPT_UNREAD_FIELDS:
                fields[f"{path.name}:{line} {cls}.{name}"] = name
    reads, patterns, dotted = set(), set(), set()
    for path in _callers() + [PACKAGE / "__init__.py"]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads |= _attribute_uses(tree)[1]
        patterns.update(_string_reads(tree))
        dotted.update(_string_reads(tree, plain=False))

    def unread(name, strings):
        return name not in reads and not any(re.fullmatch(p, name) for p in strings)

    found = [f"{where} {name}" for name, where in sorted(written.items())
             if unread(name, patterns)]
    found += [where for where, name in sorted(fields.items()) if unread(name, dotted)]
    assert not found, found
    # an allow-list entry whose field is gone is stale
    assert set(KEPT_UNREAD_FIELDS) <= declared


def test_write_only_scan_sees_assignments_mutations_and_string_reads():
    tree = ast.parse("self.a = 1\nself.b.append(2)\nx, self.c = f(self.d)\n"
                     "self.e.update(self.f)\ng(self.e)\n"
                     "getattr(self, f'{side}_absolute')\nh(f'{a}_{b}', 'k.m')\n"
                     "__slots__ = ('n',)\n")
    writes, reads = _attribute_uses(tree)
    assert sorted(writes) == ["a", "b", "c", "e"]
    assert sorted(reads) == ["append", "d", "e", "f", "update"]
    patterns = list(_string_reads(tree))
    assert [n for n in ("lower_absolute", "k", "m", "n", "x_y")
            if any(re.fullmatch(p, n) for p in patterns)] == ["lower_absolute", "k", "m"]
    dotted = list(_string_reads(ast.parse("f('k.m', 'key')\n"), plain=False))
    assert [n for n in ("k", "m", "key") if any(re.fullmatch(p, n) for p in dotted)] == [
        "k", "m"]
    fields = ast.parse("class R(NamedTuple):\n    a: int\n    b: str = ''\n"
                       "    def f(self): pass\nclass S:\n    c: int\n")
    assert list(_namedtuple_fields(fields)) == [("a", 2, "R"), ("b", 3, "R")]


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


# modules that `dataclasses` pulls in and nothing else in secat needs
DATACLASS_MACHINERY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_cli_loads_no_dataclass_machinery():
    """Records are NamedTuples or slotted classes, so a fresh interpreter
    that imports secat.cli loads none of `dataclasses`' imports; a record
    written as a dataclass again would add them to every CLI call's
    start-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, secat.cli; print(*sorted(m for m in sys.argv[1:] "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, *DATACLASS_MACHINERY],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_unused_import_scan_sees_plain_from_and_aliased_imports():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "import json as j\nfrom a import b, c\nb(os)\n")
    assert _unused_imports(tree) == [(3, "j"), (4, "c")]


def test_surjection_bounds_takes_no_knob_a_construction_knows():
    """The kernel generators, the pedigree, the window, the content top,
    the duality space and the names of the ends come from the surjection's
    value, which carries its recipe; a caller passes only the value and its
    own two choices."""
    from secat.invariants import surjection_bounds
    assert list(inspect.signature(surjection_bounds).parameters) == [
        "surjection", "with_m", "settled_upper"]
