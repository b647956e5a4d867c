"""Semifree modules: resolutions, module homology, retraction solving."""

import json

import pytest

from conftest import MODELS, load_model

import secat.semifree
from secat.cli import main

from secat.core import (
    CdgaError, DegreeMismatch, Presentation, RangeExceedsCap, quotient_by_ideal,
    sub_presentation,
)
from secat.homology import IdealPowers, PresentationView, homology
from secat.invariants import cat_bounds, tc_bounds
from secat.linalg import Echelon
from secat.semifree import (
    UNIT, SemiFreeModule, find_module_retraction, resolve_and_retract,
    resolve_quotient, semifree_from_relative, verify_module_retraction,
)


# ---------------------------------------------------------------------------
# viewing relative extensions as modules over their base


def test_hopf_extension_as_a_module(models):
    A = models["A"]
    total = Presentation([("a", 4), ("x", 7), ("y", 3)], A.cap,
                         differentials={"x": {(("a", 2),): 1},
                                        "y": {(("a", 1),): 1}})
    module = semifree_from_relative(total, ["a", "x"], ["y"], A, cap=12)
    assert [(n, d) for n, d in module.gen_list if n != UNIT] == [("y", 3)]
    assert module.d["y"] == {UNIT: A.gen("a")}
    assert module.d2_failure(up_to=12) is None


def test_acyclic_closure_as_a_module(models):
    S3 = models["S3"]
    # the acyclic closure of the odd sphere: Lambda(u, h2_0) with d h2_0 = u
    total = Presentation([("u", 3), ("h2_0", 2)], 8,
                         differentials={"h2_0": {(("u", 1),): 1}})
    module = semifree_from_relative(total, ["u"], ["h2_0"], S3, cap=8)
    names = dict(module.gen_list)
    assert names["h2_0"] == 2 and names["h2_0^2"] == 4
    u = S3.gen("u")
    assert module.d["h2_0"] == {UNIT: u}
    assert module.d["h2_0^2"] == {"h2_0": u * 2}
    assert module.d["h2_0^3"] == {"h2_0^2": u * 3}
    assert module.d2_failure(up_to=7) is None


def test_path_fibration_as_a_module():
    # the path fibration of the even sphere Lambda(a: 2, x: 3), dx = a^2:
    # two copies of the sphere and one hat per generator, one degree down
    total = Presentation(
        [("a1", 2), ("x1", 3), ("a2", 2), ("x2", 3), ("a_h", 1), ("x_h", 2)], 10,
        differentials={"x1": {(("a1", 2),): 1}, "x2": {(("a2", 2),): 1},
                       "a_h": {"a2": 1, "a1": -1},
                       "x_h": {"x2": 1, "x1": -1, (("a_h", 1), ("a1", 1)): -1,
                               (("a_h", 1), ("a2", 1)): -1}},
        simply_connected=False)
    base, _ = sub_presentation(total, ["a1", "x1", "a2", "x2"])
    module = semifree_from_relative(total, [g.name for g in base.generators],
                                    ["a_h", "x_h"], base, cap=8)
    a1, a2 = base.gen("a1"), base.gen("a2")
    x1, x2 = base.gen("x1"), base.gen("x2")
    assert module.d["a_h"] == {UNIT: a2 - a1}
    assert module.d["x_h"] == {UNIT: x2 - x1, "a_h": -a1 - a2}
    assert module.d2_failure(up_to=7) is None


def test_module_splitting_keeps_relation_coefficients(models):
    Q = models["Q"]
    base, _ = sub_presentation(Q, ["a"])
    module = semifree_from_relative(Q, ["a"], ["b", "x"], base, cap=10)
    a = base.gen("a")
    assert module.d["x"] == {UNIT: a * a, "b^2": base.one()}
    assert module.d["b^2*x"] == {"b^2": a * a, "b^4": base.one()}
    assert module.d2_failure(up_to=9) is None


def test_module_rejects_misplaced_coefficients(models):
    S2 = models["S2"]
    with pytest.raises(DegreeMismatch):
        SemiFreeModule(S2, [("g", 2)], {"g": {UNIT: S2.gen("a")}})
    with pytest.raises(CdgaError):
        SemiFreeModule(S2, [("g", 2)], {"g": {"missing": S2.gen("x")}})


def test_module_square_failure_is_reported(models):
    S2 = models["S2"]
    # d(g) = x but d(x) = a^2 != 0, so d^2(g) = a^2 . unit
    mod = SemiFreeModule(S2, [("g", 2)], {"g": {UNIT: S2.gen("x")}})
    bad = mod.d2_failure(up_to=4)
    assert bad is not None and bad[0] == "g"
    assert bad[1] == {UNIT: S2.gen("a") * S2.gen("a")}


def test_module_vector_roundtrip(models):
    Q = models["Q"]
    base, _ = sub_presentation(Q, ["a"])
    module = semifree_from_relative(Q, ["a"], ["b", "x"], base, cap=10)
    for n in range(0, 8):
        basis = module.basis(n)
        assert module.dim(n) == len(basis)
        for i, (gname, mono) in enumerate(basis):
            mel = module.basis_element(gname, mono)
            vec = module.to_vector(mel, n)
            assert [bool(v) for v in vec] == [j == i for j in range(len(vec))]
            assert module.from_vector(n, vec) == mel


# ---------------------------------------------------------------------------
# semifree resolutions of quotients


def test_resolution_of_the_point_over_an_odd_sphere(models):
    S3 = models["S3"]
    res = resolve_quotient(S3, [S3.gen("u")], 6)
    assert homology(res.quotient, 0, 6).betti_table() == {
        0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}
    gens = [(n, d) for n, d in res.module.gen_list if n != UNIT]
    assert gens == [("r2_0", 2), ("r4_0", 4)]
    u = S3.gen("u")
    assert res.module.d["r2_0"] == {UNIT: u}
    assert res.module.d["r4_0"] in ({"r2_0": u}, {"r2_0": -u})
    mh = homology(res.module, 0, 6)
    assert mh.betti_table() == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}


def test_resolution_of_a_hypersurface_quotient(models):
    S2 = models["S2"]
    a = S2.gen("a")
    res = resolve_quotient(S2, [a], 7)
    gens = [(n, d) for n, d in res.module.gen_list if n != UNIT]
    assert gens == [("r1_0", 1)]
    assert res.module.d["r1_0"] == {UNIT: a}
    mh = homology(res.module, 0, 7)
    hq = homology(res.quotient, 0, 7)
    assert mh.betti_table() == hq.betti_table()
    # the comparison map matches classes, not just dimensions
    rep = mh.representatives(3)[0]
    assert not hq.is_zero_class(res.eps_apply(rep), 3)


def _relation_cases():
    """(model label, ideal generators) for every bundled cdga with relations:
    each positive generator that is a cycle, and all positive generators."""
    cases = []
    for path in sorted(MODELS.glob("*.cdga")):
        for label, P in load_model(path.name)[0].items():
            if P.is_free:
                continue
            names = [g.name for g in P.generators if g.degree > 0]
            cases += [(label, (n,)) for n in names if not P.gen(n).d()]
            if (label, tuple(names)) not in cases:
                cases.append((label, tuple(names)))
    return cases


@pytest.mark.parametrize("label,gens", _relation_cases(),
                         ids=[f"{label}-{'+'.join(gens)}"
                              for label, gens in _relation_cases()])
def test_resolution_homology_matches_the_quotient(models, label, gens):
    P = models[label]
    E = P.cap - 1
    res = resolve_quotient(P, [P.gen(n) for n in gens], E)
    hm = homology(res.module, 0, E)
    hq = homology(res.quotient, 0, E)
    assert hm.betti_table() == hq.betti_table()
    # eps carries the module's class basis onto a basis of the quotient's
    for d in range(E + 1):
        image = Echelon(hq.betti(d))
        for rep in hm.representatives(d):
            assert image.add(hq.class_coords(res.eps_apply(rep), d)) is not None
        assert image.rank == hq.betti(d)


@pytest.mark.xfail(strict=True, reason="hit_and_kill starts at degree 1, so "
                   "t.1 in degree 1 is never killed over a degree-1 base")
def test_resolution_over_a_degree_one_base_matches_the_quotient():
    A = Presentation([("t", 1), ("x", 2)], 8, simply_connected=False)
    res = resolve_quotient(A, [A.gen("t")], 7)
    assert (homology(res.module, 0, 7).betti_table()
            == homology(res.quotient, 0, 7).betti_table())


def test_resolution_range_guard(models):
    with pytest.raises(RangeExceedsCap):
        resolve_quotient(models["T"], [models["T"].gen("a")], 14)


# ---------------------------------------------------------------------------
# module retractions


@pytest.fixture()
def squares_module(models):
    Q = models["Q"]
    base, _ = sub_presentation(Q, ["a"])
    return base, semifree_from_relative(Q, ["a"], ["b", "x"], base, cap=10)


def test_retraction_closed_form_on_even_powers(squares_module):
    base, module = squares_module
    ret = find_module_retraction(module, 9)
    assert ret is not None
    a = base.gen("a")
    assert ret.values["b^2"] == -(a * a)
    assert ret.values["b^4"] == a * a * a * a
    assert ret.values["b"] == base.zero()
    assert ret.values["x"] == base.zero()
    assert ret.values[UNIT] == base.one()
    assert ret.checked_up_to == 9
    assert ret.free_unknowns > 0
    assert verify_module_retraction(module, ret.values, 9) is None


def test_retraction_infeasible_when_a_class_survives(models):
    A = models["A"]
    total = Presentation([("a", 4), ("x", 7), ("y", 3)], A.cap,
                         differentials={"x": {(("a", 2),): 1},
                                        "y": {(("a", 1),): 1}})
    module = semifree_from_relative(total, ["a", "x"], ["y"], A, cap=8)
    # r(dy) = a would need a primitive of a in the base
    assert find_module_retraction(module, 4) is None
    short = find_module_retraction(module, 3)
    assert short is not None and short.values["y"] == A.zero()


def test_retraction_verifier_rejects_corruption(squares_module):
    base, module = squares_module
    ret = find_module_retraction(module, 9)
    good = dict(ret.values)

    flipped = dict(good)
    flipped["b^2"] = -flipped["b^2"]
    bad = verify_module_retraction(module, flipped, 9)
    assert bad is not None and bad[0] == "x"

    unitless = dict(good)
    unitless[UNIT] = base.one() * 2
    assert verify_module_retraction(module, unitless, 9) == (
        UNIT, "unit is not sent to 1")

    missing = dict(good)
    del missing["b"]
    bad = verify_module_retraction(module, missing, 9)
    assert bad == ("b", "no value assigned")

    unreachable = dict(good)
    del unreachable["b^2"]
    bad = verify_module_retraction(module, unreachable, 9)
    assert bad == ("x", "differential reaches an unassigned generator")

    shifted = dict(good)
    shifted["b"] = base.gen("a") * base.gen("a")
    bad = verify_module_retraction(module, shifted, 9)
    assert bad == ("b", "value has the wrong degree")


def test_retraction_on_a_join_level(models):
    # level-1 join of the resolution of S2/(a): its one generator p, of
    # degree 3, collapses onto the unit with d(p) = -a^2 = -d(x), so the
    # right-hand side comes from a unit coefficient and r(p) = -x
    S2 = models["S2"]
    a = S2.gen("a")
    join = SemiFreeModule(S2, [("p", 3)], {"p": {UNIT: -(a * a)}})
    ret = find_module_retraction(join, 7)
    assert ret is not None
    assert ret.values["p"] == -S2.gen("x")
    assert verify_module_retraction(join, ret.values, 7) is None


# ---------------------------------------------------------------------------
# the m-loop's search, stopped at the first contradiction


@pytest.mark.parametrize("label,invariant", [("T", "cat"), ("W", "cat"),
                                             ("S2", "cat"), ("T", "tc")])
def test_streamed_search_matches_the_full_solve_at_every_level(models, label,
                                                               invariant):
    """At every level m from 0 to nil + 1 of the surjection behind cat or tc
    (n = 2), resolve_and_retract gives the verdict, and where one exists
    the retraction, of find_module_retraction on the whole resolution."""
    A = models[label]
    report = cat_bounds(A) if invariant == "cat" else tc_bounds(A, 2)
    surj = report.surjection
    S, E = surj.morphism.source, surj.hi
    powers = IdealPowers(PresentationView(S, min(S.cap, E + 1)),
                         surj.kernel_generators)
    verdicts = {}
    for m in range(surj.nil_kernel + 2):
        elements = [p.element for p in powers.level(m + 1)]
        full = resolve_quotient(S, elements, E)
        want = find_module_retraction(full.module, E)
        Q, proj = quotient_by_ideal(S, elements)
        module, got = resolve_and_retract(proj, homology(Q, 0, E), E)
        verdicts[m] = got is not None
        assert verdicts[m] == (want is not None), m
        if got is None:
            continue
        assert got == want, m
        assert module.gen_list == full.module.gen_list
        assert module.d == full.module.d
    assert True in verdicts.values()
    if (label, invariant) == ("T", "cat"):
        assert verdicts[2] is False


def test_an_infeasible_level_builds_nothing_above_its_contradiction(monkeypatch,
                                                                   capsys):
    """In `secat cat` on T at cap 15 the m-loop tries level 2 and then level
    3.  Level 2 has no retraction, and its 5th equation already reduces to
    0 = 1: r5_0 and r6_0 give three equations, and the second of
    d(r7_0) = (v3_0*w5_0 + v2_0^2*w4_0).1 - v3_0.r5_0 contradicts the
    first of r5_0.  So that level adjoins 4 generators, none above degree
    7, where the whole resolution has 113."""
    levels = []  # the generators adjoined in each resolution, in order
    resolution = secat.semifree._resolution_by_degree
    adjoin = SemiFreeModule.adjoin

    def new_level(*args):
        levels.append([])
        return resolution(*args)

    def counted(self, gens, diffs):
        levels[-1].extend(gens)
        return adjoin(self, gens, diffs)

    monkeypatch.setattr(secat.semifree, "_resolution_by_degree", new_level)
    monkeypatch.setattr(SemiFreeModule, "adjoin", counted)
    assert main(["cat", str(MODELS / "truncated_mix.cdga"), "--name", "T",
                 "--cap", "15", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    mcat = next(b for b in report["bounds"] if b["name"] == "mcat")
    assert (mcat["lower"], mcat["upper"]) == (3, 3)
    assert len(levels) == 2
    assert levels[0] == [("r5_0", 5), ("r6_0", 6), ("r7_0", 7), ("r7_1", 7)]
    assert len(levels[1]) > 10
