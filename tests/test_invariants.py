"""Invariant bounds, worked examples, and certificate verification."""

import collections
import json
import sys

import pytest

from conftest import MODELS, load_model
import oracles as orc

import secat.core
import secat.invariants
import secat.semifree
from secat.cli import main
from secat.construct import Surjection
from secat.core import CdgaError, Presentation, RangeExceedsCap
from secat.homology import HomologyView, IdealPowers, homology, nil_ideal
from secat.lang import make_presentation, parse_document, realize_document
from secat.linalg import solve_combo
from secat.invariants import (
    Bound, CERT_FORMAT, Certificate, _chain_names, _input_nil,
    augmentation_morphism, cat_bounds, certificate_from_dict,
    certificate_from_json, certificate_to_json, surjection_bounds,
    surjection_of, tc_bounds, verify_certificate,
)


# ---------------------------------------------------------------------------
# bound bookkeeping


def test_bounds_only_tighten():
    b = Bound("x")
    b.merge_lower(1)
    b.merge_upper(5)
    b.merge_lower(0)           # weaker: ignored
    b.merge_upper(7)           # weaker: ignored
    assert (b.lower, b.upper) == (1, 5)
    b.merge_lower(1, absolute=True)   # same value, stronger qualifier
    assert b.lower_absolute
    b.merge_lower(3)
    assert b.lower == 3 and not b.lower_absolute
    assert not b.exact
    b.merge_upper(3, absolute=True)
    assert b.exact


def test_bound_summary_shows_range_qualifier():
    b = Bound("x", verified_up_to=9)
    b.merge_lower(2, absolute=True)
    b.merge_upper(2)
    assert b.summary() == "x = 2 (verified in degrees <= 9)"
    b.merge_upper(2, absolute=True)
    assert b.summary() == "x = 2"
    c = Bound("y", verified_up_to=5)
    c.merge_lower(1, absolute=True)
    assert c.summary() == "y in [1, ?] (verified in degrees <= 5)"


def test_bound_refuses_a_crossed_interval():
    b = Bound("x")
    b.merge_upper(2, absolute=True)
    with pytest.raises(AssertionError):
        b.merge_lower(3, absolute=True)     # two absolute ends: a bug
    c = Bound("y", verified_up_to=7)
    c.merge_upper(2)
    with pytest.raises(RangeExceedsCap, match=r"y in \[3, 2\].*<= 7"):
        c.merge_lower(3, absolute=True)     # the upper end is range-qualified
    d = Bound("z")
    d.merge_lower(3)
    with pytest.raises(RangeExceedsCap):
        d.merge_upper(2, absolute=True)     # the lower end is range-qualified


def test_bound_certificates_attach_on_merge():
    b = Bound("x")
    cert = Certificate("nil-witness", {}, {})
    b.merge_lower(2, True, cert, note="why")
    assert b.certificates == [cert]
    assert b.notes == ["why"]
    d = b.as_dict()
    assert d["lower"] == 2 and d["certificates"][0]["kind"] == "nil-witness"


# ---------------------------------------------------------------------------
# worked examples: category-style invariants


@pytest.fixture(scope="module")
def coformal_report(models):
    return cat_bounds(models["C"], label="C")


@pytest.fixture(scope="module")
def truncated_report(models):
    return cat_bounds(models["T"], label="T")


@pytest.fixture(scope="module")
def proj_report(models):
    return cat_bounds(models["CP2"], label="CP2")


@pytest.fixture(scope="module")
def proj_tc_report(models):
    """CP2's tc report: its mtc still carries a duality collapse."""
    return tc_bounds(models["CP2"], 2, label="CP2")


@pytest.fixture(scope="module")
def truncated_tc_report(models):
    """T's tc report: its mtc still carries a solved retraction."""
    return tc_bounds(models["T"], 2, label="T")


def test_odd_sphere_category(models):
    rep = cat_bounds(models["S3"], label="S3")
    for b, val in ((rep.toomer, 1), (rep.mcat, 1), (rep.cat, 1)):
        assert b.exact and b.lower == val
        assert b.lower_absolute and b.upper_absolute
    assert rep.cup.nil == 1
    assert any(c.kind == "odd-generated" for c in rep.cat.certificates)


def test_three_odd_spheres_never_cross(tmp_path):
    text = "cdga S { gen a : 3; gen b : 3; gen c : 3; }"
    spec = parse_document(text).cdgas["S"]
    # the default cap reaches past the certified top degree 9
    A = make_presentation(spec)
    assert A.cap == 10
    rep = cat_bounds(A, label="S")
    for b in rep.bounds():
        assert b.exact and b.lower == 3
        assert b.lower_absolute and b.upper_absolute
    # at cap 9 the chain is seen only through degree 8
    rep = cat_bounds(make_presentation(spec, 9), label="S")
    for b in (rep.toomer, rep.mcat):
        assert b.exact and b.lower == 2 and not b.upper_absolute
    assert rep.cat.exact and rep.cat.lower == 3
    assert rep.cat.lower_absolute and rep.cat.upper_absolute
    # at cap 8 the range-qualified kernel power meets the absolute
    # odd-generated lower end: a semantic limit, not a crossed report
    f = tmp_path / "s3cubed.cdga"
    f.write_text(text)
    assert main(["cat", str(f), "--cap", "8"]) == 3


def test_even_sphere_category_is_range_qualified(models):
    rep = cat_bounds(models["S2"], label="S2")
    assert rep.toomer.lower == 1 and rep.toomer.lower_absolute
    assert rep.toomer.upper == 1 and not rep.toomer.upper_absolute
    assert rep.cat.lower == 1
    assert rep.cat.upper is not None and not rep.cat.upper_absolute


def test_projective_plane_category(models, proj_report, proj_tc_report):
    rep = proj_report
    assert rep.toomer.exact and rep.toomer.lower == 2
    assert rep.mcat.exact and rep.mcat.lower == 2
    assert rep.cat.exact and rep.cat.lower == 2
    assert rep.cat.lower_absolute and rep.cat.upper_absolute
    assert rep.cup.nil == 2
    # mcat settles on (A+)^3 = 0 before any level is solved ...
    [settled] = rep.mcat.certificates
    assert settled.kind == "kernel-power-vanishes"
    assert settled.context["construction"] == "input-augmentation"
    assert _verify(settled, models) == (
        True, "the kernel power vanishes absolutely (top degree 4)")
    # ... and the duality pairing of CP2 still collapses mtc onto htc
    assert any(c.kind == "pd-collapse" for c in proj_tc_report.mtc.certificates)
    assert any("differential is zero" in n for n in rep.notes)


def test_product_of_spheres_category(models):
    rep = cat_bounds(models["P"], label="P")
    assert rep.cat.exact and rep.cat.lower == 2
    assert rep.toomer.exact and rep.toomer.lower == 2
    assert rep.cat.lower_absolute and rep.cat.upper_absolute


def test_coformal_example_separates_nothing(coformal_report):
    rep = coformal_report
    assert rep.cup.nil == 2
    assert rep.toomer.exact and rep.toomer.lower == 3
    assert rep.mcat.exact and rep.mcat.lower == 3
    assert rep.cat.exact and rep.cat.lower == 3
    assert rep.cat.lower_absolute and rep.cat.upper_absolute
    assert any(c.kind == "odd-generated" for c in rep.cat.certificates)


def test_truncated_example_separates_the_invariants(truncated_report):
    rep = truncated_report
    assert rep.cup.nil == 2
    assert rep.toomer.exact and rep.toomer.lower == 2
    assert rep.mcat.exact and rep.mcat.lower == 3
    assert rep.cat.exact and rep.cat.lower == 3
    for b in (rep.toomer, rep.mcat, rep.cat):
        assert b.lower_absolute and b.upper_absolute
    # the degree-8 class of the model mixes the two generator blocks
    H = homology(rep.surjection.morphism.source, 8, 8)
    assert [str(z) for z in H.representatives(8)] == [
        "v3_0*w5_0 + v2_0^2*w4_0"]


def test_degree_one_example_reports_model_relative_category(models):
    rep = cat_bounds(models["G"], label="G")
    assert [g.name for g in rep.surjection.morphism.source.generators] == ["v3_0"]
    assert rep.cat.exact and rep.cat.lower == 1
    assert any("not flagged simply connected" in n for n in rep.notes)


def test_toomer_shortcut_matches_the_report(models, truncated_report):
    toomer = cat_bounds(models["T"], with_m=False, label="T").toomer
    assert toomer.lower == truncated_report.toomer.lower == 2


# nil(A+) of each bundled cdga whose top degree is certified under its cap
INPUT_NILS = {"C": 3, "G": 3, "B": 1, "P": 2, "CP2": 2, "S3": 1, "S4": 1,
              "T": 3, "W": 2}


def test_input_nils_cover_every_certified_top(models):
    assert {label for label, A in models.items()
            if (top := A.top_degree_if_finite()) is not None
            and top <= A.cap} == set(INPUT_NILS)


@pytest.mark.parametrize("label", sorted(INPUT_NILS))
def test_input_nil_equals_the_chain_on_the_input_augmentation(models, label):
    """One helper, two recipes, one answer: the bound chain run on the
    input-augmentation recipe ends at an absolute map bound equal to the
    input-nil certificate that cat_bounds uses."""
    A = models[label]
    ctx = {"construction": "input-augmentation", "cdga": label}
    rep = surjection_bounds(surjection_of(ctx, {label: A}, {}), with_m=False)
    m, cert = _input_nil(A, A.top_degree_if_finite(), label)
    assert cert.data["m"] == m == INPUT_NILS[label]
    assert rep.map_bound.upper == m and rep.map_bound.upper_absolute


@pytest.mark.parametrize("label", ["C", "T", "CP2", "P", "S2", "Q", "G", "W"])
def test_cup_length_reads_the_surjection_reports_homology(models, label):
    """cat's cup length is the augmentation report's nil ker H(aug), over
    H(M) in cat's own range (the augmentation's target is free at M's cap).
    Its generators are ideal generators of H+(M): they generate the same
    ideal as every positive basis class of H(M), degree by degree, and give
    the same nil."""
    rep = cat_bounds(models[label], label=label)
    assert rep.hi == rep.surjection.hi
    view = HomologyView(homology(rep.surjection.morphism.source, 0, rep.hi))
    positive = orc.positive_part_generators(view)
    assert rep.cup.nil == nil_ideal(view, positive).nil
    ours, full = IdealPowers(view, rep.cup.generators), IdealPowers(view, positive)
    for d in range(1, rep.hi + 1):
        assert (orc.echelon_basis(ours.span_echelon(1, d))
                == orc.echelon_basis(full.span_echelon(1, d)))


# ---------------------------------------------------------------------------
# worked examples: tc-style invariants


@pytest.fixture(scope="module")
def wedge_tc_report(models):
    return tc_bounds(models["W"], 2, label="W")


def test_odd_sphere_tc(models):
    rep = tc_bounds(models["S3"], 2, label="S3")
    assert rep.tc.exact and rep.tc.lower == 1
    assert rep.tc.lower_absolute and rep.tc.upper_absolute
    assert any(c.kind == "nil-witness" for c in rep.htc.certificates)
    assert any(c.kind == "kernel-power-vanishes" and c.data["m"] == 1
               for c in rep.tc.certificates)
    assert rep.diagonal.pedigree == "diagonal-tensor"
    assert rep.htc.exact and rep.htc.lower == 1
    assert rep.mtc.exact and rep.mtc.lower == 1


def test_odd_sphere_higher_tc(models):
    rep = tc_bounds(models["S3"], 3, label="S3")
    assert rep.htc.name == "htc3" and rep.tc.name == "tc3"
    assert rep.tc.exact and rep.tc.lower == 2
    assert rep.tc.lower_absolute and rep.tc.upper_absolute


def test_product_of_spheres_tc(models):
    rep = tc_bounds(models["P"], 2, label="P")
    assert rep.tc.exact and rep.tc.lower == 2
    assert rep.mtc.exact and rep.mtc.lower == 2
    assert rep.tc.lower_absolute and rep.tc.upper_absolute


def test_wedge_tc_reproduces_all_three_readings(wedge_tc_report):
    rep = wedge_tc_report
    # the homology-kernel nil only sees 2: the gap to 3 is the point
    assert rep.surjection.nil_kernel_h.nil == 2
    assert rep.htc.exact and rep.htc.lower == 3
    assert rep.mtc.exact and rep.mtc.lower == 3
    assert rep.tc.exact and rep.tc.lower == 3
    for b in (rep.htc, rep.mtc, rep.tc):
        assert b.lower_absolute and b.upper_absolute
    assert rep.diagonal.pedigree == "diagonal-model-substitution"
    # the lower bound came from a class dying in the cube quotient
    rho = [c for c in rep.htc.certificates
           if c.kind == "rho-noninjectivity-witness"]
    assert rho and rho[-1].data["m"] == 2
    # the absolute upper bound rides on the plain multiplication kernel
    kp = [c for c in rep.tc.certificates
          if c.kind == "kernel-power-vanishes"
          and c.context["construction"] == "multiplication"]
    assert len(kp) == 1 and kp[0].data["m"] == 3


@pytest.mark.parametrize("n", [None, 2, 3])
def test_all_three_ends_are_named_by_the_recipe(models, n):
    """With the m-loop run, cat (n None) and tc of the odd sphere name
    every end of the chain by the name table's entry for their recipe."""
    A = models["S3"]
    rep = cat_bounds(A, label="S3") if n is None else tc_bounds(A, n, label="S3")
    recipe = rep.surjection.map_bound.certificates[0].context
    assert tuple(b.name for b in rep.bounds()) == _chain_names(recipe)


def test_quotient_surjection_is_model_relative(morphisms):
    rep = surjection_bounds(Surjection(morphisms["q"]))
    assert [b.name for b in rep.bounds()] == [
        "h-invariant", "m-invariant", "sectional"]
    assert any(n.startswith("model-relative") for n in rep.notes)
    assert rep.h_bound.lower == 1 and rep.h_bound.lower_absolute
    assert rep.h_bound.upper == 1 and not rep.h_bound.upper_absolute


ADJUSTED = """
cdga S { cap 10; gen a : 2; gen x : 3; gen b : 4; d x = a^2; }
cdga B { cap 10; gen a : 2; gen x : 3; d x = a^2; }
morphism f : S -> B { a -> a; x -> x; b -> a^2; }
"""


def test_a_kernel_class_is_moved_into_the_kernel(monkeypatch):
    """f(b) = a^2 = d x is a boundary but not 0, so the class of b lies in
    ker H(f) while b does not lie in ker f.  The nil-witness generator is b
    moved by the boundary d x, which f sends to 0."""
    solves = []

    def counted(*args):
        solves.append(args)
        return solve_combo(*args)

    monkeypatch.setattr(secat.invariants, "solve_combo", counted)
    presentations, morphisms = realize_document(parse_document(ADJUSTED))
    rep = surjection_bounds(surjection_of(
        {"construction": "morphism", "morphism": "f"}, presentations, morphisms))
    assert len(solves) == 2          # the boundary, then its lift to S
    [witness] = [c for c in rep.h_bound.certificates if c.kind == "nil-witness"]
    assert witness.data["generators"] == ["b - a^2"]
    for b in rep.bounds():
        assert (b.lower, b.upper, b.verified_up_to) == (2, 2, 9), b.name
        for cert in b.certificates:
            assert verify_certificate(cert, presentations, morphisms)[0], cert.kind


@pytest.mark.parametrize("argv,built", [
    (["cat", "--cap", "15"], 1),   # h stops at level 2; m tries 2, then settles
    (["tc", "--n", "2"], 1),       # h and m both stop at level 1
    (["cat", "--cap", "15", "--no-m"], 0),
    (["tc", "--n", "2", "--no-m"], 0),
])
def test_each_level_quotient_is_built_once(monkeypatch, capsys, argv, built):
    """The h-loop decides injectivity inside S and builds no quotient; the
    m-loop builds S/I^{m+1} once for each level it resolves."""
    quotient = secat.core.quotient_by_ideal
    calls = []

    def counted(*args):
        calls.append(args)
        return quotient(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("secat") and \
                getattr(module, "quotient_by_ideal", None) is quotient:
            monkeypatch.setattr(module, "quotient_by_ideal", counted)
    assert main(argv[:1] + [str(MODELS / "truncated_mix.cdga"), "--name", "T"]
                + argv[1:] + ["--json"]) == 0
    capsys.readouterr()
    assert len(calls) == built


def test_cat_at_cap_18_resolves_level_2_alone(monkeypatch, capsys):
    """Level 2 has no retraction, which lifts mcat's absolute lower end to
    3 = nil(T+); the chain then settles mcat before level 3 is resolved."""
    resolve = secat.invariants.resolve_and_retract
    levels = []

    def counted(A, ideal_elements, E):
        levels.append(ideal_elements)
        return resolve(A, ideal_elements, E)

    monkeypatch.setattr(secat.invariants, "resolve_and_retract", counted)
    assert main(["cat", str(MODELS / "truncated_mix.cdga"), "--name", "T",
                 "--cap", "18", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    mcat = next(b for b in report["bounds"] if b["name"] == "mcat")
    assert len(levels) == 1
    assert "no retraction exists at level 2: the chain equations are " \
           "infeasible" in mcat["notes"]
    assert any(n.startswith("settled before solving level 3") for n in mcat["notes"])
    assert (mcat["lower"], mcat["upper"]) == (3, 3)
    assert mcat["lower_absolute"] and mcat["upper_absolute"]
    [settled] = [certificate_from_dict(c) for c in mcat["certificates"]]
    assert (settled.kind, settled.context["construction"]) == (
        "kernel-power-vanishes", "input-augmentation")
    presentations, _ = load_model("truncated_mix.cdga", cap=18)
    assert verify_certificate(settled, presentations) == (
        True, "the kernel power vanishes absolutely (top degree 8)")


def test_tc_reads_the_multiplication_nil_off_a_witness(monkeypatch, capsys):
    """On T at n = 5 a nonzero product of 5.nil(T+) = 15 generators of ker mu
    fixes the multiplication kernel's nil, so no power of ker mu over
    T^{ox 5} is built."""
    mult = secat.invariants.multiplication_morphism
    level, reaches = IdealPowers.level, IdealPowers.reaches
    powers, views, searches = [], [], []

    def recorded_mult(*args, **kwargs):
        out = mult(*args, **kwargs)
        powers.append(out.morphism.source)
        return out

    def recorded_level(self, m):
        views.append(self.view.pres)
        return level(self, m)

    def recorded_reaches(self, k):
        searches.append((k, reaches(self, k)))
        return searches[-1][1]

    monkeypatch.setattr(secat.invariants, "multiplication_morphism", recorded_mult)
    monkeypatch.setattr(IdealPowers, "level", recorded_level)
    monkeypatch.setattr(IdealPowers, "reaches", recorded_reaches)
    assert main(["tc", str(MODELS / "truncated_mix.cdga"), "--name", "T",
                 "--n", "5", "--json"]) == 0
    capsys.readouterr()
    assert searches == [(15, True)]
    [power] = powers
    assert views and all(pres is not power for pres in views)


def test_an_empty_level_is_resolved_as_the_unit_alone(monkeypatch, capsys):
    """On W at n = 2 the m-loop resolves level 3 alone, whose ideal I^4 has
    no element in the window: the resolution is the unit, built with no
    homology of S/I^4 and no hit or kill step, and it retracts."""
    resolve = secat.invariants.resolve_and_retract
    levels, reports, builders = [], [], []

    def recorded(A, ideal_elements, E):
        levels.append(ideal_elements)
        return resolve(A, ideal_elements, E)

    monkeypatch.setattr(secat.invariants, "resolve_and_retract", recorded)
    build = secat.semifree.hit_and_kill
    monkeypatch.setattr(secat.semifree, "homology",
                        lambda *args: reports.append(args) or homology(*args))
    monkeypatch.setattr(secat.semifree, "hit_and_kill",
                        lambda *args: builders.append(args) or build(*args))
    assert main(["tc", str(MODELS / "wedge.cdga"), "--name", "W",
                 "--n", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    mtc = next(b for b in report["bounds"] if b["name"] == "mtc")
    assert levels == [[]]
    assert reports == [] and builders == []
    assert (mtc["lower"], mtc["upper"]) == (3, 3)


def _ends(b):
    return (b.lower, b.upper, b.lower_absolute, b.upper_absolute,
            b.verified_up_to)


BUNDLED_CDGAS = sorted(label for path in MODELS.glob("*.cdga")
                       for label in parse_document(path.read_text()).cdgas)
GENERATED_CDGAS = {
    **{f"CP{k}": f"cdga CP{k} {{ gen a : 2; rel a^{k + 1}; }}" for k in (1, 2, 3)},
    "S2xS2": "cdga S2xS2 { gen a : 2; gen b : 2; rel a^2; rel b^2; }",
    "S2vS2": "cdga S2vS2 { gen a : 2; gen b : 2; rel a^2; rel b^2; rel a*b; }",
}


@pytest.mark.parametrize("label", BUNDLED_CDGAS + list(GENERATED_CDGAS))
def test_settling_mcat_before_solving_changes_no_end(models, label):
    """mcat's absolute lower end meeting the absolute cat <= nil(A+) fixes
    mcat; every end, flag and window equals that of the full m-search."""
    if label in GENERATED_CDGAS:
        A = make_presentation(parse_document(GENERATED_CDGAS[label]).cdgas[label])
    else:
        A = models[label]
    rep = cat_bounds(A, label=label)
    with orc.full_m_search():
        full = cat_bounds(A, label=label)
    for ours, theirs in zip((rep.toomer, rep.mcat, rep.cat),
                            (full.toomer, full.mcat, full.cat)):
        assert _ends(ours) == _ends(theirs), ours.name
    if label in GENERATED_CDGAS:  # each has its certified top under the cap
        assert any(n.startswith("settled before solving")
                   for n in rep.mcat.notes)


def test_the_skip_needs_a_certified_top_under_the_cap(monkeypatch, models):
    """Q has no certified top degree, and S^3 x S^3 x S^3 at cap 8 has top
    9 above the cap: neither hands an input nil to the m-loop."""
    search = secat.invariants.surjection_bounds
    settled = []

    def spy(*args, settled_upper=None, **kwargs):
        settled.append(settled_upper)
        return search(*args, settled_upper=settled_upper, **kwargs)

    monkeypatch.setattr(secat.invariants, "surjection_bounds", spy)
    Q = models["Q"]
    assert Q.top_degree_if_finite() is None
    cat_bounds(Q, label="Q")
    S = make_presentation(parse_document(
        "cdga S { gen a : 3; gen b : 3; gen c : 3; }").cdgas["S"], 8)
    assert S.top_degree_if_finite() == 9
    with pytest.raises(RangeExceedsCap):
        cat_bounds(S, label="S")
    assert settled == [None, None]


def test_bound_chain_is_consistent_everywhere(models, coformal_report,
                                              truncated_report, proj_report,
                                              wedge_tc_report):
    reports = [coformal_report, truncated_report, proj_report, wedge_tc_report,
               cat_bounds(models["S3"], label="S3"),
               tc_bounds(models["S3"], 2, label="S3")]
    for rep in reports:
        chain = rep.bounds()
        for low, high in zip(chain, chain[1:]):
            if low.lower is not None and high.lower is not None:
                assert low.lower <= high.lower
            if low.upper is not None and high.upper is not None:
                assert low.upper <= high.upper


# ---------------------------------------------------------------------------
# certificate round-trips


def test_certificate_json_roundtrip_and_determinism(truncated_report):
    for cert in truncated_report.cat.certificates:
        text = certificate_to_json(cert)
        again = certificate_from_json(text)
        assert again == cert
        assert certificate_to_json(again) == text


def test_certificate_json_guards():
    with pytest.raises(CdgaError):
        certificate_from_json("not json")
    with pytest.raises(CdgaError):
        certificate_from_json(json.dumps({"format": "other", "kind": "x"}))
    with pytest.raises(CdgaError):
        certificate_from_json(json.dumps(
            {"format": CERT_FORMAT, "kind": "bogus", "context": {}, "data": {}}))
    with pytest.raises(CdgaError):
        certificate_from_json(json.dumps(
            {"format": CERT_FORMAT, "kind": "nil-witness", "context": [],
             "data": {}}))


def _verify(cert, models, morphisms=None):
    return verify_certificate(cert, models, morphisms or {})


def test_generated_certificates_all_verify(models, morphisms, coformal_report,
                                           truncated_report, proj_report,
                                           wedge_tc_report, proj_tc_report):
    reports = [coformal_report, truncated_report, proj_report, wedge_tc_report,
               proj_tc_report]
    seen = set()
    for rep in reports:
        for bound in rep.bounds():
            for cert in bound.certificates:
                ok, detail = _verify(cert, models, morphisms)
                assert ok, f"{cert.kind}: {detail}"
                seen.add(cert.kind)
    assert {"nil-witness", "rho-noninjectivity-witness", "rho-injectivity-range",
            "kernel-power-vanishes", "pd-collapse", "odd-generated",
            "module-retraction"} <= seen


def test_nil_witness_rejections(models):
    ctx = {"construction": "augmentation", "cdga": "S2", "cap": 10}
    zero_product = Certificate("nil-witness", ctx, {
        "level": 2, "view": "homology", "hi": 8,
        "generators": ["a"], "factors": [0, 0]})
    ok, detail = _verify(zero_product, models)
    assert not ok and ("zero class" in detail or "vanishes" in detail)

    wrong_count = Certificate("nil-witness", ctx, {
        "level": 2, "view": "homology", "hi": 8,
        "generators": ["a"], "factors": [0]})
    ok, detail = _verify(wrong_count, models)
    assert not ok and "claim says" in detail

    bad_index = Certificate("nil-witness", ctx, {
        "level": 1, "view": "homology", "hi": 8,
        "generators": ["a"], "factors": [3]})
    ok, detail = _verify(bad_index, models)
    assert not ok and "out of range" in detail

    not_cycle = Certificate("nil-witness", ctx, {
        "level": 1, "view": "homology", "hi": 8,
        "generators": ["x"], "factors": [0]})
    ok, detail = _verify(not_cycle, models)
    assert not ok and "not a cycle" in detail


def test_rho_witness_rejections(models, coformal_report):
    good = [c for c in coformal_report.toomer.certificates
            if c.kind == "rho-noninjectivity-witness"][-1]
    ok, _ = _verify(good, models)
    assert ok

    exact_witness = Certificate(good.kind, good.context,
                                dict(good.data, witness="a*b", degree=6))
    ok, detail = _verify(exact_witness, models)
    assert not ok and "zero before passing" in detail

    inhomogeneous = Certificate(good.kind, good.context,
                                dict(good.data, witness="a*b"))
    ok, detail = _verify(inhomogeneous, models)
    assert not ok and "not homogeneous" in detail

    survivor = Certificate(good.kind, good.context, dict(good.data, m=5))
    ok, detail = _verify(survivor, models)
    assert not ok and "survives" in detail


def test_rho_injectivity_range_rejection(models, coformal_report):
    good = [c for c in coformal_report.toomer.certificates
            if c.kind == "rho-injectivity-range"][-1]
    ok, _ = _verify(good, models)
    assert ok
    early = Certificate(good.kind, good.context, dict(good.data, m=0))
    ok, detail = _verify(early, models)
    assert not ok and "injectivity fails in degree 3" in detail


def test_kernel_power_rejection(models):
    ctx = {"construction": "multiplication", "cdga": "S3", "n": 2, "cap": 8}
    too_low = Certificate("kernel-power-vanishes", ctx, {
        "m": 0, "hi": 7, "generators": ["u1 - u2"]})
    ok, detail = _verify(too_low, models)
    assert not ok and "nonzero 1-fold product" in detail

    not_kernel = Certificate("kernel-power-vanishes", ctx, {
        "m": 1, "hi": 7, "generators": ["u1"]})
    with pytest.raises(CdgaError):
        _verify(not_kernel, models)


def test_acyclic_ideal_certificates(models):
    ctx = {"construction": "presentation", "cdga": "S2"}
    good = Certificate("acyclic-ideal-containment", ctx, {
        "hi": 8, "generators": ["a^2", "x"],
        "contained": ["a^2", "a^3*x"]})
    ok, detail = _verify(good, models)
    assert ok and "acyclic" in detail

    not_stable = Certificate("acyclic-ideal-containment", ctx, {
        "hi": 8, "generators": ["x"], "contained": []})
    ok, detail = _verify(not_stable, models)
    assert not ok and "not d-stable" in detail

    not_acyclic = Certificate("acyclic-ideal-containment", ctx, {
        "hi": 8, "generators": ["a^2"], "contained": []})
    ok, detail = _verify(not_acyclic, models)
    assert not ok and "not acyclic" in detail

    outside = Certificate("acyclic-ideal-containment", ctx, {
        "hi": 8, "generators": ["a^2", "x"], "contained": ["a"]})
    ok, detail = _verify(outside, models)
    assert not ok and "not in the ideal" in detail


def test_acyclic_check_detects_acyclic_ideals(models):
    """The ideal (a) of the even sphere S2 = Lambda(a, x; dx = a^2) is
    d-stable but not acyclic: a and a^2 are cycles with no boundary inside
    it (x is outside), while a^3 = d(a x) dies.  The augmentation ideal of
    the contractible Lambda(u, h; dh = u) is acyclic.  The ideal (x) is not
    d-stable: d(x) = a^2 leaves it."""
    U = Presentation([("u", 3), ("h", 2)], 9, differentials={"h": {(("u", 1),): 1}})
    presentations = {"S2": models["S2"], "U": U}

    def verdict(cdga, generators):
        cert = Certificate("acyclic-ideal-containment",
                           {"construction": "presentation", "cdga": cdga},
                           {"hi": 7, "generators": generators})
        return verify_certificate(cert, presentations)

    assert verdict("S2", ["a"]) == (
        False, "the ideal is not acyclic: homology {2: 1, 4: 1}")
    assert verdict("U", ["u", "h"]) == (True, "d-stable ideal, acyclic in degrees <= 7")
    assert verdict("S2", ["x"]) == (
        False, "the ideal is not d-stable: d(generator 0) escapes")


def test_an_acyclic_check_above_the_cap_is_refused(models):
    """H(J) is read off H(P) and H(P/J), and the quotient's homology stops
    one degree below the cap."""
    cert = Certificate("acyclic-ideal-containment",
                       {"construction": "presentation", "cdga": "S2"},
                       {"hi": models["S2"].cap + 1, "generators": ["a^2", "x"]})
    with pytest.raises(RangeExceedsCap,
                       match="^homology up to degree 10 needs cap >= 11, have 10$"):
        verify_certificate(cert, models)


def test_acyclic_ideal_containment_builds_each_span_echelon_once(monkeypatch, models):
    """The check reads the level-1 span of degree 4 for d(x) and for a^2,
    that of degree 9 for a^3*x, and that of each degree up to 8 where H(S2)
    is nonzero for the classes that die in S2/J: each (level, degree)
    echelon is built once, however often it is read."""
    built = collections.Counter()
    build = IdealPowers._build_span

    def counted(self, m, d):
        built[(m, d)] += 1
        return build(self, m, d)

    monkeypatch.setattr(IdealPowers, "_build_span", counted)
    cert = Certificate("acyclic-ideal-containment",
                       {"construction": "presentation", "cdga": "S2"},
                       {"hi": 8, "generators": ["a^2", "x"],
                        "contained": ["a^2", "a^3*x"]})
    ok, _ = _verify(cert, models)
    assert ok
    assert built[(1, 4)] == 1 and built[(1, 9)] == 1
    assert set(built.values()) == {1}


def test_odd_generated_rejections(models):
    even = Certificate("odd-generated",
                       {"construction": "augmentation", "cdga": "S2", "cap": 8},
                       {"generators": [["a", 2], ["x", 3]], "cap": 8})
    ok, detail = _verify(even, models)
    assert not ok and "even-degree" in detail

    mismatch = Certificate("odd-generated",
                           {"construction": "augmentation", "cdga": "C", "cap": 10},
                           {"generators": [["a", 3]], "cap": 10})
    ok, detail = _verify(mismatch, models)
    assert not ok and "do not match" in detail


def test_pd_collapse_rejections(models, proj_tc_report):
    good = [c for c in proj_tc_report.mtc.certificates if c.kind == "pd-collapse"]
    assert good and _verify(good[0], models)[0]

    wedge = Certificate("pd-collapse",
                        {"construction": "presentation", "cdga": "W"},
                        {"top": 8})
    ok, detail = _verify(wedge, models)
    assert not ok and "duality fails" in detail

    free = Certificate("pd-collapse",
                       {"construction": "presentation", "cdga": "S2"},
                       {"top": 2})
    ok, detail = _verify(free, models)
    assert not ok and "no certified top degree" in detail


def test_split_retraction_certificate_roundtrip(models):
    text = (MODELS / "stanley_retraction.cert").read_text()
    cert = certificate_from_json(text)
    assert certificate_to_json(cert) == text
    assert cert.data["values"]["b^2"] == "-a^2"
    ok, detail = _verify(cert, models)
    assert ok and "retracts onto its base" in detail

    bad = Certificate(cert.kind, cert.context,
                      {"E": 9, "values": dict(cert.data["values"], **{"b^2": "a^2"})})
    ok, detail = _verify(bad, models)
    assert not ok and "fail at x" in detail


def test_split_retraction_feels_the_degree_window(models):
    # r(dx) = a^2 needs a degree-7 primitive over Lambda(a), which does not
    # exist; the equation only bites once degree |x| + 1 enters the window.
    # Over Lambda(a4) the degree-7 value of x can only be 0.
    ctx = {"construction": "relative-split", "cdga": "A", "base": ["a"]}
    values = {"1": "1", "x": "0"}
    ok, _ = _verify(Certificate("module-retraction", ctx,
                                {"E": 6, "values": values}), models)
    assert ok
    ok, detail = _verify(Certificate("module-retraction", ctx,
                                     {"E": 8, "values": values}), models)
    assert not ok and "r(dx) = a^2 but d(r(x)) = 0" in detail
    with pytest.raises(CdgaError):
        _verify(Certificate("module-retraction", dict(ctx, cdga="T"),
                            {"E": 6, "values": values}), models)


def test_module_retraction_certificate_rejection(models, truncated_tc_report):
    good = [c for c in truncated_tc_report.mtc.certificates
            if c.kind == "module-retraction"]
    assert good
    cert = good[-1]
    ok, _ = _verify(cert, models)
    assert ok
    values = dict(cert.data["values"])
    victim = next((k for k, v in sorted(values.items())
                   if k != "1" and v not in ("0", "1")), None)
    if victim is not None:
        values[victim] = "0"      # a forced coordinate: zeroing it breaks a chain equation
    else:
        victim = next(k for k in sorted(values) if k != "1")
        values[victim] = "1"      # wrong degree
    bad = Certificate(cert.kind, cert.context, dict(cert.data, values=values))
    ok, detail = _verify(bad, models)
    assert not ok and "retraction equations fail" in detail


def test_module_retraction_reads_the_whole_kernel(models, morphisms):
    # listing no kernel generators would make the quotient S itself, which
    # retracts at level 0, below the witnessed h-invariant 1
    rep = surjection_bounds(surjection_of(
        {"construction": "morphism", "morphism": "q"}, {}, morphisms))
    good = next(c for c in rep.m_bound.certificates
                if c.kind == "module-retraction")
    forged = Certificate(good.kind, good.context,
                         dict(good.data, m=0, values={"1": "1"},
                              kernel_generators=[]))
    ok, detail = _verify(forged, models, morphisms)
    assert not ok and "retraction equations fail" in detail


def test_augmentation_morphism_shape(models):
    aug = augmentation_morphism(models["S3"])
    assert aug.apply(models["S3"].gen("u")).terms == {}
    assert aug.target.dim(0) == 1
