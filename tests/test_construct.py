"""Construction layer: minimal models, multiplication and diagonal surjections."""

from fractions import Fraction

import pytest

from conftest import load_model

from secat.core import (
    CdgaMorphism, NotSimplyConnected, Presentation, RangeExceedsCap,
)
from secat.construct import (
    SullivanModelResult, build_minimal_model, diagonal_model,
    multiplication_morphism, sullivan_model_of,
)
from secat.homology import homology, kernel_ideal_generators, quasi_iso_failure


# ---------------------------------------------------------------------------
# minimal Sullivan models


@pytest.fixture(scope="module")
def sphere4_model(models):
    return build_minimal_model(models["S4"], 12)


@pytest.fixture(scope="module")
def truncated_model(models):
    return build_minimal_model(models["T"], 9)


def test_even_sphere_model_has_two_generators(models, sphere4_model):
    M = sphere4_model.model
    assert [(g.name, g.degree) for g in M.generators] == [("v4_0", 4), ("w7_0", 7)]
    v, w = M.gen("v4_0"), M.gen("w7_0")
    assert v.d() == M.zero()
    assert w.d() == v * v
    assert M.is_minimal_sullivan
    assert sphere4_model.valid_up_to == 12
    # the comparison hits the fundamental class
    rep = homology(models["S4"], 4, 4).representatives(4)[0]
    assert sphere4_model.morphism.apply(v) == rep


def test_even_sphere_model_matches_free_reference(models, sphere4_model):
    # the renaming onto the reference is a checked chain map that is
    # bijective on homology, so the two models are isomorphic
    A = models["A"]
    iso = CdgaMorphism(sphere4_model.model, A,
                       {"v4_0": A.gen("a"), "w7_0": A.gen("x")}, check=True)
    assert quasi_iso_failure(iso, 0, 15) is None


def test_minimal_models_are_unique_up_to_isomorphism(models):
    # a rescaled reference with different names is reached by rescaling w
    ref = Presentation([("p", 4), ("q", 7)], 16,
                       differentials={"q": {(("p", 2),): 3}})
    p = ref.gen("p")
    iso = CdgaMorphism(build_minimal_model(models["S4"], 10).model, ref,
                       {"v4_0": p, "w7_0": ref.gen("q") * Fraction(1, 3)}, check=True)
    assert quasi_iso_failure(iso, 0, 15) is None
    assert iso.image_of("v4_0") == p
    assert iso.image_of("w7_0").d() == p * p


def test_projective_plane_model(models):
    mm = build_minimal_model(models["CP2"], 10)
    M = mm.model
    assert [(g.name, g.degree) for g in M.generators] == [("v2_0", 2), ("w5_0", 5)]
    v = M.gen("v2_0")
    assert M.gen("w5_0").d() == v * v * v
    assert quasi_iso_failure(mm.morphism, 0, 10) is None


def test_truncated_quotient_model_differentials(truncated_model):
    M = truncated_model.model
    low = [(g.name, g.degree) for g in M.generators if g.degree <= 6]
    assert low == [("v2_0", 2), ("v3_0", 3), ("w4_0", 4), ("w5_0", 5), ("w6_0", 6)]
    v2, v3 = M.gen("v2_0"), M.gen("v3_0")
    w4, w6 = M.gen("w4_0"), M.gen("w6_0")
    assert v2.d() == M.zero()
    assert v3.d() == M.zero()
    assert w4.d() == v2 * v3
    assert M.gen("w5_0").d() == v2 * v2 * v2
    assert w6.d() == v3 * w4
    assert M.gen("w7_0").d() == v2 * w6 - w4 * w4 * Fraction(1, 2)
    assert M.gen("w8_0").d() == v3 * w6


def test_sullivan_input_is_returned_as_its_own_model(models):
    res = sullivan_model_of(models["C"], 10)
    assert res.model is models["C"]
    assert res.notes and "already" in res.notes[0]


def test_degree_one_presentation_has_odd_sphere_model(models):
    G = models["G"]
    mm = build_minimal_model(G, 6)
    assert [(g.name, g.degree) for g in mm.model.generators] == [("v3_0", 3)]
    a, b, c = G.gen("a"), G.gen("b"), G.gen("c")
    assert mm.morphism.image_of("v3_0") == a * b * c


def test_minimal_model_rejects_nonvanishing_h1():
    P = Presentation([("t", 1)], 6, simply_connected=False)
    with pytest.raises(NotSimplyConnected):
        build_minimal_model(P, 4)


def test_minimal_model_needs_room_above_the_cap():
    pres, _ = load_model("proj2.cdga", cap=6)
    with pytest.raises(RangeExceedsCap):
        build_minimal_model(pres["CP2"], 6)


# ---------------------------------------------------------------------------
# multiplication morphisms


def test_multiplication_kernel_on_an_odd_sphere(models):
    mm = multiplication_morphism(models["S3"], 2)
    assert mm.morphism.image_of("u1") == models["S3"].gen("u")
    gens = kernel_ideal_generators(mm.morphism, 3)
    assert [str(g) for g in gens] == ["u1 - u2"]


def test_multiplication_images_on_an_even_sphere(models):
    S2 = models["S2"]
    mm = multiplication_morphism(S2, 3)
    for i in (1, 2, 3):
        assert mm.morphism.image_of(f"a{i}") == S2.gen("a")
        assert mm.morphism.image_of(f"x{i}") == S2.gen("x")


def test_multiplication_on_the_unit_algebra_is_iso():
    Q0 = Presentation([], 6)
    mm = multiplication_morphism(Q0, 2)
    assert kernel_ideal_generators(mm.morphism, 5) == []
    assert quasi_iso_failure(mm.morphism, 0, 5) is None


# ---------------------------------------------------------------------------
# diagonal models


def test_diagonal_model_on_a_sullivan_presentation(models):
    C = models["C"]
    dm = diagonal_model(C, 2, 11)
    assert dm.pedigree == "diagonal-tensor"
    assert dm.morphism.image_of("a_2") == C.gen("a")
    assert sorted(str(g) for g in dm.kernel_generators) == [
        "a - a_2", "b - b_2", "x - x_2"]
    for el in dm.kernel_generators:
        assert dm.morphism.apply(el) == C.zero()


def test_diagonal_model_on_a_presented_quotient(models):
    T = models["T"]
    dm = diagonal_model(T, 2, 8)
    assert dm.pedigree == "diagonal-model-substitution"
    assert dm.morphism.target is T
    assert dm.model.model.is_minimal_sullivan
    for el in dm.kernel_generators:
        assert dm.morphism.apply(el) == T.zero()


def test_diagonal_model_accepts_a_supplied_model(models):
    W = models["W"]
    manual = Presentation([("a", 3), ("b", 3), ("x", 5), ("y", 10)], W.cap,
                          differentials={"x": {(("a", 1), ("b", 1)): 1},
                                         "y": {(("a", 1), ("b", 1), ("x", 1)): 1}})
    theta = CdgaMorphism(manual, W, {"a": W.gen("a"), "b": W.gen("b"),
                                     "x": W.gen("x"), "y": W.zero()}, check=True)
    assert quasi_iso_failure(theta, 0, 12) is None
    dm = diagonal_model(W, 2, 14, model=SullivanModelResult(manual, theta, 12))
    names = [g.name for g in dm.source.generators]
    assert names == ["a", "b", "x", "a_2", "b_2", "x_2", "y_2"]
    assert dm.morphism.image_of("y_2") == W.zero()
    assert "y_2" in {str(g).lstrip("- ") for g in dm.kernel_generators} or \
        any("y_2" in str(g) for g in dm.kernel_generators)

