"""End-to-end checks: every headline computation the package promises.

Each test exercises one complete pipeline with exact expected values and
finishes with a PASS line, so `pytest tests/test_acceptance.py -v` doubles
as a checklist of the worked examples from the README.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import test_properties as props
from conftest import MODELS

from secat.cli import main
from secat.construct import (
    SullivanModelResult, build_minimal_model, diagonal_model,
    multiplication_morphism,
)
from secat.core import CdgaError, CdgaMorphism, Presentation, quotient_by_ideal
from secat.homology import (
    IdealPowers, PresentationView, homology, kernel_ideal_generators,
    quasi_iso_failure,
)
from secat.invariants import (
    cat_bounds, certificate_from_json, split_retraction_certificate,
    surjection_bounds, tc_bounds, verify_certificate,
)


def test_even_sphere_minimal_model(models):
    """The minimal model of H*(S^4) is Lambda(v4, w7) with dw = v^2."""
    mm = build_minimal_model(models["S4"], 12)
    assert [(g.name, g.degree) for g in mm.model.generators] == [
        ("v4_0", 4), ("w7_0", 7)]
    v = mm.model.gen("v4_0")
    assert mm.model.gen("w7_0").d() == v * v
    # unique up to isomorphism: renaming v to a and w to x is a chain map
    # onto the free reference model that is bijective on homology
    A = models["A"]
    iso = CdgaMorphism(mm.model, A, {"v4_0": A.gen("a"), "w7_0": A.gen("x")},
                       check=True)
    assert quasi_iso_failure(iso, 0, 15) is None
    print("PASS: even-sphere minimal model has generators in degrees 4 and 7 "
          "with dw = v^2, isomorphic to the reference")


def test_nonformal_three_cell_space(models):
    """Lambda(a3, b3, x5), dx = ab: homology basis, cup length, cat, Toomer."""
    C = models["C"]
    H = homology(C, 0, 11)
    assert {d: b for d, b in H.betti_table().items() if b} == {
        0: 1, 3: 2, 8: 2, 11: 1}
    assert [str(r) for r in H.representatives(0)] == ["1"]
    assert [str(r) for r in H.representatives(3)] == ["a", "b"]
    assert [str(r) for r in H.representatives(8)] == ["a*x", "b*x"]
    assert [str(r) for r in H.representatives(11)] == ["a*b*x"]

    rep = cat_bounds(C, label="C")
    assert rep.cup.nil == 2          # nil of H^+ : [a][b*x] is the top product
    assert (rep.cat.lower, rep.cat.upper) == (3, 3)
    assert rep.cat.exact and rep.cat.lower_absolute and rep.cat.upper_absolute
    assert any(c.kind == "odd-generated" for c in rep.cat.certificates)
    assert (rep.toomer.lower, rep.toomer.upper) == (3, 3)
    print("PASS: non-formal three-cell space has homology basis "
          "{1, a, b, ax, bx, abx}, nil H^+ = 2, cat = 3, Toomer = 3")


def test_mixed_truncated_space_toomer(models):
    """A space mixing even truncation with odd relations: Toomer = 2 < cat."""
    rep = cat_bounds(models["T"], label="T")
    assert (rep.toomer.lower, rep.toomer.upper) == (2, 2)
    assert rep.toomer.lower_absolute and rep.toomer.upper_absolute
    # the degree-8 class of the constructed minimal model is the decomposable
    # witness whose square-part keeps the Toomer invariant at 2
    reps = homology(rep.model.model, 8, 8).representatives(8)
    assert [str(r) for r in reps] == ["v3_0*w5_0 + v2_0^2*w4_0"]
    print("PASS: truncated-mix space has Toomer invariant 2 witnessed by "
          "[v3*w5 + v2^2*w4] in the minimal model")


def test_odd_sphere_tc_via_cli():
    """`tc --n 2` on an odd sphere: value 1 with both certificates."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["tc", str(MODELS / "sphere3.cdga"), "--n", "2", "--json"])
    assert code == 0
    data = json.loads(buf.getvalue())
    bounds = {b["name"]: b for b in data["bounds"]}
    assert bounds["tc"]["lower"] == bounds["tc"]["upper"] == 1
    assert bounds["tc"]["lower_absolute"] and bounds["tc"]["upper_absolute"]
    certs = [c for b in data["bounds"] for c in b["certificates"]]
    # lower: a nonzero kernel class; upper: the kernel ideal squares to zero
    assert any(c["kind"] == "nil-witness" and c["data"]["level"] == 1
               for c in certs)
    assert any(c["kind"] == "kernel-power-vanishes" and c["data"]["m"] == 1
               for c in certs)
    print("PASS: tc --n 2 on the odd sphere returns 1 with a nil-witness "
          "lower bound and a kernel-square-vanishes upper bound")


def test_degree_one_product_lower_bound_witness(models):
    """Three degree-1 generators: the alternating product certifies h >= 3."""
    G = models["G"]
    mult = multiplication_morphism(G, 2)
    src = mult.power.pres
    a1, b1, c1 = src.gen("a1"), src.gen("b1"), src.gen("c1")
    a2, b2, c2 = src.gen("a2"), src.gen("b2"), src.gen("c2")

    omega = (a1 - a2) * (b1 - b2) * (c1 - c2)
    # exact symbolic identity: omega differs from the cycle a1b1c1 - a2b2c2
    # by the boundary of a1a2 - b1b2 + c1c2
    assert omega == a1 * b1 * c1 - a2 * b2 * c2 - (a1 * a2 - b1 * b2
                                                   + c1 * c2).d()
    assert not homology(src, 3, 3).is_zero_class(omega, 3)

    kg = kernel_ideal_generators(mult.morphism, 4)
    assert [str(g) for g in kg] == ["a1 - a2", "b1 - b2", "c1 - c2"]
    powers = IdealPowers(PresentationView(src, 7), kg)
    assert powers.contains(3, omega, 3)
    # the nonzero class [omega] dies in the cube-quotient, so H(rho_2) is
    # not injective
    proj_pres, proj = quotient_by_ideal(
        src, [p.element for p in powers.level(3)])
    assert homology(proj_pres, 3, 3).is_zero_class(proj.apply(omega), 3)

    rep = surjection_bounds(mult.morphism)
    assert (rep.h_bound.lower, rep.h_bound.upper) == (3, 3)
    assert any(c.kind == "rho-noninjectivity-witness" and c.data["m"] == 2
               for c in rep.h_bound.certificates)
    assert rep.notes and rep.notes[0].startswith("model-relative")
    print("PASS: degree-one model's alternating witness is exact, nonzero, "
          "lies in the kernel cube, and h = 3 is tagged model-relative")


def test_wedge_tc_three_routes(models):
    """Wedge of two spheres: lower 3 by witness, upper 3 by kernel power,
    while the homology-kernel nil stops at 2."""
    W = models["W"]
    manual = Presentation(
        [("a", 3), ("b", 3), ("x", 5), ("y", 10)], W.cap,
        differentials={"x": {(("a", 1), ("b", 1)): 1},
                       "y": {(("a", 1), ("b", 1), ("x", 1)): 1}})
    theta = CdgaMorphism(manual, W, {"a": W.gen("a"), "b": W.gen("b"),
                                     "x": W.gen("x"), "y": W.zero()},
                         check=True)
    dm = diagonal_model(W, 2, 14, model=SullivanModelResult(manual, theta, 12))
    src = dm.source
    a, b, x = src.gen("a"), src.gen("b"), src.gen("x")
    a2, b2, x2, y2 = (src.gen("a_2"), src.gen("b_2"), src.gen("x_2"),
                      src.gen("y_2"))

    omega = (a - a2) * (b - b2) * (x - x2)
    # exact exactness relation re-verified coefficient by coefficient
    assert omega == (a * x * b2 - b * a2 * x2 + a * b2 * x2 - b * x * a2
                     - (x * x2 + y2).d())
    assert not homology(src, 11, 11).is_zero_class(omega, 11)
    powers = IdealPowers(PresentationView(src, 13), dm.kernel_generators)
    assert powers.contains(3, omega, 11)
    proj_pres, proj = quotient_by_ideal(
        src, [p.element for p in powers.level(3)])
    assert homology(proj_pres, 11, 11).is_zero_class(proj.apply(omega), 11)

    rep = tc_bounds(W, 2, label="W")
    assert rep.htc.lower == 3 and rep.htc.lower_absolute    # witness route
    assert rep.surjection.nil_kernel == 3                   # upper route
    assert (rep.tc.lower, rep.tc.upper) == (3, 3)
    assert any(c.kind == "kernel-power-vanishes" and c.data["m"] == 3
               for c in rep.tc.certificates)
    assert rep.surjection.nil_kernel_h.nil == 2             # weaker route
    print("PASS: wedge tc pins 3 from the witness and the kernel power "
          "while nil ker H(diagonal) only reaches 2")


def test_module_retraction_without_algebra_retraction(models):
    """Lambda(a2, b2, x3), dx = a^2 + b^2 retracts onto Lambda(a) as a
    module but admits no multiplicative retraction."""
    Q = models["Q"]
    cert = split_retraction_certificate("Q", Q, ["a"], 9)
    assert cert is not None
    # closed form: even b-powers alternate sign, everything else dies
    assert cert.data["values"] == {
        "1": "1", "b": "0", "b*x": "0", "b^2": "-a^2", "b^2*x": "0",
        "b^3": "0", "b^3*x": "0", "b^4": "a^4", "x": "0"}
    ok, detail = verify_certificate(cert, {"Q": Q}, {})
    assert ok and "retracts onto its base" in detail
    frozen = certificate_from_json(
        (MODELS / "stanley_retraction.cert").read_text())
    assert cert.data == frozen.data and cert.context == frozen.context

    # any algebra map fixing a sends b to alpha*a and x to 0, and then
    # phi(dx) = (1 + alpha^2) a^2 can never vanish over the rationals
    base = Presentation([("a", 2)], 10)
    a = base.gen("a")
    for alpha in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                  Fraction(-2), Fraction(1, 2), Fraction(-1, 2)):
        assert ((1 + alpha * alpha) * (a * a)).terms
        with pytest.raises(CdgaError):
            CdgaMorphism(Q, base, {"a": a, "b": alpha * a,
                                   "x": base.zero()}, check=True)
    print("PASS: sum-of-squares model splits as a module over its base with "
          "the alternating b-power retraction, yet every candidate algebra "
          "retraction hits the (1 + alpha^2) a^2 obstruction")


def test_randomized_suites_end_to_end(models, morphisms):
    """Re-run the randomized law, Kunneth, bound-chain, and fuzzing suites
    as one gate."""
    props.test_algebra_laws_hold_in_bulk()
    props.test_sign_rule_hypothesis()
    props.test_d_squared_hypothesis()
    for filename, hi in (("sphere3.cdga", 6), ("hopf_pair.cdga", 10),
                         ("coformal.cdga", 8)):
        props.test_tensor_square_homology_multiplies(filename, hi)
    props.test_category_chains_on_every_model(models)
    props.test_tc_chains(models)
    props.test_every_corruption_is_rejected(models, morphisms)
    print("PASS: randomized algebra laws, Kunneth checks, bound chains, "
          "and certificate fuzzing all hold")
