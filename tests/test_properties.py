"""Randomized algebraic laws, tensor homology, chain consistency, fuzzing."""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import MODELS, ROOT, load_model
import oracles as orc

from secat.construct import diagonal_model, multiplication_morphism
from secat.core import (AlgebraElement, CdgaError, Presentation, RangeExceedsCap,
                        quotient_by_ideal, tensor, tensor_power)
from secat.homology import homology, kernel_ideal_generators
from secat.invariants import (
    cat_bounds, certificate_from_json, tc_bounds,
    verify_certificate,
)

sys.path.insert(0, str(ROOT / "scripts"))
import fuzz_certificates  # noqa: E402

SEED = 20260815
BULK_MODELS = ["coformal.cdga", "truncated_mix.cdga", "sum_of_squares.cdga",
               "wedge.cdga", "product_spheres.cdga", "sphere2.cdga",
               "degree_one.cdga", "hopf_pair.cdga"]


def _first_cdga(filename):
    pres, _ = load_model(filename)
    return next(iter(pres.values()))


def _random_element(P, rng, d):
    basis = P.basis(d)
    if not basis:
        return None
    k = min(len(basis), rng.randint(1, 3))
    picks = rng.sample(list(basis), k)
    terms = {}
    for m in picks:
        num = rng.randint(1, 4) * rng.choice([1, -1])
        terms[m] = Fraction(num, rng.choice([1, 1, 2, 3]))
    return AlgebraElement(P, terms)


# ---------------------------------------------------------------------------
# the three defining laws, in bulk


def test_algebra_laws_hold_in_bulk():
    """Sign rule, associativity, Leibniz, and d^2 = 0 on random elements."""
    rng = random.Random(SEED)
    checked = 0
    for filename in BULK_MODELS:
        P = _first_cdga(filename)
        cap = P.cap
        inhabited = [d for d in range(1, cap - 3) if P.basis(d)]
        for _ in range(60):
            dx = rng.choice(inhabited)
            dy = rng.choice([d for d in inhabited if d + dx <= cap - 2] or [dx])
            x = _random_element(P, rng, dx)
            y = _random_element(P, rng, dy)
            if x is None or y is None or dx + dy > cap - 2:
                continue

            # graded commutativity
            sign = -1 if (dx % 2 and dy % 2) else 1
            assert (x * y - (y * x) * sign).terms == {}
            checked += 1

            # Leibniz
            lhs = (x * y).d()
            rhs = x.d() * y + (x * y.d()) * (-1 if dx % 2 else 1)
            assert (lhs - rhs).terms == {}
            checked += 1

            # d squares to zero
            assert x.d().d().terms == {}
            assert lhs.d().terms == {}
            checked += 2

            # associativity with a third factor
            dz = rng.randint(1, max(1, cap - dx - dy))
            z = _random_element(P, rng, dz)
            if z is not None and dx + dy + dz <= cap:
                assert ((x * y) * z - x * (y * z)).terms == {}
                checked += 1
    assert checked >= 1000


_C = _first_cdga("coformal.cdga")
_Q = _first_cdga("sum_of_squares.cdga")


@st.composite
def _elements(draw, P, max_degree):
    d = draw(st.integers(min_value=1, max_value=max_degree))
    basis = P.basis(d)
    if not basis:
        return P.one() - P.one()
    coeffs = draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        min_size=len(basis), max_size=len(basis)))
    terms = {m: c for m, c in zip(basis, coeffs) if c}
    return AlgebraElement(P, terms)


@settings(max_examples=120, deadline=None)
@given(x=_elements(_C, 5), y=_elements(_C, 5))
def test_sign_rule_hypothesis(x, y):
    dx, dy = x.degree(), y.degree()
    if dx is None or dy is None:
        return
    sign = -1 if (dx % 2 and dy % 2) else 1
    assert (x * y - (y * x) * sign).terms == {}


@settings(max_examples=120, deadline=None)
@given(x=_elements(_Q, 4), y=_elements(_Q, 4))
def test_leibniz_hypothesis(x, y):
    dx = x.degree()
    if dx is None or y.degree() is None:
        return
    lhs = (x * y).d()
    rhs = x.d() * y + (x * y.d()) * (-1 if dx % 2 else 1)
    assert (lhs - rhs).terms == {}
    assert lhs.d().terms == {}


@settings(max_examples=100, deadline=None)
@given(x=_elements(_C, 9))
def test_d_squared_hypothesis(x):
    assert x.d().d().terms == {}


# ---------------------------------------------------------------------------
# homology of tensor products multiplies


def _betti(P, hi):
    H = homology(P, 0, hi)
    return [H.betti(d) for d in range(hi + 1)]


def _convolve(a, b, hi):
    out = [0] * (hi + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if ai and bj and i + j <= hi:
                out[i + j] += ai * bj
    return out


@pytest.mark.parametrize("filename,hi", [
    ("sphere3.cdga", 6),
    ("hopf_pair.cdga", 10),
    ("coformal.cdga", 8),
])
def test_tensor_square_homology_multiplies(filename, hi):
    P = _first_cdga(filename)
    single = _betti(P, hi)
    square = _betti(tensor_power(P, 2).pres, hi)
    assert square == _convolve(single, single, hi)


def test_product_of_spheres_matches_the_tensor_rule(models):
    odd = _betti(models["S3"], 6)
    assert _betti(models["P"], 6) == _convolve(odd, odd, 6)


def test_tensor_cube_homology_multiplies(models):
    single = _betti(models["S3"], 6)
    expected = _convolve(_convolve(single, single, 6), single, 6)
    assert _betti(tensor_power(models["S3"], 3).pres, 6) == expected


# ---------------------------------------------------------------------------
# products of parts with certified tops, and their multiplication kernels


@st.composite
def _small_presentations(draw, cap):
    """A presentation on one to three of a, b, c of degrees 1-3 with d = 0:
    each even generator has a power relation in degree <= 6, and up to two
    more homogeneous relations in degrees <= 6 come on top.  A degree-1
    generator is allowed under simply_connected=False."""
    gens = [(n, draw(st.integers(1, 3)))
            for n in ("a", "b", "c")[:draw(st.integers(1, 3))]]
    free = Presentation(gens, cap, simply_connected=False)
    relations = [{((n, draw(st.integers(2, 3))),): 1}
                 for n, e in gens if e % 2 == 0]
    for _ in range(draw(st.integers(0, 2))):
        monos = free.free_monomials(draw(st.integers(2, 6)))
        if monos:
            picks = draw(st.lists(st.sampled_from(monos), min_size=1,
                                  max_size=2, unique=True))
            relations.append({m: draw(st.sampled_from([1, -1, 2]))
                              for m in picks})
    return Presentation(gens, cap, relations=relations,
                        simply_connected=all(e >= 2 for _, e in gens))


@settings(max_examples=40, deadline=None)
@given(A=_small_presentations(7), n=st.sampled_from([2, 3]))
def test_multiplication_kernel_needs_only_the_generator_degrees(A, n):
    """ker(A^{ox n} -> A) is generated by the differences of generator
    copies, so visiting only A's generator degrees finds the same ideal
    generators, in the same order, as visiting every degree."""
    mu = multiplication_morphism(A, n).morphism
    hi = A.cap if A.is_free else A.cap - 1
    degrees = {g.degree for g in A.generators}
    assert (kernel_ideal_generators(mu, hi, degrees)
            == kernel_ideal_generators(mu, hi))


@settings(max_examples=40, deadline=None)
@given(A=_small_presentations(12), B=_small_presentations(12),
       n=st.sampled_from([0, 2, 3]), extra=st.integers(1, 3), data=st.data())
def test_a_product_above_its_parts_tops_matches_the_echelon_path(
        A, B, n, extra, data):
    """basis, dim and reduce_raw of tensor(A, B) (n = 0) or A^{ox n}, with
    the cap a little above the sum of the parts' certified tops, agree with
    elimination against the ideal echelon of every degree.  The parts share
    the names a, b, c, so the assembly renames them (a -> a1, a2)."""
    parts = (A, B) if n == 0 else (A,) * n
    tops = [P.top_degree_if_finite() for P in parts]
    assume(None not in tops and sum(tops) <= 14)
    cap = max([sum(tops)] + [P._ctx.mono_degree(next(iter(r)))
                             for P in parts for r in P.relations]) + extra
    P = tensor(A, B, cap=cap).pres if n == 0 else tensor_power(A, n, cap=cap).pres
    assume(not P.is_free)
    assert P._parts_top == sum(tops)
    for d in range(cap + 1):
        assert P.basis(d) == orc.basis_eliminated(P, d)
        assert P.dim(d) == len(P.basis(d))
    with pytest.raises(RangeExceedsCap):
        orc.basis_eliminated(P, cap + 1)
    with pytest.raises(RangeExceedsCap):
        P.basis(cap + 1)
    pool = [m for d in range(cap + 2) for m in P.free_monomials(d)]
    for _ in range(5):
        chosen = data.draw(st.lists(st.sampled_from(pool), unique=True,
                                    min_size=1, max_size=6))
        terms = {m: data.draw(st.sampled_from([1, -2, Fraction(1, 3)]))
                 for m in chosen}
        try:
            want = orc.reduce_raw_eliminated(P, terms)
        except RangeExceedsCap as exc:
            with pytest.raises(RangeExceedsCap, match=re.escape(str(exc))):
                P.reduce_raw(terms)
            continue
        assert list(P.reduce_raw(terms).items()) == list(want.items())


def test_the_top_rule_needs_every_part_top_certified(models):
    """The diagonal source T (x) M has T's minimal model M, free on even
    generators, among its parts, and T at cap 10 cannot certify its top 8
    (8 + 5 > 10): neither product records a top, and above 8 + 8 their
    pieces are still built from the relations, as standard monomials."""
    source = diagonal_model(models["T"], 2, 22).source
    T10 = load_model("truncated_mix.cdga", cap=10)[0]["T"]
    assert T10.top_degree_if_finite() is None
    for P in (source, tensor(T10, models["S3"], cap=16).pres):
        assert P._parts_top is None
        for d in range(17, P.cap + 1):
            assert P.basis(d) == orc.basis_eliminated(P, d)
            assert d in P._table._monomials


_RELATION_COEFFICIENTS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


@st.composite
def _relation_presentations(draw, cap):
    """A presentation with d = 0 on one to four of a, b, c, e of degrees
    1-4, with one to three monomial, binomial or mixed relations in degrees
    <= cap, whose coefficients need not be 1.  Degree-1 generators come
    under simply_connected=False, which is drawn for the others too."""
    gens = [(n, draw(st.integers(1, 4)))
            for n in ("a", "b", "c", "e")[:draw(st.integers(1, 4))]]
    sc = all(e >= 2 for _, e in gens) and draw(st.booleans())
    free = Presentation(gens, cap, simply_connected=sc)
    degrees = [d for d in range(1, cap + 1) if free.free_monomials(d)]
    kind = draw(st.sampled_from(["monomial", "binomial", "mixed"]))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        monos = free.free_monomials(draw(st.sampled_from(degrees)))
        size = {"monomial": 1, "binomial": 2}.get(kind) or draw(st.integers(1, 3))
        if len(monos) >= size:
            picks = draw(st.lists(st.sampled_from(monos), min_size=size,
                                  max_size=size, unique=True))
            relations.append({m: draw(st.sampled_from(_RELATION_COEFFICIENTS))
                              for m in picks})
    return Presentation(gens, cap, relations=relations, simply_connected=sc)


@st.composite
def _relation_quotients(draw):
    """A _relation_presentations draw, its tensor product with another or
    its tensor square, then perhaps a quotient of that by one or two
    elements: single terms (new monomial relations) or sums of two."""
    cap = 7
    A = draw(_relation_presentations(cap))
    shape = draw(st.sampled_from(["alone", "tensor", "square"]))
    if shape == "tensor":
        P = tensor(A, draw(_relation_presentations(cap)), cap=cap).pres
    elif shape == "square":
        P = tensor_power(A, 2, cap=cap).pres
    else:
        P = A
    if draw(st.booleans()):
        elements = []
        for _ in range(draw(st.integers(1, 2))):
            monos = P.free_monomials(draw(st.integers(1, cap)))
            if monos:
                picks = draw(st.lists(st.sampled_from(monos), min_size=1,
                                      max_size=2, unique=True))
                elements.append(P.element(
                    {m: draw(st.sampled_from(_RELATION_COEFFICIENTS)) for m in picks}))
        P, _ = quotient_by_ideal(P, elements)
    return P


def _same_or_same_error(want, got):
    """want() and got() give the same value, or raise the same
    RangeExceedsCap text."""
    try:
        expected = want()
    except RangeExceedsCap as exc:
        with pytest.raises(RangeExceedsCap, match=f"^{re.escape(str(exc))}$"):
            got()
        return None
    return expected, got()


@settings(max_examples=150, deadline=None)
@given(P=_relation_quotients(), data=st.data())
def test_standard_monomials_and_their_echelon_match_the_ideal_echelon(P, data):
    """basis, dim and reduce_raw, read off the standard monomials and the
    echelon of the non-monomial relations over them, agree with elimination
    against the echelon of the whole ideal over the free monomials: the
    same monomials, the same terms in the same key order with the same
    coefficient types, or the same RangeExceedsCap text above the cap."""
    assume(not P.is_free)
    for d in range(-1, P.cap + 2):
        pair = _same_or_same_error(lambda: orc.basis_eliminated(P, d),
                                   lambda: P.basis(d))
        if pair is not None:
            assert pair[1] == pair[0]
            assert P.dim(d) == len(pair[0])
    pool = [m for d in range(P.cap + 2) for m in P.free_monomials(d)]
    for _ in range(4):
        chosen = data.draw(st.lists(st.sampled_from(pool), unique=True,
                                    min_size=1, max_size=6))
        terms = {m: data.draw(st.sampled_from([1, -2, Fraction(1, 3), Fraction(4, 2)]))
                 for m in chosen}
        pair = _same_or_same_error(lambda: orc.reduce_raw_eliminated(P, terms),
                                   lambda: P.reduce_raw(terms))
        if pair is not None:
            want, got = pair
            assert list(got.items()) == list(want.items())
            assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


# ---------------------------------------------------------------------------
# bound chains stay ordered on the whole corpus


def _assert_chain(bounds):
    for b in bounds:
        if b.lower is not None and b.upper is not None:
            assert b.lower <= b.upper, b.summary()
    for low, high in zip(bounds, bounds[1:]):
        if low.lower is not None and high.lower is not None:
            assert low.lower <= high.lower, (low.summary(), high.summary())
        if low.upper is not None and high.upper is not None:
            assert low.upper <= high.upper, (low.summary(), high.summary())


def test_category_chains_on_every_model(models):
    for label, P in sorted(models.items()):
        rep = cat_bounds(P, label=label)
        _assert_chain(rep.bounds())
        assert rep.cup.nil <= (rep.cat.lower or 0)


def test_tc_chains(models):
    for label, n in (("S3", 2), ("S3", 3), ("P", 2), ("W", 2)):
        rep = tc_bounds(models[label], n, label=label)
        _assert_chain(rep.bounds())
        # the diagonal invariant dominates the one-slot invariant
        cat = cat_bounds(models[label], label=label)
        if rep.tc.lower is not None and cat.cat.upper is not None:
            assert (cat.cat.lower or 0) <= (n - 1) * cat.cat.upper + rep.tc.upper


# ---------------------------------------------------------------------------
# certificate fuzzing: the fuzz script's corruptions must all be rejected


def test_every_corruption_is_rejected(models, morphisms):
    reports = [cat_bounds(models["C"], label="C"),
               cat_bounds(models["T"], label="T"),
               cat_bounds(models["CP2"], label="CP2"),
               tc_bounds(models["S3"], 2, label="S3")]
    sample = []
    for rep in reports:
        for bound in rep.bounds():
            for cert in bound.certificates:
                sample.append((cert, rep.surjection.nil_kernel))
    frozen = certificate_from_json(
        (MODELS / "stanley_retraction.cert").read_text())
    sample.append((frozen, 0))

    total = rejected = 0
    for cert, nil_k in sample:
        ok, detail = verify_certificate(cert, models, morphisms)
        assert ok, f"pristine {cert.kind} rejected: {detail}"
        for desc, bad in fuzz_certificates.corruptions(cert, nil_k):
            total += 1
            try:
                ok, detail = verify_certificate(bad, models, morphisms)
            except CdgaError:
                rejected += 1     # malformed enough to raise: still a rejection
                continue
            if not ok:
                rejected += 1
            else:
                pytest.fail(f"{cert.kind} corruption {desc!r} was accepted")
    assert total >= 41
    assert rejected == total
