"""Randomized algebraic laws, tensor homology, chain consistency, fuzzing."""

import random
import re
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import MODELS, ROOT, load_model
import oracles as orc

from secat.construct import diagonal_model, multiplication_morphism
from secat.core import (AlgebraElement, CdgaError, Presentation, RangeExceedsCap,
                        quotient_by_ideal, tensor, tensor_power)
from secat.homology import (HomologyView, IdealPowers, PresentationView,
                            homology, kernel_ideal_generators, quotient_kernel)
from secat.invariants import (
    Certificate, _chain_names, augmentation_morphism, cat_bounds,
    certificate_from_json, homology_kernel_classes, surjection_bounds,
    surjection_of, tc_bounds, verify_certificate,
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
def test_named_multiplication_generators_generate_the_derived_kernel(A, n):
    """The differences of generator copies that multiplication_morphism
    names generate ker(A^{ox n} -> A): the same ideal, in every degree
    <= hi, as the generators derived over every degree.  Unless a relation
    has a term of word length 1, which can make a difference a product of
    lower ones, they are the same list."""
    mult = multiplication_morphism(A, n)
    hi = A.homology_hi
    named = [g for g in mult.kernel_generators if g.degree() <= hi]
    derived = kernel_ideal_generators(mult.morphism, hi)
    view = PresentationView(mult.morphism.source, hi)
    ours, full = IdealPowers(view, named), IdealPowers(view, derived)
    for d in range(1, hi + 1):
        assert (orc.echelon_basis(ours.span_echelon(1, d))
                == orc.echelon_basis(full.span_echelon(1, d))), d
    if all(sum(e for _, e in mono) > 1 for rel in A.relations for mono in rel):
        assert named == derived


@st.composite
def _monomial_quotients(draw):
    """A presentation at cap 12 on one to three of a, b, c of degrees 1-3
    with d = 0 and monomial relations only: a power of each even generator,
    and up to two more monomials in degrees 2-6."""
    gens = [(n, draw(st.integers(1, 3)))
            for n in ("a", "b", "c")[:draw(st.integers(1, 3))]]
    free = Presentation(gens, 12, simply_connected=False)
    relations = [{((n, draw(st.integers(2, 3))),): 1}
                 for n, e in gens if e % 2 == 0]
    for _ in range(draw(st.integers(0, 2))):
        monos = free.free_monomials(draw(st.integers(2, 6)))
        if monos:
            relations.append({draw(st.sampled_from(monos)): 1})
    return Presentation(gens, 12, relations=relations,
                        simply_connected=all(e >= 2 for _, e in gens))


@settings(max_examples=40, deadline=None)
@given(A=_monomial_quotients(), n=st.sampled_from([2, 3]))
def test_a_witness_of_n_times_the_input_nil_is_the_multiplication_nil(A, n):
    """On A^{ox n}, at the cap tc_bounds gives it (raised to the largest
    relation degree 6), the powers of ker mu vanish above n.nil(A+).  A
    search builds no level and never reaches past the nil of its view, the
    window tc_bounds reads or one cut below the top: so when it reaches
    n.nil(A+) in that window, that is the nil."""
    htop = A.top_degree_if_finite()
    assume(htop is not None and n * htop <= 15)
    cap = max(n * htop + max(g.degree for g in A.generators) + 1, 6)
    mult = multiplication_morphism(A, n, cap=cap)
    T = mult.morphism.source
    ttop = T.top_degree_if_finite()
    assume(ttop is not None)
    k = n * IdealPowers(PresentationView(A, htop),
                        [A.gen(g.name) for g in A.generators]).nil()[0]
    for hi in (max(ttop - 1, 0), min(T.cap, ttop + 1)):
        view = PresentationView(T, hi)
        nil = IdealPowers(view, mult.kernel_generators).nil()[0]
        search = IdealPowers(view, mult.kernel_generators)
        for j in range(k + 2):
            assert not search.reaches(j) or j <= nil, (hi, j)
        assert search.levels == []
    assert nil <= k
    if search.reaches(k):
        assert nil == k


def test_the_wedge_square_has_no_witness_and_builds_its_nil(models):
    """W at n = 2: nil(ker mu) = 3 < 2.nil(W+) = 4, so the search finds no
    product of 4 kernel generators and tc_bounds builds the levels."""
    W = models["W"]
    [cert] = [c for c in tc_bounds(W, 2).tc.certificates
              if c.context["construction"] == "multiplication"]
    mult = multiplication_morphism(W, 2, cap=cert.context["cap"])
    powers = IdealPowers(PresentationView(mult.morphism.source, cert.data["hi"]),
                         mult.kernel_generators)
    assert not powers.reaches(4)
    assert powers.reaches(3)
    assert powers.nil()[0] == cert.data["m"] == 3


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
    source = diagonal_model(models["T"], 2, 22).morphism.source
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
# injectivity into S/I^{m+1} decided inside S, against the quotient itself


def _assert_quotient_kernels_match(S, H_S, kernel_gens, hi):
    """At every level m from 0 to nil + 1, quotient_kernel against the
    level's span gives, in every degree 1..hi, the same cycles in the same
    order as the quotient's homology does (oracles.quotient_kernels)."""
    powers = IdealPowers(PresentationView(S, min(S.cap, hi + 1)), kernel_gens)
    nil, _ = powers.nil()
    for m in range(nil + 2):
        want = orc.quotient_kernels(
            S, [p.element for p in powers.level(m + 1)], hi)
        for d in range(1, hi + 1):
            got = quotient_kernel(H_S, powers.span_echelon(m + 1, d), d)
            assert [list(z.terms.items()) for z in got] == \
                [list(z.terms.items()) for z in want[d]], (m, d)


def _bundled_surjections():
    """(id, file name, cdga label, n) for the augmentation (n None) and the
    n = 2 and n = 3 diagonals of every bundled cdga."""
    out = []
    for path in sorted(MODELS.glob("*.cdga")):
        for label in sorted(load_model(path.name)[0]):
            out.append((f"{label}-cat", path.name, label, None))
            out += [(f"{label}-tc{n}", path.name, label, n) for n in (2, 3)]
    return out


@cache
def _bundled_run(filename, label, n):
    """(cdga, report, recipe) of cat (n None) or tc of a bundled cdga, h-loop
    only.  The recipe is the context of the map bound's first certificate:
    the kernel power that surjection_bounds merges before any other."""
    A = load_model(filename)[0][label]
    run = (cat_bounds(A, with_m=False, label=label) if n is None
           else tc_bounds(A, n, with_m=False, label=label))
    return A, run, run.surjection.map_bound.certificates[0].context


@cache
def _bundled_report(filename, label, n):
    """The surjection that recipe builds (surjection_of), its h-loop-only
    chain report, and H(source) in the report's range."""
    A, _, recipe = _bundled_run(filename, label, n)
    surj = surjection_of(recipe, {label: A}, {})
    rep = surjection_bounds(surj, with_m=False)
    return surj, rep, homology(surj.morphism.source, 0, rep.hi)


BUNDLED_NAMES = {None: ("toomer", "mcat", "cat"), 2: ("htc", "mtc", "tc"),
                 3: ("htc3", "mtc3", "tc3")}


@pytest.mark.parametrize("filename,label,n",
                         [c[1:] for c in _bundled_surjections()],
                         ids=[c[0] for c in _bundled_surjections()])
def test_each_end_is_named_by_its_recipe(filename, label, n):
    """cat and tc name the ends of their chain by the name table's entry
    for the recipe they build (without m, which these runs skip)."""
    _, run, recipe = _bundled_run(filename, label, n)
    names = _chain_names(recipe)
    assert names == BUNDLED_NAMES[n]
    assert [b.name for b in run.bounds()] == [names[0], names[2]]


@pytest.mark.parametrize("filename,label,n",
                         [c[1:] for c in _bundled_surjections()],
                         ids=[c[0] for c in _bundled_surjections()])
def test_quotient_kernel_matches_the_quotient_on_bundled_surjections(
        filename, label, n):
    surj, rep, H_S = _bundled_report(filename, label, n)
    _assert_quotient_kernels_match(surj.morphism.source, H_S,
                                   surj.kernel_generators, rep.hi)


@settings(max_examples=60, deadline=None)
@given(P=_relation_quotients())
def test_quotient_kernel_matches_the_quotient_on_random_augmentations(P):
    """The augmentation's kernel is the ideal of the generators."""
    hi = P.cap - 1
    _assert_quotient_kernels_match(P, homology(P, 0, hi),
                                   [P.gen(g.name) for g in P.generators], hi)


# ---------------------------------------------------------------------------
# ker H(phi) enters its powers by ideal generators, and no odd factor is
# squared


def _levels(powers, m):
    return [[(p.degree, p.factors, list(p.element.terms.items()))
             for p in powers.level(k)] for k in range(1, m + 1)]


def _assert_levels_match_the_oracle(view, generators):
    """IdealPowers, which never squares an odd last factor, keeps the same
    products at every level up to nil + 1 as the oracle that forms them."""
    powers = IdealPowers(view, generators)
    m = powers.nil()[0] + 1
    want = orc.ideal_power_levels(view, generators, m)
    assert _levels(powers, m) == [
        [(e, factors, list(el.terms.items())) for el, e, factors in level]
        for level in want]


def _assert_kernel_h_generators(phi, H_S, hi):
    """homology_kernel_classes keeps no more classes than the vector basis
    of ker H(phi), each in ker phi, and they generate the same ideal of
    H(S): its powers agree in every degree 1..hi up to the nil, which agrees
    too.  The powers over both lists match the no-skip oracle.  Returns the
    classes kept."""
    H_B = homology(phi.target, 0, hi)
    gens = homology_kernel_classes(phi, H_S, H_B, hi)
    basis = orc.homology_kernel_basis(phi, H_S, H_B, hi)
    assert len(gens) <= len(basis)
    assert all(not phi.apply(g).terms for g in gens)
    view = HomologyView(H_S)
    ours, full = IdealPowers(view, gens), IdealPowers(view, basis)
    nil = ours.nil()[0]
    assert full.nil()[0] == nil
    for m in range(1, nil + 2):
        for d in range(1, hi + 1):
            assert orc.echelon_basis(ours.span_echelon(m, d)) == \
                orc.echelon_basis(full.span_echelon(m, d)), (m, d)
    _assert_levels_match_the_oracle(view, gens)
    _assert_levels_match_the_oracle(view, basis)
    return gens


@pytest.mark.parametrize("filename,label,n",
                         [c[1:] for c in _bundled_surjections()],
                         ids=[c[0] for c in _bundled_surjections()])
def test_kernel_h_generators_and_levels_on_bundled_surjections(
        filename, label, n):
    surj, rep, H_S = _bundled_report(filename, label, n)
    assert rep.nil_kernel_h.generators == _assert_kernel_h_generators(
        rep.morphism, H_S, rep.hi)
    S = rep.morphism.source
    _assert_levels_match_the_oracle(PresentationView(S, min(S.cap, rep.hi + 1)),
                                    surj.kernel_generators)


@settings(max_examples=60, deadline=None)
@given(P=_relation_quotients())
def test_kernel_h_generators_and_levels_on_random_augmentations(P):
    hi = P.cap - 1
    _assert_kernel_h_generators(augmentation_morphism(P), homology(P, 0, hi), hi)
    _assert_levels_match_the_oracle(PresentationView(P),
                                    [P.gen(g.name) for g in P.generators])


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
# the acyclic check reads H(J) off J -> P -> P/J


# hosts whose relations are monomial, as the word oracle needs; U is the
# contractible Lambda(u, h; dh = u), whose augmentation ideal is acyclic
_IDEAL_HOSTS = {
    **{label: _first_cdga(f"{name}.cdga") for label, name in (
        ("S2", "sphere2"), ("Q", "sum_of_squares"), ("C", "coformal"),
        ("T", "truncated_mix"), ("W", "wedge"))},
    "U": Presentation([("u", 3), ("h", 2)], 9, differentials={"h": {(("u", 1),): 1}}),
}


@st.composite
def _d_stable_ideals(draw):
    """(host label, hi, generators): one or two homogeneous elements of
    degree <= hi, each a sum of at most two basis monomials, with their
    differentials, so the ideal they generate is d-stable."""
    label = draw(st.sampled_from(sorted(_IDEAL_HOSTS)))
    P = _IDEAL_HOSTS[label]
    hi = draw(st.integers(3, 7))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.sampled_from([d for d in range(1, hi + 1) if P.dim(d)]))
        picks = draw(st.lists(st.sampled_from(P.basis(d)), min_size=1,
                              max_size=2, unique=True))
        g = P.element({m: draw(st.sampled_from([1, -1, 2])) for m in picks})
        gens += [g, g.d()]
    return label, hi, [g for g in gens if g.terms]


@settings(max_examples=40, deadline=None)
@given(case=_d_stable_ideals())
def test_the_acyclic_verdict_reads_the_ideals_homology(case):
    """The acyclic check's verdict names exactly the nonzero Betti numbers
    of J in degrees 1..hi that a dense computation of H(J) finds."""
    label, hi, gens = case
    P = _IDEAL_HOSTS[label]
    odd = orc.odd_map(P)
    rels = [tuple(n for n, e in mono for _ in range(e))
            for rel in P.relations for mono in rel]
    betti = orc.ideal_betti_numbers(
        orc.gen_triples(P), orc.diffs_of(P), rels,
        [(orc.engine_to_words(g.terms, odd), g.degree()) for g in gens], hi)
    bad = {d: b for d, b in betti.items() if b}
    cert = Certificate("acyclic-ideal-containment",
                       {"construction": "presentation", "cdga": label},
                       {"hi": hi, "generators": [str(g) for g in gens]})
    assert verify_certificate(cert, _IDEAL_HOSTS) == (
        (False, f"the ideal is not acyclic: homology {bad}") if bad
        else (True, f"d-stable ideal, acyclic in degrees <= {hi}"))


# ---------------------------------------------------------------------------
# certificate fuzzing: the fuzz script's corruptions must all be rejected


def test_every_corruption_is_rejected(models, morphisms):
    # Q has no certified top degree, so its mcat is a solved retraction
    reports = [cat_bounds(models["C"], label="C"),
               cat_bounds(models["T"], label="T"),
               cat_bounds(models["CP2"], label="CP2"),
               cat_bounds(models["Q"], label="Q"),
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
