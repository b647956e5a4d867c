"""Graded arithmetic, differentials, presentations, morphisms."""

import collections
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from secat import invariants
from secat.cli import main
from secat.construct import build_minimal_model, diagonal_model, multiplication_morphism
from secat.core import (AlgebraElement, CdgaError, CdgaMorphism, DegreeMismatch,
                        Generator, Inhomogeneous, NotFree, NotSquareZero,
                        Presentation, RangeExceedsCap, _MonomialTable, _SignEngine,
                        format_element, identity_morphism, quotient_by_ideal,
                        sub_presentation, tensor, tensor_power)
from secat.homology import IdealPowers, PresentationView
from secat.lang import parse_document, parse_element, realize_document

from conftest import MODELS, load_model
import oracles as orc


def random_element(P, d, rng, density=0.6):
    basis = P.basis(d)
    if not basis:
        return P.zero()
    el = P.zero()
    for mono in basis:
        if rng.random() < density:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if c:
                el = el + P.element({mono: c})
    return el


def as_words(el, P):
    return orc.engine_to_words(el.terms, orc.odd_map(P))


def from_words(element, P):
    """{oracle word: coeff} -> {engine monomial: coeff}, the inverse of
    as_words word by word: an engine monomial lists its generators by
    (degree, name)."""
    degree, odd = {g.name: g.degree for g in P.generators}, orc.odd_map(P)
    out = {}
    for word, c in element.items():
        mono = tuple(sorted(collections.Counter(word).items(),
                            key=lambda f: (degree[f[0]], f[0])))
        (back, sign), = orc.engine_to_words({mono: 1}, odd).items()
        assert back == word
        out[mono] = sign * c
    return out


MIXED = Presentation([("a", 2), ("b", 3), ("c", 3), ("e", 4), ("f", 5)], 20)


def test_products_match_oracle_on_random_words():
    rng = random.Random(7)
    odd = orc.odd_map(MIXED)
    names = [g.name for g in MIXED.generators]
    for _ in range(300):
        w1 = tuple(rng.choices(names, k=rng.randint(1, 3)))
        w2 = tuple(rng.choices(names, k=rng.randint(1, 3)))
        e1 = MIXED.one()
        for n in w1:
            e1 = e1 * MIXED.gen(n)
        e2 = MIXED.one()
        for n in w2:
            e2 = e2 * MIXED.gen(n)
        got = as_words(e1 * e2, MIXED)
        want = orc.mul_elements(as_words(e1, MIXED), as_words(e2, MIXED), odd)
        assert got == want


def test_graded_commutativity_and_odd_squares():
    rng = random.Random(11)
    for _ in range(100):
        d1, d2 = rng.randint(2, 6), rng.randint(2, 6)
        x = random_element(MIXED, d1, rng)
        y = random_element(MIXED, d2, rng)
        sign = -1 if (d1 % 2 and d2 % 2) else 1
        assert x * y == sign * (y * x)
    for g in MIXED.generators:
        if g.degree % 2:
            assert not (MIXED.gen(g.name) * MIXED.gen(g.name)).terms


def test_associativity_and_distributivity():
    rng = random.Random(13)
    for _ in range(60):
        x = random_element(MIXED, rng.randint(2, 5), rng)
        y = random_element(MIXED, rng.randint(2, 5), rng)
        z = random_element(MIXED, rng.randint(2, 5), rng)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


COFORMAL = Presentation(
    [("a", 3), ("b", 3), ("x", 5)], 14,
    differentials={"x": {(("a", 1), ("b", 1)): Fraction(1)}})


@pytest.mark.parametrize("P", [
    COFORMAL,
    Presentation([("a", 2), ("x", 3)], 12,
                 differentials={"x": {(("a", 2),): Fraction(1)}}),
    Presentation([("a", 2), ("u", 3), ("v", 3), ("c", 4)], 12,
                 differentials={"c": {(("a", 1), ("v", 1)): Fraction(1)}}),
    load_model("truncated_mix.cdga")[0]["T"],
    load_model("wedge.cdga")[0]["W"],
], ids=["P0", "P1", "even-generator", "T", "W"])
def test_differential_matches_oracle(P):
    """d against the word oracle.

    d has odd degree, so the oracle's sign is the parity of the odd letters
    before each position.  Monomial relations are struck out.
    """
    rng = random.Random(17)
    odd = orc.odd_map(P)
    diffs = orc.diffs_of(P)
    rel_words = [tuple(n for n, e in mono for _ in range(e))
                 for rel in P.relations for mono in rel]
    assert all(len(rel) == 1 for rel in P.relations)
    for _ in range(150):
        x = random_element(P, rng.randint(2, 9), rng)
        want = orc.strike(orc.differentiate(as_words(x, P), diffs, odd), rel_words)
        assert as_words(P.d(x), P) == want


def _tc_level_quotient(m):
    """S/I^{m+1} for the diagonal surjection S -> W (x) W behind tc of W
    (n = 2), built as its m-loop builds a level: the relations of level 1
    have 2 and 4 terms, the one added at level 2 has 7."""
    W = load_model("wedge.cdga")[0]["W"]
    rep = invariants.tc_bounds(W, 2)
    S, E = rep.diagonal.morphism.source, rep.hi
    powers = IdealPowers(PresentationView(S, min(S.cap, E + 1)),
                         rep.diagonal.kernel_generators)
    return quotient_by_ideal(S, [p.element for p in powers.level(m + 1)])[0]


def _binomial_quotient():
    """Lambda(a: 2, b: 2, x: 3, y: 3; dx = a^2, dy = b^2)/(ax - by, a^3 - b^3):
    d(ax - by) = a^3 - b^3, so the ideal is d-stable."""
    return Presentation(
        [("a", 2), ("b", 2), ("x", 3), ("y", 3)], 14,
        relations=[{(("a", 1), ("x", 1)): 1, (("b", 1), ("y", 1)): -1},
                   {(("a", 3),): 1, (("b", 3),): -1}],
        differentials={"x": {(("a", 2),): 1}, "y": {(("b", 2),): 1}})


@pytest.mark.parametrize("build", [lambda: _tc_level_quotient(1),
                                   lambda: _tc_level_quotient(2),
                                   _binomial_quotient],
                         ids=["tc-W-level-1", "tc-W-level-2", "binomial"])
def test_differential_matches_oracle_modulo_relations(build):
    """d against the word oracle where relations have several terms: the
    oracle's free image, read back into monomials and reduced by
    elimination against the echelon of the whole ideal."""
    P = build()
    assert any(len(rel) > 1 for rel in P.relations)
    rng = random.Random(19)
    odd = orc.odd_map(P)
    diffs = orc.diffs_of(P)
    nonzero = 0
    for _ in range(80):
        x = random_element(P, rng.randint(2, 12), rng)
        free = orc.differentiate(as_words(x, P), diffs, odd)
        want = orc.reduce_raw_eliminated(P, from_words(free, P))
        assert P.d(x).terms == want
        nonzero += bool(want)
    assert nonzero > 10


def test_differential_at_the_cap_raises_and_results_are_fresh():
    """d of a degree-cap monomial lands above the cap of a presentation with
    relations: it raises unless each Leibniz term, formed factor by factor,
    already vanishes at or under the cap.  The memo of reduced images must
    neither hide a raise nor be handed out."""
    T = load_model("truncated_mix.cdga", cap=8)[0]["T"]
    bx = T.element({(("b", 1), ("x", 1)): 1})  # d(bx) = -b a^3 in degree 9, nonzero freely
    for _ in range(2):
        with pytest.raises(RangeExceedsCap):
            T.d(bx)
    x = T.gen("x")
    first = T.d(x)
    assert first == T.gen("a") ** 3
    first.terms.clear()
    second = T.d(x)
    assert second == T.gen("a") ** 3
    assert second.terms is not T.d(x).terms
    P = Presentation([("a", 2), ("x", 3), ("y", 4)], 9,
                     relations=[{(("a", 3),): Fraction(1)}],
                     differentials={"x": {(("a", 2),): Fraction(1)}})
    # d(axy) = a a^2 y: the partial product a^3 is 0 in degree 6, so no raise
    assert not P.d(P.element({(("a", 1), ("x", 1), ("y", 1)): 1})).terms


def test_differential_vectors_are_d_read_into_the_basis(models):
    """Each row is to_sparse of d of its basis monomial, keys in the same
    order; a generator whose d is unknown raises d's own RangeExceedsCap."""
    for P in [models[name] for name in ("T", "W", "S2", "CP2")] + [
            _tc_level_quotient(1), _binomial_quotient()]:
        for d in range(P.cap - 1):
            rows = P.differential_vectors(d)
            want = [P.to_sparse(P.d(P.element({m: 1})), d + 1) for m in P.basis(d)]
            assert [list(r.items()) for r in rows] == [list(w.items()) for w in want]
    P = Presentation([("a", 2), ("x", 5)], 5, relations=[{(("a", 2),): 1}],
                     differentials={"x": {(("a", 3),): 1}})
    assert P.d_unknown == {"x"}
    with pytest.raises(RangeExceedsCap) as from_d:
        P.d(P.gen("x"))
    with pytest.raises(RangeExceedsCap) as from_rows:
        P.differential_vectors(5)
    assert str(from_rows.value) == str(from_d.value)
    assert "['x']" in str(from_rows.value)


def test_adjoin_matches_the_presentation_built_at_once():
    """adjoin hands the extension the memo of d and the low-degree monomial
    tables of the presentation it extends; the result must equal a fresh
    build, and only a free presentation can be extended."""
    S2 = load_model("sphere2.cdga")[0]["S2"]
    for d in range(10):
        S2.differential_vectors(d)
    a2 = {(("a", 2),): 1}
    ext = S2.adjoin([("y", 3), ("z", 4)], {"y": a2})
    fresh = Presentation([("a", 2), ("x", 3), ("y", 3), ("z", 4)], S2.cap,
                         differentials={"x": a2, "y": a2})
    for d in range(10):
        assert ext.basis(d) == fresh.basis(d)
        assert ext.differential_vectors(d) == fresh.differential_vectors(d)
    with pytest.raises(NotFree):
        load_model("truncated_mix.cdga")[0]["T"].adjoin([("y", 3)], {})


def test_sibling_adjoins_of_one_name_keep_their_own_d():
    """Two extensions of one presentation that adjoin the name u with other
    degrees and differentials each read their own d of u, whichever derived
    it first; an extension that adjoins only new names still shares the
    memo of d."""
    P = Presentation([("a", 2)], 12)
    Q1 = P.adjoin([("u", 3)], {"u": P.gen("a") ** 2})
    Q1.differential_vectors(3)
    Q2 = P.adjoin([("u", 4)], {})
    assert Q2.d(Q2.gen("u")) == Q2.zero()
    assert Q2.differential_vectors(4) == [{}, {}]
    assert Q1.d(Q1.gen("u")) == Q1.gen("a") ** 2
    assert Q1.adjoin([("v", 5)], {})._d_memo is Q1._d_memo is P._d_memo
    assert Q2.adjoin([("v", 5)], {})._d_memo is Q2._d_memo


@st.composite
def generator_lists(draw):
    """Up to five generators of degrees 1-4; the names sort against the
    degrees, so rank order is neither name order nor list order."""
    names = draw(st.lists(st.sampled_from(["z", "y", "b", "a1", "m", "c0"]),
                          unique=True, min_size=1, max_size=5))
    return [(n, draw(st.integers(1, 4))) for n in names]


@settings(max_examples=60, deadline=None)
@given(gens=generator_lists(), data=st.data())
def test_monomial_tables_match_the_brute_force_oracle(gens, data):
    """The tables give the oracle's monomials in every degree, whatever
    degrees were asked for before; after adjoin, which starts from the
    tables built so far, every degree equals a fresh build."""
    top = 8
    split = data.draw(st.integers(0, len(gens) - 1))
    old, new = gens[:split], gens[split:]
    P = Presentation(old, top, simply_connected=False, validate=False)
    for d in data.draw(st.lists(st.integers(-1, top), max_size=4)):
        assert list(P.free_monomials(d)) == orc.free_monomials(old, d)
    ext = P.adjoin(new, {})
    fresh = Presentation(gens, top, simply_connected=False, validate=False)
    for d in data.draw(st.permutations(range(-1, top + 1))):
        assert ext.free_monomials(d) == fresh.free_monomials(d)
        assert list(fresh.free_monomials(d)) == orc.free_monomials(gens, d)


@settings(max_examples=60, deadline=None)
@given(gens=generator_lists(), d=st.integers(0, 12))
def test_free_monomials_come_sorted_by_mono_key(gens, d):
    """Each degree's free monomials are in the order of _SignEngine.mono_key
    (word length, then the (rank, exponent) pairs), the order that the
    standard monomial tables keep by filtering them."""
    ctx = _SignEngine(tuple(Generator(n, e) for n, e in gens))
    monos = ctx.free_monomials(d)
    assert list(monos) == sorted(monos, key=ctx.mono_key)


@settings(max_examples=60, deadline=None)
@given(gens=generator_lists())
def test_mul_mono_matches_the_sorting_oracle(gens):
    """The one-pass merge gives the dict-and-sort product on every pair of
    monomials up to degree 6: the same sign and monomial, and None exactly
    where an odd generator repeats.  The names sort against the degrees, so
    the merge cannot lean on name order."""
    ctx = _SignEngine(tuple(Generator(n, d) for n, d in gens))
    monos = [m for d in range(7) for m in ctx.free_monomials(d)]
    products = []
    for m1 in monos:
        for m2 in monos:
            got = ctx.mul_mono(m1, m2)
            assert got == orc.mul_mono_sorted(ctx, m1, m2), (m1, m2)
            products.append(got)
    odd = [g for g in ctx.by_rank if g.odd]
    # g * g for an odd g, and h * g for odd g below h in rank
    assert (None in products) == bool(odd)
    assert any(p is not None and p[0] == -1 for p in products) == (len(odd) > 1)


def test_monomial_tables_are_not_built_by_recursion_over_degrees():
    """Degree 3000 of Lambda(x: 2, y: 4) reaches 1,500 lower degrees; a
    table built by recursing once per degree would exceed Python's stack."""
    monomials = Presentation([("x", 2), ("y", 4)], 4000).free_monomials(3000)
    assert len(monomials) == 751
    assert monomials[0] == (("y", 750),) and monomials[-1] == (("x", 1500),)


def _monomials_held(engine):
    """How many distinct monomials an engine holds: the tuples of (name,
    exponent) pairs reachable from its attributes and its monomial table's,
    whatever their layout."""
    held, stack = set(), list(vars(engine).values())
    while stack:
        x = stack.pop()
        if isinstance(x, _MonomialTable):
            stack.extend(vars(x).values())
        elif isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, tuple):
            if all(isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], str)
                   for p in x):
                held.add(id(x))
            else:
                stack.extend(x)
    return len(held)


def test_monomial_tables_stay_lazy():
    """Degree 3000 of Lambda(x: 2, y: 4) builds only the groups it is made
    of: the engine holds at most 3,000 monomials, where a build of every
    degree up to 3000 would hold about 560,000."""
    P = Presentation([("x", 2), ("y", 4)], 4000)
    P.free_monomials(3000)
    assert _monomials_held(P._ctx) <= 3000


def test_monomial_tables_match_the_oracle_on_forty_generators():
    """Forty generators, most of high degree as in a minimal model, so that
    most (degree, rank) groups are empty: the tables give the oracle's
    monomials, asked for from the top degree down and after adjoin."""
    gens = [("z", 2), ("y", 3)] + [(f"g{39 - i}", 5 + i // 2) for i in range(38)]
    top = 24
    want = {d: orc.free_monomials(gens, d) for d in range(top + 1)}
    # a group (d, r) is nonempty when a degree-d monomial starts with rank r
    nonempty = {(d, m[0][0]) for d, monos in want.items() for m in monos if m}
    assert 4 * len(nonempty) < len(want) * len(gens)
    fresh = Presentation(gens, top, validate=False)
    for d in reversed(range(top + 1)):
        assert list(fresh.free_monomials(d)) == want[d]
    grown = Presentation(gens[:24], top, validate=False)
    for d in (7, 13, 20):
        grown.free_monomials(d)
    grown = grown.adjoin(gens[24:], {})
    for d in range(top + 1):
        assert list(grown.free_monomials(d)) == want[d]


@pytest.mark.parametrize("filename,label,cap", [("truncated_mix.cdga", "T", 22),
                                                ("wedge.cdga", "W", 26)])
def test_tables_extended_by_each_hit_and_kill_step_equal_fresh_ones(
        monkeypatch, filename, label, cap):
    """hit_and_kill adjoins generators that rank above every old one, so
    each extension also keeps the old groups at and above the lowest new
    degree whose tails lie below it, and adds the new generators' own
    groups there.  Every extended table must give a fresh table's
    monomials and positions in every degree <= cap + 2."""
    A = load_model(filename, cap=cap + 1)[0][label]
    steps = []
    extended = _SignEngine.extended

    def recorded(self, gens):
        ext = extended(self, gens)
        low = min(g.degree for g in gens)
        steps.append((ext, any(n >= low for n in ext.free._groups)))
        return ext

    monkeypatch.setattr(_SignEngine, "extended", recorded)
    build_minimal_model(A, cap)
    assert len(steps) > 10 and any(kept for _, kept in steps)
    for engine, _ in steps:
        fresh = _MonomialTable(engine)
        for d in range(cap + 3):
            assert engine.free.monomials(d) == fresh.monomials(d), d
            assert engine.free.index(d) == fresh.index(d), d


@pytest.mark.parametrize("gens,kept", [([("z", 5)], True), ([("z", 6)], True),
                                       ([("z", 5), ("zz", 5)], True), ([("b", 5)], False),
                                       ([("a", 4)], False), ([("u", 7), ("b", 5)], False)])
def test_an_adjoin_below_an_old_rank_keeps_only_the_tables_below_it(gens, kept):
    """A new generator that ranks below an old one (a lower degree, or the
    same degree and an earlier name) moves the old ranks: the extension
    keeps only the tables below the lowest new degree and builds the rest.
    New generators that all rank above keep groups above it too, up to
    twice that degree, where a square or a product of two new ones is the
    first monomial they add beyond themselves.  Either way every degree
    equals a fresh build."""
    old = [("x", 3), ("y", 5)]
    P = Presentation(old, 24, validate=False)
    for d in range(25):
        P.free_monomials(d)
    ext = P.adjoin(gens, {})
    low = min(degree for _, degree in gens)
    assert any(n >= low for n in ext._ctx.free._groups) == kept
    fresh = Presentation(old + gens, 24, validate=False)
    for d in range(25):
        assert ext.free_monomials(d) == fresh.free_monomials(d)
        assert ext._ctx.free.index(d) == fresh._ctx.free.index(d)


def test_adjoin_coerces_only_the_new_differentials(monkeypatch):
    """Adjoining one generator to the minimal model of T at cap 22 coerces
    one differential, its own: the old ones are taken as they are, in their
    order.  A bad new differential raises what a fresh build raises, and an
    old generator's differential cannot be replaced."""
    T = load_model("truncated_mix.cdga", cap=23)[0]["T"]
    M = build_minimal_model(T, 22).model
    assert M.generators[0] == Generator("v2_0", 2)
    coerced = []
    coerce_terms = Presentation._coerce_terms

    def counted(self, x):
        coerced.append(x)
        return coerce_terms(self, x)

    monkeypatch.setattr(Presentation, "_coerce_terms", counted)
    dy = {(("v2_0", 12),): 1}
    ext = M.adjoin([("y", 23)], {"y": dy})
    assert coerced == [dy]
    assert list(ext._diff_raw.items()) == list(M._diff_raw.items()) + [("y", dy)]
    assert ext.d(ext.gen("y")) == ext.element(dy)
    with pytest.raises(DegreeMismatch, match=r"^d\(y\) must be homogeneous of degree 24, got 22$"):
        M.adjoin([("y", 23)], {"y": {(("v2_0", 11),): 1}})
    with pytest.raises(CdgaError, match="^unknown generator 'q'$"):
        M.adjoin([("y", 23)], {"y": {(("q", 1),): 1}})
    with pytest.raises(CdgaError, match="^differential given for unknown generator 'q'$"):
        M.adjoin([("y", 23)], {"q": dy})
    # d of an old monomial is memoised and shared, so an old generator's d stays
    with pytest.raises(CdgaError, match=r"^adjoin cannot change the differential of \['w5_0'\]$"):
        M.adjoin([("y", 23)], {"y": dy, "w5_0": {}})


def test_one_query_enumerates_each_degree_of_each_generator_tuple_once(
        monkeypatch, capsys):
    """Presentations on one generator tuple share its monomial tables: the
    quotients of the surjection bounds and of the resolutions, the
    tensor power and the parsed model.  A table of standard monomials is
    shared by the quotients that add no monomial relation, so no degree of
    one generator tuple and one set of monomial relations is enumerated
    twice."""
    enumerated = collections.Counter()
    monomials = _MonomialTable.monomials

    def counted(self, d):
        if d >= 0 and d not in self._monomials:
            enumerated[(self.by_rank, self.relations, d)] += 1
        return monomials(self, d)

    monkeypatch.setattr(_MonomialTable, "monomials", counted)
    assert main(["tc", str(MODELS / "truncated_mix.cdga"), "--n", "2"]) == 0
    capsys.readouterr()
    assert enumerated and max(enumerated.values()) == 1
    # the product T (x) T and the diagonal source have standard tables
    assert any(relations for _, relations, _ in enumerated)


def test_leibniz_rule(models):
    rng = random.Random(19)
    for P in (models["C"], models["S2"], models["G"], models["T"]):
        top = P.cap if P.is_free else P.cap - 1
        for _ in range(60):
            d1 = rng.randint(1, max(1, top // 2))
            d2 = rng.randint(1, max(1, top - d1 - 1))
            x = random_element(P, d1, rng)
            y = random_element(P, d2, rng)
            sign = -1 if d1 % 2 else 1
            assert (x * y).d() == x.d() * y + sign * (x * y.d())


def test_d_squared_zero_on_all_model_bases(models):
    for P in models.values():
        hi = (P.cap if P.is_free else P.cap - 1) - 1
        for d in range(1, hi + 1):
            for mono in P.basis(d):
                el = P.element({mono: Fraction(1)})
                assert not P.d(P.d(el)).terms


def test_square_nonzero_differential_rejected():
    with pytest.raises(NotSquareZero):
        Presentation([("a", 2), ("x", 3), ("y", 4)], 12,
                     differentials={"x": {(("a", 2),): Fraction(1)},
                                    "y": {(("a", 1), ("x", 1)): Fraction(1)}})


def _square_nonzero(validate):
    """d(x) = a*b with d(b) = a^2 gives d(d(x)) = a^3, and d(y) = a^2*b
    gives d(d(y)) = a^4: x is the first generator whose d*d is not 0."""
    return Presentation([("a", 2), ("b", 3), ("x", 4), ("y", 6)], 12, validate=validate,
                        differentials={"b": {(("a", 2),): Fraction(1)},
                                       "x": {(("a", 1), ("b", 1)): Fraction(1)},
                                       "y": {(("a", 2), ("b", 1)): Fraction(1, 2)}})


def test_d_squared_check_reads_the_memo_and_names_the_first_witness():
    """A free presentation checks d*d through its memo of d: with the memo
    cold (at construction) and warm (every monomial up to degree 9 already
    derived) it raises on the first generator whose d*d is not 0.  With
    relations a generator x whose d lies above the cap has degree at least
    the cap, so a d(y) that contains x has d*d above the cap too: y is
    skipped, and no monomial holding x enters the memo."""
    with pytest.raises(NotSquareZero, match=r"^d\(d\(x\)\) != 0$") as cold:
        _square_nonzero(validate=True)
    assert str(cold.value) == "d(d(x)) != 0"
    P = _square_nonzero(validate=False)
    for d in range(10):
        P.differential_vectors(d)
    assert P._d_memo
    with pytest.raises(NotSquareZero, match=r"^d\(d\(x\)\) != 0$") as warm:
        P._validate()
    assert str(warm.value) == "d(d(x)) != 0"
    # d(x) = a^2 b lies in degree 7, above the cap 6; d(y) = x, and d(d(y))
    # = a^2 b is not 0, but only above the cap
    unknown = Presentation([("a", 2), ("b", 3), ("y", 5), ("x", 6)], 6,
                           relations=[{(("a", 3),): 1}],
                           differentials={"b": {(("a", 2),): 1},
                                          "x": {(("a", 2), ("b", 1)): 1},
                                          "y": {(("x", 1),): 1}})
    assert unknown.d_unknown == {"x"}
    assert unknown._d_memo
    assert not any(n == "x" for m in unknown._d_memo for n, _ in m)


@st.composite
def free_differentials(draw):
    """(generators, differentials) of a free presentation: up to five
    generators of degrees 1-4, odd and even, each with a random d of its
    degree plus one, Fraction coefficients, over all the generators; d*d
    need not vanish.  The names sort against the degrees."""
    gens = draw(generator_lists())
    diffs = {}
    for name, deg in gens:
        terms = {}
        for mono in orc.free_monomials(gens, deg + 1):
            if draw(st.booleans()):
                terms[mono] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            diffs[name] = terms
    return gens, diffs


@settings(max_examples=60, deadline=None)
@given(spec=free_differentials(), data=st.data())
def test_tail_rule_matches_the_word_oracle(spec, data):
    """d of a free monomial g^e t comes from the memoised d(g^e) and d(t).
    The memo is filled in random order, partly before an adjoin that shares
    it and partly after, so a tail is sometimes derived first and sometimes
    missing; every monomial up to degree 8 must still get the Leibniz
    expansion of the word oracle."""
    gens, diffs = spec
    top = 8
    split = data.draw(st.integers(0, len(gens)))
    old = gens[:split]
    old_names = {n for n, _ in old}
    base_diffs = {n: t for n, t in diffs.items() if n in old_names
                  and all(f in old_names for m in t for f, _ in m)}
    P = Presentation(old, top, differentials=base_diffs, simply_connected=False,
                     validate=False)
    early = [m for d in range(top + 1) for m in orc.free_monomials(old, d)]
    for m in data.draw(st.lists(st.sampled_from(early), max_size=6) if early
                       else st.just([])):
        P.d(P.element({m: 1}))
    new_diffs = {n: t for n, t in diffs.items() if n not in base_diffs
                 and n not in old_names}
    ext = P.adjoin(gens[split:], new_diffs) if split < len(gens) else P
    odd = orc.odd_map(ext)
    words = {n: orc.engine_to_words(t, odd) for n, t in {**base_diffs, **new_diffs}.items()}
    monos = [m for d in range(top + 1) for m in orc.free_monomials(gens, d)]
    for m in data.draw(st.permutations(monos)):
        x = ext.element({m: 1})
        assert as_words(ext.d(x), ext) == orc.differentiate(as_words(x, ext), words, odd)


def test_inhomogeneous_differential_rejected():
    with pytest.raises(Inhomogeneous):
        Presentation([("a", 2), ("x", 5)], 12,
                     differentials={"x": {(("a", 1),): Fraction(1),
                                          (("a", 3),): Fraction(1)}})
    # an element reports its degree, and refuses to when it mixes degrees
    P = Presentation([("a", 2), ("x", 3)], 12,
                     differentials={"x": {(("a", 2),): Fraction(1)}})
    a, x = P.gen("a"), P.gen("x")
    assert (a * x).degree() == 5
    with pytest.raises(Inhomogeneous):
        (a * a + a * x).degree()


def test_cap_semantics():
    free = Presentation([("u", 3)], 6)
    assert list(free.basis(9)) == []    # free presentations evaluate anywhere
    quo = Presentation([("a", 2)], 6, relations=({(("a", 3),): 1},))
    assert quo.dim(4) == 1 and quo.dim(6) == 0
    with pytest.raises(RangeExceedsCap):
        quo.basis(7)


def test_dims_match_oracle_quotient_bases(models):
    for name in ("CP2", "T", "W", "S4"):
        P = models[name]
        gens = orc.gen_triples(P)
        rels = [tuple(n for n, e in mono for _ in range(e))
                for mono in (m for rel in P.relations for m in rel)]
        for d in range(P.cap + 1):
            assert P.dim(d) == len(orc.quotient_basis(gens, rels, d)), (name, d)


def test_standard_monomials_compare_every_exponent():
    """A relation divides a monomial only when each of its exponents is at
    most the monomial's: a*b^2 kills a*b^2*e but not a*b or a^2*b*e, and
    b*c*e kills b^2*c*e but not b*c or c*e.  The standard monomials are the
    basis that elimination over the free monomials leaves."""
    P = Presentation([("a", 2), ("b", 2), ("c", 3), ("e", 4)], 12,
                     relations=[{(("a", 1), ("b", 2)): 2}, {(("a", 2), ("c", 1)): -1},
                                {(("b", 1), ("c", 1), ("e", 1)): 1},
                                {(("c", 1), ("e", 2)): Fraction(1, 2)}])
    for d in range(P.cap + 1):
        assert P.basis(d) == orc.basis_eliminated(P, d), d
    assert (("a", 1), ("b", 1)) in P.basis(4)
    assert (("a", 2), ("b", 1), ("e", 1)) in P.basis(10)
    assert (("a", 1), ("b", 2), ("e", 1)) not in P.basis(10)
    assert not P._ideal


def test_monomial_relations_reduce_to_zero(models):
    CP2, T = models["CP2"], models["T"]
    assert not parse_element("a^3", CP2).terms
    assert not parse_element("2*a^4 - a*b", T).terms
    assert parse_element("a^3", T).terms


def test_reduce_raw_lists_terms_in_ascending_column_order(models):
    """reduce_raw answers degree by degree, each degree in the order of the
    free monomial basis, with only quotient basis monomials left."""
    binomial = Presentation([("a", 2), ("b", 2), ("x", 3)], 12,
                            relations=[{(("a", 2),): 1, (("b", 2),): 1}])
    rng = random.Random(11)
    for P in (models["T"], models["W"], models["CP2"], models["S4"], binomial):
        for d in range(1, P.cap):
            terms = {}
            for e in (d, d + 1):
                monos = P.free_monomials(e)
                for m in rng.sample(monos, min(len(monos), 6)):
                    terms[m] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
            red = P.reduce_raw(terms)
            degrees = [P._ctx.mono_degree(m) for m in red]
            assert all(m in P.basis(e) for m, e in zip(red, degrees))
            key = [(e, P.free_monomials(e).index(m)) for m, e in zip(red, degrees)]
            assert key == sorted(key)
    # a^4 = b^4 in the binomial quotient: one term survives, after a reordering
    assert binomial.reduce_raw({(("a", 4),): Fraction(1), (("b", 4),): Fraction(1)}) \
        == {(("b", 4),): Fraction(2)}


@pytest.fixture(scope="module")
def reduce_presentations(models):
    """Quotients whose ideal echelons have pivots in several degrees; in
    "skew" the names sort against the degrees and the parities mix."""
    skew = Presentation([("z", 2), ("y", 3), ("b", 2), ("a", 5), ("c", 3)], 14,
                        relations=[{(("z", 1), ("b", 1)): 1, (("b", 2),): -1},
                                   {(("y", 1), ("c", 1)): 1},
                                   {(("z", 3),): 1},
                                   {(("a", 1), ("b", 1)): 1}])
    return {"T": models["T"], "W": models["W"], "CP2": models["CP2"], "skew": skew}


_coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3])))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reduce_raw_matches_full_elimination(reduce_presentations, data):
    """reduce_raw, which skips elimination when no term sits at a pivot,
    gives what elimination in every degree gives: the same terms in the
    same key order, with the same coefficient types (an integral Fraction
    comes out as its int), or the same RangeExceedsCap above the cap."""
    P = reduce_presentations[data.draw(st.sampled_from(sorted(reduce_presentations)))]
    degrees = data.draw(st.lists(st.integers(0, P.cap + 1), min_size=1, max_size=3,
                                 unique=True))
    # quotient basis monomials only reach the shortcut; free ones hit pivots
    basis_only = data.draw(st.booleans())
    pool = [m for d in degrees
            for m in (P.basis(d) if basis_only and d <= P.cap else P.free_monomials(d))]
    chosen = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=8)
                       if pool else st.just([]))
    coeffs = data.draw(st.lists(_coefficients, min_size=len(chosen), max_size=len(chosen)))
    terms = dict(zip(chosen, coeffs))
    try:
        want = orc.reduce_raw_eliminated(P, terms)
    except RangeExceedsCap as exc:
        with pytest.raises(RangeExceedsCap, match=re.escape(str(exc))):
            P.reduce_raw(terms)
        return
    got = P.reduce_raw(terms)
    assert list(got.items()) == list(want.items())
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


def test_top_degree_detection(models):
    assert models["T"].top_degree_if_finite() == 8
    assert models["W"].top_degree_if_finite() == 8
    assert models["CP2"].top_degree_if_finite() == 4
    assert models["S3"].top_degree_if_finite() == 3      # odd free: exact
    assert models["P"].top_degree_if_finite() == 6
    assert models["S2"].top_degree_if_finite() is None    # even free: infinite
    assert models["Q"].top_degree_if_finite() is None


def test_tensor_dimensions_convolve(models):
    S3, S4 = models["S3"], models["S4"]
    t = tensor(S3, S4, cap=10)
    d3 = {d: S3.dim(d) for d in range(11)}
    d4 = {d: S4.dim(d) for d in range(11)}
    want = orc.convolve(d3, d4, 10)
    for d in range(11):
        assert t.pres.dim(d) == want[d]
    # inclusions are validated chain maps
    u = S3.gen("u")
    assert t.include_left.apply(u).degree() == 3

    # so a product's top degree is its parts' tops added, where the window
    # scan finds one, and None where it finds none
    T, W, S2 = models["T"], models["W"], models["S2"]
    for P, top in ((tensor_power(T, 2, cap=21).pres, 16),
                   (tensor_power(W, 3, cap=29).pres, 24)):
        assert P.top_degree_if_finite() == top
        assert orc.window_scan_top(P) == top
    for P in (tensor(T, S2, cap=16).pres,           # S2 has an even free part
              tensor_power(T, 2, cap=20).pres):     # 16 + 5 > 20: no window
        assert P.top_degree_if_finite() is None
        assert orc.window_scan_top(P) is None
    # a quotient of a product is not a product of its parts' tops
    TT = tensor_power(T, 2, cap=21).pres
    Q, _ = quotient_by_ideal(TT, [TT.gen("b1")])
    assert Q.top_degree_if_finite() == orc.window_scan_top(Q) == 14


def test_a_product_with_an_even_free_part_has_no_top_before_any_piece(models):
    """The source T (x) M (x) M of tc T --n 3 has T's minimal model M, free
    with even generators, among its parts: top_degree_if_finite answers None
    without building one graded piece, as the window scan over all 30 does."""
    source = diagonal_model(models["T"], 3, 30).morphism.source
    built = (len(source._table._monomials), len(source._ideal))
    assert source.top_degree_if_finite() is None
    assert (len(source._table._monomials), len(source._ideal)) == built
    assert orc.window_scan_top(source) is None


def test_tc_n3_builds_the_diagonal_source_only_up_to_degree_14(monkeypatch, capsys):
    """tc T --n 3 builds the diagonal source's standard monomials in degrees
    1-14 only, none of the 16 above them up to its cap of 30, and no
    echelon: its relations, T's, are monomials."""
    sources = []
    build = invariants.diagonal_model

    def recorded(*args, **kwargs):
        dm = build(*args, **kwargs)
        sources.append(dm.morphism.source)
        return dm

    monkeypatch.setattr(invariants, "diagonal_model", recorded)
    assert main(["tc", str(MODELS / "truncated_mix.cdga"), "--n", "3"]) == 0
    capsys.readouterr()
    [source] = sources
    assert source.cap == 30
    built = set(source._table._monomials)
    assert max(built) > 1 and max(built) <= 14
    assert not source._ideal


def test_tc_n4_builds_no_free_monomial_table_and_no_echelon(monkeypatch, models):
    """After tc_bounds(T, 4), the diagonal source T (x) M^{(x) 3} and the
    multiplication source T^{(x) 4} hold no free monomial table above degree
    0 on their engines and no ideal echelon: T's relations are monomials,
    so both are read off their standard monomial tables, which are built."""
    built = []
    multiplication = invariants.multiplication_morphism

    def recorded(*args, **kwargs):
        mult = multiplication(*args, **kwargs)
        built.append(mult.morphism.source)
        return mult

    monkeypatch.setattr(invariants, "multiplication_morphism", recorded)
    rep = invariants.tc_bounds(models["T"], 4, label="T")
    [power] = built
    for P in (rep.diagonal.morphism.source, power):
        assert set(P._ctx.free._monomials) == {0} and not P._ctx.free._groups
        assert not P._ideal
        assert max(P._table._monomials) > 8
def test_tensor_power_naming(models):
    tp = tensor_power(models["S3"], 3, cap=9)
    assert [g.name for g in tp.pres.generators] == ["u1", "u2", "u3"]
    assert tp.pres.dim(9) == 1        # u1 u2 u3


def test_quotient_by_ideal_commutes_with_d(models):
    S2 = models["S2"]
    Q, proj = quotient_by_ideal(S2, [parse_element("a^2", S2)])
    rng = random.Random(23)
    for _ in range(40):
        x = random_element(S2, rng.randint(2, 8), rng)
        assert proj.apply(S2.d(x)) == Q.d(proj.apply(x))


def test_sub_presentation_extracts_honest_base(models):
    Q = models["Q"]
    base, incl = sub_presentation(Q, ["a"])
    assert [g.name for g in base.generators] == ["a"]
    assert base.is_free and not base._diff_raw
    assert incl.apply(base.gen("a")) == Q.gen("a")

    T = models["T"]
    sub, _ = sub_presentation(T, ["a"])
    assert sub.dim(6) == 1 and sub.dim(8) == 0   # keeps the pure relation a^4

    with pytest.raises(CdgaError):
        sub_presentation(Q, ["a", "x"])          # d x = a^2 + b^2 escapes
    mixed = Presentation([("a", 2), ("b", 2)], 8,
                         relations=({(("a", 2),): Fraction(1),
                                     (("b", 2),): Fraction(1)},))
    with pytest.raises(CdgaError):
        sub_presentation(mixed, ["a"])           # relation a^2 + b^2 mixes
    with pytest.raises(CdgaError):
        sub_presentation(Q, ["nope"])


def test_morphism_validation(models):
    S3, S2 = models["S3"], models["S2"]
    with pytest.raises(DegreeMismatch):
        CdgaMorphism(S3, S2, {"u": S2.gen("a")}, check=True)
    # a chain-condition violation: send x to 0 but a to a
    with pytest.raises(CdgaError):
        CdgaMorphism(S2, S2, {"a": S2.gen("a"), "x": S2.zero()}, check=True)


def test_identity_and_composition(models):
    S2 = models["S2"]
    ident = identity_morphism(S2)
    rng = random.Random(29)
    x = random_element(S2, 5, rng)
    assert ident.apply(x) == x
    Q, proj = quotient_by_ideal(S2, [parse_element("a^3", S2)])
    assert proj.apply(ident.apply(x)) == proj.apply(x)


# ---------------------------------------------------------------------------
# morphisms form each monomial's image once


def test_apply_raw_above_the_cap_vanishes_where_a_partial_product_does():
    """In T at cap 9, a*b = 0 by a relation, so the identity maps a*b*x, of
    degree 10, to 0 on every call, although the monomial itself cannot be
    reduced above the cap."""
    T = load_model("truncated_mix.cdga", cap=9)[0]["T"]
    ident = identity_morphism(T)
    abx = (("a", 1), ("b", 1), ("x", 1))
    assert ident.apply_raw({abx: 1}) == T.zero()
    assert ident.apply_raw({abx: 1}) == T.zero()
    with pytest.raises(RangeExceedsCap):
        T.element({abx: 1})
    # a^3 is not 0, so a^3*x is formed above the cap and raises every time
    for _ in range(2):
        with pytest.raises(RangeExceedsCap):
            ident.apply_raw({(("a", 3), ("x", 1)): 1})


def test_a_power_above_the_cap_raises_on_every_call():
    P = Presentation([("a", 2), ("b", 3)], 5,
                     relations=({(("a", 1), ("b", 1)): 1},))
    ident = identity_morphism(P)
    for _ in range(2):
        with pytest.raises(RangeExceedsCap):
            ident.apply_raw({(("a", 3),): 1})
    assert ident.apply_raw({(("a", 2),): 1}) == P.element({(("a", 2),): 1})
    # a generator with no image ends a product before a later power raises
    Pab = Presentation([("a", 2), ("b", 2)], 5,
                       relations=({(("a", 1), ("b", 1)): 1},))
    kill_a = CdgaMorphism(Pab, Pab, {"b": Pab.gen("b")})
    for _ in range(2):
        assert kill_a.apply_raw({(("a", 1), ("b", 3)): 1}) == Pab.zero()
    with pytest.raises(RangeExceedsCap):
        kill_a.apply_raw({(("b", 3),): 1})


@pytest.fixture(scope="module")
def memo_morphisms(models):
    """One morphism each, kept across examples so that later calls meet
    memoised monomials, prefixes and powers."""
    T, W = models["T"], models["W"]
    return {"T -> T/(b)": quotient_by_ideal(T, [T.gen("b")])[1],  # b has no image
            "id W": identity_morphism(W),
            # products of degree 10 and 11 are formed above the cap: some raise
            "id T at cap 9": identity_morphism(
                load_model("truncated_mix.cdga", cap=9)[0]["T"]),
            "T (x) T -> T": multiplication_morphism(T, 2).morphism}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_memoised_apply_raw_matches_the_unmemoised_oracle(memo_morphisms, data):
    """apply_raw gives the image that the oracle forms afresh, or raises
    RangeExceedsCap exactly when the oracle does, on random free-algebra
    elements up to two degrees above the source's cap."""
    phi = memo_morphisms[data.draw(st.sampled_from(sorted(memo_morphisms)))]
    P = phi.source
    degrees = [d for d in range(P.cap + 3) if P.free_monomials(d)]
    monos = P.free_monomials(data.draw(st.sampled_from(degrees)))
    chosen = data.draw(st.lists(st.sampled_from(monos), max_size=6, unique=True))
    coeffs = data.draw(st.lists(st.integers(-3, 3).filter(bool),
                                min_size=len(chosen), max_size=len(chosen)))
    terms = dict(zip(chosen, coeffs))
    try:
        want = orc.apply_raw_unmemoised(phi, terms)
    except RangeExceedsCap:
        with pytest.raises(RangeExceedsCap):
            phi.apply_raw(terms)
        return
    assert phi.apply_raw(terms) == want


# ---------------------------------------------------------------------------
# the coefficient normal form: an int when integral, else a Fraction


def _normal_coefficients(P, hi):
    """Every coefficient, in degrees <= hi, of each basis monomial, its
    differential, that differential read back through to_sparse/from_vector,
    each free monomial reduced by reduce_raw and each product of two basis
    monomials."""
    for d in range(hi + 1):
        for fm in P.free_monomials(d):
            yield from P.reduce_raw({fm: 1}).values()
        for m in P.basis(d):
            x = P.element({m: 1})
            yield from x.terms.values()
            if d < hi and not any(n in P.d_unknown for n, _ in m):
                dx = P.d(x)
                vec = P.to_sparse(dx, d + 1)
                back = P.from_vector(d + 1, vec)
                assert back == dx
                yield from dx.terms.values()
                yield from vec.values()
                yield from back.terms.values()
            for e in range(hi - d + 1):
                for m2 in P.basis(e):
                    yield from (x * P.element({m2: 1})).terms.values()


def test_integer_models_keep_int_coefficients(models):
    """Every bundled model has integer coefficients, so no Fraction appears."""
    for name, P in models.items():
        coeffs = list(_normal_coefficients(P, min(P.cap - 1, 10)))
        assert coeffs, name
        assert all(type(c) is int for c in coeffs), (name, {type(c) for c in coeffs})


def test_a_true_denominator_keeps_its_fraction():
    doc = parse_document("""
        cdga H { gen a : 2; gen b : 2; gen x : 3;
                 d x = 1/2*a^2 + b^2; rel a*b - 1/2*a^2; }""")
    H = realize_document(doc, cap=10)[0]["H"]
    coeffs = list(_normal_coefficients(H, 9))
    assert not any(isinstance(c, float) for c in coeffs)
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in coeffs)
    assert any(type(c) is Fraction for c in coeffs)
    assert H.d(H.gen("x")) == parse_element("1/2*a^2 + b^2", H)


def test_an_integral_fraction_is_the_int(models):
    W = models["W"]
    mono = (("a", 1), ("b", 1))
    two = W.element({mono: 2})
    assert [type(c) for c in two.terms.values()] == [int]
    for same in (W.element({mono: Fraction(2, 1)}), W.element({mono: Fraction(4, 2)}),
                 W.element({mono: 1}) * Fraction(2), Fraction(6, 3) * W.element({mono: 1}),
                 AlgebraElement(W, {mono: Fraction(2)})):
        assert same == two
        assert format_element(same) == format_element(two) == "2*a*b"
    assert [type(c) for c in W.element({mono: Fraction(2, 1)}).terms.values()] == [int]


def test_sullivan_order_places_each_generator_after_its_differential():
    """Round by round, by degree then name, each generator comes after every
    generator its d involves, even one of higher degree; a cycle of such
    dependencies leaves no order."""
    contractible = Presentation([("x", 2), ("y", 3)], 10,
                                differentials={"x": {(("y", 1),): 1}})
    assert contractible.sullivan_order() == ("y", "x")
    assert contractible.is_sullivan and not contractible.is_minimal_sullivan
    odd = [("c", 1), ("b", 1), ("a", 1)]
    heisenberg = Presentation(odd, 10, simply_connected=False,
                              differentials={"c": {(("a", 1), ("b", 1)): 1}})
    assert heisenberg.sullivan_order() == ("a", "b", "c")
    assert heisenberg.is_minimal_sullivan
    cyclic = Presentation(odd, 10, simply_connected=False,
                          differentials={"a": {(("b", 1), ("c", 1)): 1},
                                         "b": {(("a", 1), ("c", 1)): 1}})
    assert cyclic.sullivan_order() is None
    assert not cyclic.is_sullivan and not cyclic.is_minimal_sullivan
