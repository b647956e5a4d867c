"""Homology reports, induced maps, kernels, ideal powers, nilpotency."""

import collections
import hashlib
import importlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_model

from secat import linalg
from secat.core import (AlgebraElement, CdgaError, Presentation, _SignEngine,
                        quotient_by_ideal)
from secat.homology import (HomologyReport, HomologyView, IdealPowers,
                            PresentationView,
                            _SpanComplex, homology, induced_matrix,
                            kernel_basis, kernel_ideal_generators, nil_ideal,
                            poincare_duality_check, positive_part_generators,
                            quasi_iso_failure, span_complex_homology)
from secat.construct import (build_minimal_model, diagonal_model,
                             multiplication_morphism)
from secat.semifree import SemiFreeModule, resolve_quotient
from secat.lang import parse_document, parse_element, realize_document
from secat.linalg import Echelon, kernel_combos

import oracles as orc


def oracle_betti(P, hi):
    gens = orc.gen_triples(P)
    rels = [tuple(n for n, e in mono for _ in range(e))
            for mono in (m for rel in P.relations for m in rel)]
    assert all(len(rel) == 1 for rel in P.relations), \
        "oracle only covers monomial relations"
    return orc.betti_numbers(gens, orc.diffs_of(P), rels, hi)


@pytest.mark.parametrize("name", ["S3", "S2", "S4", "CP2", "C", "T", "W",
                                  "P", "G", "A", "B", "Q"])
def test_betti_numbers_match_oracle(models, name):
    P = models[name]
    hi = min((P.cap if P.is_free else P.cap - 1), 12)
    H = homology(P, 0, hi)
    want = oracle_betti(P, hi)
    for d in range(hi + 1):
        assert H.betti(d) == want[d], (name, d)


class CountingComplex:
    """A complex that forwards to X and counts differential matrices built."""

    def __init__(self, X):
        self.X = X
        self.built = collections.Counter()

    def __getattr__(self, name):
        return getattr(self.X, name)

    def differential_vectors(self, d):
        self.built[d] += 1
        return self.X.differential_vectors(d)


def _nonzeros(vec):
    return {j: c for j, c in enumerate(vec) if c}


def _check_sparse_rows(X, n, images, dense):
    """X.differential_vectors(n) against `dense`, the dense coordinates of
    each of `images`, the differentials of the degree-n basis; and
    from_vector reads a sparse row back as the same element."""
    rows = X.differential_vectors(n)
    assert len(rows) == len(images) == X.dim(n)
    for row, img, vec in zip(rows, images, dense):
        assert isinstance(row, dict)
        assert row == _nonzeros(vec)
        assert X.from_vector(n + 1, row) == X.from_vector(n + 1, vec)
        if img is not None:
            assert X.from_vector(n + 1, row) == img
            assert X.to_sparse(img, n + 1) == row


def test_differential_vectors_are_the_nonzeros_of_to_vector(models):
    """The sparse protocol on every bundled model, free or with relations."""
    for name, P in models.items():
        for d in range(min(P.cap, 12)):
            images = [P.d(AlgebraElement(P, {m: Fraction(1)})) for m in P.basis(d)]
            _check_sparse_rows(P, d, images, [P.to_vector(img, d + 1) for img in images])


@pytest.mark.parametrize("label, gens", [("S2", ("a",)), ("T", ("a", "b"))])
def test_module_differential_vectors_are_the_nonzeros_of_to_vector(models, label, gens):
    """The sparse protocol on a quotient resolution, over a free base and
    over a base with relations."""
    P = models[label]
    M = resolve_quotient(P, [P.gen(n) for n in gens], 7).module
    for n in range(7):
        images = [M.d_element(M.basis_element(g, m)) for g, m in M.basis(n)]
        _check_sparse_rows(M, n, images, [M.to_vector(img, n + 1) for img in images])


def test_span_differential_vectors_are_the_nonzeros_of_dense_coordinates(models):
    """The sparse protocol on a span complex: its rows are the nonzero echelon
    coordinates of the differential of each span basis row."""
    S2 = models["S2"]
    powers = IdealPowers(PresentationView(S2, 8), [S2.gen("a")])
    spans = {d: powers.span_echelon(1, d) for d in range(9)}
    X = _SpanComplex(S2, spans)
    for d in range(8):
        dense = [spans[d + 1].coordinates(S2.to_vector(S2.d(S2.from_vector(d, row)), d + 1))
                 for row in spans[d].basis()]
        _check_sparse_rows(X, d, [None] * len(dense), dense)


@pytest.mark.parametrize("name, lo, hi", [("C", 0, 11), ("T", 0, 11), ("W", 2, 11),
                                          ("resolution", 0, 6)])
def test_homology_builds_each_differential_matrix_once(models, name, lo, hi):
    if name in models:
        X = models[name]
    else:
        X = resolve_quotient(models["S2"], [models["S2"].gen("a")], 7).module
    counting = CountingComplex(X)
    H = homology(counting, lo, hi)
    assert counting.built and max(counting.built.values()) == 1
    assert H.betti_table() == homology(X, lo, hi).betti_table()


def _homology_oracle_case(models, name):
    """(complex, lo, hi) for each complex the canonical-kernel oracle checks."""
    if name in ("T", "W", "S2"):
        X = models[name]
        return X, 0, min(X.cap - 1, 16)
    if name == "fraction-quotient":
        P = Presentation([("a", 2), ("b", 2), ("x", 3)], 13, differentials={
            "x": {(("a", 1), ("b", 1)): 1, (("b", 2),): Fraction(1, 3)}})
        Q, _ = quotient_by_ideal(P, [P.element({(("a", 2),): 1,
                                                (("a", 1), ("b", 1)): Fraction(-2, 3)})])
        return Q, 0, 12
    if name == "diagonal-source":
        return diagonal_model(models["T"], 2, 22).source, 0, 21
    if name == "resolution":
        T = models["T"]
        return resolve_quotient(T, [T.gen("a"), T.gen("b")], 9).module, 0, 9
    S2 = models["S2"]
    powers = IdealPowers(PresentationView(S2, 8), [S2.gen("a")])
    return _SpanComplex(S2, {d: powers.span_echelon(1, d) for d in range(9)}), 1, 7


def _printed(rep):
    """A representative's terms in order; a module element's per generator."""
    if isinstance(rep, AlgebraElement):
        return list(rep.terms.items())
    return [(g, list(c.terms.items())) for g, c in rep.items()]


def _assert_same_report(got, want, lo, hi):
    """Equal betti numbers, class rows, representatives (terms in order) and
    boundary bases in every degree."""
    assert got.betti_table() == want.betti_table()
    for d in range(lo, hi + 1):
        assert got._class_rows[d] == want._class_rows[d]
        assert ([_printed(r) for r in got.representatives(d)]
                == [_printed(r) for r in want.representatives(d)])
        assert got._boundaries[d].basis() == want._boundaries[d].basis()


@pytest.mark.parametrize("name", ["T", "W", "S2", "fraction-quotient", "diagonal-source",
                                  "resolution", "span"])
def test_homology_matches_the_canonical_kernel_oracle(models, name):
    """The classes come from the kernel of d off the boundary pivots, and the
    boundary echelon stops at full rank; the report must still equal the one
    built from the canonical kernel with every row fed: betti numbers, class
    rows, representatives and boundary bases."""
    X, lo, hi = _homology_oracle_case(models, name)
    got = HomologyReport(X, lo, hi)
    _assert_same_report(got, orc.CanonicalKernelHomology(X, lo, hi), lo, hi)
    assert any(got.betti_table().values())
    if name == "fraction-quotient":
        assert any(isinstance(c, Fraction) for d in range(lo, hi + 1)
                   for row in got._class_rows[d] + got._boundaries[d].basis() for c in row)


@st.composite
def random_complexes(draw):
    """(complex, lo, hi): a free presentation on up to three generators with
    d = 0, odd and even, grown by adjoin with generators whose d is a random
    cycle of the complex so far; at times its quotient by a monomial ideal,
    spanned by monomials in the d = 0 generators and at times by every
    monomial from some degree on, which keeps the ideal closed under d."""
    cap = 10
    base = [(f"c{i}", draw(st.integers(1, 5))) for i in range(draw(st.integers(1, 3)))]
    P = Presentation(base, cap, simply_connected=False)
    for i in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, cap - 2))
        cycles = kernel_combos(P.differential_vectors(k + 1), P.dim(k + 2))
        z = {}
        for combo in cycles:
            c = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2)))
            for j, a in combo.items():
                z[j] = z.get(j, 0) + c * a
        z = P.from_vector(k + 1, z)
        if z.terms:
            P = P.adjoin([(f"x{i}", k)], {f"x{i}": z})
    hi = cap
    if draw(st.booleans()):
        closed = [m for d in range(1, cap + 1) for m in orc.free_monomials(base, d)]
        ideal = [P.monomial(m) for m in draw(st.lists(st.sampled_from(closed), max_size=3))]
        if draw(st.booleans()):
            start = draw(st.integers(3, cap))
            top = min(start + max(g.degree for g in P.generators) - 1, cap)
            ideal += [P.monomial(m) for d in range(start, top + 1) for m in P.basis(d)]
        P, _ = quotient_by_ideal(P, ideal)
        hi = cap - 1
    lo = draw(st.integers(0, 3))
    return P, lo, draw(st.integers(lo, hi))


@settings(max_examples=60, deadline=None)
@given(case=random_complexes())
def test_homology_matches_the_canonical_kernel_oracle_on_random_complexes(case):
    X, lo, hi = case
    _assert_same_report(HomologyReport(X, lo, hi), orc.CanonicalKernelHomology(X, lo, hi),
                        lo, hi)


@pytest.mark.parametrize("name", ["T", "diagonal-source", "resolution"])
def test_range_reports_stop_each_boundary_echelon_at_the_rank_below(monkeypatch,
                                                                    models, name):
    """Past the first degree of a range report, rank B^d = dim C^{d-1} -
    rank B^{d-1} - b_{d-1} is known before B^d is built, and its echelon
    takes no row once it has that rank; on these complexes some rows are
    left out."""
    class Counting(Echelon):
        def __init__(self, width):
            super().__init__(width)
            self.fed_at = []  # the rank before each add

        def add(self, v):
            self.fed_at.append(self.rank)
            return super().add(v)

    X, lo, hi = _homology_oracle_case(models, name)
    # the package exports the function homology under the module's name
    monkeypatch.setattr(importlib.import_module("secat.homology"), "Echelon", Counting)
    H = HomologyReport(X, lo, hi)
    skipped = 0
    for d in range(lo + 1, hi + 1):
        B = H._boundaries[d]
        full = X.dim(d - 1) - H._boundaries[d - 1].rank - H.betti(d - 1)
        assert B.rank == full
        if X.dim(d):
            assert all(rank < full for rank in B.fed_at)
            skipped += X.dim(d - 1) - len(B.fed_at)
    assert skipped


def test_representatives_are_independent_nonzero_cycles(models):
    for name in ("C", "T", "W", "CP2"):
        P = models[name]
        hi = min((P.cap if P.is_free else P.cap - 1), 11)
        H = homology(P, 0, hi)
        for d in range(hi + 1):
            reps = H.representatives(d)
            assert len(reps) == H.betti(d)
            for r in reps:
                assert not P.d(r).terms
                assert not H.is_zero_class(r, d)


def test_coformal_homology_shape(models):
    C = models["C"]
    H = homology(C, 0, 11)
    assert {d: H.betti(d) for d in range(12) if H.betti(d)} == \
        {0: 1, 3: 2, 8: 2, 11: 1}
    assert sorted(str(r) for r in H.representatives(3)) == ["a", "b"]
    assert sorted(str(r) for r in H.representatives(8)) == ["a*x", "b*x"]
    assert [str(r) for r in H.representatives(11)] == ["a*b*x"]


def test_quasi_iso_detection(models):
    S4 = models["S4"]
    res = build_minimal_model(S4, 12)
    assert quasi_iso_failure(res.morphism, 0, 12) is None
    # the inclusion of the even generator alone is not a quasi-iso
    S2 = models["S2"]
    sub = Presentation([("a", 2)], 10)
    from secat.core import CdgaMorphism
    incl = CdgaMorphism(sub, S2, {"a": S2.gen("a")}, check=True)
    assert quasi_iso_failure(incl, 0, 6) is not None


def test_induced_matrix_identity_and_zero(models, morphisms):
    CP2 = models["CP2"]
    from secat.core import identity_morphism
    H = homology(CP2, 0, 4)
    ident = induced_matrix(identity_morphism(CP2), H, H, 2)
    assert ident == [[Fraction(1)]]
    # the Hopf projection kills all positive homology
    q = morphisms["q"]
    HA = homology(models["A"], 0, 11)
    HB = homology(models["B"], 0, 11)
    for d in range(1, 12):
        mat = induced_matrix(q, HA, HB, d)
        assert all(not c for row in mat for c in row)


def test_kernel_generators_map_to_zero_and_span_kernel(models):
    S3 = models["S3"]
    mult = multiplication_morphism(S3, 2)
    gens = kernel_ideal_generators(mult.morphism, 6)
    assert [str(g) for g in gens] == ["u1 - u2"]

    # independent spanning check: products of the generators reach every
    # kernel element degree by degree
    W = models["W"]
    mult2 = multiplication_morphism(W, 2, cap=12)
    GG = mult2.power.pres
    kgens = kernel_ideal_generators(mult2.morphism, 9)
    powers = IdealPowers(PresentationView(GG, 9), kgens)
    for d in range(1, 9):
        kb = kernel_basis(mult2.morphism, d)
        for el in kb:
            assert powers.contains(1, el, d), d


def test_kernel_generators_match_the_full_span_oracle(models):
    """A degree's product span stops growing once it fills ker phi there;
    the generators and their order stay those of the full span."""
    T, W, S2 = models["T"], models["W"], models["S2"]
    for phi, hi in ((multiplication_morphism(T, 2, cap=22).morphism, 17),
                    (multiplication_morphism(W, 3, cap=30).morphism, 25),
                    (multiplication_morphism(S2, 2).morphism, 9),
                    (diagonal_model(T, 2, 22).morphism, 13),
                    (diagonal_model(W, 2, 22).morphism, 13)):
        gens = kernel_ideal_generators(phi, hi)
        assert gens, phi
        assert gens == orc.kernel_ideal_generators_full_span(phi, hi), phi


def test_nil_ideal_values(models):
    CP2 = models["CP2"]
    H = homology(CP2, 0, 4)
    view = HomologyView(H)
    res = nil_ideal(view, positive_part_generators(view), range_relative=False)
    assert res.nil == 2
    assert res.witness is not None and res.witness.degree() == 4

    S3 = models["S3"]
    H3 = homology(S3, 0, 3)
    v3 = HomologyView(H3)
    assert nil_ideal(v3, positive_part_generators(v3)).nil == 1

    C = models["C"]
    HC = homology(C, 0, 11)
    vc = HomologyView(HC)
    rc = nil_ideal(vc, positive_part_generators(vc), range_relative=False)
    assert rc.nil == 2        # [a][b x] is a nonzero 2-fold product

    W = models["W"]
    HW = homology(W, 0, 13)
    vw = HomologyView(HW)
    assert nil_ideal(vw, positive_part_generators(vw),
                     range_relative=False).nil == 1


def test_nil_witness_factors_reverify(models):
    C = models["C"]
    H = homology(C, 0, 11)
    view = HomologyView(H)
    gens = positive_part_generators(view)
    res = nil_ideal(view, gens, range_relative=False)
    prod = view.one()
    for i in res.witness_factors:
        prod = view.mul(prod, gens[i])
    assert prod.terms and not H.is_zero_class(prod, prod.degree())


def test_ideal_powers_membership(models):
    G = models["G"]
    mult = multiplication_morphism(G, 2)
    GG = mult.power.pres
    kgens = [parse_element(s, GG) for s in ("a1 - a2", "b1 - b2", "c1 - c2")]
    powers = IdealPowers(PresentationView(GG, 5), kgens)
    omega = parse_element("(a1-a2)*(b1-b2)*(c1-c2)", GG)
    assert powers.contains(3, omega, 3)
    assert not powers.contains(1, parse_element("a1", GG), 1)


def test_poincare_duality_check(models):
    CP2 = models["CP2"]
    assert poincare_duality_check(homology(CP2, 0, 4), 4).satisfied
    P = models["P"]
    assert poincare_duality_check(homology(P, 0, 6), 6).satisfied
    W = models["W"]
    dual = poincare_duality_check(homology(W, 0, 8), 8)
    assert not dual.satisfied and dual.reason


def test_span_complex_homology_detects_acyclic_ideals(models):
    S2 = models["S2"]
    # the ideal (a) inside the even-sphere model is d-stable but not acyclic
    gens = [S2.gen("a")]
    powers = IdealPowers(PresentationView(S2, 8), gens)
    spans = {d: powers.span_echelon(1, d) for d in range(9)}
    betti = span_complex_homology(S2, spans, 1, 7)
    # a and a^2 are cycles with no boundaries inside the span (x is outside),
    # while a^3 = d(a x) dies
    assert betti[2] == 1 and betti[4] == 1
    assert betti[5] == 0 and betti[6] == 0

    # the full augmentation ideal of a contractible algebra is acyclic: the
    # acyclic closure of the odd sphere, Lambda(u, h2_0) with d h2_0 = u
    T = Presentation([("u", 3), ("h2_0", 2)], 8,
                     differentials={"h2_0": {(("u", 1),): 1}})
    pgens = [T.gen(g.name) for g in T.generators]
    p2 = IdealPowers(PresentationView(T, 8), pgens)
    spans2 = {d: p2.span_echelon(1, d) for d in range(9)}
    betti2 = span_complex_homology(T, spans2, 1, 7)
    assert all(b == 0 for b in betti2.values())

    # the ideal (x) is not d-stable: d(x) = a^2 leaves it
    px = IdealPowers(PresentationView(S2, 8), [S2.gen("x")])
    spans3 = {d: px.span_echelon(1, d) for d in range(9)}
    with pytest.raises(CdgaError, match="differential leaves the span in degree 3"):
        span_complex_homology(S2, spans3, 1, 7)


def test_kernel_basis_beyond_target_range_requires_certified_vanishing(models):
    W = models["W"]
    mult = multiplication_morphism(W, 2, cap=18)
    GG = mult.power.pres
    # degree 16 exceeds the wedge cap 14, but its certified top degree is 8,
    # so the kernel there is everything
    kb = kernel_basis(mult.morphism, 16)
    assert len(kb) == GG.dim(16) > 0


# ---------------------------------------------------------------------------
# hit_and_kill grows one source complex


def _census(monkeypatch, target=None):
    """Count what a construction computes on its source complexes: the
    single-degree homology reports by degree (both builders ask for target
    homology over a range), the Leibniz expansions of monomials of
    presentations other than `target` by monomial, and the differentials of
    module basis elements by (generator, monomial).  The final _validate
    and d2_failure checks recompute d on purpose and are left out."""
    reports, monomials, basis_elements = (collections.Counter() for _ in range(3))
    checking = []

    def counted_report(init):
        def report(self, X, lo, hi):
            if lo == hi:
                reports[lo] += 1
            init(self, X, lo, hi)
        return report

    def counted_leibniz(leibniz):
        def expand(self, terms, values):
            if not checking and self is not getattr(target, "_ctx", None):
                monomials.update(terms.keys())
            return leibniz(self, terms, values)
        return expand

    def counted_d(d_element):
        def d(self, mel):
            if not checking and len(mel) == 1:
                (name, coeff), = mel.items()
                if len(coeff.terms) == 1 and 1 in coeff.terms.values():
                    basis_elements[(name, *coeff.terms)] += 1
            return d_element(self, mel)
        return d

    def uncounted(check):
        def run(self, *args, **kw):
            checking.append(check)
            try:
                return check(self, *args, **kw)
            finally:
                checking.pop()
        return run

    for cls, name, wrap in [(HomologyReport, "__init__", counted_report),
                            (_SignEngine, "leibniz", counted_leibniz),
                            (SemiFreeModule, "d_element", counted_d),
                            (Presentation, "_validate", uncounted),
                            (SemiFreeModule, "d2_failure", uncounted)]:
        monkeypatch.setattr(cls, name, wrap(getattr(cls, name)))
    return reports, monomials, basis_elements


@pytest.mark.parametrize("filename,label", [("truncated_mix.cdga", "T"),
                                            ("wedge.cdga", "W")])
def test_minimal_model_computes_each_differential_once(monkeypatch, filename, label):
    A = load_model(filename)[0][label]
    reports, monomials, _ = _census(monkeypatch, A)
    model = build_minimal_model(A, A.cap - 1).model
    assert len(model.generators) > 5
    # the hit step in each degree reuses the kill step's report
    assert set(reports) == set(range(2, A.cap)) and max(reports.values()) == 1
    assert monomials and max(monomials.values()) == 1


@pytest.mark.parametrize("filename,label,ideal,E", [
    ("sphere2.cdga", "S2", ("a",), 7),
    ("truncated_mix.cdga", "T", ("a", "b"), 13),
])
def test_resolution_computes_each_differential_once(monkeypatch, filename, label,
                                                    ideal, E):
    A = load_model(filename)[0][label]
    reports, _, basis_elements = _census(monkeypatch)
    res = resolve_quotient(A, [A.gen(n) for n in ideal], E)
    assert len(res.module.gen_list) > 1
    assert set(reports) == set(range(1, E + 1)) and max(reports.values()) == 1
    assert basis_elements and max(basis_elements.values()) == 1


def test_kill_primitives_share_one_combination_echelon_per_degree(monkeypatch):
    """The kill cycles of one degree k find their primitives against one
    combination echelon of the target's degree-k differential, built once
    however many cycles that degree kills.  Outside the kernels (kill
    cycles, induced kernels) no other combination echelon is built."""
    T = load_model("truncated_mix.cdga", cap=23)[0]["T"]
    homology_module = importlib.import_module("secat.homology")
    built, in_kernel = [], []
    combination_echelon = linalg._combination_echelon

    def counted(images, width):
        if not in_kernel:
            built.append((images, width))
        return combination_echelon(images, width)

    def kernel(images, width):
        in_kernel.append(images)
        try:
            return kernel_combos(images, width)
        finally:
            in_kernel.pop()

    monkeypatch.setattr(linalg, "_combination_echelon", counted)
    monkeypatch.setattr(homology_module, "kernel_combos", kernel)
    model = build_minimal_model(T, 22).model
    kills = collections.Counter(g.degree for g in model.generators
                                if g.name.startswith("w"))
    assert max(kills.values()) > 1
    assert built == [(T.differential_vectors(k), T.dim(k + 1)) for k in sorted(kills)]


# Written from the builder that rebuilt the source in every step: the
# generator census per degree and a digest of the generators and their
# differentials as printed.  `recomputed` counts the degrees whose kill
# generators grew the next degree's piece, so that the hit step there needed
# a new homology report.
RECOMPUTE_CASES = [
    ("abc/(a,b)", "gen a : 1; gen b : 1; gen c : 1; d a = b*c; d b = a*c; d c = a*b;",
     ("a", "b"), 6, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}, "9c0f4a3bfb747b67", 4),
    ("tx/(x)", "gen t : 1; gen x : 2;",
     ("x",), 7, {0: 1, 1: 1}, "6eb4f9b7fc34d99d", 1),
    ("tx/(t)", "gen t : 1; gen x : 2;",
     ("t",), 7, {0: 1, 2: 1, 4: 1, 6: 1}, "5e0574836e2c51e6", 3),
    ("tux/(t)", "gen t : 1; gen u : 1; gen x : 1; d x = t*u;",
     ("t",), 7, {0: 1, 1: 4, 2: 7, 3: 14, 4: 28, 5: 56, 6: 112}, "9e4cef2a8e8639ca", 6),
]


@pytest.mark.parametrize("label,body,ideal,E,census,digest,recomputed",
                         RECOMPUTE_CASES, ids=[case[0] for case in RECOMPUTE_CASES])
def test_resolution_over_degree_one_recomputes_and_keeps_its_output(
        monkeypatch, label, body, ideal, E, census, digest, recomputed):
    text = f"cdga A {{ cap 8; flag non_simply_connected; {body} }}"
    A = realize_document(parse_document(text))[0]["A"]
    reports, _, basis_elements = _census(monkeypatch)
    res = resolve_quotient(A, [A.gen(n) for n in ideal], E)
    M = res.module
    assert sum(reports.values()) - E == recomputed
    assert max(basis_elements.values()) == 1
    assert collections.Counter(d for _, d in M.gen_list) == census
    printed = {"gens": [[n, d] for n, d in M.gen_list],
               "d": {n: M.format(M.d[n]) for n, _ in M.gen_list if n in M.d}}
    blob = json.dumps(printed, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == digest
