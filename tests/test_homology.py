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
from secat.core import (AlgebraElement, CdgaMorphism, Presentation,
                        RangeExceedsCap, quotient_by_ideal, tensor_power)
from secat.homology import (HomologyReport, HomologyView, IdealPowers,
                            PresentationView, homology, induced_matrix,
                            kernel_basis, kernel_ideal_generators, nil_ideal,
                            poincare_duality_check, quasi_iso_failure)
from secat.construct import (build_minimal_model, diagonal_model,
                             multiplication_morphism)
from secat.semifree import SemiFreeModule, madd, resolve_quotient
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

    def differential_vectors(self, d, which=None):
        self.built[d] += 1
        return self.X.differential_vectors(d, which)


def _check_sparse_rows(X, n, images, dense):
    """X.differential_vectors(n) against `dense`, the dense coordinates of
    each of `images`, the differentials of the degree-n basis; and
    from_vector reads a sparse row back as the same element.  Rows asked
    for by index are those rows, in the order asked."""
    rows = X.differential_vectors(n)
    assert len(rows) == len(images) == X.dim(n)
    which = list(range(X.dim(n)))[::-2]
    assert X.differential_vectors(n, which) == [rows[i] for i in which]
    for row, img, vec in zip(rows, images, dense):
        assert isinstance(row, dict)
        assert row == orc.sparse(vec)
        assert X.from_vector(n + 1, row) == X.from_vector(n + 1, orc.sparse(vec))
        if img is not None:
            assert X.from_vector(n + 1, row) == img
            assert X.to_sparse(img, n + 1) == row


def test_differential_vectors_are_the_nonzeros_of_to_vector(models):
    """The sparse protocol on every bundled model, free or with relations."""
    for name, P in models.items():
        for d in range(min(P.cap, 12)):
            images = [P.d(AlgebraElement(P, {m: Fraction(1)})) for m in P.basis(d)]
            _check_sparse_rows(P, d, images, [orc.dense(P.to_sparse(img, d + 1), P.dim(d + 1))
                                              for img in images])


@pytest.mark.parametrize("label, gens", [("S2", ("a",)), ("T", ("a", "b"))])
def test_module_differential_vectors_are_the_nonzeros_of_to_vector(models, label, gens):
    """The sparse protocol on a quotient resolution, over a free base and
    over a base with relations."""
    P = models[label]
    M = resolve_quotient(P, [P.gen(n) for n in gens], 7).module
    for n in range(7):
        images = [M.d_element(M.basis_element(g, m)) for g, m in M.basis(n)]
        _check_sparse_rows(M, n, images, [orc.dense(M.to_sparse(img, n + 1), M.dim(n + 1))
                                          for img in images])


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


def test_the_default_homology_window_is_homology_hi(models):
    """On every bundled model, a quotient and a tensor power, the default
    range ends at homology_hi: the cap when free, else cap - 1; with
    relations one degree more is refused with the cap it would need."""
    S2, T = models["S2"], models["T"]
    cases = dict(models)
    cases["S2/(a^2)"] = quotient_by_ideal(S2, [S2.gen("a") ** 2])[0]
    cases["T^2"] = tensor_power(T, 2).pres
    for name, P in cases.items():
        assert homology(P).hi == P.homology_hi == P.cap - (not P.is_free), name
        if P.is_free:
            continue
        with pytest.raises(RangeExceedsCap) as refused:
            homology(P, 0, P.homology_hi + 1)
        assert str(refused.value) == (f"homology up to degree {P.cap} needs cap >= "
                                      f"{P.cap + 1}, have {P.cap}"), name
    assert not cases["S2/(a^2)"].is_free and not cases["T^2"].is_free


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
        return diagonal_model(models["T"], 2, 22).morphism.source, 0, 21
    T = models["T"]  # the resolution
    return resolve_quotient(T, [T.gen("a"), T.gen("b")], 9).module, 0, 9


def _printed(rep):
    """A representative's terms in order; a module element's per generator."""
    if isinstance(rep, AlgebraElement):
        return list(rep.terms.items())
    return [(g, list(c.terms.items())) for g, c in rep.items()]


def _assert_same_degree(got, want, d):
    """Equal class rows, representatives (terms in order) and boundary
    bases in degree d."""
    assert got._class_rows[d] == want._class_rows[d]
    assert ([_printed(r) for r in got.representatives(d)]
            == [_printed(r) for r in want.representatives(d)])
    assert orc.echelon_basis(got._boundaries[d]) == orc.echelon_basis(want._boundaries[d])


def _assert_same_report(got, want, lo, hi):
    """Equal betti numbers, and equal class rows, representatives and
    boundary bases in every degree."""
    assert got.betti_table() == want.betti_table()
    for d in range(lo, hi + 1):
        _assert_same_degree(got, want, d)


@pytest.mark.parametrize("name", ["T", "W", "S2", "fraction-quotient", "diagonal-source",
                                  "resolution"])
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
                   for row in got._class_rows[d] + orc.echelon_basis(got._boundaries[d])
                   for c in row.values())


def _draw_cycle(draw, P, d):
    """A random combination of the canonical cycles of degree d of P."""
    z = {}
    for combo in kernel_combos(P.differential_vectors(d), P.dim(d + 1)):
        c = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2)))
        for j, a in combo.items():
            z[j] = z.get(j, 0) + c * a
    return P.from_vector(d, z)


def _draw_free_complex(draw, cap):
    """(P, base): a free presentation on up to three generators `base` with
    d = 0, odd and even, grown by adjoin with generators whose d is a random
    cycle of the complex so far."""
    base = [(f"c{i}", draw(st.integers(1, 5))) for i in range(draw(st.integers(1, 3)))]
    P = Presentation(base, cap, simply_connected=False)
    for i in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, cap - 2))
        z = _draw_cycle(draw, P, k + 1)
        if z.terms:
            P = P.adjoin([(f"x{i}", k)], {f"x{i}": z})
    return P, base


@st.composite
def random_complexes(draw):
    """(complex, lo, hi): a random free complex (_draw_free_complex); at
    times its quotient by a monomial ideal, spanned by monomials in the
    d = 0 generators and at times by every monomial from some degree on,
    which keeps the ideal closed under d."""
    cap = 10
    P, base = _draw_free_complex(draw, cap)
    hi = cap
    if draw(st.booleans()):
        closed = [m for d in range(1, cap + 1) for m in orc.free_monomials(base, d)]
        ideal = [P.element({m: 1}) for m in draw(st.lists(st.sampled_from(closed), max_size=3))]
        if draw(st.booleans()):
            start = draw(st.integers(3, cap))
            top = min(start + max(g.degree for g in P.generators) - 1, cap)
            ideal += [P.element({m: 1}) for d in range(start, top + 1) for m in P.basis(d)]
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


def _assert_range_is_its_single_degrees(X, hi):
    """homology(X, 0, hi) feeds each B^d past degree 0 only the rows of d at
    the degree-(d-1) elements off the pivots of B^{d-1}; homology(X, d, d)
    feeds it every row.  Both must give the same report in degree d."""
    whole = homology(X, 0, hi)
    for d in range(hi + 1):
        single = homology(X, d, d)
        assert single.betti(d) == whole.betti(d)
        _assert_same_degree(single, whole, d)


@pytest.mark.parametrize("name", ["S3", "S2", "S4", "CP2", "C", "T", "W",
                                  "P", "G", "A", "B", "Q"])
def test_range_reports_equal_single_degree_reports_on_the_models(models, name):
    P = models[name]
    _assert_range_is_its_single_degrees(P, min((P.cap if P.is_free else P.cap - 1), 12))


@pytest.mark.parametrize("name", ["fraction-quotient", "resolution"])
def test_range_reports_equal_single_degree_reports_on_other_complexes(models, name):
    X, _, hi = _homology_oracle_case(models, name)
    _assert_range_is_its_single_degrees(X, hi)


@settings(max_examples=100, deadline=None)
@given(case=random_complexes())
def test_range_reports_equal_single_degree_reports_on_random_complexes(case):
    X, _, hi = case
    _assert_range_is_its_single_degrees(X, hi)


class FedEchelon(Echelon):
    """An echelon that records its rank before each add."""

    def __init__(self):
        super().__init__()
        self.fed_at = []

    def add(self, v):
        self.fed_at.append(self.rank)
        return super().add(v)


def _free_rows(X, H, d):
    """The rows of d at the degree-d basis elements off the pivots of B^d."""
    pivots = H._boundaries[d].pivots
    return X.differential_vectors(d, [i for i in range(X.dim(d)) if i not in pivots])


@pytest.mark.parametrize("name", ["T", "diagonal-source", "resolution"])
def test_range_reports_feed_free_rows_to_the_next_boundaries(monkeypatch, models, name):
    """Below hi, degree d feeds every free row, those at the basis elements
    off the pivots of B^d, to the echelon of B^{d+1}: rank B^{d+1} = #free
    rows - b_d.  kernel_combos runs on the free rows exactly in the degrees
    d < hi with b_d > 0, and at hi when it has free rows; on these
    complexes it runs in fewer degrees than there are nonzero ones."""
    X, lo, hi = _homology_oracle_case(models, name)
    homology_module = importlib.import_module("secat.homology")
    calls = []

    def kernel(images, width):
        calls.append(list(images))
        return kernel_combos(images, width)

    monkeypatch.setattr(homology_module, "Echelon", FedEchelon)
    monkeypatch.setattr(homology_module, "kernel_combos", kernel)
    H = HomologyReport(X, lo, hi)
    for d in range(lo + 1, hi + 1):
        B, nfree = H._boundaries[d], X.dim(d - 1) - H._boundaries[d - 1].rank
        assert B.rank == nfree - H.betti(d - 1)
        assert len(B.fed_at) == nfree
    ran = [d for d in range(lo, hi + 1) if _free_rows(X, H, d) and (d == hi or H.betti(d))]
    assert calls == [_free_rows(X, H, d) for d in ran]
    assert len(ran) < sum(1 for d in range(lo, hi + 1) if X.dim(d))


@settings(max_examples=60, deadline=None)
@given(case=random_complexes())
def test_handed_over_boundary_echelons_equal_fresh_ones_on_random_complexes(case):
    """The echelon that degree d - 1 hands over as B^d, and the rows with
    their rank that the report keeps for B^{hi+1}, span the boundaries of
    every row of d on C^{d-1}."""
    X, lo, hi = case
    H = HomologyReport(X, lo, hi)

    def fresh(d):
        ech = Echelon()
        for v in X.differential_vectors(d - 1) if d >= 1 else ():
            ech.add(v)
        return ech

    for d in range(lo + 1, hi + 1):
        assert orc.echelon_basis(H._boundaries[d]) == orc.echelon_basis(fresh(d))
    rows, rank, read_on = H.boundary_rows
    assert read_on is X
    handed = Echelon()
    for v in rows:
        handed.add(v)
    assert handed.rank == rank
    assert orc.echelon_basis(handed) == orc.echelon_basis(fresh(hi + 1))


@st.composite
def random_adjoins(draw):
    """(X, lo, hi, Y): a report range [lo, hi] on a random free complex X,
    and Y, X grown by one adjoin as hit_and_kill grows its source between
    the report on degree hi and the one on hi + 1: generators of degree hi
    with d = 0; of degree hi + 1 with d a random cycle, 0 included; and,
    when X has no degree-1 element, of degree hi - 1 >= 2 with d a random
    cycle.  So Y's new elements of degree hi have d in B^{hi+1}, while the
    degree-(hi+1) basis grows.  New names may rank below old ones."""
    X, _ = _draw_free_complex(draw, 10)
    hi = draw(st.integers(1, 8))
    lo = draw(st.integers(0, hi))
    gens, diffs = [], {}
    for i in range(draw(st.integers(0, 2))):
        gens.append((f"h{i}", hi))
    for i in range(draw(st.integers(0, 2))):
        gens.append((f"u{i}", hi + 1))
        diffs[f"u{i}"] = _draw_cycle(draw, X, hi + 2)
    if hi >= 3 and not X.dim(1):
        for i in range(draw(st.integers(0, 2))):
            gens.append((f"k{i}", hi - 1))
            diffs[f"k{i}"] = _draw_cycle(draw, X, hi)
    return X, lo, hi, X.adjoin(gens, diffs)


@settings(max_examples=80, deadline=None)
@given(case=random_adjoins())
def test_carried_boundary_rows_survive_random_adjoins(case):
    """The boundary rows that a report hands over, re-keyed into a complex
    that adjoin grew, give the boundaries and the whole report of a fresh
    report there."""
    X, lo, hi, Y = case
    handed = HomologyReport(X, lo, hi).boundary_rows
    carried = HomologyReport(Y, hi + 1, hi + 1, handed)
    _assert_same_report(carried, HomologyReport(Y, hi + 1, hi + 1), hi + 1, hi + 1)
    assert carried._boundaries[hi + 1].rank == handed[1]


@pytest.mark.parametrize("label, ideal", [("S2", ("a",)), ("T", ("a", "b"))])
def test_carried_boundary_rows_survive_module_adjoins(models, label, ideal):
    """As on random complexes, for a semifree module: adjoin appends the
    new generators' blocks, so the rows carry over as they are."""
    A = models[label]
    M = resolve_quotient(A, [A.gen(n) for n in ideal], A.cap - 1).module
    for hi in range(2, A.cap - 2):
        H = HomologyReport(M, hi - 1, hi + 2)
        boundary = M.d_element(M.basis_element(*M.basis(hi + 1)[-1]))
        above = {}
        for z in H.representatives(hi + 2) + [boundary]:
            above = madd(above, z)
        # each extension of M adjoins the same names with other degrees
        gens = [("h", hi), ("u", hi + 1)]
        diffs = {"u": above}
        if H.betti(hi):
            gens.append(("k", hi - 1))
            diffs["k"] = H.representatives(hi)[0]
        N = M.adjoin(gens, diffs)
        assert N.dim(hi + 1) > M.dim(hi + 1)
        assert N.coordinates_from(M, hi + 1) is None
        handed = HomologyReport(M, hi, hi).boundary_rows
        carried = HomologyReport(N, hi + 1, hi + 1, handed)
        _assert_same_report(carried, HomologyReport(N, hi + 1, hi + 1), hi + 1, hi + 1)


@pytest.mark.parametrize("build,label", [("minimal-model", "W"), ("resolution", "W"),
                                         ("minimal-model", "T"), ("resolution", "T")],
                         ids=["minimal-model", "resolution", "T-minimal-model",
                              "T-resolution"])
def test_hit_and_kill_stops_each_carried_boundary_echelon_at_its_rank(monkeypatch,
                                                                      models, build,
                                                                      label):
    """A report that hit_and_kill hands the previous report's free rows
    feeds them to B^lo only until their rank, and its boundaries equal
    those of a fresh report on the same complex; some rows are left out."""
    homology_module = importlib.import_module("secat.homology")
    carried = []

    def counted_report(init):
        def report(self, X, lo, hi, boundary_rows=None):
            init(self, X, lo, hi, boundary_rows)
            if boundary_rows is not None:
                carried.append((self, boundary_rows))
        return report

    monkeypatch.setattr(homology_module, "Echelon", FedEchelon)
    monkeypatch.setattr(HomologyReport, "__init__", counted_report(HomologyReport.__init__))
    A = models[label]
    if build == "minimal-model":
        build_minimal_model(A, A.cap - 1)
    else:
        resolve_quotient(A, [A.gen("a"), A.gen("b")], A.cap - 1)
    monkeypatch.undo()
    assert carried
    skipped = 0
    for H, (rows, rank, _) in carried:
        X, d = H.complex, H.lo
        B = H._boundaries[d]
        assert B.rank == rank and all(r < rank for r in B.fed_at)
        skipped += len(rows) - len(B.fed_at)
        assert orc.echelon_basis(B) == orc.echelon_basis(HomologyReport(X, d, d)._boundaries[d])
    assert skipped


def test_minimal_model_of_T_starts_only_its_first_report_fresh(monkeypatch):
    """On T, whose degree-2 generator times a kill generator is a new
    element two degrees up, every single-degree report of the minimal model
    after the first starts from the previous one's rows, re-keyed."""
    started, rekeyed = [], []

    def report(init):
        def start(self, X, lo, hi, boundary_rows=None):
            if lo == hi:
                started.append((lo, boundary_rows is None))
            init(self, X, lo, hi, boundary_rows)
        return start

    def coordinates_from(method):
        def keys(self, older, d):
            out = method(self, older, d)
            rekeyed.append(out is not None)
            return out
        return keys

    monkeypatch.setattr(HomologyReport, "__init__", report(HomologyReport.__init__))
    monkeypatch.setattr(Presentation, "coordinates_from",
                        coordinates_from(Presentation.coordinates_from))
    T = load_model("truncated_mix.cdga", cap=23)[0]["T"]
    build_minimal_model(T, 22)
    assert started == [(2, True)] + [(d, False) for d in range(3, 23)]
    assert sum(rekeyed) > len(rekeyed) // 2


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
    assert [orc.dense(col, H.betti(2)) for col in ident] == [[Fraction(1)]]
    # the Hopf projection kills all positive homology
    q = morphisms["q"]
    HA = homology(models["A"], 0, 11)
    HB = homology(models["B"], 0, 11)
    for d in range(1, 12):
        mat = induced_matrix(q, HA, HB, d)
        assert all(not c for col in mat for c in orc.dense(col, HB.betti(d)))


def test_kernel_generators_map_to_zero_and_span_kernel(models):
    S3 = models["S3"]
    mult = multiplication_morphism(S3, 2)
    gens = kernel_ideal_generators(mult.morphism, 6)
    assert [str(g) for g in gens] == ["u1 - u2"]

    # independent spanning check: products of the generators reach every
    # kernel element degree by degree
    W = models["W"]
    mult2 = multiplication_morphism(W, 2, cap=12)
    GG = mult2.morphism.source
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
    gens = orc.positive_part_generators(view)
    res = nil_ideal(view, gens)
    assert res.nil == 2
    witness = view.mul(*(gens[i] for i in res.witness_factors))
    assert witness.terms and witness.degree() == 4

    S3 = models["S3"]
    H3 = homology(S3, 0, 3)
    v3 = HomologyView(H3)
    assert nil_ideal(v3, orc.positive_part_generators(v3)).nil == 1

    C = models["C"]
    HC = homology(C, 0, 11)
    vc = HomologyView(HC)
    rc = nil_ideal(vc, orc.positive_part_generators(vc))
    assert rc.nil == 2        # [a][b x] is a nonzero 2-fold product

    W = models["W"]
    HW = homology(W, 0, 13)
    vw = HomologyView(HW)
    assert nil_ideal(vw, orc.positive_part_generators(vw)).nil == 1


def test_nil_witness_factors_reverify(models):
    C = models["C"]
    H = homology(C, 0, 11)
    view = HomologyView(H)
    gens = orc.positive_part_generators(view)
    res = nil_ideal(view, gens)
    prod = view.one()
    for i in res.witness_factors:
        prod = view.mul(prod, gens[i])
    assert prod.terms and not H.is_zero_class(prod, prod.degree())


def test_ideal_powers_membership(models):
    G = models["G"]
    mult = multiplication_morphism(G, 2)
    GG = mult.morphism.source
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


def test_kernel_basis_beyond_target_range_requires_certified_vanishing(models):
    W = models["W"]
    mult = multiplication_morphism(W, 2, cap=18)
    GG = mult.morphism.source
    # degree 16 exceeds the wedge cap 14, but its certified top degree is 8,
    # so the kernel there is everything
    kb = kernel_basis(mult.morphism, 16)
    assert len(kb) == GG.dim(16) > 0


# ---------------------------------------------------------------------------
# hit_and_kill grows one source complex


def _census(monkeypatch, target=None):
    """Count what a construction computes on its source complexes: the
    single-degree homology reports by degree (both builders ask for target
    homology over a range), the memo misses of d on presentations other
    than `target` by monomial, the differentials of
    module basis elements by (generator, monomial), and the images that the
    builder's unnamed chain maps form, by source monomial.  The final
    _validate and d2_failure checks recompute d, and the named final
    morphism its images, on purpose and are left out."""
    reports, monomials, basis_elements, images = (collections.Counter() for _ in range(4))
    checking = []

    def counted_report(init):
        def report(self, X, lo, hi, boundary_rows=None):
            if lo == hi:
                reports[lo] += 1
            init(self, X, lo, hi, boundary_rows)
        return report

    def counted_monomial_d(monomial_d):
        def d(pres, m):
            if not checking and pres is not target:
                monomials[m] += 1
            return monomial_d(pres, m)
        return d

    def counted_d(d_element):
        def d(self, mel):
            if not checking and len(mel) == 1:
                (name, coeff), = mel.items()
                if len(coeff.terms) == 1 and 1 in coeff.terms.values():
                    basis_elements[(name, *coeff.terms)] += 1
            return d_element(self, mel)
        return d

    def counted_image(monomial_image):
        def image(self, m):
            if not self.name and m and m not in self._memo:
                images[m] += 1
            return monomial_image(self, m)
        return image

    def uncounted(check):
        def run(self, *args, **kw):
            checking.append(check)
            try:
                return check(self, *args, **kw)
            finally:
                checking.pop()
        return run

    for cls, name, wrap in [(HomologyReport, "__init__", counted_report),
                            (importlib.import_module("secat.core"), "_monomial_d",
                             counted_monomial_d),
                            (SemiFreeModule, "d_element", counted_d),
                            (CdgaMorphism, "_monomial_image", counted_image),
                            (Presentation, "_validate", uncounted),
                            (SemiFreeModule, "d2_failure", uncounted)]:
        monkeypatch.setattr(cls, name, wrap(getattr(cls, name)))
    return reports, monomials, basis_elements, images


@pytest.mark.parametrize("filename,label", [("truncated_mix.cdga", "T"),
                                            ("wedge.cdga", "W")])
def test_minimal_model_computes_each_differential_once(monkeypatch, filename, label):
    A = load_model(filename)[0][label]
    reports, monomials, _, _ = _census(monkeypatch, A)
    model = build_minimal_model(A, A.cap - 1).model
    assert len(model.generators) > 5
    # the hit step in each degree reuses the kill step's report
    assert set(reports) == set(range(2, A.cap)) and max(reports.values()) == 1
    assert monomials and max(monomials.values()) == 1


@pytest.mark.parametrize("filename,label", [("truncated_mix.cdga", "T"),
                                            ("wedge.cdga", "W")])
def test_minimal_model_forms_each_monomial_image_once(monkeypatch, filename, label):
    """The builder's successive chain maps share one memo of monomial
    images: each source monomial's image into A is formed once."""
    A = load_model(filename)[0][label]
    _, _, _, images = _census(monkeypatch, A)
    build_minimal_model(A, A.cap - 1)
    assert len(images) > 5 and max(images.values()) == 1


@pytest.mark.parametrize("filename,label,ideal,E", [
    ("sphere2.cdga", "S2", ("a",), 7),
    ("truncated_mix.cdga", "T", ("a", "b"), 13),
])
def test_resolution_computes_each_differential_once(monkeypatch, filename, label,
                                                    ideal, E):
    A = load_model(filename)[0][label]
    reports, _, basis_elements, _ = _census(monkeypatch)
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


def _render(M, mel):
    """A module element as `(coefficient).generator` terms in generator order."""
    return " + ".join(f"({mel[name]}).{name}" for name, _ in M.gen_list
                      if name in mel) or "0"


@pytest.mark.parametrize("label,body,ideal,E,census,digest,recomputed",
                         RECOMPUTE_CASES, ids=[case[0] for case in RECOMPUTE_CASES])
def test_resolution_over_degree_one_recomputes_and_keeps_its_output(
        monkeypatch, label, body, ideal, E, census, digest, recomputed):
    text = f"cdga A {{ cap 8; flag non_simply_connected; {body} }}"
    A = realize_document(parse_document(text))[0]["A"]
    reports, _, basis_elements, _ = _census(monkeypatch)
    res = resolve_quotient(A, [A.gen(n) for n in ideal], E)
    M = res.module
    assert sum(reports.values()) - E == recomputed
    assert max(basis_elements.values()) == 1
    assert collections.Counter(d for _, d in M.gen_list) == census
    printed = {"gens": [[n, d] for n, d in M.gen_list],
               "d": {n: _render(M, M.d[n]) for n, _ in M.gen_list if n in M.d}}
    blob = json.dumps(printed, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == digest
