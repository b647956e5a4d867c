"""Cohomology of cochain complexes, induced maps, and ideal nilpotency.

HomologyReport is the one place that computes cycles, boundaries and
canonical representatives.  It works on any cochain complex X with

    X.dim(d)                      dimension of the degree-d piece
    X.to_sparse(x, d)             coordinates of a degree-d element, as a
                                  dict from basis index to coefficient
    X.from_vector(d, v)           the element with coordinates v, a dict
                                  from basis index to coefficient
    X.differential_vectors(d, which=None)
                                  images under d of the degree-d basis, or
                                  of its elements at the indices `which`
                                  in that order, as sparse degree-(d+1)
                                  vectors
    X.check_cycle(x)              raises CdgaError unless dx = 0
    X.cap, X.is_free              the window of faithful degrees
    X.coordinates_from(Y, d)      for X or a complex Y that X extends by
                                  adjoin: X's index of each degree-d basis
                                  element of Y, or None when Y's degree-d
                                  coordinates are X's

Presentations and semifree modules implement it; the span complex behind
span_complex_homology implements the part that betti numbers need, which
leaves out coordinates_from.  A report asks for d on the whole basis only
in the degree below its range, and in each degree of the range only on
the basis elements off the boundary pivots.  Each boundary space is
eliminated once: the free rows of degree d span B^{d+1} and are fed to
its echelon, which degree d + 1 takes as its boundaries; where they are
independent, H^d = 0 and no kernel is computed.
hit_and_kill is the one degreewise "hit the cokernel, kill the kernel"
builder behind minimal models and quotient resolutions.  It hands back the
source after each finished degree, so a caller can stop early.  It grows one
source complex through X.adjoin(gens, diffs), which keeps the old basis
and shares its memo of d, and it reuses the kill step's H^{k+1} for the
next hit step whenever the kill generators leave the degree-(k+1) piece
the same size.  That holds unless the source has degree-1 elements.  Each
of its single-degree reports starts from the free rows of the report
before it, re-keyed across the adjoins in between: they still span the
boundaries, and only their indices move.

Ideal powers and nilpotency work in a graded view of degrees 0..view.hi,
the algebra itself (PresentationView) or its homology (HomologyView), with

    view.hi                       the top degree of the view
    view.dim(d)                   dimension of the degree-d piece
    view.basis_elements(d)        a basis of it, as elements
    view.to_coords(el, d)         coordinates of a degree-d element, a dict
                                  from basis index to coefficient
    view.from_coords(d, v)        the degree-d element with coordinates v
    view.mul(a, b)                the product, in the view
    view.one()                    the unit (HomologyView only)

An ideal enters IdealPowers by ideal generators, not by a vector basis:
ideal_generators reduces, degree by degree, each basis element of the ideal
against the span of (generators kept so far) x (view basis), and keeps a
nonzero remainder as a new generator.  It serves the kernel of a morphism
(kernel_ideal_generators, in the algebra) and the kernel of an induced map
on homology (in its HomologyView).  Each level of IdealPowers multiplies
ascending factor chains and never squares an odd last factor: an odd
element squares to zero in a graded-commutative algebra, and in a
HomologyView that product is a boundary, which reduces to 0.  So skipping
it leaves every level unchanged.

Degree conventions: for a presentation with relations the graded pieces are
faithful only up to the cap, and computing H^d needs the differential into
degree d+1, so a homology request must satisfy hi + 1 <= cap.  Free
presentations are exact in every degree and carry no such restriction.

Representatives are canonical: the basis of H^d is the reduced-echelon basis
of the cycles that vanish at every pivot of the reduced-echelon basis of the
boundaries.  Each cycle reduces modulo the boundaries to exactly one such
cycle, so this basis does not depend on enumeration order, and it is the
kernel of d on the basis elements that are not boundary pivots, lifted back
to degree d: the kernel_combos of those rows, whose reduced echelon rows
stay reduced when lifted.  No cycle outside it is built.
"""

from __future__ import annotations

from typing import NamedTuple

from .linalg import Echelon, Rational, combine, combo_solver, kernel_combos
from .core import (AlgebraElement, CdgaError, CdgaMorphism, DegreeMismatch,
                   Presentation, RangeExceedsCap)


class HomologyReport:
    """Cohomology of a cochain complex over a degree range [lo, hi].

    The complex X is any object with the small protocol of this module's
    docstring, such as a Presentation or a SemiFreeModule.

    The boundaries B^lo are the echelon of every row of d on C^{lo-1},
    stopped at rank dim C^lo; or, when the caller holds `boundary_rows` =
    (rows, rank, Y), rows spanning B^lo read on the complex Y and the rank
    of their span, of those rows, stopped at that rank.  Y is X or a
    complex that X extends by adjoin, whose old basis elements keep their
    d; a row is re-keyed from Y's coordinates to X's (X.coordinates_from)
    as it is fed.  Each degree d then reads d only on its free elements,
    the basis elements off the pivots of B^d.  A pivot element
    differs from a combination of free ones by a boundary, whose d is 0, so
    the free rows span B^{d+1}.  Below hi they are all fed to the echelon
    that degree d + 1 takes as its boundaries, and b_d is the number of
    free rows less its rank.  The classes are the kernel_combos of the free
    rows, each row lifted back to degree d.  That elimination runs only
    where b_d > 0, and at hi, where no echelon of B^{hi+1} is built.  The
    report keeps the free rows of degree hi with the rank of their span,
    rank B^{hi+1} = #rows - b_hi, and X as its `boundary_rows`: a report
    that starts at degree hi + 1 on X, or on an extension of X whose new
    basis elements of degree hi have d in B^{hi+1}, may take them.
    """

    def __init__(self, X, lo: int, hi: int,
                 boundary_rows: tuple[list, int, object] | None = None):
        if lo < 0 or hi < lo:
            raise CdgaError(f"bad homology range [{lo}, {hi}]")
        if not X.is_free and hi + 1 > X.cap:
            raise RangeExceedsCap(
                f"homology up to degree {hi} needs cap >= {hi + 1}, have {X.cap}")
        self.complex = X
        self.lo = lo
        self.hi = hi
        self._boundaries: dict[int, Echelon] = {}
        self._class_rows: dict[int, list] = {}  # the canonical class basis rows
        self._reps: dict[int, list] = {}
        bech = Echelon()
        if X.dim(lo):
            if boundary_rows is None:
                rows = X.differential_vectors(lo - 1) if lo >= 1 else []
                rank, keys = X.dim(lo), None
            else:
                rows, rank, Y = boundary_rows
                keys = X.coordinates_from(Y, lo)  # None: the rows are keyed as X
            for v in rows:
                if bech.rank == rank:
                    break
                bech.add(v if keys is None else {keys[i]: c for i, c in v.items()})
        for d in range(lo, hi + 1):
            bech, rows = self._compute_degree(d, bech)
        self.boundary_rows = (rows, len(rows) - len(self._class_rows[hi]), X)

    def _compute_degree(self, d: int, bech: Echelon) -> tuple[Echelon | None, list]:
        """Fill in degree d from `bech`, the echelon of B^d; return the
        echelon of B^{d+1} (None at hi) and the free rows of degree d."""
        X = self.complex
        self._boundaries[d] = bech
        free = [i for i in range(X.dim(d)) if i not in bech.pivots]
        rows = X.differential_vectors(d, free)
        above = None
        kernel = rows
        if d < self.hi:
            above = Echelon()
            for v in rows:
                above.add(v)
            if above.rank == len(rows):
                kernel = []  # independent rows: no nonzero cycle in their span
        combos = kernel_combos(kernel, X.dim(d + 1)) if kernel else []
        self._class_rows[d] = [{free[j]: c for j, c in z.items()} for z in combos]
        self._reps[d] = [X.from_vector(d, row) for row in self._class_rows[d]]
        return above, rows

    def _check_range(self, d: int):
        if d < self.lo or d > self.hi:
            raise RangeExceedsCap(
                f"degree {d} outside computed homology range [{self.lo}, {self.hi}]")

    def betti(self, d: int) -> int:
        self._check_range(d)
        return len(self._class_rows[d])

    def betti_table(self) -> dict[int, int]:
        return {d: len(self._class_rows[d]) for d in range(self.lo, self.hi + 1)}

    def representatives(self, d: int) -> list:
        self._check_range(d)
        return list(self._reps[d])

    def _cycle_vector(self, x, d: int):
        v = self.complex.to_sparse(x, d)
        self.complex.check_cycle(x)
        return v

    def reduce(self, x, d: int | None = None):
        """Canonical representative of the class of a cycle."""
        if not x:
            return x
        d = x.degree() if d is None else d
        self._check_range(d)
        v = self._cycle_vector(x, d)
        return self.complex.from_vector(d, self._boundaries[d].reduce(v))

    def class_coords(self, x, d: int | None = None) -> dict[int, Rational]:
        """Coordinates of the class of a cycle in the canonical basis of H^d,
        a dict from basis position to coefficient."""
        d = x.degree() if d is None and x else d
        if d is None:
            raise DegreeMismatch("zero element needs an explicit degree")
        self._check_range(d)
        if not x:
            return {}
        v = self._boundaries[d].reduce(self._cycle_vector(x, d))
        # the rows are reduced echelon: a coefficient is v's entry at its lead
        rows = self._class_rows[d]
        leads = (next(iter(row)) for row in rows)
        coords = {i: v[lead] for i, lead in enumerate(leads) if lead in v}
        if combine(coords, rows) != v:
            raise CdgaError("cycle does not reduce into the computed class space")
        return coords

    def cycle(self, coords, d: int):
        """The cycle sum_i coords[i] * representatives(d)[i]."""
        X = self.complex
        return X.from_vector(d, combine(coords, self._class_rows[d]))

    def is_zero_class(self, x, d: int | None = None) -> bool:
        return not self.reduce(x, d)

    def __repr__(self):
        return f"HomologyReport({self.complex!r}, betti={self.betti_table()})"


def homology(X, lo: int = 0, hi: int | None = None,
             boundary_rows: tuple[list, int, object] | None = None) -> HomologyReport:
    if hi is None:
        hi = X.cap - 1 if not X.is_free else X.cap
    return HomologyReport(X, lo, hi, boundary_rows)


# ---------------------------------------------------------------------------
# induced maps


def induced_matrix(phi, H_src: HomologyReport, H_tgt: HomologyReport,
                   d: int) -> list[dict[int, Rational]]:
    """Columns are the coordinates of H(phi) of the source basis classes.

    `phi` is any chain map given as a callable, a CdgaMorphism included.
    """
    cols = []
    for rep in H_src.representatives(d):
        cols.append(H_tgt.class_coords(phi(rep), d))
    return cols


def induced_kernel(phi, H_src: HomologyReport, H_tgt: HomologyReport, d: int) -> list:
    """Cycles spanning ker H^d(phi), one per kernel row over the source basis."""
    if not H_src.betti(d):
        return []
    combos = kernel_combos(induced_matrix(phi, H_src, H_tgt, d), H_tgt.betti(d))
    return [H_src.cycle(combo, d) for combo in combos]


def quotient_kernel(H: HomologyReport, ideal: Echelon, d: int) -> list:
    """Cycles spanning ker(H^d(X) -> H^d(X/J)) for a d-stable ideal J whose
    degree-d piece is spanned by `ideal`, without building X/J.

    The projection X -> X/J is onto and commutes with d, so the class of a
    cycle z dies in X/J exactly when z lies in B^d + J_d.  The class
    representatives are reduced against one echelon of B^d + J_d, and the
    kernel of those reduced columns is {c : sum c_i z_i in B^d + J_d}, the
    same space as the kernel of the induced map on the quotient's homology.
    kernel_combos returns the canonical basis of that space, so each row is
    the one induced_kernel would give against H(X/J).
    """
    if not H.betti(d):
        return []
    width = H.complex.dim(d)
    ech = Echelon()
    for span in (H._boundaries[d], ideal):
        for row in span.rows:
            ech._add(row)
    cols = [ech.reduce(row) for row in H._class_rows[d]]
    return [H.cycle(combo, d) for combo in kernel_combos(cols, width)]


def quasi_iso_failure(phi: CdgaMorphism, lo: int, hi: int,
                      H_src: HomologyReport | None = None,
                      H_tgt: HomologyReport | None = None):
    """None when H(phi) is bijective in [lo, hi]; else (degree, reason)."""
    H_src = H_src or homology(phi.source, lo, hi)
    H_tgt = H_tgt or homology(phi.target, lo, hi)
    for d in range(lo, hi + 1):
        bs, bt = H_src.betti(d), H_tgt.betti(d)
        if bs != bt:
            return d, f"betti mismatch in degree {d}: {bs} vs {bt}"
        if bs == 0:
            continue
        ech = Echelon()
        for col in induced_matrix(phi, H_src, H_tgt, d):
            ech.add(col)
        if ech.rank != bs:
            return d, f"induced map not injective in degree {d}"
    return None


# ---------------------------------------------------------------------------
# hit the cokernel, kill the kernel


def hit_and_kill(H_tgt: HomologyReport, lo: int, hi: int, X, chain_map, prefixes,
                 images: dict, error: type[CdgaError]):
    """Adjoin generators degree by degree until a map into the complex of
    H_tgt induces a bijection on H^lo .. H^hi.

    `X` is the source complex before any generator is adjoined, and
    `X.adjoin(gens, diffs)` returns it with the generators [(name, degree)]
    and their differentials {name: source element} added.
    `chain_map(X, images)` returns the chain map from a source complex into
    the target, as a callable, given the images {name: target element} of
    the adjoined generators; `images` holds the images fixed before any
    generator is adjoined.  In each degree k:

    * hit: each canonical class of H^k of the target outside the image of
      the source's H^k gets a degree-k generator with zero differential,
      sent to the class's representative;
    * kill (k < hi): each source cycle spanning the kernel of the induced
      map on H^{k+1} gets a degree-k generator x with dx that cycle, sent to
      a primitive of the cycle's image.

    The source grows, it is never rebuilt: each adjoin keeps the old basis
    and its differentials.  The kill step's H^{k+1} is reused by the next
    hit step when the kill generators leave the degree-(k+1) piece the same
    size: then its cycles and boundaries grow only by the killed classes,
    which map to zero, so the induced columns span the same image.  Only a
    source with degree-1 elements can grow there.  The report on degree j
    hands its free rows, their rank and its complex
    (HomologyReport.boundary_rows) to the next report, on degree j + 1,
    which re-keys them into the grown complex and stops B^{j+1} at that
    rank.  In between, degree j gains hit generators, whose d is 0, so the
    rows still span B^{j+1}; when the kill step grows degree j too, the hit
    step builds a new report there, whose rows replace them.  An adjoin
    changes neither the old basis elements nor their d, so only the rows'
    indices in C^{j+1} move: a kill generator times a degree-2 generator,
    say, is a new element there.

    A generator is named {prefix}{k}_{i}, with prefixes[0] for hit and
    prefixes[1] for kill generators, and i counting from 0 per prefix and
    degree.  `error` is raised when a killed class has no primitive.

    This is a generator: after each finished degree k it yields the source
    complex and the images of its generators, so a caller can look at the
    generators of degree <= k before anything above k is computed, and
    stop there.  A caller that wants the whole construction drains it and
    keeps the last pair.
    """
    T = H_tgt.complex
    gens: list[tuple[str, int]] = []  # adjoined to X at the end of a step
    diffs: dict = {}
    images = dict(images)
    counter: dict[tuple[str, int], int] = {}

    def adjoin(prefix, k, image, z=None):
        i = counter.get((prefix, k), 0)
        counter[(prefix, k)] = i + 1
        name = f"{prefix}{k}_{i}"
        gens.append((name, k))
        if z is not None:
            diffs[name] = z
        images[name] = image

    phi = chain_map(X, images)
    cols = None  # the induced columns on H^k, when the kill step left them
    for k in range(lo, hi + 1):
        if cols is None:
            H_src = homology(X, k, k)
            cols = induced_matrix(phi, H_src, H_tgt, k)
        hit = Echelon()
        for col in cols:
            hit.add(col)
        for rep in H_tgt.representatives(k):
            if hit.add(H_tgt.class_coords(rep, k)) is not None:
                adjoin(prefixes[0], k, rep)
        if gens:
            X = X.adjoin(gens, diffs)
            phi = chain_map(X, images)
            gens, diffs = [], {}
        if k == hi:
            yield X, images
            return
        # H_src is the report on degree k
        H_src = homology(X, k + 1, k + 1, H_src.boundary_rows)
        cols = induced_matrix(phi, H_src, H_tgt, k + 1)
        kernel = [H_src.cycle(combo, k + 1)
                  for combo in kernel_combos(cols, H_tgt.betti(k + 1))]
        if kernel:
            primitive = combo_solver(T.differential_vectors(k), T.dim(k + 1))
            for z in kernel:
                combo = primitive(T.to_sparse(phi(z), k + 1))
                if combo is None:
                    raise error(f"class killed in degree {k + 1} has no primitive")
                adjoin(prefixes[1], k, T.from_vector(k, combo), z)
            size = X.dim(k + 1)
            X = X.adjoin(gens, diffs)
            phi = chain_map(X, images)
            gens, diffs = [], {}
            if X.dim(k + 1) != size:
                cols = None
        yield X, images


# ---------------------------------------------------------------------------
# kernels of surjections


def kernel_basis(phi: CdgaMorphism, d: int) -> list[AlgebraElement]:
    """Basis of the degree-d piece of ker phi (echelonized, canonical)."""
    P, B = phi.source, phi.target
    monos = P.basis(d)
    if d > (B.cap if B.is_free else B.cap - 1):
        # beyond the target's evaluable range the kernel is only computable
        # when the target provably vanishes there; then it is everything
        btop = B.top_degree_if_finite()
        if btop is not None and d > btop:
            return [AlgebraElement(P, {m: 1}) for m in monos]
        raise RangeExceedsCap(
            f"kernel in degree {d} needs the target evaluable there")
    images = [B.to_sparse(phi.apply_raw({m: 1}), d) for m in monos]
    return [P.from_vector(d, combo) for combo in kernel_combos(images, B.dim(d))]


def ideal_generators(view, degrees, basis_of) -> list[AlgebraElement]:
    """Ideal generators, degree by degree, of a graded ideal J of a view.

    `degrees` ascend, and `basis_of(d)` is a basis of J_d.  In each degree
    the span of the products g * b, g a generator kept so far and b a view
    basis element, is built first, and a basis element reduced against it
    becomes a generator when something is left.  The products lie in the
    ideal J, so once their span has the rank of J_d it is J_d: no further
    product is formed, and every basis element reduces to 0 as it would
    against the full span.  A degree where the view is zero is skipped
    without calling basis_of.
    """
    gens: list[tuple[AlgebraElement, int]] = []
    for d in degrees:
        if not view.dim(d):
            continue
        basis = basis_of(d)
        span = Echelon()
        for g, e in gens:
            if span.rank == len(basis):
                break
            for b in view.basis_elements(d - e):
                prod = view.mul(g, b)
                if prod.terms:
                    span.add(view.to_coords(prod, d))
                    if span.rank == len(basis):
                        break
        for el in basis:
            v = span.reduce(view.to_coords(el, d))
            if v:
                gens.append((view.from_coords(d, v), d))
                span.add(v)
    return [g for g, _ in gens]


def kernel_ideal_generators(phi: CdgaMorphism, hi: int,
                            degrees: set[int] | None = None) -> list[AlgebraElement]:
    """A finite ideal generating set for ker phi in degrees <= hi: the
    ideal_generators of ker phi in the source algebra, each verified to map
    to zero.

    `degrees`, when given, must hold the degrees of some set G that
    generates ker phi as an ideal; only those degrees are visited, and the
    result is the same.  The loop keeps the invariant that after degree e,
    ker_e lies in the ideal of the generators found so far.  In a degree d
    outside `degrees`, ker_d is spanned by products g * m with g in G of a
    degree e < d, and g lies in that ideal by the invariant, so the product
    span would fill ker_d and the visit would add nothing.  For the
    multiplication A^{ox n} -> A these are the degrees of A's generators
    (see construct.multiplication_morphism).
    """
    B = phi.target
    b_hi = B.cap if B.is_free else B.cap - 1
    gens = ideal_generators(
        PresentationView(phi.source),
        [d for d in range(1, hi + 1) if degrees is None or d in degrees],
        lambda d: kernel_basis(phi, d))
    for g in gens:
        # beyond b_hi the target vanishes (kernel_basis checked), so
        # re-applying phi there is neither possible nor needed
        if g.degree() <= b_hi and phi.apply(g).terms:
            raise CdgaError("kernel reduction produced a non-kernel element")
    return gens


# ---------------------------------------------------------------------------
# graded views: "the algebra itself" and "its homology", with the view
# protocol of the module docstring


class PresentationView:
    def __init__(self, P: Presentation, hi: int | None = None):
        self.pres = P
        self.hi = P.cap if hi is None else hi
        if not P.is_free and self.hi > P.cap:
            raise RangeExceedsCap("view range exceeds presentation cap")

    def dim(self, d: int) -> int:
        return self.pres.dim(d)

    def basis_elements(self, d: int) -> list[AlgebraElement]:
        return [AlgebraElement(self.pres, {m: 1}) for m in self.pres.basis(d)]

    def to_coords(self, el, d):
        return self.pres.to_sparse(el, d)

    def from_coords(self, d, v):
        return self.pres.from_vector(d, v)

    def mul(self, a, b):
        return a * b


class HomologyView:
    """Homology as a graded algebra; products reduce to canonical cycles."""

    def __init__(self, H: HomologyReport):
        self.H = H
        self.pres = H.complex
        self.hi = H.hi

    def dim(self, d: int) -> int:
        return self.H.betti(d)

    def basis_elements(self, d: int) -> list[AlgebraElement]:
        return self.H.representatives(d)

    def to_coords(self, el, d):
        return self.H.class_coords(el, d)

    def from_coords(self, d, v):
        return self.H.cycle(v, d)

    def mul(self, a, b):
        prod = a * b
        if not prod.terms:
            return prod
        return self.H.reduce(prod)

    def one(self):
        return self.H.reduce(self.pres.one(), 0)


# ---------------------------------------------------------------------------
# ideal powers and nilpotency inside a view


class SpanningProduct:
    """A product of ideal generators with its degree and factor chain.
    Slotted rather than a NamedTuple, which is slower to build and to read:
    IdealPowers.level builds one per product and reads them in its loops."""

    __slots__ = ("element", "degree", "factors")

    def __init__(self, element: AlgebraElement, degree: int,
                 factors: tuple[int, ...]):
        self.element = element
        self.degree = degree
        self.factors = factors      # indices into the generating set


class IdealPowers:
    """Incremental spanning data for powers of an ideal inside a view.

    Level m keeps a pruned list of m-fold products of the generators; the
    degree-d piece of the m-th power is spanned by (product * basis element)
    over the lower-degree view basis.  Pruning keeps only products that grow
    the echelon of the products themselves, which never shrinks the module
    span.  Every kept product carries its factor chain for witnesses.
    """

    def __init__(self, view: PresentationView | HomologyView,
                 generators: list[AlgebraElement]):
        self.view = view
        self.generators = []
        self.gen_degrees = []
        for g in generators:
            if not g.terms:
                continue
            d = g.degree()
            if d is None or d < 1:
                raise CdgaError("ideal generators must be homogeneous of positive degree")
            if d > view.hi:
                continue
            self.generators.append(g)
            self.gen_degrees.append(d)
        self.levels: list[list[SpanningProduct]] = []
        self._spans: dict[tuple[int, int], Echelon] = {}

    def _prune(self, products: list[SpanningProduct]) -> list[SpanningProduct]:
        echs: dict[int, Echelon] = {}
        kept = []
        for p in products:
            ech = echs.get(p.degree)
            if ech is None:
                ech = Echelon()
                echs[p.degree] = ech
            if ech.add(self.view.to_coords(p.element, p.degree)) is not None:
                kept.append(p)
        return kept

    def level(self, m: int) -> list[SpanningProduct]:
        """Pruned spanning products for the m-th power (m >= 1)."""
        if m < 1:
            raise CdgaError("ideal power level must be >= 1")
        while len(self.levels) < m:
            if not self.levels:
                first = [SpanningProduct(g, dg, (i,))
                         for i, (g, dg) in enumerate(zip(self.generators,
                                                         self.gen_degrees))]
                self.levels.append(self._prune(first))
                continue
            nxt = []
            for p in self.levels[-1]:
                # commutative up to sign: ascending factor chains suffice; and
                # g * g = 0 for an odd g, so an odd last factor does not repeat
                last = p.factors[-1]
                for i in range(last + self.gen_degrees[last] % 2,
                               len(self.generators)):
                    g, dg = self.generators[i], self.gen_degrees[i]
                    nd = p.degree + dg
                    if nd > self.view.hi or not self.view.dim(nd):
                        continue  # the product lies in a zero piece
                    el = self.view.mul(p.element, g)
                    if el.terms:
                        nxt.append(SpanningProduct(el, nd, p.factors + (i,)))
            self.levels.append(self._prune(nxt))
        return self.levels[m - 1]

    def span_echelon(self, m: int, d: int) -> Echelon:
        """Echelon of the degree-d piece of the m-th power, built once per
        (m, d); callers only read it."""
        ech = self._spans.get((m, d))
        if ech is None:
            ech = self._spans[(m, d)] = self._build_span(m, d)
        return ech

    def _build_span(self, m: int, d: int) -> Echelon:
        ech = Echelon()
        for p in self.level(m):
            if p.degree > d:
                continue
            for b in self.view.basis_elements(d - p.degree):
                el = self.view.mul(p.element, b)
                if el.terms:
                    ech.add(self.view.to_coords(el, d))
        return ech

    def nil(self) -> tuple[int, SpanningProduct | None]:
        """(largest m with a nonzero m-th power in the view, a product of it)."""
        m, witness = 0, None
        while lvl := self.level(m + 1):
            witness = lvl[0]
            m += 1
        return m, witness

    def contains(self, m: int, el: AlgebraElement, d: int) -> bool:
        return self.span_echelon(m, d).contains(self.view.to_coords(el, d))


class NilpotencyResult(NamedTuple):
    """nil = largest m with I^m != 0 inside the view's degrees, with a
    nonzero m-fold product (None when m = 0), its factors as indices into
    `generators`, and the generators that the view holds."""
    nil: int
    witness: AlgebraElement | None
    witness_factors: tuple[int, ...]
    generators: list


def nil_ideal(view: PresentationView | HomologyView,
              generators: list[AlgebraElement]) -> NilpotencyResult:
    powers = IdealPowers(view, generators)
    nil, witness = powers.nil()
    return NilpotencyResult(nil,
                            witness=witness.element if witness else None,
                            witness_factors=witness.factors if witness else (),
                            generators=list(powers.generators))


# ---------------------------------------------------------------------------
# Poincare duality


class DualityResult(NamedTuple):
    satisfied: bool
    reason: str = ""


def poincare_duality_check(H: HomologyReport, top: int) -> DualityResult:
    """Does the cup pairing H^k x H^{top-k} -> H^{top} stay nondegenerate?

    `top` must be a certified top degree: the caller is responsible for
    knowing that H vanishes above it.  The check needs the full range [0, top]
    inside the report.
    """
    if top > H.hi:
        raise RangeExceedsCap("duality check needs homology up to the top degree")
    if H.betti(top) != 1:
        return DualityResult(False, f"dim H^{top} = {H.betti(top)} != 1")
    for k in range(0, top + 1):
        bk, bo = H.betti(k), H.betti(top - k)
        if bk != bo:
            return DualityResult(False, f"betti {bk} in degree {k} vs {bo} opposite")
        if bk == 0:
            continue
        ech = Echelon()
        for r in H.representatives(k):
            row = {}
            for j, s in enumerate(H.representatives(top - k)):
                c = H.class_coords(r * s, top).get(0)
                if c:
                    row[j] = c
            ech.add(row)
        if ech.rank != bk:
            return DualityResult(False, f"degenerate pairing in degree {k}")
    return DualityResult(True)


# ---------------------------------------------------------------------------
# subcomplexes spanned inside a presentation


class _SpanComplex:
    """The subcomplex of P spanned by echelons, in echelon coordinates.

    Only the part of the protocol that betti numbers need.
    """

    def __init__(self, P: Presentation, spans: dict[int, Echelon]):
        self.P = P
        self.spans = spans
        self.cap, self.is_free = P.cap, P.is_free

    def _span(self, d: int) -> Echelon:
        return self.spans.get(d, Echelon())

    def dim(self, d: int) -> int:
        return self._span(d).rank

    def from_vector(self, d: int, vec: dict) -> AlgebraElement:
        return self.P.from_vector(d, combine(vec, self._span(d).basis()))

    def differential_vectors(self, d: int, which=None):
        P, nxt = self.P, self._span(d + 1)
        basis = self._span(d).basis()
        out = []
        for row in basis if which is None else [basis[i] for i in which]:
            img = P.d(P.from_vector(d, row))
            v = nxt.coordinates(P.to_sparse(img, d + 1))
            if v is None:
                raise CdgaError(f"differential leaves the span in degree {d}")
            out.append(v)
        return out


def span_complex_homology(P: Presentation, spans: dict[int, Echelon],
                          lo: int, hi: int) -> dict[int, int]:
    """Betti numbers of a d-stable span inside P, degrees lo..hi.

    `spans[d]` is an echelon of degree-d coordinate vectors.  Raises when the
    differential leaves the span, since then it is not a subcomplex.
    """
    return HomologyReport(_SpanComplex(P, spans), lo, hi).betti_table()
