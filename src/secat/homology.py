"""Cohomology of cochain complexes, induced maps, and ideal nilpotency.

HomologyReport is the one place that computes cycles, boundaries and
canonical representatives.  It works on any cochain complex X with

    X.dim(d)                      dimension of the degree-d piece
    X.to_sparse(x, d)             coordinates of a degree-d element, as a
                                  dict from basis index to coefficient
    X.from_vector(d, v)           the element with coordinates v, a dict
                                  from basis index to coefficient
    X.differential_vectors(d)     images under d of the degree-d basis, as
                                  sparse degree-(d+1) vectors
    X.check_cycle(x)              raises CdgaError unless dx = 0
    X.cap, X.is_free              the window of faithful degrees

Presentations and semifree modules implement it; the span complex behind
span_complex_homology implements the part that betti numbers need.
hit_and_kill is the one degreewise "hit the cokernel, kill the kernel"
builder behind minimal models and quotient resolutions.  It hands back the
source after each finished degree, so a caller can stop early.  It grows one
source complex through X.adjoin(gens, diffs), which keeps the old basis
and shares its memo of d, and it reuses the kill step's H^{k+1} for the
next hit step whenever the kill generators leave the degree-(k+1) piece
the same size.  That holds unless the source has degree-1 elements.

Degree conventions: for a presentation with relations the graded pieces are
faithful only up to the cap, and computing H^d needs the differential into
degree d+1, so a homology request must satisfy hi + 1 <= cap.  Free
presentations are exact in every degree and carry no such restriction.

Representatives are canonical: the basis of H^d is the reduced-echelon basis
of the cycles that vanish at every pivot of the reduced-echelon basis of the
boundaries.  Each cycle reduces modulo the boundaries to exactly one such
cycle, so this basis does not depend on enumeration order, and it is the
kernel of d on the basis elements that are not boundary pivots, lifted back
to degree d.  That kernel comes from linalg.kernel_span, one elimination of
the transposed rows, and is echelonized again; no cycle outside it is built.
The kernels whose basis reaches output (the kill cycles of hit_and_kill,
kernel_basis, induced_kernel, quotient_kernel) stay on the canonical
kernel_combos.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import Echelon, Rational, combine, combo_solver, kernel_combos, kernel_span
from .core import (AlgebraElement, CdgaError, CdgaMorphism, DegreeMismatch,
                   Presentation, RangeExceedsCap)


class HomologyReport:
    """Cohomology of a cochain complex over a degree range [lo, hi].

    The complex X is any object with the small protocol of this module's
    docstring, such as a Presentation or a SemiFreeModule.

    Degree d first echelonizes the boundaries B^d, the rows of the
    degree-(d-1) differential.  Past the first degree of the range the rank
    of B^d is known from degree d - 1, dim C^{d-1} - rank B^{d-1} - b_{d-1},
    and the echelon stops there, since the rows left out would not change
    its canonical basis; in the first degree, and so in every single-degree
    report, it stops only at rank dim C^d.  The classes are then the
    kernel_span of d restricted to the basis elements that are not pivots
    of B^d, one vector per class, lifted back and echelonized.
    """

    def __init__(self, X, lo: int, hi: int):
        if lo < 0 or hi < lo:
            raise CdgaError(f"bad homology range [{lo}, {hi}]")
        if not X.is_free and hi + 1 > X.cap:
            raise RangeExceedsCap(
                f"homology up to degree {hi} needs cap >= {hi + 1}, have {X.cap}")
        self.complex = X
        self.lo = lo
        self.hi = hi
        self._boundaries: dict[int, Echelon] = {}
        self._classes: dict[int, Echelon] = {}
        self._class_rows: dict[int, list] = {}  # _classes[d].basis(), built once
        self._reps: dict[int, list] = {}
        below = None  # the differential matrix of degree d - 1, once built
        for d in range(lo, hi + 1):
            below = self._compute_degree(d, below)

    def _compute_degree(self, d: int, below: list | None) -> list:
        """Fill in degree d from the degree-(d-1) matrix `below` (None when
        not yet built); return the degree-d differential matrix."""
        X = self.complex
        n = X.dim(d)
        if n == 0:
            self._boundaries[d] = Echelon(0)
            self._classes[d] = Echelon(0)
            self._class_rows[d] = []
            self._reps[d] = []
            return []
        matrix = X.differential_vectors(d)
        if below is None and d >= 1:
            below = X.differential_vectors(d - 1)
        # the rank of B^d is that of the degree-(d-1) differential, known once
        # degree d - 1 is in: dim C^{d-1} - dim Z^{d-1}
        full = n
        if d > self.lo:
            full = len(below) - self._boundaries[d - 1].rank - self._classes[d - 1].rank
        bech = Echelon(n)
        for v in below or ():
            if bech.rank == full:
                break
            bech.add(v)
        self._boundaries[d] = bech
        # each class has one cycle zero at every pivot of B^d: the kernel of d
        # on the other basis elements, lifted back to degree d
        free = [i for i in range(n) if i not in bech.pivots]
        hech = Echelon(n)
        for z in kernel_span([matrix[i] for i in free]):
            hech.add({free[j]: c for j, c in z.items()})
        self._classes[d] = hech
        self._class_rows[d] = hech.basis()
        self._reps[d] = [X.from_vector(d, row) for row in self._class_rows[d]]
        return matrix

    def _check_range(self, d: int):
        if d < self.lo or d > self.hi:
            raise RangeExceedsCap(
                f"degree {d} outside computed homology range [{self.lo}, {self.hi}]")

    def betti(self, d: int) -> int:
        self._check_range(d)
        return self._classes[d].rank

    def betti_table(self) -> dict[int, int]:
        return {d: self._classes[d].rank for d in range(self.lo, self.hi + 1)}

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
        coords = self._classes[d].coordinates(v)
        if coords is None:
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


def homology(X, lo: int = 0, hi: int | None = None) -> HomologyReport:
    if hi is None:
        hi = X.cap - 1 if not X.is_free else X.cap
    return HomologyReport(X, lo, hi)


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
    ech = Echelon(width)
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
        ech = Echelon(bt)
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
    source with degree-1 elements can grow there.

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
            cols = induced_matrix(phi, homology(X, k, k), H_tgt, k)
        hit = Echelon(H_tgt.betti(k))
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
        H_src = homology(X, k + 1, k + 1)
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


def kernel_ideal_generators(phi: CdgaMorphism, hi: int,
                            degrees: set[int] | None = None) -> list[AlgebraElement]:
    """A finite ideal generating set for ker phi in degrees <= hi.

    Degrees ascend; in each degree the span of products of the generators
    found so far is eliminated first, so only genuinely new kernel directions
    become generators.  Every returned element is verified to map to zero.

    The products lie in ker phi, an ideal, so once their span has the rank of
    ker_d it is ker_d: no further product is formed, and every kernel basis
    element reduces to 0 as it would against the full span.

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
    P, B = phi.source, phi.target
    b_hi = B.cap if B.is_free else B.cap - 1
    gens: list[AlgebraElement] = []
    for d in range(1, hi + 1):
        if degrees is not None and d not in degrees:
            continue
        n = P.dim(d)
        if n == 0:
            continue
        kernel = kernel_basis(phi, d)
        span = Echelon(n)
        for g in gens:
            if span.rank == len(kernel):
                break
            e = g.degree()
            if e is None or e > d:
                continue
            for mono in P.basis(d - e):
                prod = g * AlgebraElement(P, {mono: 1})
                if prod.terms:
                    span.add(P.to_sparse(prod, d))
                    if span.rank == len(kernel):
                        break
        for el in kernel:
            v = span.reduce(P.to_sparse(el, d))
            red = P.from_vector(d, v)
            if red.terms:
                # beyond b_hi the target vanishes (kernel_basis checked), so
                # re-applying phi there is neither possible nor needed
                if d <= b_hi and phi.apply(red).terms:
                    raise CdgaError("kernel reduction produced a non-kernel element")
                gens.append(red)
                span.add(P.to_sparse(red, d))
    return gens


# ---------------------------------------------------------------------------
# graded views: a common face for "the algebra itself" and "its homology"


class GradedView:
    """Graded vector-space access with multiplication, degrees 0..hi."""

    hi: int

    def dim(self, d: int) -> int:
        raise NotImplementedError

    def basis_elements(self, d: int) -> list[AlgebraElement]:
        raise NotImplementedError

    def to_coords(self, el: AlgebraElement, d: int):
        """Coordinates of a degree-d element: a dict from basis index to
        coefficient."""
        raise NotImplementedError

    def mul(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        raise NotImplementedError

    def one(self) -> AlgebraElement:
        raise NotImplementedError


class PresentationView(GradedView):
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

    def mul(self, a, b):
        return a * b

    def one(self):
        return self.pres.one()


class HomologyView(GradedView):
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

    def mul(self, a, b):
        prod = a * b
        if not prod.terms:
            return prod
        return self.H.reduce(prod)

    def one(self):
        return self.H.reduce(self.pres.one(), 0)


# ---------------------------------------------------------------------------
# ideal powers and nilpotency inside a view


@dataclass
class SpanningProduct:
    element: AlgebraElement
    degree: int
    factors: tuple[int, ...]  # indices into the generating set


class IdealPowers:
    """Incremental spanning data for powers of an ideal inside a view.

    Level m keeps a pruned list of m-fold products of the generators; the
    degree-d piece of the m-th power is spanned by (product * basis element)
    over the lower-degree view basis.  Pruning keeps only products that grow
    the echelon of the products themselves, which never shrinks the module
    span.  Every kept product carries its factor chain for witnesses.
    """

    def __init__(self, view: GradedView, generators: list[AlgebraElement]):
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
                ech = Echelon(self.view.dim(p.degree))
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
            prev = self.levels[-1]
            nxt = []
            for p in prev:
                for i, (g, dg) in enumerate(zip(self.generators, self.gen_degrees)):
                    if i < p.factors[-1]:
                        continue  # commutative up to sign: ordered factor chains suffice
                    nd = p.degree + dg
                    if nd > self.view.hi:
                        continue
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
        ech = Echelon(self.view.dim(d))
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


@dataclass
class NilpotencyResult:
    """nil = largest m with I^m != 0 inside degrees <= range_hi.

    `range_relative` is False only when the ambient graded space is certified
    to vanish above range_hi, making the value absolute.
    """
    nil: int
    range_hi: int
    range_relative: bool
    witness: AlgebraElement | None = None
    witness_factors: tuple[int, ...] = ()
    generators: list = field(default_factory=list)


def nil_ideal(view: GradedView, generators: list[AlgebraElement],
              *, range_relative: bool = True) -> NilpotencyResult:
    powers = IdealPowers(view, generators)
    nil, witness = powers.nil()
    return NilpotencyResult(nil, view.hi, range_relative,
                            witness=witness.element if witness else None,
                            witness_factors=witness.factors if witness else (),
                            generators=list(powers.generators))


def positive_part_generators(view: GradedView) -> list[AlgebraElement]:
    """Basis elements of all positive degrees up to the view range."""
    out = []
    for d in range(1, view.hi + 1):
        out.extend(view.basis_elements(d))
    return out


# ---------------------------------------------------------------------------
# Poincare duality


@dataclass
class DualityResult:
    satisfied: bool
    top: int
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
        return DualityResult(False, top, f"dim H^{top} = {H.betti(top)} != 1")
    for k in range(0, top + 1):
        bk, bo = H.betti(k), H.betti(top - k)
        if bk != bo:
            return DualityResult(False, top,
                                 f"betti {bk} in degree {k} vs {bo} opposite")
        if bk == 0:
            continue
        ech = Echelon(bk)
        for r in H.representatives(k):
            row = {}
            for j, s in enumerate(H.representatives(top - k)):
                c = H.class_coords(r * s, top).get(0)
                if c:
                    row[j] = c
            ech.add(row)
        if ech.rank != bk:
            return DualityResult(False, top,
                                 f"degenerate pairing in degree {k}")
    return DualityResult(True, top)


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
        return self.spans.get(d, Echelon(self.P.dim(d)))

    def dim(self, d: int) -> int:
        return self._span(d).rank

    def from_vector(self, d: int, vec: dict) -> AlgebraElement:
        return self.P.from_vector(d, combine(vec, self._span(d).basis()))

    def differential_vectors(self, d: int):
        P, nxt = self.P, self._span(d + 1)
        out = []
        for row in self._span(d).basis():
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
