"""Semifree differential modules over a presentation.

A module here is free over the algebra on a finite list of generators, one of
which is the unit (degree 0, zero differential).  Elements are dicts mapping
generator names to algebra coefficients; the differential acts by

    d(c . x) = d(c) . x + (-1)^{|c|} c . d(x)

with coefficients written on the left.  A module is a cochain complex in
the sense of homology.HomologyReport, so `homology(M, lo, hi)` computes its
cohomology.  Three constructions live on top:

* resolve_quotient: a semifree resolution of A / ideal, built degreewise by
  homology.hit_and_kill, together with the quasi-iso onto the quotient.
* find_module_retraction: a module chain retraction onto the base, the
  decision procedure behind the m-invariants.  RetractionSearch feeds the
  chain equations generator by generator to one incremental exact
  elimination, which stops at the first equation that reduces to
  0 = nonzero.  resolve_and_retract builds a resolution of a quotient its
  caller built, one finished degree at a time, and feeds each degree's
  equations as soon as its generators exist, so an infeasible level stops
  there and builds nothing above.
* semifree_from_relative: a relative Sullivan model seen as a semifree
  module over its base.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .linalg import LinearSystem, Rational, dense, entries
from .core import (AlgebraElement, CdgaError, CdgaMorphism, DegreeMismatch,
                   Presentation, RangeExceedsCap, quotient_by_ideal)
from .homology import hit_and_kill, homology

ModuleElement = dict  # generator name -> AlgebraElement coefficient

UNIT = "1"


def madd(m1: ModuleElement, m2: ModuleElement) -> ModuleElement:
    out = dict(m1)
    for g, c in m2.items():
        if g in out:
            s = out[g] + c
            if s.terms:
                out[g] = s
            else:
                del out[g]
        elif c.terms:
            out[g] = c
    return out


def mneg(mel: ModuleElement) -> ModuleElement:
    return {g: -c for g, c in mel.items()}


def mscale(c: AlgebraElement, mel: ModuleElement) -> ModuleElement:
    out = {}
    for g, a in mel.items():
        p = c * a
        if p.terms:
            out[g] = p
    return out


class SemiFreeModule:
    """Finitely generated semifree module over a presentation."""

    def __init__(self, base: Presentation, gens, diffs, *, check: bool = True):
        """gens: iterable of (name, degree), unit excluded (added automatically);
        diffs: name -> ModuleElement."""
        self.base = base
        self.gen_list: list[tuple[str, int]] = [(UNIT, 0)]
        seen = {UNIT}
        for name, deg in gens:
            if name in seen:
                raise CdgaError(f"duplicate module generator {name!r}")
            if deg < 0:
                raise DegreeMismatch("module generators need degree >= 0")
            seen.add(name)
            self.gen_list.append((name, deg))
        self.degree_of = dict(self.gen_list)
        self.d: dict[str, ModuleElement] = {}
        for name, mel in diffs.items():
            if name not in self.degree_of:
                raise CdgaError(f"differential for unknown module generator {name!r}")
            if name == UNIT:
                raise CdgaError("the unit generator must have zero differential")
            clean = {}
            for g, c in mel.items():
                if g not in self.degree_of:
                    raise CdgaError(f"unknown generator {g!r} in a differential")
                if not isinstance(c, AlgebraElement) or c.pres is not base:
                    raise CdgaError("module coefficients must live in the base")
                if not c.terms:
                    continue
                want = self.degree_of[name] + 1 - self.degree_of[g]
                if check and c.degree() != want:
                    raise DegreeMismatch(
                        f"coefficient of {g} in d({name}) must have degree {want}")
                clean[g] = c
            if clean:
                self.d[name] = clean
        self._blocks: dict[int, tuple[dict[str, tuple[int, int]], int]] = {}
        # d of each basis element (name, monomial), for differential_vectors
        self._d_memo: dict[tuple[str, tuple], ModuleElement] = {}

    def adjoin(self, gens, diffs) -> "SemiFreeModule":
        """This module with the generators `gens` [(name, degree)] and their
        differentials `diffs` {name: ModuleElement} added, unchecked.

        The old basis elements keep their d, so the result shares this
        module's memo of it.
        """
        ext = SemiFreeModule(self.base, self.gen_list[1:] + list(gens),
                             {**self.d, **diffs}, check=False)
        ext._d_memo = self._d_memo
        return ext

    # -- elements

    def zero(self) -> ModuleElement:
        return {}

    def gen(self, name: str) -> ModuleElement:
        if name not in self.degree_of:
            raise CdgaError(f"unknown module generator {name!r}")
        return {name: self.base.one()}

    def d_element(self, mel: ModuleElement) -> ModuleElement:
        out: ModuleElement = {}
        for g, coeff in mel.items():
            dc = self.base.d(coeff)
            if dc.terms:
                out = madd(out, {g: dc})
            dg = self.d.get(g)
            if dg:
                for deg, part in coeff.homogeneous_components().items():
                    scaled = mscale(part, dg)
                    out = madd(out, mneg(scaled) if deg % 2 else scaled)
        return out

    # -- graded pieces: the cochain-complex protocol of homology.HomologyReport

    @property
    def cap(self) -> int:
        return self.base.cap

    @property
    def is_free(self) -> bool:
        """Graded pieces are exact in every degree when the base is free."""
        return self.base.is_free

    def basis(self, n: int) -> list[tuple[str, tuple]]:
        out = []
        for name, deg in self.gen_list:
            rem = n - deg
            if rem < 0:
                continue
            for mono in self.base.basis(rem):
                out.append((name, mono))
        return out

    def _layout(self, n: int):
        """(generator -> (offset, width) of its block, total dimension) in
        degree n; generators above n have no block.  The module is immutable
        after construction, so each degree's layout is computed once."""
        layout = self._blocks.get(n)
        if layout is None:
            blocks = {}
            total = 0
            for name, deg in self.gen_list:
                if n - deg >= 0:
                    width = self.base.dim(n - deg)
                    blocks[name] = (total, width)
                    total += width
            layout = self._blocks[n] = (blocks, total)
        return layout

    def dim(self, n: int) -> int:
        return self._layout(n)[1]

    def to_sparse(self, mel: ModuleElement, n: int) -> dict[int, Rational]:
        """The nonzero coordinates of a degree-n element, by basis index."""
        blocks = self._layout(n)[0]
        out = {}
        for g, c in mel.items():
            if not c.terms:
                continue
            sub = self.base.to_sparse(c, n - self.degree_of[g])
            off = blocks[g][0]
            for i, val in sub.items():
                out[off + i] = val
        return out

    def to_vector(self, mel: ModuleElement, n: int):
        """to_sparse as a dense list."""
        return dense(self.to_sparse(mel, n), self.dim(n))

    def from_vector(self, n: int, vec) -> ModuleElement:
        """The degree-n element with coordinates `vec`, a dict from basis
        index to coefficient or a dense list."""
        vec = {j: c for j, c in entries(vec) if c}
        cols = sorted(vec)
        out: ModuleElement = {}
        for name, (off, width) in self._layout(n)[0].items():
            lo, hi = bisect_left(cols, off), bisect_left(cols, off + width)
            if lo < hi:
                out[name] = self.base.from_vector(n - self.degree_of[name],
                                                  {j - off: vec[j] for j in cols[lo:hi]})
        return out

    def basis_element(self, name: str, mono) -> ModuleElement:
        return {name: AlgebraElement(self.base, {mono: 1})}

    def differential_vectors(self, n: int):
        out = []
        for key in self.basis(n):
            img = self._d_memo.get(key)
            if img is None:
                img = self._d_memo[key] = self.d_element(self.basis_element(*key))
            out.append(self.to_sparse(img, n + 1))
        return out

    def check_cycle(self, mel: ModuleElement) -> None:
        if self.d_element(mel):
            raise CdgaError("module element is not a cycle")

    def d2_failure(self, up_to: int | None = None):
        """First generator with d(d(gen)) != 0, or None.  Adjudicates signs."""
        cap = self.base.cap
        for name, deg in self.gen_list:
            if name not in self.d:
                continue
            if not self.base.is_free and deg + 2 > cap:
                continue
            if up_to is not None and deg + 2 > up_to:
                continue
            dd = self.d_element(self.d[name])
            if dd:
                return name, dd
        return None

    def format(self, mel: ModuleElement) -> str:
        if not mel:
            return "0"
        parts = []
        for name, _ in self.gen_list:
            if name in mel:
                parts.append(f"({mel[name]}).{name}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# semifree resolution of A / ideal


@dataclass
class QuotientResolution:
    module: SemiFreeModule
    quotient: Presentation
    projection: CdgaMorphism             # A -> quotient
    eps: dict                            # module gen -> element of the quotient
    valid_up_to: int
    notes: list[str] = field(default_factory=list)

    def eps_apply(self, mel: ModuleElement) -> AlgebraElement:
        out = self.quotient.zero()
        for g, c in mel.items():
            img = self.eps.get(g)
            if img is None or not img.terms:
                continue
            out = out + self.projection.apply(c) * img
        return out


def _resolution_by_degree(proj: CdgaMorphism, H_Q, E: int):
    """resolve_quotient's construction, one finished degree at a time, for
    the projection proj: A -> Q onto the quotient and H_Q = homology(Q, 0, E).

    Yields the resolution once before degree 1 and then after each finished
    degree, with `module` the module built so far, unchecked.
    """
    Q = proj.target
    res = QuotientResolution(SemiFreeModule(proj.source, (), {}), Q, proj,
                             {UNIT: Q.one()}, E)

    def chain_map(X, eps):
        res.eps = eps
        return res.eps_apply

    yield res
    for res.module, res.eps in hit_and_kill(H_Q, 1, E, res.module,
                                            chain_map, ("r", "r"), res.eps, CdgaError):
        yield res


def _checked(res: QuotientResolution) -> QuotientResolution:
    """res with every generator built so far checked: its module is rebuilt
    with the coefficient-degree check, and d^2 = 0 is checked."""
    M = res.module
    res.module = SemiFreeModule(M.base, M.gen_list[1:], M.d, check=True)
    bad = res.module.d2_failure(up_to=res.valid_up_to + 1)
    if bad is not None:
        raise CdgaError(f"resolution differential fails d^2 = 0 on {bad[0]}")
    return res


def resolve_quotient(A: Presentation, ideal_elements, E: int) -> QuotientResolution:
    """Semifree resolution of A/(ideal_elements), exact in degrees <= E
    when A has no degree-1 elements.

    Built like a minimal model, by homology.hit_and_kill: in each degree
    first new generators with zero differential hit unreached quotient
    classes, then generators are added to kill module classes that die in
    the quotient.  Generator names are r{degree}_{i}.  The builder starts
    at degree 1, so a degree-0 kill generator is never adjoined: over a
    base with degree-1 elements a class such as t.1 in Lambda(t: 1, x: 2)/(t)
    can survive in the module although it dies in the quotient.
    """
    if not A.is_free and E + 1 > A.cap:
        raise RangeExceedsCap(f"resolution up to {E} needs cap >= {E + 1}")
    Q, proj = quotient_by_ideal(A, ideal_elements)
    for res in _resolution_by_degree(proj, homology(Q, 0, E), E):
        pass  # the whole resolution: keep the last degree's
    return _checked(res)


# ---------------------------------------------------------------------------
# module retraction: the decision procedure for the m-invariants


@dataclass
class RetractionResult:
    values: dict                        # gen name -> AlgebraElement in the base
    free_unknowns: int
    equations: int
    checked_up_to: int


class RetractionSearch:
    """The chain equations of a module chain map r: module -> base with
    r(unit) = 1, fed to one `LinearSystem` generator by generator.

    Unknowns are the coefficients of r(x) over the degree-|x| basis of the
    base for every generator of degree <= E; the chain equations r(dx) =
    d(r(x)) are imposed for every generator with |x| + 1 <= E, one equation
    per degree-(|x|+1) basis monomial.  Generators are fed in `gen_list`
    order, each batch numbering its unknowns before it builds its
    equations.  A module fed after another must extend it (adjoin does), so
    feeding a module all at once or a growing module batch by batch gives
    the same system in the same order.
    """

    def __init__(self, base: Presentation, E: int):
        if not base.is_free:
            E = min(E, base.cap - 1)
        self.base = base
        self.E = E
        self.system = LinearSystem()
        self.slots: dict[str, tuple[int, int, int]] = {}  # name -> (degree, offset, width)
        self.n_unknowns = 0
        self._fed = 1  # gen_list entries already fed; the unit has no unknowns
        self._dvecs: dict[int, list] = {}  # degree -> the base's differential rows
        # (coefficient c, degree e) -> c times each degree-e basis monomial, as
        # vectors; many generators share a coefficient in their differentials
        self._products: dict[tuple, list] = {}

    def extend(self, module: SemiFreeModule) -> bool:
        """Feed the generators of `module` that come after those fed before:
        first their unknowns, then their equations.  False at the first
        equation that reduces to 0 = nonzero: then no retraction exists, and
        no later equation is built."""
        new = module.gen_list[self._fed:]
        self._fed = len(module.gen_list)
        for name, deg in new:
            if deg <= self.E:
                width = self.base.dim(deg)
                self.slots[name] = (deg, self.n_unknowns, width)
                self.n_unknowns += width
        for name, deg in new:
            if deg + 1 <= self.E:
                for row, b in self._equations(module, name, deg):
                    if not self.system.add(row, b):
                        return False
        return True

    def _equations(self, module: SemiFreeModule, name: str, deg: int):
        """The equations (coefficients, right side) of generator `name`, in
        the order of the degree-(deg+1) basis."""
        base, E = self.base, self.E
        tdeg = deg + 1
        # degree-tdeg basis index -> the equation's unknowns and right side
        rows: dict[int, dict] = {}
        rhs: dict[int, Rational] = {}
        # d(r(x)): coefficients of the unknowns of x through the differential
        off = self.slots[name][1]
        dv = self._dvecs.get(deg)
        if dv is None:
            dv = self._dvecs[deg] = base.differential_vectors(deg)
        for i, img in enumerate(dv):
            for j, val in img.items():
                row = rows.setdefault(j, {})
                row[off + i] = row.get(off + i, 0) - val
        # r(d x) = sum over d(x) entries
        for g, c in module.d.get(name, {}).items():
            if g == UNIT:
                # r(c . unit) = c, a known contribution
                for j, val in base.to_sparse(c, tdeg).items():
                    rhs[j] = rhs.get(j, 0) - val
                continue
            gdeg = module.degree_of[g]
            if gdeg > E:
                raise RangeExceedsCap(
                    f"retraction system reaches generator {g} beyond degree {E}")
            goff = self.slots[g][1]
            key = (frozenset(c.terms.items()), gdeg)
            prods = self._products.get(key)
            if prods is None:
                prods = self._products[key] = [
                    base.to_sparse(c * AlgebraElement(base, {mono: 1}), tdeg)
                    for mono in base.basis(gdeg)]
            for i, prod in enumerate(prods):
                for j, val in prod.items():
                    row = rows.setdefault(j, {})
                    row[goff + i] = row.get(goff + i, 0) + val
        for j in sorted(rows.keys() | rhs.keys()):
            row, b = rows.get(j, {}), rhs.get(j, 0)
            if row or b:
                yield row, b

    def result(self) -> RetractionResult:
        """The retraction of the consistent system fed so far, free unknowns
        pinned to zero, so the answer is deterministic."""
        base = self.base
        solution, free = self.system.solution(self.n_unknowns)
        values = {UNIT: base.one()}
        for name, (deg, off, width) in self.slots.items():
            values[name] = base.from_vector(
                deg, {i: solution[off + i] for i in range(width) if off + i in solution})
        return RetractionResult(values, len(free), self.system.equations, self.E)


def find_module_retraction(module: SemiFreeModule, E: int) -> RetractionResult | None:
    """A module chain map r: module -> base with r(unit) = 1, or None.

    The chain equations of every generator (see `RetractionSearch`) are fed
    to one exact elimination in `gen_list` order, and the first equation
    that reduces to 0 = nonzero ends the search with None.
    """
    search = RetractionSearch(module.base, E)
    return search.result() if search.extend(module) else None


def resolve_and_retract(proj: CdgaMorphism, H_Q, E: int
                        ) -> tuple[SemiFreeModule, RetractionResult | None]:
    """find_module_retraction(resolve_quotient(A, ideal_elements, E).module, E),
    stopped at the first contradiction, where proj: A -> Q is the projection
    onto Q = A/(ideal_elements) and H_Q = homology(Q, 0, E).

    The caller builds the quotient and its homology, so a level whose
    quotient was already built for another question is not built again.
    The resolution is built one finished degree at a time, and after each
    degree the equations of its new generators are fed to the search.  When
    one reduces to 0 = nonzero, nothing above that degree is built.  Returns
    the module as far as it was built, whole when a retraction was found,
    with every generator checked as resolve_quotient checks them, and the
    retraction or None.  A feasible level feeds the same equations in the
    same order as the two calls, so its retraction is the same.
    """
    search = RetractionSearch(proj.source, E)
    for res in _resolution_by_degree(proj, H_Q, E):
        if not search.extend(res.module):
            return _checked(res).module, None
    return _checked(res).module, search.result()


def verify_module_retraction(module: SemiFreeModule, values: dict, E: int):
    """Independent re-check of the retraction equations; returns None or a
    (generator, discrepancy) pair."""
    base = module.base
    unit_val = values.get(UNIT)
    if unit_val is None or unit_val != base.one():
        return UNIT, "unit is not sent to 1"

    def apply(mel: ModuleElement) -> AlgebraElement:
        out = base.zero()
        for g, c in mel.items():
            rg = values.get(g)
            if rg is None:
                gdeg = module.degree_of[g]
                if gdeg > E:
                    continue
                return None
            out = out + c * rg
        return out

    for name, deg in module.gen_list:
        if name == UNIT or deg + 1 > E:
            continue
        rx = values.get(name)
        if rx is None:
            return name, "no value assigned"
        if rx.terms and rx.degree() != deg:
            return name, "value has the wrong degree"
        lhs = apply(module.d.get(name, {}))
        if lhs is None:
            return name, "differential reaches an unassigned generator"
        rhs = base.d(rx)
        if lhs != rhs:
            return name, f"r(dx) = {lhs} but d(r(x)) = {rhs}"
    return None


# ---------------------------------------------------------------------------
# relative models as semifree modules over their base


def semifree_from_relative(total: Presentation, base_names, hat_names,
                           base: Presentation, *, cap: int | None = None) -> SemiFreeModule:
    """View (base ox Lambda(hats), D) as a semifree base-module.

    Module generators are the hat monomials up to the cap; the unit is the
    empty monomial.  Splitting a total monomial into base part times hat part
    costs the parity of odd hat factors moved across odd base factors.
    """
    cap = total.cap if cap is None else cap
    base_set = set(base_names)
    hat_set = set(hat_names)

    def split(mono):
        """monomial of total -> (sign, base monomial, hat monomial)."""
        base_part, hat_part = [], []
        odd_hats_seen = 0
        parity = 0
        for n, e in mono:
            if n in hat_set:
                if total._ctx.odd_of[n]:
                    odd_hats_seen += e
                hat_part.append((n, e))
            else:
                if total._ctx.odd_of[n]:
                    parity += odd_hats_seen * e
                base_part.append((n, e))
        sign = -1 if parity % 2 else 1
        return sign, tuple(base_part), tuple(hat_part)

    def hat_monomials():
        out = {(): 0}
        for d in range(1, cap + 1):
            for mono in total.free_monomials(d):
                if mono and all(n in hat_set for n, _ in mono):
                    out[mono] = d
        return out

    hat_gens = hat_monomials()

    def hat_gen_name(mono):
        if not mono:
            return UNIT
        return "*".join(f"{n}^{e}" if e > 1 else n for n, e in mono)

    gens = [(hat_gen_name(mono), d) for mono, d in hat_gens.items() if mono]
    name_of = {mono: hat_gen_name(mono) for mono in hat_gens}

    def to_module(el: AlgebraElement) -> ModuleElement:
        out: ModuleElement = {}
        for mono, c in el.terms.items():
            sign, bpart, hpart = split(mono)
            if hpart not in name_of:
                raise RangeExceedsCap("hat monomial beyond the module cap")
            coeff = AlgebraElement(base, base.reduce_raw({bpart: sign * c}))
            out = madd(out, {name_of[hpart]: coeff})
        return out

    diffs = {}
    for mono, d in hat_gens.items():
        if not mono:
            continue
        if d + 1 > cap:
            continue  # the image would need hat monomials beyond the cap
        el = AlgebraElement(total, {mono: 1})
        img = total.d(el)
        if img.terms:
            diffs[hat_gen_name(mono)] = to_module(img)
    return SemiFreeModule(base, gens, diffs, check=True)
