"""Finitely presented graded-commutative differential algebras over Q.

Representation constraints:

* A monomial is a tuple ((name, exp), ...) with generators sorted by the
  canonical order (degree, name); odd generators carry exponent 1 and the
  Koszul sign of sorting a product is absorbed into the coefficient, so two
  equal elements always have equal term dictionaries.
* Elements are reduced eagerly modulo the relation ideal, whose relations
  are split once into monomial ones and the rest.  The monomial ones are
  decided by divisibility: the standard monomials, those that no monomial
  relation divides, are a basis of the free algebra modulo them, and
  reduction drops the other terms.  The rest are handled degree by degree:
  for each degree up to the cap a reduced row echelon basis of their part
  of the graded piece, over its standard monomials, is computed once and
  cached, and reduction is elimination against it.  So a presentation with
  only monomial relations builds no echelon at all.  No Groebner machinery.
* Monomials come from tables built degree by degree, never by recursion:
  the standard monomials of degree n whose first factor is the rank-r
  generator g are g^e times the standard ones of degree n - e|g| whose
  first rank is above r, kept by word length so that the canonical order
  (word length, then the (rank, exponent) pairs) needs no sort, less those
  that a relation with first factor a power of g divides (see
  _MonomialTable).  Only nonempty groups are stored or read, and only the
  groups that a requested degree reaches are built.
  The free monomials' table lives on the sign engine, which holds no
  presentation; the presentations on one generator tuple in one
  construction share it (a quotient shares its source's, a tensor assembly
  and a parsed model their scratch engine's).  A presentation with
  monomial relations builds its own table of standard monomials, which a
  quotient by non-monomial relations shares.
* In a free presentation the differential of a monomial g^e t comes from
  the memoised differentials of g^e and of its tail t; with relations it is
  one Leibniz expansion in the free algebra followed by one reduction when
  the image lies at or under the cap (see _monomial_d).  The result is
  memoised per monomial for the life of the presentation.  The memo is
  filled one monomial at a time, each image built straight into the dict
  the memo keeps; only d of an element (_derive) sums images with their
  coefficients.  Validation checks d*d = 0 through that memo (a d that
  contains a generator whose d is unknown is expanded from the stored d
  instead).  Presentation.adjoin extends a free presentation by new
  generators; the old monomials keep their d, so the extension shares the
  memo, takes the old differentials as they are (only the new ones are
  coerced and checked) and starts from the monomial groups that the new
  generators leave unchanged.  coordinates_from gives the extension's
  index of each old basis monomial, so that a vector read on the old
  basis can be re-keyed.
* A CdgaMorphism memoises each source monomial's image.  A minimal-model
  builder's successive chain maps, one per adjoin, share that memo and the
  memo of generator powers, the way the sources share d's memo: an adjoin
  keeps the old generators and their images.
* A presentation carries an explicit degree cap.  Graded pieces up to the cap
  are faithful; operations that would need information beyond the cap raise
  RangeExceedsCap instead of answering silently.

A coefficient is an int when it is integral and a fractions.Fraction when
its reduced denominator is above 1; floats never appear.  Coefficients enter
in that form (`_coerce_coeff`, the parser, linalg's exits), and the hot loops
do no normalisation pass, so an int times a Fraction that happens to be
integral may stay a Fraction: it compares, hashes and prints like the int.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import inf
from typing import Iterable, Mapping, NamedTuple

from .linalg import Echelon, Rational

Monomial = tuple  # tuple[tuple[str, int], ...]

# ---------------------------------------------------------------------------
# errors


class CdgaError(Exception):
    """Base class for all algebra-level failures."""


class DegreeMismatch(CdgaError):
    pass


class Inhomogeneous(CdgaError):
    pass


class NotSquareZero(CdgaError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class IdealNotClosed(CdgaError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PresentationMismatch(CdgaError):
    pass


class NotFree(CdgaError):
    pass


class RangeExceedsCap(CdgaError):
    pass


class NotSimplyConnected(CdgaError):
    pass


class NotSurjective(CdgaError):
    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class NotQuasiIso(CdgaError):
    pass


# ---------------------------------------------------------------------------
# generators and the sign engine


class Generator:
    """A named generator of degree >= 1; equal to, and hashed as, any
    generator with the same name and degree.  Never changed once built."""

    __slots__ = ("name", "degree")

    def __init__(self, name: str, degree: int):
        if not isinstance(degree, int) or degree < 1:
            raise DegreeMismatch(f"generator {name!r} must have degree >= 1")
        self.name = name
        self.degree = degree

    def __eq__(self, other):
        if other.__class__ is not Generator:
            return NotImplemented
        return self.name == other.name and self.degree == other.degree

    def __hash__(self):
        return hash((self.name, self.degree))

    def __repr__(self):
        return f"Generator(name={self.name!r}, degree={self.degree!r})"

    @property
    def odd(self) -> bool:
        return self.degree % 2 == 1


class _SignEngine:
    """Monomial arithmetic bound to a fixed generator list, and the table of
    its free monomials (`free`)."""

    def __init__(self, generators: tuple[Generator, ...]):
        self.generators = generators
        by_rank = sorted(generators, key=lambda g: (g.degree, g.name))
        self.by_rank = tuple(by_rank)
        self.rank = {g.name: i for i, g in enumerate(by_rank)}
        self.degree_of = {g.name: g.degree for g in generators}
        self.odd_of = {g.name: g.degree % 2 == 1 for g in generators}
        self._degrees: dict[Monomial, int] = {}
        self.free = _MonomialTable(self)

    # -- basic monomial data

    def mono_degree(self, m: Monomial) -> int:
        """The degree of m, memoised per monomial for the life of the engine."""
        d = self._degrees.get(m)
        if d is None:
            d = self._degrees[m] = sum(self.degree_of[n] * e for n, e in m)
        return d

    def word_length(self, m: Monomial) -> int:
        return sum(e for _, e in m)

    def mono_key(self, m: Monomial):
        return (self.word_length(m), tuple((self.rank[n], e) for n, e in m))

    def sort_terms(self, terms: Mapping[Monomial, Rational]):
        return sorted(terms.items(), key=lambda t: (self.mono_degree(t[0]), self.mono_key(t[0])))

    def resort(self, pairs) -> tuple[int, Monomial]:
        """(sign, monomial): the distinct factors `pairs` in rank order, the
        sign paying for the odd factors moved past each other."""
        rank = self.rank
        odd = [rank[n] for n, _ in pairs if self.odd_of[n]]
        inv = sum(1 for i in range(len(odd)) for j in range(i + 1, len(odd))
                  if odd[i] > odd[j])
        return (-1 if inv % 2 else 1), tuple(sorted(pairs, key=lambda p: rank[p[0]]))

    # -- multiplication with Koszul signs

    def mul_mono(self, m1: Monomial, m2: Monomial):
        """Product of normal-form monomials: (sign, monomial) or None if zero.

        One merge of the two rank-sorted tuples.  Each odd factor of m2 moves
        left past the odd factors of m1 of higher rank, one sign flip per
        such pair.  The pairs are counted as the merge places each odd factor
        of m1: it flips the sign once per odd factor of m2 placed before it,
        and `below` is the parity of those.  A generator in both is added
        up, or ends the product when it is odd.
        """
        if not m1:
            return 1, m2
        if not m2:
            return 1, m1
        rank, odd_of = self.rank, self.odd_of
        below = 0
        sign = 1
        out = []
        i, size = 0, len(m1)
        for n2, e2 in m2:
            r2 = rank[n2]
            while i < size:
                f = m1[i]
                if rank[f[0]] >= r2:
                    break
                out.append(f)
                if below and odd_of[f[0]]:
                    sign = -sign
                i += 1
            if i < size and m1[i][0] == n2:
                if odd_of[n2]:
                    return None
                out.append((n2, m1[i][1] + e2))
                i += 1
            else:
                if odd_of[n2]:
                    below ^= 1
                out.append((n2, e2))
        if i < size:
            if below:
                for n1, _ in m1[i:]:
                    if odd_of[n1]:
                        sign = -sign
            out.extend(m1[i:])
        return sign, tuple(out)

    def raw_mul(self, t1: Mapping[Monomial, Rational], t2: Mapping[Monomial, Rational]):
        out: dict[Monomial, Rational] = {}
        for m1, c1 in t1.items():
            for m2, c2 in t2.items():
                sm = self.mul_mono(m1, m2)
                if sm is None:
                    continue
                sign, mono = sm
                c = out.get(mono, 0) + sign * c1 * c2
                if c:
                    out[mono] = c
                elif mono in out:
                    del out[mono]
        return out

    def leibniz_terms(self, m: Monomial, values: Mapping[str, Mapping[Monomial, Rational]]):
        """The Leibniz terms of d(m), m = f1...fs, for the differential d
        with generator values `values`: one (k, f1..f_{j-1}, d(f_j),
        f_{j+1}..fs) per position j with d(f_j) != 0, where k is the exponent
        of f_j times the sign (-1)^{|f1..f_{j-1}|}.
        """
        prefix_deg = 0
        for i, (name, exp) in enumerate(m):
            img = values.get(name)
            if img:
                k = exp if prefix_deg % 2 == 0 else -exp
                hole = ((name, exp - 1),) if exp > 1 else ()
                yield k, m[:i], img, hole + m[i + 1:]
            prefix_deg += self.degree_of[name] * exp

    def leibniz(self, terms: Mapping[Monomial, Rational],
                values: Mapping[str, Mapping[Monomial, Rational]]) -> dict:
        """Free-algebra image of `terms` under the differential with
        generator values `values`, unreduced."""
        out: dict[Monomial, Rational] = {}
        for m, c in terms.items():
            for k, prefix, img, suffix in self.leibniz_terms(m, values):
                coeff = c * k
                for v, cv in img.items():
                    left = self.mul_mono(prefix, v)
                    if left is None:
                        continue
                    right = self.mul_mono(left[1], suffix)
                    if right is None:
                        continue
                    mono = right[1]
                    val = out.get(mono, 0) + left[0] * right[0] * coeff * cv
                    if val:
                        out[mono] = val
                    elif mono in out:
                        del out[mono]
        return out

    # -- free monomials

    def free_monomials(self, d: int) -> tuple[Monomial, ...]:
        """All normal-form monomials of degree d, canonically ordered."""
        return self.free.monomials(d)

    def extended(self, gens: tuple[Generator, ...]) -> "_SignEngine":
        """The engine on these generators followed by `gens`, starting from
        the groups of this engine's free table that `gens` leave unchanged
        (_MonomialTable.extended)."""
        ext = _SignEngine(self.generators + gens)
        ext.free = self.free.extended(ext, min(g.degree for g in gens))
        return ext


class _MonomialTable:
    """The standard monomials of each degree, canonically ordered: the
    normal-form monomials that no monomial of `relations` divides, every one
    of them when there is no relation.  They are a basis of the free algebra
    modulo the ideal of those monomials, and reduction modulo it only drops
    the other terms.

    A monomial g^e t, with g of rank r its first factor and t its tail, is
    standard exactly when t is and no relation g^a s with a <= e has s
    dividing t: a relation with a higher first rank would divide t.  So the
    tables are built as the free ones are (_grow), g^e times the standard
    tails of higher rank, and a product is dropped when e reaches the least
    such a (`_least`, read from a trie of the relations' tails per first
    rank, so no relation whose tail cannot divide t is looked at).  The
    table holds no engine, only its rank data.
    """

    def __init__(self, engine: _SignEngine, relations: Iterable[Monomial] = ()):
        self.by_rank = engine.by_rank
        self.relations = tuple(relations)
        self._rank_degrees = tuple(g.degree for g in self.by_rank)
        # rank r -> the least degree of a monomial g_r * (higher ranks)
        self._pair_degrees = tuple(a + b for a, b in zip(self._rank_degrees,
                                                          self._rank_degrees[1:]))
        # rank r -> the trie of the tails s of the relations g_r^a s
        self._tries: dict[int, dict] = {}
        for m in self.relations:
            (name, a), tail = m[0], m[1:]
            node = self._tries.setdefault(engine.rank[name], {})
            for factor in tail:
                node = node.setdefault(factor[0], {}).setdefault(factor[1], {})
            node[None] = min(a, node.get(None, a))
        # degree -> its nonempty groups (rank, {word length: monomials}),
        # highest rank first; degree -> the lowest rank built there
        self._groups: dict[int, list[tuple[int, dict]]] = {}
        self._low: dict[int, int] = {}
        self._monomials: dict[int, tuple[Monomial, ...]] = {0: ((),)}
        self._positions: dict[int, dict[Monomial, int]] = {}

    def monomials(self, d: int) -> tuple[Monomial, ...]:
        """The standard monomials of degree d, canonically ordered."""
        if d < 0:
            return ()
        cached = self._monomials.get(d)
        if cached is None:
            self._grow(d)
            built = self._groups.get(d, ())
            lengths = sorted({w for _, group in built for w in group})
            cached = tuple(m for w in lengths for _, group in reversed(built)
                           for m in group.get(w, ()))
            self._monomials[d] = cached
        return cached

    def index(self, d: int) -> dict[Monomial, int]:
        """Position of each monomial in monomials(d)."""
        index = self._positions.get(d)
        if index is None:
            index = {m: i for i, m in enumerate(self.monomials(d))}
            self._positions[d] = index
        return index

    def _grow(self, d: int) -> None:
        """Build every group that degree d's monomials are made of.

        Group (n, r) holds the standard monomials of degree n whose first
        factor is a power g^e of the rank-r generator, by word length, each
        list in the canonical order: g^e times each standard monomial of
        degree n - e|g| whose first rank is above r, for e ascending and
        those monomials in their own order, less the products a relation
        divides (_group).  So a group is built from groups of higher ranks
        only, and degree n's canonical order is its groups' lists by word
        length, then by rank.

        Ranks are sorted by degree, so g^e has a tail of first rank above r
        only when n - e|g| is at least the degree of rank r + 1
        (_tail_exponents), and a rank r with |g_r| + |g_{r+1}| > n holds at
        most g^e alone (_power): no other rank or exponent is looked at.  A
        degree keeps only its nonempty groups, highest rank first, and the
        lowest rank built there (at each degree the built groups are those
        of the highest ranks, and ranks whose generator lies above the
        degree count as built), so a group reads only nonempty tails.  The
        degrees are scheduled from d downwards, each with the lowest rank it
        is asked for, and built upwards: no recursion, no dead ends, and
        only the (degree, rank) groups that d reaches.
        """
        gens, groups, low = self.by_rank, self._groups, self._low
        want = {d: 0}
        for n in range(d, 0, -1):
            if n not in want:
                continue
            cut = min(bisect_right(self._pair_degrees, n), self._built_from(n))
            for r in range(want[n], cut):
                for e in self._tail_exponents(r, n):
                    m = n - e * gens[r].degree
                    want[m] = min(want.get(m, r + 1), r + 1)
        for n in sorted(want):
            top, bottom = self._built_from(n), want[n]
            if bottom >= top:
                continue
            built = groups.get(n, [])
            cut = bisect_right(self._pair_degrees, n)
            for r in reversed(range(bottom, top)):
                if r >= cut and _power(gens[r], n) is None:
                    continue
                group = self._group(n, r)
                if group:
                    built.append((r, group))
            if built:
                groups[n] = built
            low[n] = bottom

    def _built_from(self, n: int) -> int:
        """The lowest rank whose group of degree n is built (or empty
        because its generator lies above n); groups of higher rank are too."""
        top = self._low.get(n)
        return bisect_right(self._rank_degrees, n) if top is None else top

    def _tail_exponents(self, r: int, n: int) -> range:
        """The exponents e >= 1 of the rank-r generator g whose tail degree
        n - e|g| is at least the degree of rank r + 1, the least degree with
        a monomial of first rank above r (none for the last rank)."""
        degrees = self._rank_degrees
        if r + 1 == len(degrees):
            return range(0)
        return _exponents(self.by_rank[r], n - degrees[r + 1])

    def _group(self, n: int, r: int) -> dict[int, list]:
        """Group (n, r), from the nonempty groups of rank above r at its tail
        degrees, which are built (see _grow), less the products that a
        relation with first rank r divides."""
        g = self.by_rank[r]
        trie = self._tries.get(r)
        group: dict[int, list] = {}
        for e in self._tail_exponents(r, n):
            head = (g.name, e)
            for s, tails in reversed(self._groups.get(n - e * g.degree, ())):
                if s > r:
                    for length, monos in tails.items():
                        if trie is not None:
                            monos = [m for m in monos if e < _least(trie, m)]
                            if not monos:
                                continue
                        group.setdefault(length + e, []).extend([(head,) + m for m in monos])
        e = _power(g, n)
        if e is not None and (trie is None or e < _least(trie, ())):
            group.setdefault(e, []).append(((g.name, e),))
        return group

    def extended(self, engine: _SignEngine, low: int) -> "_MonomialTable":
        """The free table of `engine`, whose generators are this table's
        followed by new ones of degree >= low, starting from the groups
        that the new generators leave as they are; the rest is built by
        _grow, which visits only nonempty groups, so it costs what it
        outputs.  Each degree's list of groups is copied, since either
        table may add lower ranks to it.

        Below low no new generator appears and the old ranks are unchanged,
        so everything there carries over.  When the new generators also
        rank above every old one, as hit_and_kill adjoins them, so does
        each old group (n, r) with n - |g_r| < low, whose tails lie below
        low: at n < 2 low those of the ranks r with |g_r| > n - low.  There
        a new rank's group is its generator alone, as a tail of it would be
        new and of degree >= low."""
        ext = _MonomialTable(engine)
        ext._groups = {n: list(built) for n, built in self._groups.items() if n < low}
        ext._low = {n: r for n, r in self._low.items() if n < low}
        ext._monomials = {d: t for d, t in self._monomials.items() if d < low}
        ext._positions = {d: t for d, t in self._positions.items() if d < low}
        old = len(self.by_rank)
        if engine.by_rank[:old] != self.by_rank:
            return ext
        new = list(enumerate(engine.by_rank[old:], old))
        for n, bottom in self._low.items():
            if low <= n < 2 * low:
                keep = max(bottom, bisect_right(self._rank_degrees, n - low))
                built = [(r, {1: [((g.name, 1),)]}) for r, g in reversed(new) if g.degree == n]
                built += [(r, group) for r, group in self._groups.get(n, ()) if r >= keep]
                if built:
                    ext._groups[n] = built
                ext._low[n] = keep
        return ext


def _least(node: dict, t: Monomial, start: int = 0):
    """The least exponent a stored in the trie `node` under a path whose
    factors divide t[start:], or math.inf.  Each path is a relation's tail
    s, rank by rank, so a factor of s is looked for only among the later
    factors of t."""
    best = node.get(None, inf)
    for i in range(start, len(t)):
        name, f = t[i]
        ways = node.get(name)
        if ways:
            for b, child in ways.items():
                if b <= f:
                    a = _least(child, t, i + 1)
                    if a < best:
                        best = a
    return best


def _exponents(g: Generator, n: int) -> range:
    """The exponents e >= 1 with g^e nonzero and of degree <= n."""
    top = n // g.degree
    return range(1, (min(top, 1) if g.odd else top) + 1)


def _power(g: Generator, n: int) -> int | None:
    """The e >= 1 with g^e nonzero and of degree n, or None."""
    e, rest = divmod(n, g.degree)
    return e if e and not rest and (e == 1 or not g.odd) else None


def _coerce_coeff(c) -> Rational:
    """c in the coefficient normal form: an int, or a Fraction whose
    denominator is above 1."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise CdgaError(f"coefficient {c!r} is not an exact rational")


# ---------------------------------------------------------------------------
# presentation


class Presentation:
    """A finitely presented cdga (Lambda(generators)/(relations), d).

    `relations` are homogeneous elements of the free algebra.  The basis of
    each degree is its standard monomials (those that no single-term
    relation divides) less the pivots of the other relations' echelon over
    them; the quotient of a free algebra by monomials alone needs no
    echelon.  `differentials`
    maps generator names to images (missing names mean zero).  `cap` bounds
    the degrees in which the presentation is faithful; validation (d*d = 0,
    ideal closure under d) is performed in all degrees it can reach below the
    cap and the outcome is recorded in `validated_notes`.
    """

    def __init__(self, generators, cap: int, *, relations=(), differentials=None,
                 simply_connected: bool = True, validate: bool = True,
                 extra_d_unknown=(), _engine: _SignEngine | None = None,
                 _diff_raw: Mapping[str, dict] | None = None,
                 _table: _MonomialTable | None = None):
        gens = tuple(g if isinstance(g, Generator) else Generator(*g) for g in generators)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise CdgaError("duplicate generator names")
        if cap < 1:
            raise CdgaError("cap must be >= 1")
        self.generators = gens
        self.cap = int(cap)
        self.simply_connected = bool(simply_connected)
        # presentations on one generator tuple may share one engine, and so
        # its monomial tables; the engine holds no presentation
        self._ctx = _SignEngine(gens) if _engine is None else _engine
        if simply_connected:
            low = [g.name for g in gens if g.degree < 2]
            if low:
                raise NotSimplyConnected(
                    f"degree-1 generators {low} require simply_connected=False")

        self.relations: tuple[dict, ...] = tuple(self._coerce_terms(r) for r in relations)
        for r in self.relations:
            d = self._homogeneous_degree(r)
            if d is None or d < 1:
                raise Inhomogeneous("relations must be homogeneous of positive degree")
            if d > self.cap:
                raise RangeExceedsCap(f"relation of degree {d} exceeds cap {self.cap}")

        # the monomial relations are decided by the standard monomial table
        # (a presentation with the same ones may hand in its `_table`); the
        # others by one echelon per degree over its standard monomials
        monomial = [next(iter(r)) for r in self.relations if len(r) == 1]
        self._others = tuple(r for r in self.relations if len(r) > 1)
        if _table is None:
            _table = _MonomialTable(self._ctx, monomial) if monomial else self._ctx.free
        self._table = _table
        self._ideal: dict[int, Echelon] = {}
        self._basis: dict[int, tuple[Monomial, ...]] = {}
        self._index: dict[int, dict[Monomial, int]] = {}
        # the factors of a tensor-like assembly (_build_combined), else ();
        # the sum of their tops when every one is certified, else None
        self._parts: tuple[Presentation, ...] = ()
        self._parts_top: int | None = None

        diffs = dict(differentials or {})
        self.d_unknown: frozenset[str] = frozenset()
        # differentials already coerced and checked (Presentation.adjoin)
        # are taken as they are; only `differentials` is checked here
        self._diff_raw: dict[str, dict] = dict(_diff_raw or {})
        unknown = set()
        for name in extra_d_unknown:
            if name not in self._ctx.degree_of:
                raise CdgaError(f"unknown generator {name!r} in extra_d_unknown")
            unknown.add(name)
        for name, img in diffs.items():
            if name not in self._ctx.degree_of:
                raise CdgaError(f"differential given for unknown generator {name!r}")
            raw = self._coerce_terms(img)
            if not raw:
                continue
            deg = self._homogeneous_degree(raw)
            want = self._ctx.degree_of[name] + 1
            if deg != want:
                raise DegreeMismatch(
                    f"d({name}) must be homogeneous of degree {want}, got {deg}")
            if self.relations and deg > self.cap:
                unknown.add(name)
                self._diff_raw[name] = raw
            else:
                self._diff_raw[name] = self.reduce_raw(raw)
        self.d_unknown = frozenset(unknown)
        # d's values and memo are plain data with no reference back here, so
        # no reference cycle keeps a presentation alive after its last use
        self._d_values = {n: t for n, t in self._diff_raw.items() if n not in unknown}
        self._d_memo: dict[Monomial, dict] = {}
        self.validated_notes: list[str] = []
        if validate:
            self._validate()

    # -- coercion helpers

    def _coerce_terms(self, x) -> dict:
        """Accept elements, raw dicts, or (monomial-spec, coeff) pairs."""
        if isinstance(x, AlgebraElement):
            return dict(x.terms)
        if isinstance(x, Mapping):
            out = {}
            for mono, c in x.items():
                sign, mono = self._coerce_mono(mono)
                c = sign * _coerce_coeff(c)
                if not c:
                    continue
                out[mono] = out.get(mono, 0) + c
            return {m: c for m, c in out.items() if c}
        raise CdgaError(f"cannot interpret {x!r} as an algebra element")

    def _coerce_mono(self, mono) -> tuple[int, Monomial]:
        """Normalize a monomial spec; the sign pays for resorting odd factors."""
        if isinstance(mono, str):
            mono = ((mono, 1),)
        pairs = []
        for n, e in mono:
            if n not in self._ctx.degree_of:
                raise CdgaError(f"unknown generator {n!r}")
            if e < 0:
                raise CdgaError("negative exponent")
            if e == 0:
                continue
            if self._ctx.odd_of[n] and e > 1:
                raise CdgaError(f"odd generator {n!r} with exponent {e}")
            pairs.append((n, e))
        if len({n for n, _ in pairs}) != len(pairs):
            raise CdgaError("repeated generator in monomial spec")
        return self._ctx.resort(pairs)

    def _homogeneous_degree(self, terms: Mapping) -> int | None:
        degs = {self._ctx.mono_degree(m) for m in terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise Inhomogeneous(f"element mixes degrees {sorted(degs)}")
        return degs.pop()

    # -- ideal reduction

    @property
    def is_free(self) -> bool:
        return not self.relations

    def free_monomials(self, d: int) -> tuple[Monomial, ...]:
        return self._ctx.free_monomials(d)

    def _ideal_echelon(self, d: int) -> Echelon:
        """The echelon of the non-monomial relations' part of the degree-d
        ideal, over the standard monomials: rows rel * s for standard s with
        the other terms dropped.  A product with a non-standard monomial
        lies in the ideal of the monomial relations, so these rows span the
        ideal modulo it; the pivots of the whole ideal over the free
        monomials are the non-standard ones and these."""
        ech = self._ideal.get(d)
        if ech is not None:
            return ech
        ctx, table = self._ctx, self._table
        index = table.index(d)
        ech = Echelon()
        for rel in self._others:
            e = ctx.mono_degree(next(iter(rel)))
            if e > d:
                continue
            for m in table.monomials(d - e):
                row = {}
                for mono, c in ctx.raw_mul({m: 1}, rel).items():
                    i = index.get(mono)
                    if i is not None:
                        row[i] = c
                if row:
                    ech.add(row)
        self._ideal[d] = ech
        return ech

    def _pivots(self, d: int):
        """The pivots of degree d's echelon of non-monomial relations."""
        return self._ideal_echelon(d).pivots if self._others else ()

    def _above_parts_top(self, d: int) -> bool:
        """Is degree d above the certified top of a tensor-like assembly?

        The assembly's quotient is the tensor product of its parts', so it
        vanishes above the sum of their tops: no monomial there is in the
        basis, and neither the degree's standard monomials nor its echelon
        is built.
        """
        return self._parts_top is not None and d > self._parts_top

    def basis(self, d: int) -> tuple[Monomial, ...]:
        """Canonical monomial basis of the degree-d piece of the quotient:
        the standard monomials that are not pivots of the echelon of the
        other relations."""
        cached = self._basis.get(d)
        if cached is not None:
            return cached
        if d < 0:
            result: tuple = ()
            self._basis[d] = result
            self._index[d] = {}
            return result
        if d == 0:
            result = ((),)
            self._basis[d] = result
            self._index[d] = {(): 0}
            return result
        if not self.is_free and d > self.cap:
            raise RangeExceedsCap(
                f"degree {d} exceeds cap {self.cap} of a presentation with relations")
        if self._above_parts_top(d):
            result = ()
            index: dict = {}
        else:
            result = self._table.monomials(d)
            index = self._table.index(d)
            pivots = self._pivots(d)
            if pivots:
                result = tuple(m for i, m in enumerate(result) if i not in pivots)
                index = {m: i for i, m in enumerate(result)}
        self._basis[d] = result
        self._index[d] = index
        return result

    def dim(self, d: int) -> int:
        return len(self.basis(d))

    def reduce_raw(self, terms: Mapping[Monomial, Rational]) -> dict:
        """Canonical representative of a free-algebra element modulo the ideal.

        The terms come out degree by degree, each degree in the order of its
        free monomials, as elimination against each degree's ideal echelon
        over the free monomials would leave them.  When every term is
        standard, none sits at a pivot of its degree's echelon of the other
        relations and none lies above the cap, elimination would change no
        coefficient, so the terms are only put in that order: zero
        coefficients dropped and an integral Fraction written as its int,
        as the elimination writes them.  A term above an assembly's
        certified top (_above_parts_top) and under the cap is dropped, as
        elimination there would drop it.
        """
        if self.is_free or not terms:
            return dict(terms)
        ctx, cap, table = self._ctx, self.cap, self._table
        seen: dict[int, tuple] = {}  # degree -> (standard index, other pivots)
        keyed = []
        for m, c in terms.items():
            d = ctx.mono_degree(m)
            look = seen.get(d)
            if look is None:
                if d > cap:
                    return self._eliminate(terms)
                if self._above_parts_top(d):
                    continue  # the term is zero in the quotient
                look = seen[d] = (table.index(d), self._pivots(d))
            i = look[0].get(m)
            if i is None or i in look[1]:
                return self._eliminate(terms)
            if c:
                keyed.append((d, i, m, c))
        keyed.sort()  # (degree, index) is one monomial's, so m is never compared
        return {m: c.numerator if c.denominator == 1 else c for _, _, m, c in keyed}

    def _eliminate(self, terms: Mapping[Monomial, Rational]) -> dict:
        """reduce_raw in every degree of the terms: the non-standard terms
        are dropped and the rest reduced by the degree's echelon of the
        other relations, if any.  For monomial relations J and others R,
        the echelon of J + R over the free monomials has the non-standard
        monomials and the pivots of R modulo J as its pivots, so this is
        elimination against it, term for term."""
        by_degree: dict[int, dict] = {}
        for m, c in terms.items():
            by_degree.setdefault(self._ctx.mono_degree(m), {})[m] = c
        out: dict[Monomial, Rational] = {}
        for d, part in sorted(by_degree.items()):
            if d > self.cap:
                raise RangeExceedsCap(
                    f"degree {d} exceeds cap {self.cap} of a presentation with relations")
            if self._above_parts_top(d):
                continue
            monos, index = self._table.monomials(d), self._table.index(d)
            vec = {}
            for m, c in part.items():
                i = index.get(m)
                if i is not None and c:
                    vec[i] = c
            if self._others:
                red = self._ideal_echelon(d).reduce(vec)
            else:  # as `reduce` writes the terms: in order, normalised
                red = {i: vec[i].numerator if vec[i].denominator == 1 else vec[i]
                       for i in sorted(vec)}
            for i, c in red.items():
                out[monos[i]] = c
        return out

    # -- element factory

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {(): 1})

    def gen(self, name: str) -> "AlgebraElement":
        if name not in self._ctx.degree_of:
            raise CdgaError(f"unknown generator {name!r}")
        return AlgebraElement(self, self.reduce_raw({((name, 1),): 1}))

    def element(self, spec) -> "AlgebraElement":
        return AlgebraElement(self, self.reduce_raw(self._coerce_terms(spec)))

    def monomial(self, mono) -> "AlgebraElement":
        sign, m = self._coerce_mono(mono)
        return AlgebraElement(self, self.reduce_raw({m: sign}))

    def from_vector(self, d: int, vec: dict) -> "AlgebraElement":
        """The degree-d element with coordinates `vec`, a dict from basis
        index to coefficient."""
        basis = self.basis(d)
        return AlgebraElement(self, {basis[i]: _coerce_coeff(c) for i, c in vec.items() if c})

    def to_sparse(self, el: "AlgebraElement", d: int) -> dict[int, Rational]:
        """The nonzero coordinates of a degree-d element, by basis index."""
        if el.pres is not self:
            raise PresentationMismatch("element belongs to a different presentation")
        self.basis(d)
        index = self._index[d]
        out = {}
        for m, c in el.terms.items():
            i = index.get(m)
            if i is None:
                if self._ctx.mono_degree(m) != d:
                    raise DegreeMismatch(f"element is not concentrated in degree {d}")
                i = index[m]
            out[i] = c
        return out

    # -- differential

    def d(self, el: "AlgebraElement") -> "AlgebraElement":
        bad = {n for m, _ in el.terms.items() for n, _e in m if n in self.d_unknown}
        if bad:
            raise self._d_unknown_error(bad)
        if el.pres is not self:
            raise PresentationMismatch("element belongs to a different presentation")
        return AlgebraElement(self, _derive(self, self._d_values, self._d_memo, el.terms))

    def adjoin(self, gens, diffs) -> "Presentation":
        """This free presentation with the generators `gens` [(name, degree)]
        and their differentials `diffs` {name: element} added, unvalidated.

        Adjoining generators changes neither the d of an old monomial nor the
        monomials below the lowest new degree, so the result shares this
        presentation's memo of d and starts from its monomial tables there.
        The old differentials are already coerced and degree-checked, so the
        result takes them as they are, in their order; only `diffs` is
        coerced and checked, with the errors a fresh build would raise.  An
        old generator's differential cannot change, since the memo of d is
        shared.
        """
        if not self.is_free:
            raise NotFree("only a free presentation can be extended")
        gens = tuple(g if isinstance(g, Generator) else Generator(*g) for g in gens)
        if not gens:
            return self
        old = sorted(name for name in diffs if name in self._ctx.degree_of)
        if old:
            raise CdgaError(f"adjoin cannot change the differential of {old}")
        ext = Presentation(self.generators + gens, self.cap, differentials=diffs,
                           simply_connected=all(g.degree >= 2 for g in gens)
                           and self.simply_connected,
                           validate=False, extra_d_unknown=self.d_unknown,
                           _engine=self._ctx.extended(gens), _diff_raw=self._diff_raw)
        ext._d_memo = self._d_memo
        return ext

    def differential_vectors(self, d: int, which=None) -> list[dict[int, Rational]]:
        """Images under d of the degree-d basis, or of its elements at the
        indices `which` in that order, as sparse degree-(d+1) vectors.

        Each row is the memoised image of its basis monomial (see _monomial_d),
        read into basis indices in the image's own term order, as
        to_sparse(self.d(monomial), d + 1) gives it, and with the same
        errors in the same order: a generator in d_unknown raises d's
        RangeExceedsCap, then the image, then the degree-(d+1) basis may
        raise theirs.  Only the listed monomials are looked at.  A d_unknown
        generator is one whose d lies above the cap, so its degree is at
        least the cap: inside a homology range (hi + 1 <= cap) no monomial
        holds one.
        """
        memo, unknown = self._d_memo, self.d_unknown
        basis = self.basis(d)
        index = None
        rows = []
        for mono in basis if which is None else [basis[i] for i in which]:
            if unknown:
                bad = {n for n, _ in mono if n in unknown}
                if bad:
                    raise self._d_unknown_error(bad)
            img = memo.get(mono)
            if img is None:
                img = _monomial_d(self, self._d_values, memo, mono)
            if index is None:
                self.basis(d + 1)
                index = self._index[d + 1]
            rows.append({index[m]: c for m, c in img.items()})
        return rows

    def coordinates_from(self, older: "Presentation", d: int) -> list[int] | None:
        """For this presentation or one that it extends by adjoin, `older`:
        the index here of each degree-d basis monomial of `older`, or None
        when the degree-d basis is unchanged.  An adjoin keeps every old
        monomial, so an unchanged dimension means an unchanged basis."""
        old = older.basis(d)
        if len(old) == self.dim(d):
            return None
        index = self._index[d]
        return [index[m] for m in old]

    def _d_unknown_error(self, names) -> RangeExceedsCap:
        return RangeExceedsCap(f"differential of generators {sorted(names)} "
                               f"is not representable under cap {self.cap}")

    def check_cycle(self, el: "AlgebraElement") -> None:
        img = self.d(el)
        if img.terms:
            raise CdgaError(f"element {el} is not a cycle: d gives {img}")

    def d_raw(self, terms: Mapping) -> dict:
        """Leibniz expansion in the free algebra, no reduction (used for closure checks)."""
        return self._ctx.leibniz(terms, self._diff_raw)

    # -- validation

    def _validate(self):
        for name, raw in self._diff_raw.items():
            if name in self.d_unknown:
                self.validated_notes.append(f"d({name}) stored unreduced beyond cap")
                continue
            gdeg = self._ctx.degree_of[name]
            if not self.is_free and gdeg + 2 > self.cap:
                self.validated_notes.append(f"d*d({name}) unchecked beyond cap")
                continue
            if self.d_unknown and any(n in self.d_unknown for m in raw for n, _ in m):
                # a generator whose d is unknown has no value in d's values,
                # so this d*d is expanded from the stored d and not memoised
                dd = self.reduce_raw(self.d_raw(raw))
            else:
                dd = _derive(self, self._d_values, self._d_memo, raw)
            if dd:
                raise NotSquareZero(f"d(d({name})) != 0", witness=name)
        for rel in self.relations:
            e = self._ctx.mono_degree(next(iter(rel)))
            if e + 1 > self.cap:
                self.validated_notes.append("relation differential unchecked beyond cap")
                continue
            if any(n in self.d_unknown for m in rel for n, _ in m):
                self.validated_notes.append(
                    "relation involves a generator with unrepresentable differential")
                continue
            image = self.d_raw(rel)
            if self.reduce_raw(image):
                raise IdealNotClosed(
                    "differential of a relation is not in the ideal", witness=rel)

    # -- structural predicates

    def sullivan_order(self) -> tuple[str, ...] | None:
        """A nilpotence ordering of the generators, or None if there is none.

        Round r holds, by degree then name, the generators whose d involves
        only generators of earlier rounds and one of round r - 1.  One pass
        over the generators counts each one's unplaced dependencies; placing
        a round counts down those of the generators whose d involves it.  A
        generator left with a count above zero lies on a cycle of
        dependencies, or its d involves a name that is not a generator.
        """
        if not self.is_free:
            return None
        waiting: dict[str, int] = {}   # generator -> dependencies not placed
        users: dict[str, list[str]] = {}
        for g in self.generators:
            deps = {dep for m in self._diff_raw.get(g.name, {}) for dep, _ in m}
            waiting[g.name] = len(deps)
            for dep in deps:
                users.setdefault(dep, []).append(g.name)
        placed: list[str] = []
        rnd = [n for n, k in waiting.items() if not k]
        while rnd:
            rnd.sort(key=lambda n: (self._ctx.degree_of[n], n))
            placed += rnd
            nxt = []
            for dep in rnd:
                for n in users.get(dep, ()):
                    waiting[n] -= 1
                    if not waiting[n]:
                        nxt.append(n)
            rnd = nxt
        return tuple(placed) if len(placed) == len(waiting) else None

    @property
    def is_sullivan(self) -> bool:
        return self.sullivan_order() is not None

    @property
    def is_minimal_sullivan(self) -> bool:
        if not self.is_free or not self.is_sullivan:
            return False
        for raw in self._diff_raw.values():
            for m in raw:
                if self._ctx.word_length(m) < 2:
                    return False
        return True

    def top_degree_if_finite(self) -> int | None:
        """Certified top nonzero degree, or None when finiteness is not certified.

        Free and all generators odd certifies top = sum of degrees.  Otherwise a
        window of empty graded pieces of length max generator degree, fully
        inside the cap, certifies that everything above the window vanishes.

        A tensor-like assembly of parts (_build_combined) whose tops are all
        certified has dims the convolution of theirs, so its top t is their
        sum (_parts_top), and no gap below t is as long as the largest
        generator degree.  The window scan then returns t exactly when t plus
        that degree is at most the cap, and there t is returned without
        building the pieces.  A part that is free on an even generator of
        degree e makes every e-th piece of the assembly nonzero, and e is at
        most the window, so no window is empty and the answer is None before
        any piece is built.
        """
        if not self.generators:
            return 0
        degs = [g.degree for g in self.generators]
        if self.is_free:
            if all(g.odd for g in self.generators):
                return sum(degs)
            return None
        maxdeg = max(degs)
        if any(_free_on_an_even(P) for P in self._parts):
            return None
        if self._parts_top is not None and self._parts_top + maxdeg <= self.cap:
            return self._parts_top
        top = 0
        run = 0
        for d in range(1, self.cap + 1):
            if self.dim(d):
                top = d
                run = 0
            else:
                run += 1
                if run >= maxdeg:
                    return top
        return None

    def __repr__(self):
        rel = f", {len(self.relations)} relations" if self.relations else ""
        return (f"Presentation({[g.name for g in self.generators]}, cap={self.cap}{rel})")


# ---------------------------------------------------------------------------
# elements


class AlgebraElement:
    """A reduced element of a presentation.  Immutable by convention."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres: Presentation, terms: dict):
        self.pres = pres
        self.terms = terms

    def _check(self, other):
        if not isinstance(other, AlgebraElement):
            raise PresentationMismatch(f"cannot combine element with {other!r}")
        if other.pres is not self.pres:
            raise PresentationMismatch("elements belong to different presentations")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return AlgebraElement(self.pres, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) - c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return AlgebraElement(self.pres, out)

    def __neg__(self):
        return AlgebraElement(self.pres, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce_coeff(other)
            if not c:
                return self.pres.zero()
            return AlgebraElement(self.pres, {m: c * v for m, v in self.terms.items()})
        self._check(other)
        raw = self.pres._ctx.raw_mul(self.terms, other.terms)
        return AlgebraElement(self.pres, self.pres.reduce_raw(raw))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise CdgaError("negative power")
        out = self.pres.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.pres is other.pres and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    __hash__ = None

    def degree(self) -> int | None:
        """Degree of a homogeneous element (None for 0)."""
        return self.pres._homogeneous_degree(self.terms)

    def homogeneous_components(self) -> dict:
        ctx = self.pres._ctx
        out: dict[int, dict] = {}
        for m, c in self.terms.items():
            out.setdefault(ctx.mono_degree(m), {})[m] = c
        return {d: AlgebraElement(self.pres, t) for d, t in sorted(out.items())}

    def d(self) -> "AlgebraElement":
        return self.pres.d(self)

    def __repr__(self):
        return format_element(self)


def format_element(el: AlgebraElement) -> str:
    """Render an element in the input-language expression syntax."""
    if not el.terms:
        return "0"
    parts = []
    for mono, coeff in el.pres._ctx.sort_terms(el.terms):
        factors = [f"{n}^{e}" if e > 1 else n for n, e in mono]
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if not parts:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# the differential


def _derive(pres: Presentation, raw: Mapping[str, Mapping[Monomial, Rational]],
            memo: dict, terms: Mapping[Monomial, Rational]) -> dict:
    """The terms of d(terms) for the differential of `pres` with generator
    values `raw`: the sum over `terms` of the monomials' images in `memo`,
    each filled in first by _monomial_d when missing."""
    out: dict[Monomial, Rational] = {}
    for m, c in terms.items():
        img = memo.get(m)
        if img is None:
            img = _monomial_d(pres, raw, memo, m)
        for mono, v in img.items():
            val = out.get(mono, 0) + c * v
            if val:
                out[mono] = val
            elif mono in out:
                del out[mono]
    return out


def _monomial_d(pres: Presentation, raw: Mapping[str, Mapping[Monomial, Rational]],
                memo: dict, m: Monomial) -> dict:
    """Store the terms of d(m) as memo[m], for an m that is missing from
    `memo`, and return them.

    In a free presentation a monomial m = g^e t, with g its first factor,
    takes its image from those of g^e and of its tail t:

        d(m) = d(g^e) t + (-1)^{e|g|} g^e d(t),

    and a missing factor image is stored first, so that a tail already in
    the memo (an adjoin lineage shares it) is never expanded again.  The
    power g^e alone is one Leibniz expansion.  The image is built directly
    into the dict that the memo keeps; no copy of it is summed.

    With relations, d(f1...fs) = sum_j (-1)^{|f1..f_{j-1}|} (f1..f_{j-1})
    d(f_j) (f_{j+1}..fs) is expanded in the free algebra, then reduced once.
    Up to the cap this equals the sum of products of reduced factors,
    because the relations span an ideal.  Above the cap a term is formed
    factor by factor, reducing after each product: it is 0 if a partial
    product vanishes at or under the cap and raises RangeExceedsCap
    otherwise.
    """
    ctx = pres._ctx
    free = pres.is_free
    if free and len(m) > 1:
        head, tail = m[:1], m[1:]
        head_d = memo.get(head)
        if head_d is None:
            head_d = _monomial_d(pres, raw, memo, head)
        tail_d = memo.get(tail)
        if tail_d is None:
            tail_d = _monomial_d(pres, raw, memo, tail)
        g, e = m[0]
        odd = e * ctx.degree_of[g] % 2
        mul = ctx.mul_mono
        products = [(mul(v, tail), a) for v, a in head_d.items()]
        products += [(mul(head, v), -a if odd else a) for v, a in tail_d.items()]
        img = {}
        for prod, a in products:
            if prod is None:
                continue
            k, mono = prod
            if k < 0:
                a = -a
            old = img.get(mono)
            if old is not None:
                a += old
                if not a:
                    del img[mono]
                    continue
            img[mono] = a
    elif free:
        img = ctx.leibniz({m: 1}, raw)
    elif ctx.mono_degree(m) > pres.cap - 1:
        _check_above_cap(pres, raw, m)
        img = {}
    else:
        img = pres.reduce_raw(ctx.leibniz({m: 1}, raw))
    memo[m] = img
    return img


def _check_above_cap(pres: Presentation, raw, m: Monomial):
    """Raise RangeExceedsCap unless every term of d(m), whose degree is
    above the cap, vanishes as a product of reduced factors."""
    ctx = pres._ctx
    for _, prefix, img, suffix in ctx.leibniz_terms(m, raw):
        left = pres.reduce_raw(ctx.raw_mul(pres.reduce_raw({prefix: 1}), img))
        pres.reduce_raw(ctx.raw_mul(left, pres.reduce_raw({suffix: 1})))


# ---------------------------------------------------------------------------
# morphisms


class CdgaMorphism:
    """An algebra map determined by generator images; missing images are zero."""

    def __init__(self, source: Presentation, target: Presentation,
                 images: Mapping[str, AlgebraElement], *, check: bool = True, name: str = ""):
        self.source = source
        self.target = target
        self.name = name
        imgs: dict[str, AlgebraElement] = {}
        for n, el in images.items():
            if n not in source._ctx.degree_of:
                raise CdgaError(f"image given for unknown generator {n!r}")
            if isinstance(el, AlgebraElement):
                if el.pres is not target:
                    raise PresentationMismatch(f"image of {n} lives outside the target")
            else:
                el = target.element(el)
            if el:
                imgs[n] = el
        self.images = imgs
        # source monomial -> its image; (generator, exponent) -> the power
        self._memo: dict[Monomial, AlgebraElement] = {}
        self._powers: dict[tuple[str, int], AlgebraElement] = {}
        if check:
            self._validate()

    def image_of(self, name: str) -> AlgebraElement:
        return self.images.get(name, self.target.zero())

    def apply_raw(self, terms: Mapping[Monomial, Rational]) -> AlgebraElement:
        """The image of the free-algebra element `terms`.

        A monomial's image is formed factor by factor, reducing after each
        product: image(m[:j+1]) = image(m[:j]) * image(g_j)^{e_j}, with the
        power formed as img**e.  Each is memoised on the morphism, so a
        monomial, a prefix of one or a power is multiplied out once.  Above
        the target's cap a product is 0 when a partial product vanished at
        or under the cap, and raises RangeExceedsCap otherwise; a generator
        with no image ends the product before its later factors are formed.
        A product that raised is not memoised, so it raises again.
        """
        out = self.target.zero()
        for m, c in terms.items():
            piece = self._monomial_image(m)
            if piece:
                out = out + piece * c
        return out

    def _monomial_image(self, m: Monomial) -> AlgebraElement:
        img = self._memo.get(m)
        if img is not None:
            return img
        if not m:
            return self.target.one()
        prefix = self._monomial_image(m[:-1])
        n, e = m[-1]
        gen = self.images.get(n)
        if gen is None or any(k not in self.images for k, _ in m[:-1]):
            img = self.target.zero()
        else:
            power = self._powers.get((n, e))
            if power is None:
                power = self._powers[(n, e)] = gen ** e
            img = prefix * power
        self._memo[m] = img
        return img

    def apply(self, el: AlgebraElement) -> AlgebraElement:
        if el.pres is not self.source:
            raise PresentationMismatch("element is not in the source")
        return self.apply_raw(el.terms)

    def __call__(self, el: AlgebraElement) -> AlgebraElement:
        return self.apply(el)

    def _validate(self):
        src, tgt = self.source, self.target
        for n, el in self.images.items():
            want = src._ctx.degree_of[n]
            if el.degree() != want:
                raise DegreeMismatch(f"image of {n} must have degree {want}")
        for rel in src.relations:
            d = src._ctx.mono_degree(next(iter(rel)))
            if d > tgt.cap and not tgt.is_free:
                continue
            if self.apply_raw(rel):
                raise CdgaError("morphism does not kill a source relation")
        for n, gdeg in src._ctx.degree_of.items():
            if n in src.d_unknown or (gdeg + 1 > tgt.cap and not tgt.is_free):
                continue
            lhs = self.apply_raw(src._diff_raw.get(n, {}))
            img = self.image_of(n)
            if any(nn in tgt.d_unknown for m in img.terms for nn, _ in m):
                continue
            rhs = tgt.d(img)
            if lhs != rhs:
                raise CdgaError(
                    f"not a chain map on generator {n}: phi(d{n}) = {lhs}, d(phi {n}) = {rhs}")

    def is_surjective_up_to(self, hi: int) -> int | None:
        """First degree <= hi where the image misses the target, or None."""
        for d in range(0, hi + 1):
            tdim = self.target.dim(d)
            if tdim == 0:
                continue
            ech = Echelon()
            for m in self.source.basis(d):
                img = self.apply_raw({m: 1})
                if img:
                    ech.add(self.target.to_sparse(img, d))
                if ech.rank == tdim:
                    break
            if ech.rank < tdim:
                return d
        return None

    def __repr__(self):
        return f"CdgaMorphism({self.name or '?'}: {self.source!r} -> {self.target!r})"


def identity_morphism(P: Presentation) -> CdgaMorphism:
    return CdgaMorphism(P, P, {g.name: P.gen(g.name) for g in P.generators},
                        check=False, name="id")


# ---------------------------------------------------------------------------
# constructions on presentations


def _fresh_names(gens_a, gens_b, suffix_a: str, suffix_b: str):
    """Renaming maps that resolve collisions paper-style (a -> a1, a2)."""
    names_a = [g.name for g in gens_a]
    names_b = [g.name for g in gens_b]
    overlap = set(names_a) & set(names_b)
    used = set(names_a) | set(names_b)

    def fresh(base):
        cand = base
        while cand in used:
            cand += "_"
        used.add(cand)
        return cand

    map_a = {n: (fresh(n + suffix_a) if n in overlap else n) for n in names_a}
    for n in names_a:
        if n not in overlap:
            used.add(n)
    map_b = {n: (fresh(n + suffix_b) if n in overlap else n) for n in names_b}
    return map_a, map_b


class TensorResult(NamedTuple):
    pres: Presentation
    include_left: CdgaMorphism
    include_right: CdgaMorphism


def _build_combined(parts, cap, simply_connected):
    """Shared assembly for tensor-like constructions.

    `parts` is a list of (presentation, rename_map).  Relations and
    differentials are transported through the renaming with exact signs.
    The result records its parts and, when every part has a certified top,
    their sum, above which it vanishes (Presentation._above_parts_top).
    """
    gens = [Generator(rename[g.name], g.degree) for P, rename in parts
            for g in P.generators]
    ctx = _SignEngine(tuple(gens))
    relations = []
    diffs = {}
    unknown = []
    for P, rename in parts:
        unknown.extend(rename[n] for n in P.d_unknown if n not in P._diff_raw)
        def subst(raw):
            out: dict[Monomial, Rational] = {}
            for m, c in raw.items():
                sign, resorted = ctx.resort([(rename[n], e) for n, e in m])
                out[resorted] = out.get(resorted, 0) + sign * c
            return {m: c for m, c in out.items() if c}

        for rel in P.relations:
            relations.append(subst(rel))
        for n, raw in P._diff_raw.items():
            diffs[rename[n]] = subst(raw)
    combined = Presentation(gens, cap, relations=relations, differentials=diffs,
                            simply_connected=simply_connected,
                            extra_d_unknown=unknown, _engine=ctx)
    combined._parts = tuple(P for P, _ in parts)
    # a part free on an even generator has no top: answer before any scan
    if not any(_free_on_an_even(P) for P in combined._parts):
        tops = [P.top_degree_if_finite() for P in combined._parts]
        if None not in tops:
            combined._parts_top = sum(tops)
    return combined


def _free_on_an_even(P: Presentation) -> bool:
    return P.is_free and any(not g.odd for g in P.generators)


def tensor(A: Presentation, B: Presentation, *,
           suffixes=("1", "2"), cap: int | None = None) -> TensorResult:
    """Tensor product; the free graded-commutative structure does the signs."""
    map_a, map_b = _fresh_names(A.generators, B.generators, suffixes[0], suffixes[1])
    cap = min(A.cap, B.cap) if cap is None else cap
    sc = A.simply_connected and B.simply_connected
    combined = _build_combined([(A, map_a), (B, map_b)], cap, sc)
    inc_a = CdgaMorphism(A, combined, {n: combined.gen(m) for n, m in map_a.items()},
                         check=False, name="inl")
    inc_b = CdgaMorphism(B, combined, {n: combined.gen(m) for n, m in map_b.items()},
                         check=False, name="inr")
    return TensorResult(combined, inc_a, inc_b)


class TensorPowerResult(NamedTuple):
    pres: Presentation
    renames: tuple[dict, ...]


def tensor_power(A: Presentation, n: int, *, cap: int | None = None) -> TensorPowerResult:
    """A^{tensor n}; copy i of generator g is named g{i}."""
    if n < 1:
        raise CdgaError("tensor power needs n >= 1")
    cap = A.cap if cap is None else cap
    used: set[str] = set()
    renames = []
    for i in range(1, n + 1):
        rn = {}
        for g in A.generators:
            cand = f"{g.name}{i}"
            while cand in used:
                cand += "_"
            used.add(cand)
            rn[g.name] = cand
        renames.append(rn)
    combined = _build_combined([(A, rn) for rn in renames], cap, A.simply_connected)
    return TensorPowerResult(combined, tuple(renames))


def quotient_by_ideal(P: Presentation, ideal_gens: Iterable[AlgebraElement]):
    """Quotient presentation plus the projection morphism."""
    extra = []
    for el in ideal_gens:
        if isinstance(el, AlgebraElement):
            if el.pres is not P:
                raise PresentationMismatch("ideal generator outside the presentation")
            raw = dict(el.terms)
        else:
            raw = P._coerce_terms(el)
        if not raw:
            continue
        extra.append(raw)
    # no new monomial relation: the standard monomials stay P's
    table = None if any(len(raw) == 1 for raw in extra) else P._table
    Q = Presentation(P.generators, P.cap,
                     relations=tuple(P.relations) + tuple(extra),
                     differentials=P._diff_raw,
                     simply_connected=P.simply_connected,
                     extra_d_unknown=sorted(n for n in P.d_unknown
                                            if n not in P._diff_raw),
                     _engine=P._ctx, _table=table)
    proj = CdgaMorphism(P, Q, {g.name: Q.gen(g.name) for g in P.generators},
                        check=False, name="proj")
    return Q, proj


def sub_presentation(P: Presentation, names):
    """The sub-cdga generated by the named generators, plus its inclusion.

    Only well defined when nothing ties the kept generators to the dropped
    ones: differentials of kept generators must stay inside the kept names,
    and every relation must either live purely on the kept names (it is
    kept), or have a dropped generator in every monomial (it cannot touch the
    sub and is skipped).  A relation mixing the two kinds of monomial is
    rejected.
    """
    keep = set(names)
    unknown = keep - {g.name for g in P.generators}
    if unknown:
        raise CdgaError(f"unknown generators {sorted(unknown)!r}")
    if any(n in keep for n in P.d_unknown):
        raise CdgaError("a kept generator has an unrepresentable differential")
    gens = [g for g in P.generators if g.name in keep]
    diffs = {}
    for g in gens:
        raw = P._diff_raw.get(g.name)
        if not raw:
            continue
        if any(n not in keep for mono in raw for n, _ in mono):
            raise CdgaError(f"d {g.name} leaves the sub-presentation")
        diffs[g.name] = raw
    rels = []
    for raw in P.relations:
        pure = [m for m in raw if all(n in keep for n, _ in m)]
        if len(pure) == len(raw):
            rels.append(raw)
        elif pure:
            raise CdgaError("a relation mixes kept and dropped generators")
    sub = Presentation(gens, P.cap, relations=tuple(rels), differentials=diffs,
                       simply_connected=P.simply_connected)
    incl = CdgaMorphism(sub, P, {g.name: P.gen(g.name) for g in gens},
                        check=True, name="sub")
    return sub, incl
