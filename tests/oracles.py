"""Independent naive reimplementations used to cross-check the engine.

Everything up to the last section works on explicit words (tuples of
generator names with repetition) and dense Fraction matrices, sharing no
code with the package.  Quotients are supported for monomial relations
only, which covers every model file in the repository that has relations
at all.

The last section keeps plain loops that the engine has since shortened:
they call the engine's arithmetic, but none of its memos or early exits.
"""

import weakref
from fractions import Fraction

from secat.core import AlgebraElement, RangeExceedsCap
from secat.homology import HomologyReport, kernel_basis
from secat.linalg import Echelon, kernel_combos


# ---------------------------------------------------------------------------
# words, signs, products

def sort_word(word, odd_of):
    """Bubble-sort a word into a canonical order, counting odd swaps.

    Returns (sign, tuple) or (0, None) when an odd generator repeats.
    """
    w = list(word)
    sign = 1
    for i in range(len(w)):
        for j in range(len(w) - 1 - i):
            if w[j] > w[j + 1]:
                if odd_of[w[j]] and odd_of[w[j + 1]]:
                    sign = -sign
                w[j], w[j + 1] = w[j + 1], w[j]
    for i in range(len(w) - 1):
        if w[i] == w[i + 1] and odd_of[w[i]]:
            return 0, None
    return sign, tuple(w)


def mul_words(w1, w2, odd_of):
    return sort_word(tuple(w1) + tuple(w2), odd_of)


def mul_elements(e1, e2, odd_of):
    """Multiply {word: coeff} dicts."""
    out = {}
    for w1, c1 in e1.items():
        for w2, c2 in e2.items():
            sign, w = mul_words(w1, w2, odd_of)
            if sign:
                c = out.get(w, Fraction(0)) + sign * c1 * c2
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
    return out


def differentiate(element, diffs, odd_of):
    """Extend generator images by the graded Leibniz rule.

    diffs maps a generator name to a {word: coeff} element (absent = zero).
    d(g_i) takes the place of g_i inside the word, and the sign in front of
    it is the parity of the odd letters strictly before position i (the
    rule for any derivation of odd degree).
    """
    out = {}
    for word, coeff in element.items():
        for i, name in enumerate(word):
            dg = diffs.get(name)
            if not dg:
                continue
            sign = 1
            for left in word[:i]:
                if odd_of[left]:
                    sign = -sign
            before, after = word[:i], word[i + 1:]
            for w2, c2 in dg.items():
                s2, w = sort_word(before + tuple(w2) + after, odd_of)
                if not s2:
                    continue
                c = out.get(w, Fraction(0)) + sign * s2 * coeff * c2
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
    return out


# ---------------------------------------------------------------------------
# bases of monomial-relation quotients

def words_of_degree(gens, d):
    """All sorted words of total degree d; gens is [(name, degree, odd)]."""
    gens = sorted(gens)
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if idx == len(gens):
            return
        name, deg, odd = gens[idx]
        max_e = 1 if odd else remaining // deg
        for e in range(min(max_e, remaining // deg) + 1):
            rec(idx + 1, remaining - e * deg, acc + [name] * e)

    rec(0, d, [])
    return sorted(out)


def divisible(word, rel_word):
    """Does word contain rel_word as a multiset?"""
    need = {}
    for n in rel_word:
        need[n] = need.get(n, 0) + 1
    have = {}
    for n in word:
        have[n] = have.get(n, 0) + 1
    return all(have.get(n, 0) >= k for n, k in need.items())


def quotient_basis(gens, rel_words, d):
    return [w for w in words_of_degree(gens, d)
            if not any(divisible(w, r) for r in rel_words)]


def strike(element, rel_words):
    return {w: c for w, c in element.items()
            if not any(divisible(w, r) for r in rel_words)}


# ---------------------------------------------------------------------------
# free monomials in the engine's form

def free_monomials(gens, d):
    """The engine's canonical degree-d monomials on gens [(name, degree)].

    Brute force over exponent vectors (odd exponents at most 1), skipping
    only the vectors whose degree already passes d.  A generator's rank is
    its place in the (degree, name) order; a monomial is ((name, exponent),
    ...) by rank, and the list is sorted by word length, then by the tuple
    of (rank, exponent) pairs.
    """
    ranked = sorted(gens, key=lambda g: (g[1], g[0]))
    vectors = [((), 0)]  # (exponents of the first ranks, their degree)
    for _, deg in ranked:
        vectors = [(exps + (e,), used + e * deg) for exps, used in vectors
                   for e in range((min(1, (d - used) // deg) if deg % 2
                                   else (d - used) // deg) + 1)]
    found = []
    for exps, used in vectors:
        if used != d:
            continue
        pairs = [(r, e) for r, e in enumerate(exps) if e]
        found.append(((sum(exps), tuple(pairs)),
                      tuple((ranked[r][0], e) for r, e in pairs)))
    return [mono for _, mono in sorted(found)]


# ---------------------------------------------------------------------------
# dense rational linear algebra

def rref(rows):
    """Reduced row echelon form of a dense matrix of Fractions.

    Returns the nonzero rows, with unit pivots and ordered by pivot column;
    each pivot column is zero outside its row.  This is the unique RREF basis
    of the row space (works on a copy).
    """
    rows = [[Fraction(x) for x in r] for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows[:r]


def rank(rows):
    """Row rank of a dense matrix of Fractions."""
    return len(rref(rows))


def betti_numbers(gens, diffs, rel_words, hi):
    """Betti numbers of the quotient complex in degrees 0..hi.

    gens: [(name, degree, odd)]; diffs: name -> {word: coeff};
    rel_words: monomial relations as words.  Needs degree hi+1 to be a
    faithful piece of the quotient, which holds for monomial relations.
    """
    odd_of = {n: o for n, _, o in gens}
    bases = {d: quotient_basis(gens, rel_words, d) for d in range(hi + 2)}

    def d_matrix(d):
        """Rows indexed by degree-d basis, columns by degree-(d+1) basis."""
        src, tgt = bases[d], bases[d + 1]
        index = {w: i for i, w in enumerate(tgt)}
        rows = []
        for w in src:
            img = strike(differentiate({w: Fraction(1)}, diffs, odd_of),
                         rel_words)
            row = [Fraction(0)] * len(tgt)
            for w2, c in img.items():
                row[index[w2]] = c
            rows.append(row)
        return rows

    ranks = {d: rank(d_matrix(d)) for d in range(hi + 1)}
    out = {}
    for d in range(hi + 1):
        out[d] = len(bases[d]) - ranks[d] - (ranks[d - 1] if d > 0 else 0)
    return out


def convolve(b1, b2, hi):
    """Degreewise dimensions of a tensor product."""
    return {d: sum(b1.get(i, 0) * b2.get(d - i, 0) for i in range(d + 1))
            for d in range(hi + 1)}


# ---------------------------------------------------------------------------
# bridge from engine elements to oracle form

def engine_to_words(terms, odd_of):
    """{engine monomial: coeff} -> {oracle word: coeff}.

    An engine monomial is a tuple of (name, exponent) pairs in the engine's
    canonical order; expanding it in that order and then oracle-sorting the
    word keeps the sign conventions aligned.
    """
    out = {}
    for mono, c in terms.items():
        word = tuple(n for n, e in mono for _ in range(e))
        sign, w = sort_word(word, odd_of)
        assert sign != 0, "engine stored a vanishing monomial"
        s = out.get(w, Fraction(0)) + sign * c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def odd_map(pres):
    return {g.name: g.degree % 2 == 1 for g in pres.generators}


def gen_triples(pres):
    return [(g.name, g.degree, g.degree % 2 == 1) for g in pres.generators]


def diffs_of(pres):
    """Generator differentials of a presentation, in oracle form."""
    odd = odd_map(pres)
    return {name: engine_to_words(raw, odd)
            for name, raw in pres._diff_raw.items() if raw}


# ---------------------------------------------------------------------------
# the engine's plain loops, without their memos and early exits

def apply_raw_unmemoised(phi, terms):
    """CdgaMorphism.apply_raw formed afresh: each monomial factor by factor,
    piece * image(g)**e, reducing after each product."""
    out = phi.target.zero()
    for m, c in terms.items():
        piece = phi.target.one()
        for n, e in m:
            img = phi.images.get(n)
            if img is None:
                piece = phi.target.zero()
                break
            piece = piece * img ** e
        if piece:
            out = out + piece * c
    return out


def kernel_ideal_generators_full_span(phi, hi):
    """homology.kernel_ideal_generators with every product g * m in each
    degree's span, however early that span fills ker phi."""
    P = phi.source
    gens = []
    for d in range(1, hi + 1):
        n = P.dim(d)
        if n == 0:
            continue
        span = Echelon(n)
        for g in gens:
            e = g.degree()
            if e is None or e > d:
                continue
            for mono in P.basis(d - e):
                prod = g * AlgebraElement(P, {mono: 1})
                if prod.terms:
                    span.add(P.to_sparse(prod, d))
        for el in kernel_basis(phi, d):
            red = P.from_vector(d, span.reduce(P.to_sparse(el, d)))
            if red.terms:
                gens.append(red)
                span.add(P.to_sparse(red, d))
    return gens


def window_scan_top(P):
    """The top degree of a presentation with relations, from its dims: the
    last nonzero degree before a run of empty degrees as long as the largest
    generator degree, or None when no such run fits under the cap."""
    maxdeg = max(g.degree for g in P.generators)
    top, run = 0, 0
    for d in range(1, P.cap + 1):
        if P.dim(d):
            top, run = d, 0
        else:
            run += 1
            if run >= maxdeg:
                return top
    return None


def mul_mono_sorted(ctx, m1, m2):
    """_SignEngine.mul_mono by a dict and a sort: the sign counts, for each
    odd factor of m2, the odd factors of m1 of higher rank; the factors are
    merged in a dict and sorted by rank."""
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    odds1 = [ctx.rank[n] for n, _ in m1 if ctx.odd_of[n]]
    sign = 1
    if odds1:
        for n2, _ in m2:
            if ctx.odd_of[n2]:
                r2 = ctx.rank[n2]
                k = sum(1 for r1 in odds1 if r1 > r2)
                if k & 1:
                    sign = -sign
    merged = dict(m1)
    for n, e in m2:
        if n in merged:
            if ctx.odd_of[n]:
                return None
            merged[n] += e
        else:
            merged[n] = e
    return sign, tuple(sorted(merged.items(), key=lambda p: ctx.rank[p[0]]))


# degree -> the echelon of the whole ideal over the free monomials, per
# presentation, for as long as the presentation lives
_IDEAL_ECHELONS = weakref.WeakKeyDictionary()


def ideal_echelon(P, d):
    """The echelon of the degree-d piece of P's whole relation ideal over
    the free monomials: one row rel * m per relation and per free monomial
    m of the complementary degree, with no split into monomial relations
    and others."""
    cache = _IDEAL_ECHELONS.setdefault(P, {})
    ech = cache.get(d)
    if ech is None:
        ctx = P._ctx
        index = ctx.free.index(d)
        ech = Echelon(len(index))
        for rel in P.relations:
            e = ctx.mono_degree(next(iter(rel)))
            if e > d:
                continue
            for m in ctx.free_monomials(d - e):
                prod = ctx.raw_mul({m: 1}, rel)
                if prod:
                    ech.add({index[mono]: c for mono, c in prod.items()})
        cache[d] = ech
    return ech


def basis_eliminated(P, d):
    """Presentation.basis of a presentation with relations from the ideal
    echelon of degree d, in every degree up to the cap: the free monomials
    that are not pivots, whether or not d lies above a certified top."""
    if d > P.cap:
        raise RangeExceedsCap(
            f"degree {d} exceeds cap {P.cap} of a presentation with relations")
    pivots = ideal_echelon(P, d).pivots
    return tuple(m for i, m in enumerate(P.free_monomials(d)) if i not in pivots)


def reduce_raw_eliminated(P, terms):
    """Presentation.reduce_raw with elimination against the ideal echelon of
    every degree of the terms, whether or not a term sits at a pivot."""
    if P.is_free or not terms:
        return dict(terms)
    ctx = P._ctx
    by_degree = {}
    for m, c in terms.items():
        by_degree.setdefault(ctx.mono_degree(m), {})[m] = c
    out = {}
    for d, part in sorted(by_degree.items()):
        if d > P.cap:
            raise RangeExceedsCap(
                f"degree {d} exceeds cap {P.cap} of a presentation with relations")
        monos = ctx.free_monomials(d)
        index = ctx.free.index(d)
        red = ideal_echelon(P, d).reduce({index[m]: c for m, c in part.items()})
        for i, c in red.items():
            out[monos[i]] = c
    return out


class CanonicalKernelHomology(HomologyReport):
    """HomologyReport with each degree filled in from the canonical kernel:
    the cycles are kernel_combos of the differential matrix, every boundary
    row goes into the boundary echelon and every cycle, reduced, into the
    class echelon, with no early exit."""

    def _compute_degree(self, d, below):
        X = self.complex
        n = X.dim(d)
        if n == 0:
            self._boundaries[d] = Echelon(0)
            self._classes[d] = Echelon(0)
            self._class_rows[d] = []
            self._reps[d] = []
            return []
        matrix = X.differential_vectors(d)
        cycles = kernel_combos(matrix, X.dim(d + 1))
        if below is None and d >= 1:
            below = X.differential_vectors(d - 1)
        bech = Echelon(n)
        for v in below or ():
            bech.add(v)
        self._boundaries[d] = bech
        hech = Echelon(n)
        for v in cycles:
            hech.add(bech.reduce(v))
        self._classes[d] = hech
        self._class_rows[d] = hech.basis()
        self._reps[d] = [X.from_vector(d, row) for row in self._class_rows[d]]
        return matrix
