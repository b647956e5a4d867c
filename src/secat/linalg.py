"""Exact linear algebra over the rationals, on integer rows.

Everything downstream (ideal reduction, homology, retraction solving) runs on
these routines, so they are kept deliberately small: one reduced row echelon
store, and the solvers built on it.

* Sparse in and out.  A vector is a dict from column to nonzero rational.
  A dense sequence is accepted too, and then a vector-valued answer
  (`Echelon.reduce`, `kernel_combos`, `kernel_span`, `solve_combo`) comes
  back dense.
  Answers indexed by an echelon's own basis (`basis`, `coordinates`) are
  lists.  Sparse answers list their columns in ascending order.
* Integer rows inside.  An incoming vector is cleared to one common
  denominator once; each stored row is the primitive integer multiple of its
  canonical reduced row, with a positive pivot.  The systems are mostly +-1,
  so elimination is integer addition.
* One coefficient normal form out.  A value leaving the module is an int
  when it is integral, and a Fraction only where a denominator remains;
  floats never appear.

Because the reduced echelon basis of a subspace is unique, representatives
extracted from an `Echelon` are canonical for the span regardless of the
order rows were fed in or of how the rows are stored.  `kernel_combos` is
the canonical kernel.  `kernel_span` is cheaper, one elimination of the
transposed matrix with no combination columns, but its basis only spans
the kernel: its one caller, the homology report, echelonizes that span
again.  `combo_solver` reduces any number of targets against one
combination echelon, and `solve_combo` is it on a single target.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = int | Fraction


def entries(v):
    """The (index, value) pairs of a vector, sparse (a dict) or dense."""
    return v.items() if isinstance(v, dict) else enumerate(v)


def dense(v: dict, width: int) -> list:
    """The sparse vector v as a dense list of `width` entries."""
    out = [0] * width
    for j, c in v.items():
        out[j] = c
    return out


def _integer_row(v) -> tuple[dict[int, int], int]:
    """(w, den) with v == w / den: w holds v's nonzero entries as ints, and
    den is the least common denominator of v's entries."""
    w = {}
    den = 1
    for j, c in entries(v):
        a = c.numerator
        if a:
            w[j] = a
            q = c.denominator
            if q != 1:
                den = lcm(den, q)
    if den != 1:
        w = {j: c.numerator * (den // c.denominator) for j, c in entries(v) if j in w}
    return w, den


def _fraction(a: int, den: int) -> Rational:
    """a / den in the normal form: an int when den divides a."""
    return a // den if a % den == 0 else Fraction(a, den)


def _rational(w: dict[int, int], den: int, width: int | None):
    """The vector w / den as it leaves the module: a dict in ascending column
    order, or a dense list when `width` is given."""
    out = {j: _fraction(w[j], den) for j in sorted(w)}
    return out if width is None else dense(out, width)


def _dense_width(v, width: int) -> int | None:
    """`width` when the caller handed in a dense vector, else None."""
    return None if isinstance(v, dict) else width


def _scale(row: dict[int, int], m: int) -> None:
    for j in row:
        row[j] *= m


class Echelon:
    """Incremental reduced-row-echelon store for a subspace of Q^width.

    Every pivot column is eliminated from all other rows, and each row is
    kept as a dict of nonzero ints, the primitive multiple of its canonical
    reduced row with a positive pivot; so `rows[i] / rows[i][lead]` is the
    canonical RREF basis of the span.  `add`, `reduce`, `contains` and
    `coordinates` take rational vectors (see the module docstring); the
    module's own solvers feed integer rows to `_add` and `_reduce` directly.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[dict[int, int]] = []
        self.pivots: dict[int, int] = {}  # pivot column -> row index
        self._leads: list[int] = []       # row index -> pivot column
        # non-pivot column -> rows that may hold it (a superset: entries
        # that cancel are not removed)
        self._holders: dict[int, set[int]] = {}

    def _reduce(self, v: dict[int, int]) -> tuple[dict[int, int], int]:
        """(w, s): a new dict w = s * v minus a combination of the rows, zero
        at every pivot, with the integer s >= 1.

        Subtracting a row changes w only at its pivot and at non-pivot
        columns, so the pivots of v can be cleared in any order, each with
        w's current entry there.  A pivot other than 1 scales w first.
        """
        out = dict(v)
        scale = 1
        pivots, rows = self.pivots, self.rows
        for col in v:
            ri = pivots.get(col)
            if ri is None:
                continue
            row = rows[ri]
            c = out[col]
            p = row[col]
            if p != 1:
                g = gcd(p, c)
                m, c = p // g, c // g
                if m != 1:
                    _scale(out, m)
                    scale *= m
            for j, rj in row.items():
                x = out.get(j, 0) - c * rj
                if x:
                    out[j] = x
                else:
                    del out[j]
        return out, scale

    def _add(self, v: dict[int, int]) -> int | None:
        """Insert v; return the new row's pivot column if the rank grew, else None."""
        r, _ = self._reduce(v)
        if not r:
            return None
        lead = min(r)
        g = gcd(*r.values())
        if r[lead] < 0:
            g = -g
        if g != 1:
            r = {j: c // g for j, c in r.items()}
        p = r[lead]
        rows, holders, leads = self.rows, self._holders, self._leads
        new = len(rows)
        for j in r:
            if j != lead:
                holders.setdefault(j, set()).add(new)
        for ri in holders.pop(lead, ()):
            row = rows[ri]
            c = row.get(lead)
            if c is None:
                continue
            if p != 1:
                g = gcd(p, c)
                m, c = p // g, c // g
                if m != 1:
                    _scale(row, m)
            for j, rj in r.items():
                x = row.get(j)
                if x is None:
                    row[j] = -c * rj
                    holders[j].add(ri)
                else:
                    x -= c * rj
                    if x:
                        row[j] = x
                    else:
                        del row[j]
            if row[leads[ri]] != 1:
                g = gcd(*row.values())
                if g != 1:
                    for j in row:
                        row[j] //= g
        self.pivots[lead] = new
        leads.append(lead)
        rows.append(r)
        return lead

    def reduce(self, v):
        """v with the span projected out (zero at every pivot)."""
        w, den = _integer_row(v)
        r, scale = self._reduce(w)
        return _rational(r, den * scale, _dense_width(v, self.width))

    def add(self, v) -> int | None:
        """Insert v; return the new row's pivot column if the rank grew, else None."""
        return self._add(_integer_row(v)[0])

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return not self._reduce(_integer_row(v)[0])[0]

    def basis(self) -> list[list[Rational]]:
        """Canonical basis rows ordered by pivot column, as dense lists."""
        return [_rational(self.rows[ri], self.rows[ri][col], self.width)
                for col, ri in sorted(self.pivots.items())]

    def coordinates(self, v) -> list[Rational] | None:
        """Coefficients of v in basis() order, or None when v is not in the span.

        Rows are RREF, so the coefficient of a basis row is just the entry of v
        at that row's pivot column.
        """
        w, den = _integer_row(v)
        if self._reduce(w)[0]:
            return None
        return [_fraction(w[col], den) if col in w else 0 for col in sorted(self.pivots)]


def combine(coeffs, rows, width: int) -> list[Rational]:
    """sum_i coeffs[i] * rows[i], a dense vector in Q^width, for dense rows
    and coefficients given as a dict or a dense list."""
    out = [0] * width
    for i, c in entries(coeffs):
        if c:
            row = rows[i]
            for j, r in enumerate(row):
                if r:
                    out[j] += c * r
    return out


def _combination_echelon(images, width: int) -> Echelon:
    """Echelon of the rows (images[i], e_i) in Q^(width + n).

    Each row is cleared to integers, so its combination column width + i is
    the single entry den_i.
    """
    ech = Echelon(width + len(images))
    for i, img in enumerate(images):
        row, den = _integer_row(img)
        row[width + i] = den
        ech._add(row)
    return ech


def kernel_combos(images, width: int) -> list:
    """Coefficient vectors c with sum_i c_i * images[i] == 0.

    `images` is a list of vectors in Q^width; the kernel of the linear map
    e_i -> images[i] is returned as echelonized combination rows, each a
    vector in Q^n in the shape of the images.
    """
    n = len(images)
    ech = _combination_echelon(images, width)
    shape = _dense_width(images[0], n) if images else None
    out = []
    for col, ri in sorted(ech.pivots.items()):
        if col >= width:
            # the pivot is the least column, so the whole row lies past width
            row = ech.rows[ri]
            out.append(_rational({j - width: a for j, a in row.items()}, row[col], shape))
    return out


def kernel_span(images) -> list:
    """Integer coefficient vectors c spanning {c : sum_i c_i * images[i] == 0},
    one per free column, in the shape of the images as kernel_combos gives
    them (the images' width is not needed).

    The basis spans the kernel, and that is its one contract: it is not the
    canonical (reduced echelon) kernel basis of kernel_combos, so a caller
    that lets the basis itself reach output must use kernel_combos.  It
    comes from one `Echelon` of the transposed matrix, whose row j holds
    the j-th entries of the images: each column f that is no pivot of its
    reduced rows R gives z_f = e_f - sum_p (R[p][f] / R[p][p]) e_p, with p
    over the pivot columns, scaled by the least common multiple of the
    R[p][p] so that its entries are ints.  No combination columns are
    carried.
    """
    n = len(images)
    transposed: dict[int, dict] = {}
    for i, img in enumerate(images):
        for j, c in entries(img):
            if c:
                transposed.setdefault(j, {})[i] = c
    ech = Echelon(n)
    for row in transposed.values():
        ech.add(row)
    shape = _dense_width(images[0], n) if images else None
    out = []
    for f in range(n):
        if f in ech.pivots:
            continue
        held = [(ech._leads[ri], ech.rows[ri]) for ri in ech._holders.get(f, ())
                if f in ech.rows[ri]]
        den = lcm(*(row[p] for p, row in held))
        z = {f: den}
        for p, row in held:
            z[p] = -row[f] * (den // row[p])
        out.append(dict(sorted(z.items())) if shape is None else dense(z, shape))
    return out


def combo_solver(images, width: int):
    """solve_combo for fixed images: a function from a target to one c with
    sum_i c_i * images[i] == target, or None if unsolvable; c has the shape
    of the target.  Every target is reduced against one combination echelon,
    built here, so many targets cost one elimination of the images.

    Deterministic: the same echelon path always yields the same solution.
    """
    ech = _combination_echelon(images, width)
    n = len(images)

    def solve(target):
        w, den = _integer_row(target)
        r, scale = ech._reduce(w)
        if any(j < width for j in r):
            return None
        return _rational({j - width: -a for j, a in r.items()}, den * scale,
                         _dense_width(target, n))
    return solve


def solve_combo(images, width: int, target):
    """One c with sum_i c_i * images[i] == target, or None if unsolvable; c
    has the shape of `target` (combo_solver on one target)."""
    return combo_solver(images, width)(target)


class LinearSystem:
    """A sparse rational linear system, solved as its equations arrive.

    Each equation sum_j coeffs[j] x_j = rhs goes into one `Echelon` as the
    row (coeffs, rhs), the right-hand side in the column `RHS`, which sorts
    after every unknown.  An echelon depends only on the relative order of
    its columns, so the pivots, rows and solution do not depend on how many
    unknowns there are, and unknowns may be numbered as equations arrive.
    The system is inconsistent exactly when the right-hand-side column is a
    pivot, that is, when an equation reduces to 0 = nonzero.
    """

    RHS = 1 << 62  # above any unknown's index

    def __init__(self):
        # nothing dense is read back, so the width is only a bound
        self._ech = Echelon(self.RHS + 1)
        self.equations = 0

    def add(self, coeffs: dict, rhs: Rational) -> bool:
        """Feed one equation; False when the system has become inconsistent
        (it stays so, whatever comes after)."""
        self.equations += 1
        row = dict(coeffs)
        if rhs:
            row[self.RHS] = rhs
        return self._ech._add(_integer_row(row)[0]) != self.RHS

    def solution(self, nunknowns: int) -> tuple[dict, list]:
        """(solution_dict, free_indices) of the consistent system over the
        unknowns 0 .. nunknowns - 1, with free unknowns pinned to 0."""
        ech = self._ech
        solution = {}
        for col, ri in sorted(ech.pivots.items()):
            row = ech.rows[ri]
            b = row.get(self.RHS)
            solution[col] = 0 if b is None else _fraction(b, row[col])
        free = [j for j in range(nunknowns) if j not in ech.pivots]
        # pinned-to-zero free variables make the recorded pivot values exact
        return solution, free


def solve_sparse(equations, nunknowns: int):
    """Solve a sparse rational linear system.

    `equations` is an iterable of (coeffs, rhs) with coeffs a dict
    {unknown_index: rational}.  Returns (solution_dict, free_indices) with
    free unknowns pinned to 0, or None when inconsistent.  The equations are
    fed to one `LinearSystem` in order, and the first one that reduces to
    0 = nonzero ends the solve: the rest are never read.
    """
    system = LinearSystem()
    for coeffs, rhs in equations:
        if not system.add(coeffs, rhs):
            return None
    return system.solution(nunknowns)
