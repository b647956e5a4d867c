"""Exact linear algebra over the rationals, on integer rows.

Everything downstream (ideal reduction, homology, retraction solving) runs on
these routines, so they are kept deliberately small: one reduced row echelon
store, and the solvers built on it.

* Sparse in and out.  A vector is a dict from column to nonzero rational,
  and so is every vector answered here, its columns in ascending order.
  Only `solve_sparse`'s solution also names the pivot unknowns that are 0.
* Integer rows inside.  An incoming vector is cleared to one common
  denominator once; each stored row is the primitive integer multiple of its
  canonical reduced row, with a positive pivot.  The systems are mostly +-1,
  so elimination is integer addition.
* One coefficient normal form out.  A value leaving the module is an int
  when it is integral, and a Fraction only where a denominator remains;
  floats never appear.

Because the reduced echelon basis of a subspace is unique, a vector reduced
against an `Echelon` is canonical for the span regardless of the order rows
were fed in or of how the rows are stored.  `kernel_combos` is
the one kernel routine: one elimination of the transposed matrix, with no
combination columns, reads the canonical kernel basis off directly.
`combo_solver` reduces any number of targets against one combination
echelon, and `solve_combo` is it on a single target.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = int | Fraction


def _integer_row(v: dict) -> tuple[dict[int, int], int]:
    """(w, den) with v == w / den: w holds v's nonzero entries as ints, and
    den is the least common denominator of v's entries."""
    w = {}
    den = 1
    for j, c in v.items():
        a = c.numerator
        if a:
            w[j] = a
            q = c.denominator
            if q != 1:
                den = lcm(den, q)
    if den != 1:
        w = {j: c.numerator * (den // c.denominator) for j, c in v.items() if j in w}
    return w, den


def _fraction(a: int, den: int) -> Rational:
    """a / den in the normal form: an int when den divides a."""
    return a // den if a % den == 0 else Fraction(a, den)


def _rational(w: dict[int, int], den: int) -> dict:
    """The vector w / den as it leaves the module, in ascending column order."""
    return {j: _fraction(w[j], den) for j in sorted(w)}


def _scale(row: dict[int, int], m: int) -> None:
    for j in row:
        row[j] *= m


class Echelon:
    """Incremental reduced-row-echelon store for a subspace of rational
    vectors; any int can be a column.

    Every pivot column is eliminated from all other rows, and each row is
    kept as a dict of nonzero ints, the primitive multiple of its canonical
    reduced row with a positive pivot; so `rows[i] / rows[i][lead]` is the
    canonical RREF basis of the span.  `add`, `reduce` and `contains` take
    rational vectors (see the module docstring); the module's own solvers
    feed integer rows to `_add` and `_reduce` directly.
    """

    def __init__(self):
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

    def reduce(self, v: dict) -> dict:
        """v with the span projected out (zero at every pivot)."""
        w, den = _integer_row(v)
        r, scale = self._reduce(w)
        return _rational(r, den * scale)

    def add(self, v: dict) -> int | None:
        """Insert v; return the new row's pivot column if the rank grew, else None."""
        return self._add(_integer_row(v)[0])

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v: dict) -> bool:
        return not self._reduce(_integer_row(v)[0])[0]


def combine(coeffs: dict, rows: list[dict]) -> dict:
    """sum_i coeffs[i] * rows[i]."""
    out: dict = {}
    for i, c in coeffs.items():
        for j, r in rows[i].items():
            out[j] = out.get(j, 0) + c * r
    return {j: c.numerator if c.denominator == 1 else c for j, c in sorted(out.items()) if c}


def _combination_echelon(images, width: int) -> Echelon:
    """Echelon of the rows (images[i], e_i) in Q^(width + n).

    Each row is cleared to integers, so its combination column width + i is
    the single entry den_i.
    """
    ech = Echelon()
    for i, img in enumerate(images):
        row, den = _integer_row(img)
        row[width + i] = den
        ech._add(row)
    return ech


def kernel_combos(images, width: int) -> list[dict]:
    """The canonical (reduced echelon) basis of the kernel of the linear map
    e_i -> images[i], rows {c : sum_i c_i * images[i] == 0} in Q^n,
    n = len(images), ordered by leading column.

    One `Echelon` of the transposed matrix, whose row j holds the j-th
    entries of the images, with column i stored as -i: so each reduced row
    R_p leads at its pivot p and is nonzero otherwise only at free columns
    below p.  Each free column f then gives
    z_f = e_f - sum_{p > f} (R_p[f] / R_p[p]) e_p, which leads at f and is
    zero at every other free column: the reduced echelon kernel row.  No
    combination columns are carried.  `width`, the images' dimension, is
    not needed for that.
    """
    transposed: dict[int, dict] = {}
    for i, img in enumerate(images):
        for j, c in img.items():
            transposed.setdefault(j, {})[-i] = c
    ech = Echelon()
    for row in transposed.values():
        ech.add(row)
    rows, leads, holders = ech.rows, ech._leads, ech._holders
    out = []
    for f in range(len(images)):
        if -f in ech.pivots:
            continue
        held = sorted((-leads[ri], rows[ri]) for ri in holders.get(-f, ())
                      if -f in rows[ri])
        z = {f: 1}
        for p, row in held:
            z[p] = _fraction(-row[-f], row[-p])
        out.append(z)
    return out


def combo_solver(images, width: int):
    """solve_combo for fixed images: a function from a target to one c with
    sum_i c_i * images[i] == target, or None if unsolvable.  Every target is
    reduced against one combination echelon, built here, so many targets
    cost one elimination of the images.

    Deterministic: the same echelon path always yields the same solution.
    """
    ech = _combination_echelon(images, width)

    def solve(target):
        w, den = _integer_row(target)
        r, scale = ech._reduce(w)
        if any(j < width for j in r):
            return None
        return _rational({j - width: -a for j, a in r.items()}, den * scale)
    return solve


def solve_combo(images, width: int, target):
    """One c with sum_i c_i * images[i] == target, or None if unsolvable
    (combo_solver on one target)."""
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
        self._ech = Echelon()

    def add(self, coeffs: dict, rhs: Rational) -> bool:
        """Feed one equation; False when the system has become inconsistent
        (it stays so, whatever comes after)."""
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
