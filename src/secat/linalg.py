"""Exact linear algebra over the rationals.

Everything downstream (ideal reduction, homology, retraction solving) runs on
these routines, so they are kept deliberately small: sparse rows (one dict
from column to nonzero Fraction per row), reduced row echelon form
everywhere.  The systems are large and mostly zero, and elimination touches
only the nonzeros.  Because the reduced echelon basis of a subspace is
unique, representatives extracted from an `Echelon` are canonical for the
span regardless of the order rows were fed in or of how the rows are stored.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def zero_vector(width: int) -> list[Fraction]:
    return [ZERO] * width


def _sparse(v) -> dict[int, Fraction]:
    """The nonzero entries of a dense vector, by column.

    Dense vectors are mostly the shared ZERO of `zero_vector`; the identity
    test skips those without a call to `Fraction.__bool__`.
    """
    return {j: c for j, c in enumerate(v) if c is not ZERO and c}


class Echelon:
    """Incremental reduced-row-echelon store for a subspace of Q^width.

    Rows keep unit pivots and every pivot column is eliminated from all other
    rows, so `rows` is always the canonical RREF basis of the span.  Each row
    is a dict holding only its nonzero entries; `add`, `reduce`, `contains`,
    `coordinates` and `basis` take and return dense vectors, and the module's
    own solvers feed dict rows to `_add` and `_reduce` directly.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[dict[int, Fraction]] = []
        self.pivots: dict[int, int] = {}  # pivot column -> row index
        # non-pivot column -> rows that may hold it (a superset: entries
        # that cancel are not removed)
        self._holders: dict[int, set[int]] = {}

    def _reduce(self, v: dict[int, Fraction]) -> dict[int, Fraction]:
        """A new dict: v with the span projected out.

        Subtracting a row changes v only at its pivot and at non-pivot
        columns, so the coefficient of each row is v's original entry at the
        row's pivot and the rows can be subtracted in any order.
        """
        out = dict(v)
        pivots, rows = self.pivots, self.rows
        for col, c in v.items():
            ri = pivots.get(col)
            if ri is None:
                continue
            for j, rj in rows[ri].items():
                x = out.get(j, ZERO) - c * rj
                if x:
                    out[j] = x
                else:
                    del out[j]
        return out

    def _add(self, v: dict[int, Fraction]) -> dict[int, Fraction] | None:
        """Insert v; return the new canonical row if the rank grew, else None."""
        r = self._reduce(v)
        if not r:
            return None
        lead = min(r)
        inv = ONE / r[lead]
        r = {j: c * inv for j, c in r.items()}
        rows, holders = self.rows, self._holders
        new = len(rows)
        for j in r:
            if j != lead:
                holders.setdefault(j, set()).add(new)
        for ri in holders.pop(lead, ()):
            row = rows[ri]
            c = row.get(lead)
            if c is None:
                continue
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
        self.pivots[lead] = new
        rows.append(r)
        return r

    def _dense(self, v: dict[int, Fraction]) -> list[Fraction]:
        out = zero_vector(self.width)
        for j, c in v.items():
            out[j] = c
        return out

    def reduce(self, v) -> list[Fraction]:
        """Return a copy of v with the span projected out."""
        return self._dense(self._reduce(_sparse(v)))

    def add(self, v) -> list[Fraction] | None:
        """Insert v; return the new canonical row if the rank grew, else None."""
        r = self._add(_sparse(v))
        return None if r is None else self._dense(r)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return not self._reduce(_sparse(v))

    def basis(self) -> list[list[Fraction]]:
        """Canonical basis rows ordered by pivot column."""
        return [self._dense(self.rows[ri]) for _, ri in sorted(self.pivots.items())]

    def coordinates(self, v) -> list[Fraction] | None:
        """Coefficients of v in basis() order, or None when v is not in the span.

        Rows are RREF, so the coefficient of a basis row is just the entry of v
        at that row's pivot column.
        """
        v = _sparse(v)
        if self._reduce(v):
            return None
        return [v.get(col, ZERO) for col in sorted(self.pivots)]


def combine(coeffs, rows, width: int) -> list[Fraction]:
    """sum_i coeffs[i] * rows[i], a vector in Q^width."""
    out = zero_vector(width)
    for c, row in zip(coeffs, rows):
        if c:
            for j, r in enumerate(row):
                if r:
                    out[j] += c * r
    return out


def _combination_echelon(images, width: int) -> Echelon:
    """Echelon of the rows (images[i], e_i) in Q^(width + n).

    The combination column width + i starts as the single entry 1 of row i,
    so it is stored sparsely like every other column.
    """
    ech = Echelon(width + len(images))
    for i, img in enumerate(images):
        row = _sparse(img)
        row[width + i] = ONE
        ech._add(row)
    return ech


def kernel_combos(images, width: int) -> list[list[Fraction]]:
    """Coefficient vectors c with sum_i c_i * images[i] == 0.

    `images` is a list of vectors in Q^width; the kernel of the linear map
    e_i -> images[i] is returned as echelonized combination rows.
    """
    n = len(images)
    ech = _combination_echelon(images, width)
    return [[ech.rows[ri].get(width + k, ZERO) for k in range(n)]
            for col, ri in sorted(ech.pivots.items()) if col >= width]


def solve_combo(images, width: int, target) -> list[Fraction] | None:
    """One c with sum_i c_i * images[i] == target, or None if unsolvable.

    Deterministic: the same echelon path always yields the same solution.
    """
    n = len(images)
    r = _combination_echelon(images, width)._reduce(_sparse(target))
    if any(j < width for j in r):
        return None
    return [-r.get(width + k, ZERO) for k in range(n)]


def solve_sparse(equations, nunknowns: int):
    """Solve a sparse rational linear system.

    `equations` is an iterable of (coeffs, rhs) with coeffs a dict
    {unknown_index: Fraction}.  Returns (solution_dict, free_indices) with
    free unknowns pinned to 0, or None when inconsistent.
    """
    ech = Echelon(nunknowns + 1)
    for coeffs, rhs in equations:
        row = {j: Fraction(c) for j, c in coeffs.items() if c}
        if rhs:
            row[nunknowns] = Fraction(rhs)
        ech._add(row)
    if nunknowns in ech.pivots:
        return None
    solution = {col: ech.rows[ri].get(nunknowns, ZERO)
                for col, ri in sorted(ech.pivots.items())}
    free = [j for j in range(nunknowns) if j not in ech.pivots]
    # pinned-to-zero free variables make the recorded pivot values exact
    return solution, free
