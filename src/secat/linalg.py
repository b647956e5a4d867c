"""Exact linear algebra over the rationals.

Everything downstream (ideal reduction, homology, retraction solving) runs on
these routines, so they are kept deliberately small: dense rows of Fractions,
reduced row echelon form everywhere.  Because the reduced echelon basis of a
subspace is unique, representatives extracted from an `Echelon` are canonical
for the span regardless of the order rows were fed in.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = list


def zero_vector(width: int) -> list[Fraction]:
    return [ZERO] * width


class Echelon:
    """Incremental reduced-row-echelon store for a subspace of Q^width.

    Rows keep unit pivots and every pivot column is eliminated from all other
    rows, so `rows` is always the canonical RREF basis of the span.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.pivots: dict[int, int] = {}  # pivot column -> row index

    def reduce(self, v) -> list[Fraction]:
        """Return a copy of v with the span projected out."""
        v = list(v)
        for col, ri in self.pivots.items():
            c = v[col]
            if c:
                row = self.rows[ri]
                for j in range(col, self.width):
                    rj = row[j]
                    if rj:
                        v[j] -= c * rj
        return v

    def add(self, v) -> list[Fraction] | None:
        """Insert v; return the new canonical row if the rank grew, else None."""
        r = self.reduce(v)
        lead = next((j for j, c in enumerate(r) if c), None)
        if lead is None:
            return None
        inv = ONE / r[lead]
        r = [c * inv for c in r]
        for row in self.rows:
            c = row[lead]
            if c:
                for j in range(lead, self.width):
                    rj = r[j]
                    if rj:
                        row[j] -= c * rj
        self.pivots[lead] = len(self.rows)
        self.rows.append(r)
        return r

    def extend(self, vectors) -> None:
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def basis(self) -> list[list[Fraction]]:
        """Canonical basis rows ordered by pivot column."""
        return [self.rows[ri] for _, ri in sorted(self.pivots.items())]

    def coordinates(self, v) -> list[Fraction] | None:
        """Coefficients of v in basis() order, or None when v is not in the span.

        Rows are RREF, so the coefficient of a basis row is just the entry of v
        at that row's pivot column.
        """
        coords = []
        w = list(v)
        for col, ri in sorted(self.pivots.items()):
            c = w[col]
            coords.append(c)
            if c:
                row = self.rows[ri]
                for j in range(col, self.width):
                    rj = row[j]
                    if rj:
                        w[j] -= c * rj
        if any(w):
            return None
        return coords


def combine(coeffs, rows, width: int) -> list[Fraction]:
    """sum_i coeffs[i] * rows[i], a vector in Q^width."""
    out = zero_vector(width)
    for c, row in zip(coeffs, rows):
        if c:
            for j, r in enumerate(row):
                if r:
                    out[j] += c * r
    return out


def kernel_combos(images, width: int) -> list[list[Fraction]]:
    """Coefficient vectors c with sum_i c_i * images[i] == 0.

    `images` is a list of vectors in Q^width; the kernel of the linear map
    e_i -> images[i] is returned as echelonized combination rows.
    """
    n = len(images)
    ech = Echelon(width + n)
    for i, img in enumerate(images):
        row = list(img) + [ZERO] * n
        row[width + i] = ONE
        ech.add(row)
    combos = []
    for col, ri in sorted(ech.pivots.items()):
        if col >= width:
            combos.append(ech.rows[ri][width:])
    return combos


def solve_combo(images, width: int, target) -> list[Fraction] | None:
    """One c with sum_i c_i * images[i] == target, or None if unsolvable.

    Deterministic: the same echelon path always yields the same solution.
    """
    n = len(images)
    ech = Echelon(width + n)
    for i, img in enumerate(images):
        row = list(img) + [ZERO] * n
        row[width + i] = ONE
        ech.add(row)
    r = ech.reduce(list(target) + [ZERO] * n)
    if any(r[j] for j in range(width)):
        return None
    return [-c for c in r[width:]]


def solve_sparse(equations, nunknowns: int):
    """Solve a sparse rational linear system.

    `equations` is an iterable of (coeffs, rhs) with coeffs a dict
    {unknown_index: Fraction}.  Returns (solution_dict, free_indices) with
    free unknowns pinned to 0, or None when inconsistent.
    """
    ech = Echelon(nunknowns + 1)
    for coeffs, rhs in equations:
        row = zero_vector(nunknowns + 1)
        for j, c in coeffs.items():
            row[j] = Fraction(c)
        row[nunknowns] = Fraction(rhs)
        ech.add(row)
    if nunknowns in ech.pivots:
        return None
    solution = {}
    pinned = set()
    for col, ri in sorted(ech.pivots.items()):
        solution[col] = ech.rows[ri][nunknowns]
        pinned.add(col)
    free = [j for j in range(nunknowns) if j not in pinned]
    # pinned-to-zero free variables make the recorded pivot values exact
    return solution, free
