"""The exact linear-algebra kernel against the dense oracle RREF.

Small random rational matrices, with zero rows, repeated rows and zero
width, are fed to `Echelon` and the solvers in `secat.linalg`; every answer
is checked against `oracles.rref` / `oracles.rank` or by substitution.  A
second family of entries (non-unit pivots, coprime denominators, a 10^12
numerator) checks exact values, so integer row scaling and the clearing of
denominators cannot drift from the rational answer.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import oracles as orc

from secat.linalg import (
    Echelon, combine, kernel_combos, kernel_span, solve_combo, solve_sparse,
)

ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]).map(Fraction)


@st.composite
def matrices(draw, entries=ENTRIES, max_rows=6, max_width=5):
    """(width, rows): a few rows in Q^width, some zero, some repeated."""
    width = draw(st.integers(0, max_width))
    row = st.lists(entries, min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.append([0] * width)
    return width, draw(st.permutations(rows))


@st.composite
def matrix_and_vector(draw):
    """(width, rows, v) with v either random or a combination of the rows."""
    width, rows = draw(matrices())
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
        v = combine(coeffs, rows, width)
    else:
        v = draw(st.lists(ENTRIES, min_size=width, max_size=width))
    return width, rows, v


def _echelon(width, rows):
    ech = Echelon(width)
    for row in rows:
        ech.add(row)
    return ech


def _pivot_columns(rref_rows):
    return [next(j for j, c in enumerate(r) if c) for r in rref_rows]


@settings(max_examples=200, deadline=None)
@given(m=matrices(), data=st.data())
def test_basis_is_the_oracle_rref_in_any_insertion_order(m, data):
    width, rows = m
    want = orc.rref(rows)
    for order in (rows, data.draw(st.permutations(rows))):
        ech = _echelon(width, order)
        assert ech.basis() == want
        assert ech.rank == len(want)
        assert sorted(ech.pivots) == _pivot_columns(want)


@settings(max_examples=200, deadline=None)
@given(m=matrix_and_vector())
def test_contains_coordinates_and_reduce_agree_with_the_oracle(m):
    width, rows, v = m
    ech = _echelon(width, rows)
    basis = orc.rref(rows)
    inside = orc.rank(rows + [v]) == orc.rank(rows)
    assert ech.contains(v) == inside
    coords = ech.coordinates(v)
    if inside:
        assert coords == [v[p] for p in _pivot_columns(basis)]
        assert combine(coords, basis, width) == v
    else:
        assert coords is None
    red = ech.reduce(v)
    assert all(red[p] == 0 for p in _pivot_columns(basis))
    assert orc.rank(rows + [[a - b for a, b in zip(v, red)]]) == orc.rank(rows)


@settings(max_examples=200, deadline=None)
@given(m=matrices())
def test_kernel_combos_span_the_kernel(m):
    width, images = m
    combos = kernel_combos(images, width)
    assert len(combos) == len(images) - orc.rank(images)
    for c in combos:
        assert len(c) == len(images)
        assert combine(c, images, width) == [0] * width
    assert orc.rref(combos) == combos


@settings(max_examples=200, deadline=None)
@given(m=matrix_and_vector())
def test_solve_combo_is_none_exactly_outside_the_span(m):
    width, images, target = m
    c = solve_combo(images, width, target)
    if orc.rank(images + [target]) > orc.rank(images):
        assert c is None
    else:
        assert c is not None and len(c) == len(images)
        assert combine(c, images, width) == target


@settings(max_examples=200, deadline=None)
@given(m=matrices(), zero_entry=st.booleans())
def test_solve_sparse_solves_or_reports_inconsistency(m, zero_entry):
    """Each row (a_0 .. a_{n-1}, b) is the equation sum_j a_j x_j = b."""
    width, rows = m
    if width == 0:
        return
    n = width - 1
    equations = []
    for row in rows:
        coeffs = {j: c for j, c in enumerate(row[:n]) if c}
        if zero_entry and n:
            coeffs.setdefault(0, Fraction(0))
        equations.append((coeffs, row[n]))
    solved = solve_sparse(equations, n)
    A = [row[:n] for row in rows]
    if orc.rank(rows) > orc.rank(A):
        assert solved is None
        return
    assert solved is not None
    solution, free = solved
    assert sorted(free) == sorted(set(range(n)) - set(solution))
    assert len(free) == n - orc.rank(A)
    x = [solution.get(j, Fraction(0)) for j in range(n)]
    for coeffs, rhs in equations:
        assert sum((c * x[j] for j, c in coeffs.items()), Fraction(0)) == rhs


# ---------------------------------------------------------------------------
# exact values on rows that are not +-1: non-unit pivots, coprime
# denominators and large numerators, against values read off the oracle RREF

WIDE_ENTRIES = st.sampled_from([0, 0, 0, 3, -2, 6, Fraction(7, 5), Fraction(-10**12, 7),
                                Fraction(5, 3), Fraction(-11, 13), 1]).map(Fraction)


@st.composite
def wide_matrix_and_vector(draw):
    """(width, rows, v) over WIDE_ENTRIES, v random or a combination of rows."""
    width, rows = draw(matrices(entries=WIDE_ENTRIES, max_rows=7, max_width=6))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(WIDE_ENTRIES, min_size=len(rows), max_size=len(rows)))
        v = combine(coeffs, rows, width)
    else:
        v = draw(st.lists(WIDE_ENTRIES, min_size=width, max_size=width))
    return width, rows, v


def _oracle_reduce(basis, v):
    """v minus its projection on the span: the RREF rows weighted by v's
    entries at their pivots."""
    out = list(v)
    for row, p in zip(basis, _pivot_columns(basis)):
        f = v[p]
        out = [a - f * b for a, b in zip(out, row)]
    return out


@settings(max_examples=200, deadline=None)
@given(m=wide_matrix_and_vector(), data=st.data())
def test_echelon_on_wide_entries_matches_the_oracle_exactly(m, data):
    width, rows, v = m
    want = orc.rref(rows)
    pivots = _pivot_columns(want)
    for order in (rows, data.draw(st.permutations(rows))):
        ech = _echelon(width, order)
        assert ech.basis() == want
        assert sorted(ech.pivots) == pivots
    reduced = _oracle_reduce(want, v)
    assert ech.reduce(v) == reduced
    inside = not any(reduced)
    assert ech.contains(v) == inside
    assert ech.coordinates(v) == ([v[p] for p in pivots] if inside else None)


def test_solve_sparse_stops_at_the_first_contradiction(monkeypatch):
    """x0 + x1 = 1 and then x0 + x1 = 2: the second row already reduces to
    0 = 1, so the rows after it are never eliminated."""
    calls = []
    add = Echelon._add

    def counted(self, v):
        calls.append(v)
        return add(self, v)

    monkeypatch.setattr(Echelon, "_add", counted)
    equations = [({0: 1, 1: 1}, 1), ({0: 1, 1: 1}, 2), ({1: 1, 2: 1}, 3),
                 ({2: 1}, -1), ({0: 2, 2: Fraction(1, 2)}, Fraction(-13, 2))]
    assert solve_sparse(equations, 3) is None
    assert len(calls) == 2
    # without the contradiction every row is fed and the system solves
    calls.clear()
    assert solve_sparse(equations[:1] + equations[2:], 3) == ({0: -3, 1: 4, 2: -1}, [])
    assert len(calls) == 4


@settings(max_examples=200, deadline=None)
@given(m=wide_matrix_and_vector())
def test_solvers_on_wide_entries_match_the_oracle_exactly(m):
    width, images, target = m
    n = len(images)
    # the RREF of the rows (images[i], e_i): its rows past `width` are the
    # canonical kernel basis, and reducing (target, 0) gives minus a solution
    aug = orc.rref([img + [Fraction(int(i == k)) for k in range(n)]
                    for i, img in enumerate(images)])
    assert kernel_combos(images, width) == [
        row[width:] for row, p in zip(aug, _pivot_columns(aug)) if p >= width]
    rest = _oracle_reduce(aug, target + [Fraction(0)] * n)
    want = None if any(rest[:width]) else [-c for c in rest[width:]]
    assert solve_combo(images, width, target) == want

    # the rows read as equations sum_j a_j x_j = b, b the last entry
    if width == 0:
        return
    nx = width - 1
    equations = [({j: c for j, c in enumerate(row[:nx]) if c}, row[nx]) for row in images]
    basis = orc.rref(images)
    lead = _pivot_columns(basis)
    if nx in lead:
        assert solve_sparse(equations, nx) is None
    else:
        solution = {p: row[nx] for row, p in zip(basis, lead)}
        free = [j for j in range(nx) if j not in solution]
        assert solve_sparse(equations, nx) == (solution, free)


# ---------------------------------------------------------------------------
# the coefficient normal form at linalg's exits

def _normal(c) -> bool:
    """An int, or a Fraction with a denominator above 1: never Fraction(a)."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _sparse(row):
    return {j: c for j, c in enumerate(row) if c}


def _values(vec):
    return vec.values() if isinstance(vec, dict) else vec


@settings(max_examples=200, deadline=None)
@given(m=st.one_of(matrix_and_vector(), wide_matrix_and_vector()), sparse=st.booleans())
def test_exits_give_ints_unless_a_denominator_remains(m, sparse):
    """Every value returned by reduce, basis, coordinates, kernel_combos,
    solve_combo and solve_sparse is in the normal form, for dense and sparse
    inputs alike, and still equals the value read off the oracle RREF."""
    width, rows, v = m
    shape = _sparse if sparse else list
    want = orc.rref(rows)
    pivots = _pivot_columns(want)
    ech = _echelon(width, [shape(r) for r in rows])
    reduced = _oracle_reduce(want, v)
    n = len(rows)
    aug = orc.rref([r + [Fraction(int(i == k)) for k in range(n)] for i, r in enumerate(rows)])
    rest = _oracle_reduce(aug, v + [Fraction(0)] * n)
    images = [shape(r) for r in rows]

    exits = {
        "basis": (ech.basis(), want),
        "reduce": (ech.reduce(shape(v)), shape(reduced)),
        "coordinates": (ech.coordinates(shape(v)),
                        [v[p] for p in pivots] if not any(reduced) else None),
        "kernel_combos": (kernel_combos(images, width),
                          [shape(r[width:]) for r, p in zip(aug, _pivot_columns(aug))
                           if p >= width]),
        "solve_combo": (solve_combo(images, width, shape(v)),
                        None if any(rest[:width]) else shape([-c for c in rest[width:]])),
    }
    if width:
        nx = width - 1
        equations = [(_sparse(r[:nx]), r[nx]) for r in rows]
        exits["solve_sparse"] = (
            solve_sparse(equations, nx),
            None if nx in pivots else ({p: r[nx] for r, p in zip(want, pivots)},
                                       [j for j in range(nx) if j not in pivots]))
    for name, (got, expected) in exits.items():
        assert got == expected, name
        if name == "solve_sparse" and got is not None:
            got = got[0]
        vectors = got if name in ("basis", "kernel_combos") else [got]
        for vec in vectors:
            if vec is not None:
                assert all(_normal(c) for c in _values(vec)), (name, vec)


@settings(max_examples=200, deadline=None)
@given(m=st.one_of(matrices(), matrices(entries=WIDE_ENTRIES)), sparse=st.booleans())
@example(m=(3, []), sparse=False)
@example(m=(0, [[], [], []]), sparse=True)
@example(m=(2, [[Fraction(1, 2), 0], [0, 0], [Fraction(1, 2), 0]]), sparse=True)
def test_kernel_span_spans_the_canonical_kernel(m, sparse):
    """kernel_span gives n - rank integer vectors, in the images' shape, that
    each map to 0 and together span what kernel_combos spans."""
    width, rows = m
    images = [_sparse(r) for r in rows] if sparse else rows
    span = kernel_span(images)
    combos = kernel_combos(images, width)
    assert len(span) == len(rows) - orc.rank(rows) == len(combos)
    for z in span:
        assert isinstance(z, dict) == sparse
        assert all(type(c) is int for c in _values(z))
        dense_z = [z.get(i, 0) for i in range(len(rows))] if sparse else z
        assert len(dense_z) == len(rows)
        assert combine(dense_z, rows, width) == [0] * width
    assert _echelon(len(rows), span).basis() == _echelon(len(rows), combos).basis()
