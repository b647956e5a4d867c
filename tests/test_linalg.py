"""The exact linear-algebra kernel against the dense oracle RREF.

Small random rational matrices, with zero rows, repeated rows and zero
width, are fed to `Echelon` and the solvers in `secat.linalg`; every answer
is checked against `oracles.rref` / `oracles.rank` or by substitution.  The
package takes and answers sparse vectors (dicts); the tests build dense rows
for the oracle and convert at the boundary with `oracles.sparse` and
`oracles.dense`.  A second family of entries (non-unit pivots, coprime
denominators, a 10^12 numerator) checks exact values, so integer row
scaling and the clearing of denominators cannot drift from the rational
answer.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import oracles as orc

from secat.linalg import Echelon, combine, kernel_combos, solve_combo, solve_sparse

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
        v = _combine(coeffs, rows, width)
    else:
        v = draw(st.lists(ENTRIES, min_size=width, max_size=width))
    return width, rows, v


def _combine(coeffs, rows, width):
    """combine on dense coefficients and rows, read back dense."""
    return orc.dense(combine(orc.sparse(coeffs), [orc.sparse(r) for r in rows]), width)


def _echelon(width, rows):
    """An Echelon fed the dense rows."""
    ech = Echelon()
    for row in rows:
        ech.add(orc.sparse(row))
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
        assert [orc.dense(b, width) for b in orc.echelon_basis(ech)] == want
        assert ech.rank == len(want)
        assert sorted(ech.pivots) == _pivot_columns(want)


@settings(max_examples=200, deadline=None)
@given(m=matrix_and_vector())
def test_contains_coordinates_and_reduce_agree_with_the_oracle(m):
    width, rows, v = m
    ech = _echelon(width, rows)
    basis = orc.rref(rows)
    inside = orc.rank(rows + [v]) == orc.rank(rows)
    assert ech.contains(orc.sparse(v)) == inside
    if inside:
        # the stored rows are reduced: a member's coordinates over the
        # canonical basis are its entries at the pivots
        coords = [v[p] for p in sorted(ech.pivots)]
        rows_out = [orc.dense(b, width) for b in orc.echelon_basis(ech)]
        assert _combine(coords, rows_out, width) == v
    red = orc.dense(ech.reduce(orc.sparse(v)), width)
    assert all(red[p] == 0 for p in _pivot_columns(basis))
    assert orc.rank(rows + [[a - b for a, b in zip(v, red)]]) == orc.rank(rows)


@settings(max_examples=200, deadline=None)
@given(m=matrices())
def test_kernel_combos_span_the_kernel(m):
    width, images = m
    combos = kernel_combos([orc.sparse(r) for r in images], width)
    assert len(combos) == len(images) - orc.rank(images)
    assert all(0 <= i < len(images) for c in combos for i in c)
    combos = [orc.dense(c, len(images)) for c in combos]
    for c in combos:
        assert _combine(c, images, width) == [0] * width
    assert orc.rref(combos) == combos


@settings(max_examples=200, deadline=None)
@given(m=matrix_and_vector())
def test_solve_combo_is_none_exactly_outside_the_span(m):
    width, images, target = m
    c = solve_combo([orc.sparse(r) for r in images], width, orc.sparse(target))
    if orc.rank(images + [target]) > orc.rank(images):
        assert c is None
    else:
        assert c is not None and all(0 <= i < len(images) for i in c)
        assert _combine(orc.dense(c, len(images)), images, width) == target


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
        v = _combine(coeffs, rows, width)
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
        assert [orc.dense(b, width) for b in orc.echelon_basis(ech)] == want
        assert sorted(ech.pivots) == pivots
    reduced = _oracle_reduce(want, v)
    assert orc.dense(ech.reduce(orc.sparse(v)), width) == reduced
    inside = not any(reduced)
    assert ech.contains(orc.sparse(v)) == inside


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
    sparse_images = [orc.sparse(r) for r in images]
    assert [orc.dense(c, n) for c in kernel_combos(sparse_images, width)] == [
        row[width:] for row, p in zip(aug, _pivot_columns(aug)) if p >= width]
    rest = _oracle_reduce(aug, target + [Fraction(0)] * n)
    want = None if any(rest[:width]) else [-c for c in rest[width:]]
    c = solve_combo(sparse_images, width, orc.sparse(target))
    assert (c if c is None else orc.dense(c, n)) == want

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


@settings(max_examples=200, deadline=None)
@given(m=st.one_of(matrix_and_vector(), wide_matrix_and_vector()))
def test_exits_give_ints_unless_a_denominator_remains(m):
    """Every vector returned by reduce, combine, kernel_combos and
    solve_combo is a dict with ascending keys and no zero value; every value they and solve_sparse return is in the normal form,
    and each answer equals the one read off the oracle RREF."""
    width, rows, v = m
    want = orc.rref(rows)
    pivots = _pivot_columns(want)
    ech = _echelon(width, rows)
    reduced = _oracle_reduce(want, v)
    n = len(rows)
    aug = orc.rref([r + [Fraction(int(i == k)) for k in range(n)] for i, r in enumerate(rows)])
    rest = _oracle_reduce(aug, v + [Fraction(0)] * n)
    images = [orc.sparse(r) for r in rows]

    exits = {
        "reduce": (ech.reduce(orc.sparse(v)), orc.sparse(reduced)),
        "combine": (combine(dict.fromkeys(range(n), 1), images),
                    orc.sparse([sum(column) for column in zip(*rows)])),
        "kernel_combos": (kernel_combos(images, width),
                          [orc.sparse(r[width:]) for r, p in zip(aug, _pivot_columns(aug))
                           if p >= width]),
        "solve_combo": (solve_combo(images, width, orc.sparse(v)),
                        None if any(rest[:width]) else orc.sparse([-c for c in rest[width:]])),
    }
    if width:
        nx = width - 1
        equations = [(orc.sparse(r[:nx]), r[nx]) for r in rows]
        exits["solve_sparse"] = (
            solve_sparse(equations, nx),
            None if nx in pivots else ({p: r[nx] for r, p in zip(want, pivots)},
                                       [j for j in range(nx) if j not in pivots]))
    for name, (got, expected) in exits.items():
        assert got == expected, name
        if name == "solve_sparse":
            if got is not None:
                assert all(_normal(c) for c in got[0].values()), (name, got)
            continue
        vectors = got if name == "kernel_combos" else [got]
        for vec in vectors:
            if vec is not None:
                assert isinstance(vec, dict), (name, vec)
                assert list(vec) == sorted(vec), (name, vec)
                assert all(vec.values()), (name, vec)
                assert all(_normal(c) for c in vec.values()), (name, vec)


@settings(max_examples=200, deadline=None)
@given(m=st.one_of(matrices(), matrices(entries=WIDE_ENTRIES)))
@example(m=(3, []))
@example(m=(0, [[], [], []]))
@example(m=(2, [[Fraction(1, 2), 0], [0, 0], [Fraction(1, 2), 0]]))
def test_kernel_combos_is_the_combination_echelon_kernel(m):
    """kernel_combos, read off one elimination of the transposed images, is
    the kernel that the combination echelon of the rows (images[i], e_i)
    gives, value for value and type for type (ints unless a denominator
    remains), on zero, repeated and empty image lists and at width 0."""
    width, rows = m
    images = [orc.sparse(r) for r in rows]
    got = kernel_combos(images, width)
    want = orc.kernel_combos(images, width)
    assert len(got) == len(rows) - orc.rank(rows)

    def typed(rows):
        return [[(j, c, type(c)) for j, c in z.items()] for z in rows]
    assert typed(got) == typed(want)
