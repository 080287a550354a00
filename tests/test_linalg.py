"""The sparse exact eliminator against a dense Fraction reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscosym.linalg import rref, solve


def dense_rref(matrix, ncols):
    """Gauss-Jordan on full Fraction rows, each pivot the leftmost nonzero
    column of the rows left: the nonzero rows of the reduced row-echelon form."""
    m = [[Fraction(v) for v in row] for row in matrix]
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            factor = m[i][c]
            if i != r and factor:
                m[i] = [p - factor * q for p, q in zip(m[i], m[r])]
        r += 1
    return m[:r]


def dense_solve(a, b, n):
    """x with A x = b (n unknowns), free variables 0, or None when the
    system is inconsistent."""
    rows = dense_rref([row + [v] for row, v in zip(a, b)], n + 1)
    if any(not any(row[:n]) for row in rows):
        return None
    x = [Fraction(0)] * n
    for row in rows:
        x[next(c for c in range(n) if row[c])] = row[n]
    return x


def sparse(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


# mostly zero, as the rows of a term-map system are
ENTRY = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])


@st.composite
def systems(draw):
    """(n, m, rows): rows of [A | B] with n columns in A and m in B.  Sums
    and multiples of drawn rows are appended, so rank deficiency is common;
    the right-hand sides are drawn freely, so inconsistency is too."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(ENTRY, min_size=n + m, max_size=n + m), max_size=6))
    if rows:
        picks = st.tuples(st.integers(0, len(rows) - 1), st.integers(-2, 2),
                          st.integers(0, len(rows) - 1), st.integers(-2, 2))
        for i, p, j, q in draw(st.lists(picks, max_size=3)):
            rows.append([p * v + q * w for v, w in zip(rows[i], rows[j])])
    return n, m, rows


class TestRref:
    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_matches_the_dense_reference(self, system):
        n, m, rows = system
        table = rref(sparse(rows))
        want = {min(c for c, v in enumerate(row) if v): {c: v for c, v in enumerate(row) if v}
                for row in dense_rref(rows, n + m)}
        assert table == want
        assert all(type(v) is Fraction for row in table.values() for v in row.values())
        assert rref(sparse(rows[::-1])) == table       # the form does not depend on row order

    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_solve_matches_the_dense_reference(self, system):
        n, m, rows = system
        a = [row[:n] for row in rows]
        got = solve(sparse(rows), n, m)
        assert got == [dense_solve(a, [row[n + j] for row in rows], n) for j in range(m)]
        for j, x in enumerate(got):
            if x is not None:
                assert [sum(p * q for p, q in zip(row, x)) for row in a] == \
                    [row[n + j] for row in rows]

    def test_consistency_is_decided_per_right_hand_side(self):
        # x = 1 and x = 1 hold together; x = 1 and x = 2 do not
        assert solve([{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 2}], 1, 2) == [[1], None]

    def test_empty_system(self):
        assert rref([]) == {}
        assert solve([], 2, 1) == [[0, 0]]

    @pytest.mark.parametrize("rows", [[{0: 0, 1: 0}], [{}]])
    def test_zero_rows_have_no_pivot(self, rows):
        assert rref(rows) == {}
