"""Exact linear algebra: the early-exit nullspace row fold against full
Gauss-Jordan, and the fraction-free determinant against Fraction
elimination."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urskit.exactlinalg import _primitive, det, nullspace_basis


def gauss_jordan_nullspace(rows):
    """Reference: Gauss-Jordan over the whole matrix, then one basis vector
    per free column of the reduced row echelon form."""
    width = len(rows[0])
    mat = [[F(v) for v in row] for row in rows]
    pivots = []
    row_idx = 0
    for col in range(width):
        pivot_row = next((r for r in range(row_idx, len(mat)) if mat[r][col] != 0), None)
        if pivot_row is None:
            continue
        mat[row_idx], mat[pivot_row] = mat[pivot_row], mat[row_idx]
        pivot = mat[row_idx][col]
        mat[row_idx] = [v / pivot for v in mat[row_idx]]
        for r in range(len(mat)):
            if r != row_idx and mat[r][col] != 0:
                scale = mat[r][col]
                mat[r] = [a - scale * b for a, b in zip(mat[r], mat[row_idx])]
        pivots.append(col)
        row_idx += 1
        if row_idx == len(mat):
            break
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [F(0)] * width
        vec[free] = F(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -mat[r][free]
        basis.append(_primitive(vec))
    return basis


small = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def matrices(draw):
    """Rows that are rational combinations of a few base rows, so every rank
    from 0 to the width shows up, with zero and repeated rows mixed in."""
    width = draw(st.integers(1, 5))
    rank = draw(st.integers(0, width))
    base = [draw(st.lists(small, min_size=width, max_size=width)) for _ in range(rank)]
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["combination", "zero", "repeat", "base"]))
        if kind == "zero" or not base:
            rows.append([F(0)] * width)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "base":
            rows.append(list(draw(st.sampled_from(base))))
        else:
            coeffs = draw(st.lists(small, min_size=len(base), max_size=len(base)))
            rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), F(0))
                         for j in range(width)])
    return rows


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_nullspace_matches_gauss_jordan(rows):
    assert nullspace_basis(rows) == gauss_jordan_nullspace(rows)


@settings(max_examples=50, deadline=None)
@given(matrices(), st.data())
def test_nullspace_ignores_row_order(rows, data):
    shuffled = data.draw(st.permutations(rows))
    assert nullspace_basis(shuffled) == gauss_jordan_nullspace(rows)


def test_full_rank_early_and_on_the_last_row():
    identity = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    # full rank after three rows: the five rows after them are never reduced
    assert nullspace_basis(identity + [[F(1), F(2), F(3)]] * 5) == []
    # full rank only on the last row
    assert nullspace_basis([[1, 1, 0]] * 4 + [[0, 1, 1], [0, 0, 1]]) == []
    assert nullspace_basis([[1, 1, 0]] * 4 + [[0, 1, 1]]) == [(1, -1, 1)]


def test_zero_rows_and_examples():
    assert nullspace_basis([[0, 0, 0]]) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert nullspace_basis([[F(1, 2), F(-1, 3)]]) == [(2, 3)]
    assert nullspace_basis([[0, 2, 4], [0, -1, -2]]) == [(1, 0, 0), (0, 2, -1)]


def test_empty_and_ragged_rejected():
    with pytest.raises(ValueError, match="empty"):
        nullspace_basis([])
    with pytest.raises(ValueError, match="ragged"):
        nullspace_basis([[1, 0], [1]])


def fraction_det(rows):
    """Reference: Gaussian elimination over Fractions, pivoting on the first
    nonzero entry of each column."""
    n = len(rows)
    mat = [[F(v) for v in row] for row in rows]
    result = F(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            result = -result
        pivot = mat[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if mat[r][col] != 0:
                scale = mat[r][col] / pivot
                for c in range(col, n):
                    mat[r][c] -= scale * mat[col][c]
    return result


@st.composite
def square_matrices(draw):
    """n x n rational matrices, n <= 5, with zero leading entries that force
    row swaps, and zero, repeated or combined rows that make them singular."""
    n = draw(st.integers(0, 5))
    rows = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(n)]
    for i in range(n):
        kind = draw(st.sampled_from(["plain", "lead_zeros", "zero", "repeat", "combination"]))
        if kind == "lead_zeros":
            k = draw(st.integers(0, n))
            rows[i] = [F(0)] * k + rows[i][k:]
        elif kind == "zero":
            rows[i] = [F(0)] * n
        elif kind == "repeat":
            rows[i] = list(rows[draw(st.integers(0, n - 1))])
        elif kind == "combination" and i >= 2:
            a, b = draw(small), draw(small)
            rows[i] = [a * u + b * v for u, v in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=250, derandomize=True, deadline=None)
@given(square_matrices())
def test_det_matches_fraction_elimination(rows):
    assert det(rows) == fraction_det(rows)


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([], F(1)),
        ([[F(-3, 7)]], F(-3, 7)),
        ([[0]], F(0)),
        # a zero leading pivot: one swap, then a second in the lower block
        ([[0, 1, 2], [0, 0, 3], [F(1, 2), 5, 7]], F(3, 2)),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], F(-1)),
        # repeated and proportional rows
        ([[1, F(2, 3)], [1, F(2, 3)]], F(0)),
        ([[F(1, 2), F(1, 3), 1], [1, F(2, 3), 2], [5, 6, 7]], F(0)),
    ],
)
def test_det_examples(rows, expected):
    assert det(rows) == expected == fraction_det(rows)


def test_det_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        det([[1, 2], [3]])
