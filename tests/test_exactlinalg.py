"""Exact nullspaces: the early-exit row fold against full Gauss-Jordan."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urskit.exactlinalg import _primitive, nullspace_basis


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
