"""Small exact linear algebra over Fractions: determinants, and nullspace
bases that stop reading rows once the rank is full."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by exact Gaussian elimination, pivoting on the first
    nonzero entry of each column."""
    n = len(rows)
    mat = [[Fraction(v) for v in row] for row in rows]
    if any(len(row) != n for row in mat):
        raise ValueError("determinant requires a square matrix")
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
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


def _primitive(vec: list[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers with first nonzero > 0."""
    den_lcm = 1
    for v in vec:
        den_lcm = den_lcm * v.denominator // gcd(den_lcm, v.denominator)
    ints = [int(v * den_lcm) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    first = next((v for v in ints if v != 0), 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def nullspace_basis(rows: list[list[Fraction]]) -> list[tuple[int, ...]]:
    """Canonical basis of {c : M c = 0}, as primitive integer vectors.

    Basis vectors come from the free columns of the reduced row echelon form,
    in column order; each is scaled to coprime integers with the first nonzero
    entry positive.  Deterministic for a given row list.

    The rows are folded in one at a time into the reduced row echelon form
    of those seen so far (at most `width` rows).  That form is unique for a
    row space, so the basis does not depend on the order of the rows, and
    rows after the one that brings the rank to `width` are not read.
    """
    if not rows:
        raise ValueError("nullspace of an empty matrix is undefined")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("ragged matrix")

    reduced: dict[int, list[Fraction]] = {}  # pivot column -> row, 1 there
    for raw in rows:
        row = [Fraction(v) for v in raw]
        for col, kept in reduced.items():
            scale = row[col]
            if scale:
                row = [a - scale * b for a, b in zip(row, kept)]
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None:
            continue
        pivot = row[lead]
        row = [v / pivot for v in row]
        for kept in reduced.values():
            scale = kept[lead]
            if scale:
                kept[:] = [a - scale * b for a, b in zip(kept, row)]
        reduced[lead] = row
        if len(reduced) == width:
            return []

    basis = []
    for free in range(width):
        if free in reduced:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for pcol, kept in reduced.items():
            vec[pcol] = -kept[free]
        basis.append(_primitive(vec))
    return basis
