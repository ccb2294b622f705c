"""Small exact linear algebra over Fractions: fraction-free determinants, and
nullspace bases that stop reading rows once the rank is full."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def clear_denominators(vec) -> tuple[list[int], int]:
    """(nums, d): the rationals of vec as the integers nums over d, the lcm of
    their denominators."""
    d = lcm(*(v.denominator for v in vec))
    return [v.numerator * (d // v.denominator) for v in vec], d


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Bareiss fraction-free elimination on integers: each row
    is cleared of denominators, and their product divides the result.  Each
    step's division by the last pivot is exact; a zero pivot is swapped for
    the first nonzero entry below it."""
    n = len(rows)
    scale, sign, prev, ints = 1, 1, 1, []
    for raw in rows:
        row, den = clear_denominators([Fraction(v) for v in raw])
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
        scale *= den
        ints.append(row)
    for k in range(n - 1):
        if not ints[k][k]:
            swap = next((r for r in range(k + 1, n) if ints[r][k]), None)
            if swap is None:
                return Fraction(0)
            ints[k], ints[swap] = ints[swap], ints[k]
            sign = -sign
        top, pivot = ints[k], ints[k][k]
        for r in range(k + 1, n):
            row, lead = ints[r], ints[r][k]
            ints[r] = [0] * (k + 1) + [
                (pivot * row[c] - lead * top[c]) // prev for c in range(k + 1, n)
            ]
        prev = pivot
    return Fraction(sign * ints[-1][-1] if n else 1, scale)


def _primitive(vec: list[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers with first nonzero > 0."""
    ints, _ = clear_denominators(vec)
    g = gcd(*ints)
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
