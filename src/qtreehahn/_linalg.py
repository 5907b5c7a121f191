"""Small exact linear algebra over the rationals.

Matrices are lists of rows, row major, with `Fraction` or `int` entries;
no step uses floating point.  `rref`, `nullspace` and `solve` use
Gauss-Jordan elimination in `Fraction`s.  `rank` clears each row's
denominators and runs fraction-free elimination in integers (Bareiss,
Math. Comp. 22, 1968), where every division is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

__all__ = ["rref", "nullspace", "rank", "solve", "over_common_denominator"]


def over_common_denominator(values: Iterable) -> tuple[tuple[int, ...], int]:
    """Integer numerators of rationals over the lcm of their denominators,
    and that lcm.  For entries in lowest terms the pair is reduced:
    gcd(lcm, *numerators) == 1."""
    values = tuple(values)
    den = math.lcm(*(v.denominator for v in values))
    if den == 1:
        return tuple(v.numerator for v in values), 1
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(row) for row in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix) -> int:
    """Rank by fraction-free elimination on the rows with their
    denominators cleared.

    After k pivots every remaining entry is a (k+1)-minor of the matrix,
    so dividing by the previous pivot is exact (Sylvester's identity).
    Rows that become zero stay zero and are dropped.
    """
    rows = [row for row in (over_common_denominator(r)[0] for r in matrix) if any(row)]
    found = 0
    prev = 1
    while rows:
        at = next((i for i, row in enumerate(rows) if row[0]), None)
        if at is None:
            rows = [row[1:] for row in rows]
            continue
        pivot = rows.pop(at)
        lead, rest = pivot[0], pivot[1:]
        rows = [
            new
            for new in (
                [(lead * a - row[0] * b) // prev for a, b in zip(row[1:], rest)]
                for row in rows
            )
            if any(new)
        ]
        prev = lead
        found += 1
    return found


def nullspace(matrix, ncols=None):
    """Basis of the right null space, one vector per free column.

    The basis is deterministic: free columns are visited left to right and
    each vector has entry 1 in its own free column.
    """
    rows = [list(row) for row in matrix]
    if ncols is None:
        if not rows:
            raise ValueError("cannot infer column count from an empty matrix")
        ncols = len(rows[0])
    if not rows:
        reduced, pivots = [], []
    else:
        reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def solve(matrix, rhs):
    """Unique solution of a square nonsingular system, or raise ValueError."""
    n = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [reduced[i][n] for i in range(n)]
