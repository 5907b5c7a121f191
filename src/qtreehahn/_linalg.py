"""Small exact linear algebra over the rationals.

Matrices are lists of rows, row major, with `Fraction` or `int` entries;
no step uses floating point.  Each row's denominators are cleared, and the
integer rows are eliminated fraction-free (Bareiss, Math. Comp. 22, 1968):
`_cleared` is the one pivot step, whose division by the previous pivot is
exact.  `rref` runs it above and below each pivot (Gauss-Jordan), and
`nullspace` reads its result as integer vectors over one positive
denominator; `rank` runs it below each pivot only and counts the pivots.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["rref", "nullspace", "rank", "over_common_denominator"]


def over_common_denominator(values: Iterable) -> tuple[tuple[int, ...], int]:
    """Integer numerators of rationals over the lcm of their denominators,
    and that lcm.  For entries in lowest terms the pair is reduced:
    gcd(lcm, *numerators) == 1."""
    values = tuple(values)
    den = math.lcm(*(v.denominator for v in values))
    if den == 1:
        return tuple(v.numerator for v in values), 1
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _integer_rows(matrix) -> list[list[int]]:
    """The nonzero rows of the matrix with their denominators cleared."""
    return [list(row) for row in (over_common_denominator(r)[0] for r in matrix) if any(row)]


def _cleared(rows, pivot, c: int, prev: int) -> list[list[int]]:
    """One pivot step: each row with column c cleared against the pivot row,
    its entries a becoming (pivot[c] * a - row[c] * b) / prev, b the
    pivot's entry in a's column.  When prev is the previous pivot, each
    entry is a minor of the integer matrix (Sylvester's identity), so the
    division is exact, above the pivot as well as below it."""
    lead = pivot[c]
    return [[(lead * a - row[c] * b) // prev for a, b in zip(row, pivot)] for row in rows]


def rref(matrix):
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination.

    Returns (rows, pivot_columns, d): integer rows, zero rows dropped,
    that equal d times the reduced row echelon form, with d > 0.  Each
    pivot clears its column in every other row through `_cleared`.  Rows
    that become zero stay zero and are dropped.
    """
    rows = _integer_rows(matrix)
    pivots = []
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        at = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if at is None:
            continue
        pivot = rows.pop(at)
        rows = _cleared(rows, pivot, c, prev)
        rows[r:] = [pivot, *filter(any, rows[r:])]
        pivots.append(c)
        prev = pivot[c]
        if len(rows) == len(pivots):
            break
    if prev < 0:
        rows = [[-a for a in row] for row in rows]
    return rows, pivots, abs(prev)


def rank(matrix) -> int:
    """The number of pivots, from the downward half of `rref`'s elimination:
    each pivot clears its column only in the rows below it, which are all
    that later pivots are read from.  Exact, like `rref`."""
    rows = _integer_rows(matrix)
    count = 0
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        at = next((i for i, row in enumerate(rows) if row[c]), None)
        if at is None:
            continue
        pivot = rows.pop(at)
        rows = list(filter(any, _cleared(rows, pivot, c, prev)))
        count += 1
        prev = pivot[c]
        if not rows:
            break
    return count


def nullspace(matrix, ncols):
    """Basis of the right null space as integer vectors over one
    denominator d > 0; returns (vectors, d).

    The basis is deterministic: free columns are visited left to right and
    each vector has entry d in its own free column, so vector / d has
    entry 1 there.
    """
    rows, pivots, d = rref(matrix)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = d
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis, d

