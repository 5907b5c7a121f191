"""Small exact linear algebra over the rationals.

Matrices are lists of rows, row major, with `Fraction` or `int` entries;
no step uses floating point.  `rref` is the one elimination: it clears
each row's denominators and runs fraction-free Gauss-Jordan elimination
in integers (Bareiss, Math. Comp. 22, 1968), where every division is
exact.  `rank` and `nullspace` read its result, and the null space
comes out as integer vectors over one positive denominator.
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


def rref(matrix):
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination.

    Returns (rows, pivot_columns, d): integer rows, zero rows dropped,
    that equal d times the reduced row echelon form, with d > 0.  After k
    pivots every entry is a minor of the matrix with its rows' denominators
    cleared, so each division by the previous pivot is exact, above the
    pivot as well as below it (Sylvester's identity).  Rows that become
    zero stay zero and are dropped.
    """
    rows = [list(row) for row in (over_common_denominator(r)[0] for r in matrix) if any(row)]
    pivots = []
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        at = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if at is None:
            continue
        pivot = rows.pop(at)
        lead = pivot[c]
        rows = [[(lead * a - row[c] * b) // prev for a, b in zip(row, pivot)] for row in rows]
        rows[r:] = [pivot, *filter(any, rows[r:])]
        pivots.append(c)
        prev = lead
        if len(rows) == len(pivots):
            break
    if prev < 0:
        rows = [[-a for a in row] for row in rows]
    return rows, pivots, abs(prev)


def rank(matrix) -> int:
    """The number of pivots of `rref`."""
    return len(rref(matrix)[1])


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

