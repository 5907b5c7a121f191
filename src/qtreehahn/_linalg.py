"""Small exact linear algebra over the rationals.

Plain Gaussian elimination is exact with Fraction entries; these helpers
keep the rest of the package free of any floating-point step.  Matrices
are lists of lists of Fractions, row major.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["rref", "nullspace", "rank", "solve"]


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
    return len(rref(matrix)[1])


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
