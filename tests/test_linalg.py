"""Exact linear algebra: fraction-free rank against Gauss-Jordan elimination."""

import random
from fractions import Fraction

import pytest

from qtreehahn._linalg import over_common_denominator, rank, rref


def _rational(rng: random.Random) -> Fraction:
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 5, 7, 12, 49)))


def _matrix(rng: random.Random, nrows: int, ncols: int) -> list[list[Fraction]]:
    return [[_rational(rng) for _ in range(ncols)] for _ in range(nrows)]


def _low_rank(rng: random.Random, nrows: int, ncols: int, k: int) -> list[list[Fraction]]:
    """A product of an nrows x k and a k x ncols matrix: rank at most k."""
    left, right = _matrix(rng, nrows, k), _matrix(rng, k, ncols)
    return [
        [sum((a * right[t][c] for t, a in enumerate(row)), Fraction(0)) for c in range(ncols)]
        for row in left
    ]


def _cases(rng: random.Random):
    for nrows, ncols in ((1, 1), (1, 6), (6, 1), (3, 7), (7, 3), (5, 5), (8, 8)):
        yield "full", _matrix(rng, nrows, ncols)
        for k in range(1, min(nrows, ncols)):
            yield f"rank<={k}", _low_rank(rng, nrows, ncols, k)
    for _ in range(4):
        m = _matrix(rng, 5, 6)
        yield "duplicate rows", m + [list(m[1]), [2 * v for v in m[3]]]
        yield "zero rows", m[:2] + [[Fraction(0)] * 6] + m[2:] + [[Fraction(0)] * 6]
        zero_col = rng.randrange(6)
        yield "zero columns", [[Fraction(0) if c in (0, zero_col) else v for c, v in enumerate(row)] for row in m]
        yield "integers", [[v.numerator for v in row] for row in m]
        yield "mixed", [[v if c % 2 else v.numerator for c, v in enumerate(row)] for row in m]
    yield "all zero", [[Fraction(0)] * 4 for _ in range(3)]
    yield "one row", [[Fraction(0), Fraction(3, 4), Fraction(-1, 2)]]
    yield "one zero row", [[0, 0, 0]]
    yield "no columns", [[], []]
    yield "empty", []


@pytest.mark.parametrize("seed", range(6))
def test_bareiss_rank_equals_rref_rank(seed):
    rng = random.Random(seed)
    for name, matrix in _cases(rng):
        before = [list(row) for row in matrix]
        assert rank(matrix) == len(rref(matrix)[1]), name
        assert matrix == before, name


def test_rank_of_known_matrices():
    assert rank([]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1
    assert rank([[0, 1], [1, 0]]) == 2
    # the first column is zero and a pivot must be found below the first row
    assert rank([[0, 0, 1], [0, 2, 5], [0, 4, 10]]) == 2
    identity = [[int(r == c) for c in range(7)] for r in range(7)]
    assert rank(identity) == 7
    assert rank(identity[::-1] + identity) == 7


def test_over_common_denominator_is_reduced():
    assert over_common_denominator([Fraction(1, 6), Fraction(-3, 4), 0]) == ((2, -9, 0), 12)
    assert over_common_denominator([3, -1]) == ((3, -1), 1)
    assert over_common_denominator([]) == ((), 1)
