"""Exact linear algebra: fraction-free elimination checked against its definitions."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtreehahn._linalg import nullspace, over_common_denominator, rank, rref


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


def _times(matrix, vec):
    return [sum((a * v for a, v in zip(row, vec)), Fraction(0)) for row in matrix]


@pytest.mark.parametrize("seed", range(6))
def test_rref_is_scaled_reduced_echelon_form_with_integer_nullspace(seed):
    rng = random.Random(seed)
    for name, matrix in _cases(rng):
        before = [list(row) for row in matrix]
        rows, pivots, d = rref(matrix)
        assert matrix == before, name
        assert type(d) is int and d > 0, name
        assert len(rows) == len(pivots) == rank(matrix), name
        assert pivots == sorted(set(pivots)), name
        for k, (row, pc) in enumerate(zip(rows, pivots)):
            assert all(type(a) is int for a in row), name
            assert not any(row[:pc]), name
            assert [r[pc] for r in rows] == [d if i == k else 0 for i in range(len(rows))], name
        # every input row is the combination of the rows that its pivot
        # entries name, so the rows span the input's row space
        for row in matrix:
            combined = [
                sum((Fraction(row[pc] * r[c], d) for r, pc in zip(rows, pivots)), Fraction(0))
                for c in range(len(row))
            ]
            assert combined == list(row), name
        ncols = len(matrix[0]) if matrix else 3
        vectors, den = nullspace(matrix, ncols)
        assert den == d, name
        assert len(vectors) == ncols - len(pivots), name
        free = [c for c in range(ncols) if c not in pivots]
        for vec, fc in zip(vectors, free):
            assert len(vec) == ncols and all(type(a) is int for a in vec), name
            assert [vec[c] for c in free] == [d if c == fc else 0 for c in free], name
            assert not any(_times(matrix, vec)), name


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random integer matrix of determinant +-1: the identity under row
    swaps and integer row additions."""
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(4 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            m[i], m[j] = m[j], m[i]
        else:
            f = rng.randint(-3, 3)
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return m


def _matmul(a, b):
    return [[sum(x * b[t][c] for t, x in enumerate(row)) for c in range(len(b[0]))] for row in a]


@pytest.mark.parametrize("nrows, ncols", [(1, 1), (3, 3), (4, 6), (6, 4), (7, 7)])
def test_rank_of_unimodular_products_is_exact(nrows, ncols):
    rng = random.Random(nrows * 31 + ncols)
    for k in range(min(nrows, ncols) + 1):
        middle = [[int(r == c < k) for c in range(ncols)] for r in range(nrows)]
        m = _matmul(_matmul(_unimodular(rng, nrows), middle), _unimodular(rng, ncols))
        assert rank(m) == k
        assert rank([[Fraction(v, 6) for v in row] for row in m]) == k


_entries = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12))


def _rows(nrows, ncols):
    return st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def _rank_cases(draw):
    """Matrices up to 7 x 7 of ints and `Fraction`s, some of them products
    through k <= 7 columns, with some rows and columns zeroed."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    if draw(st.booleans()):
        k = draw(st.integers(0, 7))
        left, right = draw(_rows(nrows, k)), draw(_rows(k, ncols))
        matrix = [[sum((a * right[t][c] for t, a in enumerate(row)), 0) for c in range(ncols)] for row in left]
    else:
        matrix = draw(_rows(nrows, ncols))
    zero_rows = draw(st.sets(st.integers(0, 6), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, 6), max_size=3))
    return [
        [0 if r in zero_rows or c in zero_cols else v for c, v in enumerate(row)]
        for r, row in enumerate(matrix)
    ]


@settings(max_examples=100, deadline=None)
@given(_rank_cases())
@example([[2, 1], [1, -3]])  # the last pivot is -7
@example([[0, 0, 0], [0, Fraction(1, 2), 0], [0, 0, -3]])
@example([[0, 0], [0, 0]])
def test_rank_is_the_pivot_count_of_rref(matrix):
    before = [list(row) for row in matrix]
    assert rank(matrix) == len(rref(matrix)[1])
    assert matrix == before


def test_negative_last_pivot_gives_positive_denominator():
    # determinant -7: the last pivot of the elimination is -7
    assert rref([[2, 1], [1, -3]]) == ([[7, 0], [0, 7]], [0, 1], 7)
    assert rref([[1, 0], [0, -1]]) == ([[1, 0], [0, 1]], [0, 1], 1)
    vectors, d = nullspace([[2, 1, 4], [1, -3, 2]], 3)
    assert d > 0 and vectors == [[-14, 0, 7]]


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
