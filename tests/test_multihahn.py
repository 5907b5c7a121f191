"""Tree-indexed multivariable bases: values, norms, eigenstructure."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreehahn import (
    GridFunction,
    Hahn1DSpec,
    InvalidSlice,
    ParamSet,
    all_trees,
    basis,
    check_identity,
    eigenvalue,
    enumerate_compositions,
    eval_Q,
    hahn_eval,
    hahn_norm,
    inner_product,
    left_comb,
    norm_Q,
    parse_tree,
    pochhammer,
    pochhammer_many,
    raise_basis_element,
    right_comb,
    theta_polynomial,
    vertex_eigenvalue,
    xi_norm,
    xi_polynomial,
    ZeroDenominator,
)
from qtreehahn import hahn1d, multihahn
from qtreehahn.hahn1d import hahn_row
from qtreehahn._linalg import rank
from qtreehahn.multihahn import norm_exponent, vertex_eigen_cases
from qtreehahn.qnum import _shifted
from qtreehahn.trees import child_sums, coefficient_sums, enumerate_labelings

from conftest import MIXED_ALPHAS, PRIMARY_ALPHAS, SECONDARY_ALPHAS, make_ctx, make_params

CTX = make_ctx()


def test_two_leaf_tree_reduces_to_one_variable_family():
    p = make_params(2)
    a1, a2 = p.alphas
    tree = parse_tree("(1 2)")
    for N in range(4):
        for n in range(N + 1):
            for x1 in range(N + 1):
                assert eval_Q(tree, (n,), p, (x1, N - x1)) == hahn_eval(
                    CTX, n, x1, a1, a2, N
                )
            spec = Hahn1DSpec(ctx=CTX, n=n, alpha=a1, beta=a2, N=N)
            assert norm_Q(tree, (n,), p, N) == hahn_norm(spec)


def test_zero_labeling_is_constant_one():
    for h in (2, 3, 4):
        p = make_params(h)
        zeros = (0,) * (h - 1)
        for tree in all_trees(h):
            grid = GridFunction.from_callable(
                h, 2, lambda x: eval_Q(tree, zeros, p, x)
            )
            assert grid == GridFunction.constant(h, 2, 1)


def test_eval_validation_and_support():
    p = make_params(3)
    tree = parse_tree("((1 2) 3)")
    with pytest.raises(ValueError):
        eval_Q(tree, (1,), p, (1, 0, 0))
    with pytest.raises(ValueError):
        eval_Q(tree, (0, 0), p, (1, 0))
    with pytest.raises(ValueError):
        eval_Q(tree, (0, -1), p, (1, 0, 0))
    # The inner vertex carries label sum 2 but only one unit of x under it.
    assert eval_Q(tree, (0, 2), p, (0, 1, 2)) == 0
    assert eval_Q(tree, (0, 2), p, (1, 1, 1)) != 0


def test_norm_exponent_is_even():
    for N in range(8):
        for n in range(N + 1):
            assert norm_exponent(N, n) % 2 == 0


def test_brute_gram_three_leaves():
    for which in ("primary", "secondary"):
        p = make_params(3, which)
        for tree in all_trees(3):
            for N in range(4):
                elems = [e for n in range(N + 1) for e in basis(tree, p, n, N)]
                for i, ei in enumerate(elems):
                    for j, ej in enumerate(elems):
                        got = inner_product(ei.grid, ej.grid, p)
                        if i == j:
                            assert got == norm_Q(tree, ei.labeling, p, N)
                            assert got == ei.norm_squared()
                        else:
                            assert got == 0


def _gram_by_dot_products(tree, p, N):
    """The reference for `_gram_table`: every pair of elements of the
    materialized level-N basis, each inner product a weighted dot product
    over the whole lattice."""
    elems = [e for n in range(N + 1) for e in basis(tree, p, n, N)]
    return {
        (e.labeling, f.labeling): inner_product(e.grid, f.grid, p) for e in elems for f in elems
    }


def _gram_table_values(tree, p, N):
    """The table of `_gram_table` as Fractions, every pair of elements;
    where it met a pole, the basis levels raise if an element reads one."""
    nums, den, dens, poles = multihahn._gram_table(tree, p, N)
    for n in range(N + 1) if poles else ():
        basis(tree, p, n, N)
    assert all(nums.values())  # a zero sum is left out
    return {
        (e, f): Fraction(nums.get((e, f), 0), den * dens[e] * dens[f]) for e in dens for f in dens
    }


@pytest.mark.parametrize(
    "alphas, unchecked",
    [(PRIMARY_ALPHAS, False), (SECONDARY_ALPHAS, False), (MIXED_ALPHAS, True)],
    ids=["primary", "secondary", "mixed-unchecked"],
)
def test_gram_table_equals_the_dot_products_of_the_basis(alphas, unchecked):
    """The Gram table summed down the tree equals the weighted dot products
    of the materialized basis entry for entry, zeros included, on every tree
    with h <= 5 at every level up to 4 (up to 3 at h = 5)."""
    for h in range(1, 6):
        p = ParamSet(CTX, alphas[:h], unchecked=unchecked)
        for tree in all_trees(h) if h > 1 else [parse_tree("1")]:
            for N in range(4 if h == 5 else 5):
                assert _gram_table_values(tree, p, N) == _gram_by_dot_products(tree, p, N), (
                    tree, N,
                )


def test_gram_table_at_pole_alphas_raises_what_the_basis_raises():
    """At alpha tuples where products of alphas meet powers of 1/q = 4, the
    table raises the error of the first basis level that reads a pole, or,
    where none does, equals the dot products of the basis."""
    outcomes = []
    for h in (2, 3):
        for alphas in itertools.product((2, 8, 32, Fraction(1, 2), 3), repeat=h):
            p = ParamSet(CTX, alphas, n_max=0, unchecked=True)
            for tree in all_trees(h):
                for N in range(4):
                    try:
                        want = _gram_by_dot_products(tree, p, N)
                    except ArithmeticError as exc:
                        want = type(exc), str(exc)
                    try:
                        got = _gram_table_values(tree, p, N)
                    except ArithmeticError as exc:
                        got = type(exc), str(exc)
                    assert got == want, (tree, alphas, N)
                    outcomes.append(type(got) is tuple)
    assert 0 < sum(outcomes) < len(outcomes) // 4


def test_basis_is_linearly_independent_and_spans():
    p = make_params(3)
    N = 3
    elems = [e for n in range(N + 1) for e in basis(parse_tree("((1 2) 3)"), p, n, N)]
    matrix = [list(e.grid.values) for e in elems]
    assert rank(matrix) == len(elems) == 10


# One parameter set per regime: alphas in (0, 1/q), alphas above q^(-n_max),
# and a generic set with a negative alpha that only `unchecked=True` admits.
CROSS_ROUTE_PARAMS = {
    "unit-band": PRIMARY_ALPHAS,
    "above-band": (65, 67, Fraction(201, 2), 71, 97),
    "negative-unchecked": (Fraction(-2, 3), Fraction(1, 3), Fraction(5, 2), 7, Fraction(3, 5)),
}


@pytest.mark.parametrize("regime", sorted(CROSS_ROUTE_PARAMS))
def test_basis_equals_eval_Q_at_every_point(regime):
    """The one-pass level build agrees with the per-point route everywhere."""
    alphas = CROSS_ROUTE_PARAMS[regime]
    for h in range(2, 6):
        p = ParamSet(
            CTX,
            alphas[:h],
            n_max=3,
            unchecked=regime == "negative-unchecked",
        )
        for tree in all_trees(h):
            for N in range(4):
                points = enumerate_compositions(h, N)
                for n in range(N + 1):
                    elems = basis.__wrapped__(tree, p, n, N)
                    assert [e.labeling for e in elems] == enumerate_labelings(tree, n)
                    for e in elems:
                        want = tuple(eval_Q(tree, e.labeling, p, x) for x in points)
                        assert e.grid.values == want, (regime, tree, e.labeling, N)
                        # == and hash read the canonical reduced integer form
                        assert e.grid == GridFunction(h, N, want)
                        assert hash(e.grid) == hash(GridFunction(h, N, want))


def test_basis_builds_no_fraction_per_point(fraction_builds):
    """A level build makes no Fraction at all, from cold factor columns
    and lift steps too: their alpha and beta are integer pairs, and the
    raising chain of `hahn1d._hahn_levels` builds none."""
    p = make_params(5, "secondary")
    for tree in all_trees(5)[:6]:
        for N in range(4):
            for n in range(N + 1):
                multihahn._column.cache_clear()
                hahn1d._lift_step.cache_clear()
                fraction_builds.clear()
                multihahn.basis.__wrapped__(tree, p, n, N)
                assert fraction_builds == [], (tree, n, N)


def test_norm_factor_pole_names_the_vertex():
    # alpha_1 = q^-2 passes a pole scan of n_max = 1, but lp = alpha_1 q
    # makes (lp; q)_2 vanish in the factor of label 2 at the root
    q = CTX.q
    p = ParamSet(CTX, (q**-2, Fraction(1, 3)), n_max=1, unchecked=True)
    with pytest.raises(ZeroDivisionError, match=r"over \(0, 2\] split at 1, c=2, lcs=0, rcs=0"):
        norm_Q(parse_tree("(1 2)"), (2,), p, 2)


def _norm_by_product_formula(tree, labeling, params, N):
    """The closed-form squared norm of `norm_Q` as one product of
    `Fraction`s, with no table and no power read from the context."""
    ctx, q = params.ctx, params.ctx.q
    n, h = sum(labeling), tree.h
    cs = coefficient_sums(tree, labeling)
    out = (
        pochhammer(ctx, params.prefix_product(h) * q ** (h + 2 * n), N - n)
        / pochhammer(ctx, q, N - n)
        * q ** (norm_exponent(N, n) // 2)
    )
    for vert in tree.vertices:
        c = labeling[vert.index]
        lcs, rcs = child_sums(vert, cs)
        lp = params.span_p(vert.lo, vert.split)
        rp = params.span_p(vert.split, vert.hi)
        lp_shift = lp * q ** (2 * lcs)
        bases = (q, lp * rp * q ** (cs[vert.index] + lcs + rcs - 1), rp * q ** (2 * rcs))
        out *= (
            pochhammer_many(ctx, bases, c)
            / pochhammer(ctx, lp_shift, c)
            * lp_shift ** (c + rcs)
            * q ** (-2 * lcs * rcs - c)
        )
    return out


@pytest.mark.parametrize("regime", sorted(CROSS_ROUTE_PARAMS))
def test_tabled_norm_equals_product_formula_and_gram_diagonal(regime):
    multihahn._gamma.cache_clear()
    multihahn._level_factor.cache_clear()
    alphas = CROSS_ROUTE_PARAMS[regime]
    checked = 0
    for h in range(2, 6):
        p = ParamSet(CTX, alphas[:h], n_max=3, unchecked=regime == "negative-unchecked")
        for tree in all_trees(h):
            for N in range(4):
                for n in range(N + 1):
                    for e in basis(tree, p, n, N):
                        got = norm_Q(tree, e.labeling, p, N)
                        assert got == _norm_by_product_formula(tree, e.labeling, p, N)
                        assert got == inner_product(e.grid, e.grid, p), (regime, tree, e.labeling, N)
                        checked += 1
    assert checked == sum(
        len(all_trees(h)) * sum(math.comb(N + h - 1, h - 1) for N in range(4))
        for h in range(2, 6)
    )


def test_basis_raises_where_eval_Q_meets_a_pole():
    # alpha_1 = q^-2, allowed with n_max = 1: the degree-2 factor of the
    # two-leaf tree meets (alpha q; q)_2 = 0 at x_1 = 2, and only there
    p = ParamSet(CTX, (CTX.q**-2, Fraction(1, 3)), n_max=1, unchecked=True)
    tree = parse_tree("(1 2)")
    for x in ((0, 2), (1, 1)):
        assert eval_Q(tree, (2,), p, x) == hahn_eval(CTX, 2, x[0], *p.alphas, 2)
    with pytest.raises(ZeroDenominator):
        eval_Q(tree, (2,), p, (2, 0))
    with pytest.raises(ZeroDenominator):
        basis.__wrapped__(tree, p, 2, 2)
    for n in range(2):
        for e in basis.__wrapped__(tree, p, n, 2):
            assert e.grid.values == tuple(
                eval_Q(tree, e.labeling, p, x) for x in enumerate_compositions(2, 2)
            )


# Pole inputs with q = 1/4, so that 4, 16 and 64 are q^-1, q^-2 and q^-3,
# and the text that the per-point product of `eval_Q` raised for each: the
# first factor it reads past a pole, its alpha sometimes a product of the
# inputs (alpha = 16 from 8 * 8 q^2 q^-1).
BASIS_POLES = [
    ("((1 2) (3 4))", (4, 16, 64, Fraction(1, 3)), 2, 3, "alpha=4, degree 1, at x=1"),
    ("(1 ((2 3) 4))", (8, 4, 1, 64), 2, 3, "alpha=4, degree 2, at x=1"),
    ("((1 2) (3 4))", (1, 16, 4, 4), 3, 3, "alpha=4, degree 3, at x=1"),
    ("(1 (2 (3 4)))", (8, 16, Fraction(1, 3), 64), 2, 2, "alpha=16, degree 2, at x=2"),
    ("(1 ((2 3) 4))", (64, 16, 64, 4), 3, 3, "alpha=16, degree 3, at x=2"),
    ("((1 2) (3 4))", (64, 8, Fraction(1, 3), 4), 3, 3, "alpha=64, degree 3, at x=3"),
    ("((1 2) (3 4))", (8, 8, 1, Fraction(1, 3)), 2, 2, "alpha=16, degree 2, at x=2"),
    ("(((1 2) 3) 4)", (1, 64, 8, 1), 3, 3, "alpha=16, degree 3, at x=2"),
    ("(1 ((2 3) 4))", (64, 1, 16, Fraction(1, 3)), 2, 3, "alpha=4, degree 2, at x=1"),
]


@pytest.mark.parametrize("tree, alphas, n, N, message", BASIS_POLES)
def test_basis_raises_the_first_pole_of_the_pointwise_product(tree, alphas, n, N, message):
    p = ParamSet(CTX, alphas, n_max=0, unchecked=True)
    with pytest.raises(ZeroDenominator) as info:
        basis.__wrapped__(parse_tree(tree), p, n, N)
    assert str(info.value) == f"(alpha q; q)_k vanished for {message}"


@pytest.mark.parametrize(
    "tree, alphas, n, N",
    [
        ("(1 ((2 3) 4))", (16, 1, 64, 64), 1, 3),
        ("((1 2) (3 4))", (64, 8, 8, 1), 1, 3),
        ("(1 ((2 3) 4))", (64, Fraction(1, 3), 1, 64), 2, 3),
    ],
)
def test_basis_at_pole_valued_alphas_that_no_factor_meets(tree, alphas, n, N):
    p = ParamSet(CTX, alphas, n_max=0, unchecked=True)
    tree = parse_tree(tree)
    points = enumerate_compositions(tree.h, N)
    for e in basis.__wrapped__(tree, p, n, N):
        assert e.grid.values == tuple(eval_Q(tree, e.labeling, p, x) for x in points)


def test_basis_equals_eval_Q_on_every_six_leaf_tree():
    """All 42 six-leaf trees at N <= 2, in the generic regime with signs."""
    alphas = CROSS_ROUTE_PARAMS["negative-unchecked"] + (Fraction(-5, 4),)
    p = ParamSet(CTX, alphas, n_max=2, unchecked=True)
    trees = all_trees(6)
    assert len(trees) == 42
    for tree in trees:
        for N in range(3):
            points = enumerate_compositions(6, N)
            for n in range(N + 1):
                for e in basis.__wrapped__(tree, p, n, N):
                    want = tuple(eval_Q(tree, e.labeling, p, x) for x in points)
                    assert e.grid.values == want, (tree, e.labeling, N)


def test_shared_factor_columns_serve_every_tree_degree_and_level():
    """Columns are cached by vertex span, label and child sums: bases built
    in a shuffled order over regimes, trees, degrees and levels, so each
    reads columns that others built, equal `eval_Q` at every point and a
    build from cold columns."""
    trees = all_trees(4) + all_trees(5)[::3]  # 5 of the 14 five-leaf trees
    levels = [
        (ParamSet(CTX, CROSS_ROUTE_PARAMS[regime][: tree.h], n_max=3), tree, n, N)
        for regime in ("unit-band", "above-band")
        for tree in trees
        for N in range(4)
        for n in range(N + 1)
    ]
    random.Random(26).shuffle(levels)
    multihahn._column.cache_clear()
    warm = [basis.__wrapped__(tree, p, n, N) for p, tree, n, N in levels]
    assert multihahn._column.cache_info().hits > multihahn._column.cache_info().misses
    for (p, tree, n, N), elems in zip(levels, warm):
        points = enumerate_compositions(tree.h, N)
        for e in elems:
            want = tuple(eval_Q(tree, e.labeling, p, x) for x in points)
            assert e.grid.values == want, (p.alphas, tree, e.labeling, N)
        multihahn._column.cache_clear()
        assert basis.__wrapped__(tree, p, n, N) == elems


def test_a_cached_pole_column_raises_again():
    tree, alphas, n, N, message = BASIS_POLES[0]
    p = ParamSet(CTX, alphas, n_max=0, unchecked=True)
    multihahn._column.cache_clear()
    for _ in range(2):
        with pytest.raises(ZeroDenominator) as info:
            basis(parse_tree(tree), p, n, N)
        assert str(info.value) == f"(alpha q; q)_k vanished for {message}"
    assert multihahn._column.cache_info().hits > 0


def _column_by_phi_rows(params, N, lo, split, hi, c, lcs, rcs):
    """`multihahn._column` as it was built from the one-pass phi-sum rows
    of `hahn_row`: one row per v, each value a reduced pair, the triangle
    over the lcm of their denominators."""
    h, ctx = params.h, params.ctx
    a, b = ctx.q.numerator, ctx.q.denominator
    alpha = _shifted(*params.p_pair(lo, split), 2 * lcs - 1, a, b)
    beta = _shifted(*params.p_pair(split, hi), 2 * rcs - 1, a, b)
    triangle = [(0, 1)] * ((N + 1) * (N + 2) // 2)
    poles = {}
    for v in range(max(c + lcs + rcs, N if hi - lo == h else 0), N + 1):
        row = list(hahn_row(ctx, c, alpha, beta, v - lcs - rcs))
        start = v * (v + 1) // 2 + lcs
        for x, pair in enumerate(row):
            if pair is None:
                poles[start + x] = (
                    f"(alpha q; q)_k vanished for alpha={Fraction(*alpha)}, degree {c}, at x={x}"
                )
                row[x] = (0, 1)
        if rcs:
            row = [_shifted(*pair, -rcs * lv, a, b) for lv, pair in enumerate(row, lcs)]
        triangle[start : start + len(row)] = row
    D = math.lcm(*(den for _, den in triangle))
    nums = [num * (D // den) for num, den in triangle]
    index = multihahn._span_index(h, N, lo, split, hi)
    poles = {r: poles[t] for r, t in enumerate(index) if t in poles}
    return multihahn._Column(tuple(nums[t] for t in index), D, poles)


def _factor_by_eval(params, lo, split, hi, c, lcs, rcs, x):
    """The factor of `eval_Q` at the point x for the vertex over (lo, hi]
    split at `split`, with label c and child sums lcs and rcs, read from
    `hahn_eval`, or None where it meets a pole."""
    ctx = params.ctx
    lv = sum(x[lo:split])
    v = lv + sum(x[split:hi])
    if lv < lcs or v - lv < rcs or v < c + lcs + rcs:
        return Fraction(0)
    try:
        return ctx.q_power(-rcs * lv) * hahn_eval(
            ctx,
            c,
            lv - lcs,
            params.span_p(lo, split) * ctx.q_power(2 * lcs - 1),
            params.span_p(split, hi) * ctx.q_power(2 * rcs - 1),
            v - lcs - rcs,
        )
    except ZeroDenominator:
        return None


def _is_canonical(nums, den):
    return den > 0 and math.gcd(den, *nums) == 1


def _column_keys(h, N):
    """Every vertex span and split of [h; N] with every label and child sums
    that fit the level."""
    for lo, split, hi in itertools.combinations(range(h + 1), 3):
        for c in range(N + 1):
            for lcs in range(N + 1 - c):
                for rcs in range(N + 1 - c - lcs):
                    yield lo, split, hi, c, lcs, rcs


@st.composite
def _positive_params(draw):
    """Alphas of one positivity regime at q = 1/4 or 4/9, checked with
    n_max = 4: all in (0, 1/q), or all above q^-4."""
    ctx = make_ctx(draw(st.sampled_from((Fraction(1, 2), Fraction(2, 3)))))
    h = draw(st.integers(2, 4))
    steps = st.lists(st.integers(1, 99), min_size=h, max_size=h)
    if draw(st.booleans()):
        alphas = [Fraction(u, 100) / ctx.q for u in draw(steps)]
    else:
        alphas = [(1 + Fraction(u, 10)) / ctx.q**4 for u in draw(steps)]
    return ParamSet(ctx, alphas, n_max=4)


@settings(max_examples=60, deadline=None)
@given(_positive_params(), st.integers(0, 4))
def test_factor_columns_equal_the_phi_sum_columns_and_eval_Q(p, N):
    """Every column that the raising chain builds equals the column built
    from `hahn_row`, integer for integer, and the factor of `eval_Q` at
    every point."""
    points = enumerate_compositions(p.h, N)
    for key in _column_keys(p.h, N):
        got = multihahn._column.__wrapped__(p, N, *key)
        assert got == _column_by_phi_rows(p, N, *key), key
        assert _is_canonical(got.nums, got.den) and not got.poles
        for r, x in enumerate(points):
            assert Fraction(got.nums[r], got.den) == _factor_by_eval(p, *key, x), (key, x)


POLE_SCAN_ALPHAS = (2, 8, 32, Fraction(1, 2), Fraction(1, 8), 3, 16, Fraction(4, 3))


def test_pole_scan_matches_the_phi_sum_columns(monkeypatch):
    """At every alpha tuple from POLE_SCAN_ALPHAS, 2 <= h <= 3 and N <= 3, where
    products of alphas meet powers of 1/q = 4: `basis` gives the integer
    grids of the `hahn_row` columns or raises the same error, and every
    column and grid is canonical."""
    cases = [
        (tree, ParamSet(CTX, alphas, n_max=0, unchecked=True), n, N)
        for h in (2, 3)
        for alphas in itertools.product(POLE_SCAN_ALPHAS, repeat=h)
        for tree in all_trees(h)
        for N in range(4)
        for n in range(N + 1)
    ]
    columns = []
    column = multihahn._column.__wrapped__

    def keeping(*key):
        columns.append(column(*key))
        return columns[-1]

    def outcomes():
        for tree, p, n, N in cases:
            try:
                yield [e.grid._integer_form for e in basis.__wrapped__(tree, p, n, N)]
            except ArithmeticError as exc:
                yield type(exc), str(exc)

    monkeypatch.setattr(multihahn, "_column", keeping)
    got = list(outcomes())
    monkeypatch.setattr(multihahn, "_column", _column_by_phi_rows)
    want = list(outcomes())
    for case, g, w in zip(cases, got, want):
        assert g == w, case
    assert all(_is_canonical(col.nums, col.den) for col in columns)
    grids = [grid for out in got if type(out) is list for grid in out]
    assert all(_is_canonical(*grid) for grid in grids)
    poles = sum(type(out) is tuple for out in got)
    assert len(got) == 10_880 and 0 < poles < len(got) // 4
    assert {out[0] for out in got if type(out) is tuple} == {ZeroDenominator}


def test_negative_seed_denominators_still_give_canonical_columns():
    """At alphas (8, 2), 1 - alpha q^x is negative in the seed of label 1,
    so the column's denominator comes out negative before its one gcd."""
    p = ParamSet(CTX, (8, 2), n_max=0, unchecked=True)
    col = multihahn._column.__wrapped__(p, 1, 0, 1, 2, 1, 0, 0)
    assert col == ((3, 3), 2, {})
    (e,) = basis.__wrapped__(parse_tree("(1 2)"), p, 1, 1)
    assert e.grid._integer_form == ((3, 3), 2)
    assert e.grid.values == tuple(
        eval_Q(e.tree, e.labeling, p, x) for x in enumerate_compositions(2, 1)
    )


def test_lift_steps_carry_no_parameters():
    """Bases at two alpha vectors read one lift per label c and level M,
    1 <= c <= M < N; a second q builds its own."""
    tree, N = right_comb(4), 4
    steps = {(c, M) for c in range(1, N) for M in range(c, N)}
    hahn1d._lift_step.cache_clear()
    for which in ("primary", "secondary", "secondary"):
        multihahn._column.cache_clear()
        for n in range(N + 1):
            basis.__wrapped__(tree, make_params(4, which), n, N)
    info = hahn1d._lift_step.cache_info()
    assert (info.misses, info.currsize) == (len(steps), len(steps)) and info.hits > 0
    q = CTX.q
    for c, M in steps:
        left, right, den = hahn1d._lift_step(q.numerator, q.denominator, c, M)
        assert len(left) == len(right) == M + 2 and left[0] == right[-1] == 0
        assert all(type(v) is int for v in (*left, *right, den))
    assert hahn1d._lift_step.cache_info().misses == len(steps)
    multihahn._column.cache_clear()
    for n in range(N + 1):
        basis.__wrapped__(tree, make_params(4, s=Fraction(2, 3)), n, N)
    assert hahn1d._lift_step.cache_info().misses == 2 * len(steps)


def test_basis_validation_and_cache():
    p = make_params(3)
    tree = parse_tree("(1 (2 3))")
    with pytest.raises(ValueError):
        basis(tree, p, 3, 2)
    assert basis(tree, p, 1, 2) is basis(tree, p, 1, 2)
    labs = [e.labeling for e in basis(tree, p, 2, 3)]
    assert labs == enumerate_labelings(tree, 2)


# Each entry point called with a tree, a labeling and a parameter set;
# `basis` takes the labeling's degree.
ENTRY_POINTS = {
    "basis": lambda tree, lab, p: basis(tree, p, sum(lab), 2),
    "eval_Q": lambda tree, lab, p: eval_Q(tree, lab, p, (0,) * (tree.h - 1) + (2,)),
    "norm_Q": lambda tree, lab, p: norm_Q(tree, lab, p, 2),
    "vertex_eigenvalue": lambda tree, lab, p: vertex_eigenvalue(tree, lab, p, 0),
    "vertex_eigen_cases": lambda tree, lab, p: list(vertex_eigen_cases(tree, lab, p, 2)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_parameter_set_for_another_leaf_count_raises_invalid_slice(entry):
    tree = parse_tree("(1 (2 3))")
    for h in (2, 4):
        with pytest.raises(InvalidSlice, match=re.escape(f"function has 3 variables, params have {h}")):
            ENTRY_POINTS[entry](tree, (1, 0), make_params(h))


@pytest.mark.parametrize("entry", [name for name in ENTRY_POINTS if name != "basis"])
def test_every_labeled_entry_point_checks_the_labeling_alike(entry):
    tree, p = parse_tree("(1 2)"), make_params(2)
    with pytest.raises(ValueError, match=re.escape("labeling has 2 entries, tree has 1 vertices")):
        ENTRY_POINTS[entry](tree, (0, 1), p)
    with pytest.raises(ValueError, match=re.escape("labeling must be nonnegative, got (-1,)")):
        ENTRY_POINTS[entry](tree, (-1,), p)


def test_vertex_eigenvalue_matches_global_at_root():
    for h in (3, 4):
        p = make_params(h)
        for tree in all_trees(h):
            for lab in enumerate_labelings(tree, 2):
                assert vertex_eigenvalue(tree, lab, p, 0) == eigenvalue(p, 2)


def test_verify_eigen_reports():
    p = make_params(3)
    for tree in all_trees(3):
        for n in range(3):
            for lab in enumerate_labelings(tree, n):
                rep = check_identity("vertex-eigenvalues", vertex_eigen_cases(tree, lab, p, 3))
                assert rep["status"] == "pass", rep
                assert rep["counterexample"] is None
                assert rep["cases"] == tree.n_internal + 1  # every vertex, then global


def test_a_wrong_root_stencil_fails_the_root_and_global_cases(monkeypatch):
    """The full operator is the root's: with the identity added to the
    (0, h] stencil, the root and "global" cases fail and no other does."""
    original = multihahn._vertex_stencil

    def plus_identity(p, N, lo, hi):
        rows, den = original(p, N, lo, hi)
        if (lo, hi) == (0, p.h):
            rows = tuple((cols + (r,), coeffs + (den,)) for r, (cols, coeffs) in enumerate(rows))
        return rows, den

    monkeypatch.setattr(multihahn, "_vertex_stencil", plus_identity)
    for h, N in ((3, 3), (4, 2)):
        p = make_params(h)
        for tree in all_trees(h):
            for n in range(N + 1):
                for lab in enumerate_labelings(tree, n):
                    failing = [loc["vertex"] for loc, ok in vertex_eigen_cases(tree, lab, p, N) if not ok]
                    assert failing == [0, "global"], (tree, lab)


def test_a_one_leaf_tree_checks_its_global_case_on_the_whole_span(monkeypatch):
    """A tree with no vertex yields only the "global" case, read on the
    span (0, h] with the empty labeling's basis element: it passes, and
    fails once the identity is added to that span's stencil."""
    tree = parse_tree("1")
    p = ParamSet(CTX, (Fraction(1, 3),))
    for N in range(4):
        assert list(vertex_eigen_cases(tree, (), p, N)) == [
            ({"tree": "1", "labeling": [], "vertex": "global"}, True)
        ]
    original = multihahn._vertex_stencil

    def plus_identity(p, N, lo, hi):
        rows, den = original(p, N, lo, hi)
        assert (lo, hi) == (0, 1)
        return tuple((cols + (r,), coeffs + (den,)) for r, (cols, coeffs) in enumerate(rows)), den

    monkeypatch.setattr(multihahn, "_vertex_stencil", plus_identity)
    assert [ok for _, ok in vertex_eigen_cases(tree, (), p, 2)] == [False]


def test_raise_basis_element_consistency():
    p = make_params(3)
    tree = parse_tree("(1 (2 3))")
    N = 4
    for n in range(N):
        lifted = [raise_basis_element(e, N) for e in basis(tree, p, n, n)]
        direct = basis(tree, p, n, N)
        for le, de in zip(lifted, direct):
            assert le.grid == de.grid
            assert le.N == N and le.labeling == de.labeling
    # Two hops agree with one.
    e0 = basis(tree, p, 1, 1)[0]
    via_mid = raise_basis_element(raise_basis_element(e0, 2), 4)
    assert via_mid.grid == raise_basis_element(e0, 4).grid
    with pytest.raises(ValueError):
        raise_basis_element(basis(tree, p, 1, 3)[0], 2)


def test_xi_is_right_comb_basis():
    for h in (3, 4):
        p = make_params(h)
        rc = right_comb(h)
        for n in range(3):
            for m in enumerate_labelings(rc, n):
                for x in GridFunction.zero(h, 3).domain():
                    assert xi_polynomial(p, m, x) == eval_Q(rc, m, p, x)
                assert xi_norm(p, m, 3) == norm_Q(rc, m, p, 3)


def test_theta_is_left_comb_basis():
    for h in (3, 4):
        p = make_params(h)
        lc = left_comb(h)
        for n in range(3):
            for nv in enumerate_labelings(lc, n):  # bottom-up tuples
                pre = tuple(reversed(nv))
                for x in GridFunction.zero(h, 3).domain():
                    assert theta_polynomial(p, nv, x) == eval_Q(lc, pre, p, x)


def test_comb_forms_reject_wrong_label_or_variable_counts():
    p = make_params(3)
    with pytest.raises(ValueError):
        xi_polynomial(p, (1,), (0, 0, 0))
    with pytest.raises(ValueError):
        theta_polynomial(p, (1, 0), (0, 0))
    with pytest.raises(ValueError):
        xi_norm(p, (1, 2), 1)


def test_norm_against_level_shift():
    # The closed-form norm carries the level dependence entirely in the
    # prefactor; check the ratio between consecutive levels.
    p = make_params(3)
    tree = parse_tree("((1 2) 3)")
    lab = (1, 1)
    n = 2
    A3 = p.prefix_product(3)
    for N in range(n, 5):
        ratio = norm_Q(tree, lab, p, N + 1) / norm_Q(tree, lab, p, N)
        expect = (
            (1 - A3 * CTX.q_power(3 + 2 * n) * CTX.q_power(N - n))
            / (1 - CTX.q_power(N + 1 - n))
            * CTX.q_power((norm_exponent(N + 1, n) - norm_exponent(N, n)) // 2)
        )
        assert ratio == expect
