"""Tree-indexed multivariable bases: values, norms, eigenstructure."""

import math
from fractions import Fraction

import pytest

from qtreehahn import (
    GridFunction,
    Hahn1DSpec,
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
    theta_labeling_to_preorder,
    theta_polynomial,
    vertex_eigenvalue,
    xi_norm,
    xi_polynomial,
    ZeroDenominator,
)
from qtreehahn import multihahn
from qtreehahn._linalg import rank
from qtreehahn.multihahn import norm_exponent, vertex_eigen_cases
from qtreehahn.trees import child_sums, coefficient_sums, enumerate_labelings

from conftest import PRIMARY_ALPHAS, make_ctx, make_params

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
    """On warm rows a level build makes no Fraction at all: the factor
    columns' alpha and beta are integer pairs too."""
    p = make_params(5, "secondary")
    for tree in all_trees(5)[:6]:
        for N in range(4):
            for n in range(N + 1):
                multihahn.basis.__wrapped__(tree, p, n, N)  # warms the rows
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


def test_basis_validation_and_cache():
    p = make_params(3)
    tree = parse_tree("(1 (2 3))")
    with pytest.raises(ValueError):
        basis(tree, p, 3, 2)
    assert basis(tree, p, 1, 2) is basis(tree, p, 1, 2)
    labs = [e.labeling for e in basis(tree, p, 2, 3)]
    assert labs == enumerate_labelings(tree, 2)


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
                pre = theta_labeling_to_preorder(h, nv)
                for x in GridFunction.zero(h, 3).domain():
                    assert theta_polynomial(p, nv, x) == eval_Q(lc, pre, p, x)


def test_theta_label_order():
    assert theta_labeling_to_preorder(4, (1, 2, 3)) == (3, 2, 1)
    with pytest.raises(ValueError):
        theta_labeling_to_preorder(3, (1, 2, 3))
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
