"""Connection coefficients: one-move expansions, paths, oracles, bridges."""

import functools
import hashlib
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreehahn import (
    ConnectionMatrix,
    GridFunction,
    InvalidSlice,
    MoveRecord,
    NotInKernel,
    NotRightReachable,
    ParamSet,
    QContext,
    Racah1DSpec,
    all_trees,
    apply_L,
    apply_move,
    basis,
    child_sums,
    coefficient_sums,
    comb_connection_product,
    composition_count,
    connection_by_path,
    connection_oracle,
    dunkl_expansion_coeffs,
    enumerate_labelings,
    find_rl_path,
    gr_conversion_factor,
    gr_correspondence_check,
    gr_substitution,
    gr_weight_factor,
    inner_product,
    kernel_basis,
    kernel_interpolation_basis,
    left_comb,
    norm_Q,
    one_move_coefficients,
    parse_tree,
    pochhammer,
    q_factorial,
    racah,
    racah_eval,
    right_comb,
    theta_polynomial,
    three_dim_racah_example_check,
    transplant_right_to_left,
    vertex_eigenvalue,
    xi_polynomial,
    ZeroDenominator,
)
from qtreehahn import connect
from qtreehahn._linalg import over_common_denominator
from qtreehahn.connect import _local_block, _move_plan, _reduced_row, _step
from qtreehahn.hahn1d import _racah_block
from qtreehahn.qops import _eigenvalue

from conftest import MIXED_ALPHAS, make_params

P3 = make_params(3)
CTX = P3.ctx
# Alphas of mixed sign, outside both positivity regimes: some squared norms
# are negative, so the oracle must move their sign into the numerators.
MIXED_SIGNS = ParamSet(CTX, (Fraction(-1, 2), Fraction(5, 3), Fraction(7, 2), Fraction(-3, 4)), unchecked=True)


# --- single moves --------------------------------------------------------


def test_one_move_three_leaves_is_single_racah_row():
    a1, a2, a3 = P3.alphas
    rc = right_comb(3)
    _, move = transplant_right_to_left(rc, 0)
    for n in range(4):
        for cvec in enumerate_labelings(rc, n):
            c0, c1 = cvec
            expansion = dict(one_move_coefficients(move, cvec, P3))
            for u in range(n + 1):
                want = racah_eval(
                    CTX, u, c1, a2, a1, a2 * a3 * CTX.q_power(n + 1), n
                )
                assert expansion.get((n - u, u), Fraction(0)) == want


def test_one_move_rejects_wrong_length_labeling():
    _, move = transplant_right_to_left(right_comb(4), 0)
    p4 = make_params(4)
    for cvec in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            one_move_coefficients(move, cvec, p4)


def test_one_move_degree_zero_is_trivial():
    p4 = make_params(4)
    for tree in all_trees(4):
        for vert in tree.vertices:
            if vert.right is None:
                continue
            _, move = transplant_right_to_left(tree, vert.index)
            zeros = (0,) * tree.n_internal
            assert one_move_coefficients(move, zeros, p4) == [(zeros, Fraction(1))]


def test_one_move_preserves_degree_and_blocks():
    p4 = make_params(4)
    tree = right_comb(4)
    _, move = transplant_right_to_left(tree, 1)
    for cvec in enumerate_labelings(tree, 3):
        for dvec, value in one_move_coefficients(move, cvec, p4):
            assert sum(dvec) == 3
            assert value != 0
            assert dvec[0] == cvec[0]  # label above the moved vertex is kept


# --- paths against the oracle -------------------------------------------


def test_path_equals_oracle_three_leaves():
    rc, lc = right_comb(3), left_comb(3)
    for n in range(5):
        got = connection_by_path(rc, lc, n, P3)
        want = connection_oracle(rc, lc, n, P3)
        assert got.rows == want.rows
        assert got.path is not None and want.path is None
        assert got.orthogonality_check()
        assert got.defining_relation_check()
        assert got.defining_relation_check(N=n + 2)


def test_path_equals_oracle_every_reachable_five_leaf_pair():
    p5 = make_params(5)
    trees = all_trees(5)
    pairs = []
    for src in trees:
        for tgt in trees:
            if src == tgt:
                continue
            try:
                pairs.append((src, tgt, find_rl_path(src, tgt)))
            except NotRightReachable:
                pass
    assert len(pairs) == 54
    for src, tgt, path in pairs:
        for n in range(1, 4):
            got = connection_by_path(src, tgt, n, p5, path=path)
            assert got.rows == connection_oracle(src, tgt, n, p5).rows, (src, tgt, n)


@functools.cache
def _reachable_pairs(h):
    """Every ordered pair of distinct h-leaf trees joined by right-to-left
    rotations."""
    pairs = []
    for src in all_trees(h):
        for tgt in all_trees(h):
            try:
                find_rl_path(src, tgt)
            except NotRightReachable:
                continue
            if src != tgt:
                pairs.append((src, tgt))
    return pairs


def _assert_push_is_the_per_move_composition_and_the_oracle(params_of):
    for h in range(2, 6):
        p = params_of(h)
        for src, tgt in _reachable_pairs(h):
            path = find_rl_path(src, tgt)
            for n in range(4):
                got = connection_by_path(src, tgt, n, p, path=path)
                ranks = {d: t for t, d in enumerate(enumerate_labelings(tgt, n))}
                for s, c in enumerate(enumerate_labelings(src, n)):
                    weights = ({c: 1}, 1)
                    for move in path:
                        weights = apply_move(move, weights, p)
                    nums, den = weights
                    assert got.integer_rows[s] == ({ranks[d]: v for d, v in nums.items()}, den), (src, tgt, c)
                want = connection_oracle(src, tgt, n, p)
                assert got.integer_rows == want.integer_rows, (src, tgt, n)


def test_path_push_equals_the_per_move_composition_and_the_oracle():
    """Every reachable pair with h <= 5 at degrees 0..3: each row pushed
    through the whole path and reduced once is the row that `apply_move`
    returns move by move, reducing after each, and the oracle's row."""
    _assert_push_is_the_per_move_composition_and_the_oracle(make_params)


def test_path_push_equals_the_oracle_at_unchecked_mixed_sign_alphas():
    """The same at alphas of both signs outside every positivity regime:
    `MIXED_SIGNS` at h = 4, and the leading entries of `MIXED_ALPHAS` at
    every other h."""
    _assert_push_is_the_per_move_composition_and_the_oracle(
        lambda h: MIXED_SIGNS if h == 4 else ParamSet(CTX, MIXED_ALPHAS[:h], unchecked=True)
    )


def test_path_matrices_vanish_where_a_shared_span_has_unequal_eigenvalues():
    """Q^S_c and Q^T_d are eigenfunctions of the operator of every span
    that is a vertex of both trees, and that operator is symmetric, so
    r_c(d) = 0 wherever the two eigenvalues there differ: every reachable
    pair with h <= 5 at degrees 0..3."""
    marked = 0
    for h in range(3, 6):
        p = make_params(h)
        for src, tgt in _reachable_pairs(h):
            tgt_vertices = {(w.lo, w.hi): w.index for w in tgt.vertices}
            shared = [
                (u.index, tgt_vertices[u.lo, u.hi]) for u in src.vertices if (u.lo, u.hi) in tgt_vertices
            ]
            for n in range(4):
                conn = connection_by_path(src, tgt, n, p)
                for c in conn.source_labelings():
                    for d in conn.target_labelings():
                        if any(
                            vertex_eigenvalue(src, c, p, u) != vertex_eigenvalue(tgt, d, p, w)
                            for u, w in shared
                        ):
                            assert conn.value(c, d) == 0, (src, tgt, c, d)
                            marked += 1
    assert marked > 0


# The two positivity regimes at q = 1/4 with n_max = 3: every alpha in
# (0, 1/q) = (0, 4), or every alpha above q^(-3) = 64.
_REGIMES = (
    st.fractions(0, 4, max_denominator=12).filter(lambda a: 0 < a < 4),
    st.fractions(64, 400, max_denominator=12).filter(lambda a: a > 64),
)


@st.composite
def _reachable_cases(draw):
    h = draw(st.integers(3, 5))
    src, tgt = draw(st.sampled_from(_reachable_pairs(h)))
    band = draw(st.sampled_from(_REGIMES))
    alphas = draw(st.lists(band, min_size=h, max_size=h))
    return src, tgt, draw(st.integers(0, 2)), ParamSet(CTX, alphas, n_max=3)


@settings(max_examples=80, deadline=None)
@given(_reachable_cases())
def test_path_equals_oracle_at_random_alphas_in_either_regime(case):
    """The rotation route, the oracle and orthogonality agree at drawn
    alphas, and the closed-form norms one level up are the Gram diagonal."""
    src, tgt, n, p = case
    got = connection_by_path(src, tgt, n, p)
    assert got.rows == connection_oracle(src, tgt, n, p).rows
    assert got.orthogonality_check()
    for e in basis(src, p, n, n + 1):
        assert norm_Q(src, e.labeling, p, n + 1) == inner_product(e.grid, e.grid, p)


# The same two regimes with n_max = 4, for the Gram diagonal at level 4:
# every alpha in (0, 4), or every alpha above q^(-4) = 256.
_REGIMES_4 = (
    _REGIMES[0],
    st.fractions(256, 1600, max_denominator=12).filter(lambda a: a > 256),
)


@st.composite
def _six_leaf_degree_three_cases(draw):
    src, tgt = draw(st.sampled_from(_reachable_pairs(6)))
    alphas = draw(st.lists(draw(st.sampled_from(_REGIMES_4)), min_size=6, max_size=6))
    return src, tgt, ParamSet(CTX, alphas, n_max=4)


@settings(max_examples=12, deadline=None)
@given(_six_leaf_degree_three_cases())
def test_path_equals_oracle_on_six_leaves_at_degree_three(case):
    """The checks above at h = 6 and n = 3, where a pair's path is up to
    six moves long."""
    src, tgt, p = case
    got = connection_by_path(src, tgt, 3, p)
    assert got.rows == connection_oracle(src, tgt, 3, p).rows
    assert got.orthogonality_check()
    for e in basis(src, p, 3, 4):
        assert norm_Q(src, e.labeling, p, 4) == inner_product(e.grid, e.grid, p)


@pytest.mark.parametrize("regime", ["primary", "secondary"])
def test_oracle_is_the_definition_for_every_four_leaf_pair(regime):
    """Every entry is <Q_c, Q_d> / <Q_d, Q_d> through the public inner
    product, and exactly the nonzero ones are stored."""
    p4 = make_params(4, regime)
    trees = all_trees(4)
    for n in range(3):
        grids = {t: {e.labeling: e.grid for e in basis(t, p4, n, n)} for t in trees}
        for src in trees:
            for tgt in trees:
                want = {}
                for c, f in grids[src].items():
                    ratios = {
                        d: inner_product(f, g, p4) / inner_product(g, g, p4)
                        for d, g in grids[tgt].items()
                    }
                    want[c] = {d: v for d, v in ratios.items() if v}
                assert connection_oracle(src, tgt, n, p4).rows == want, (src, tgt, n)


# Five-leaf alphas above q^(-3) = 64: the second positivity regime at n_max = 3.
_LARGE_ALPHAS = (Fraction(131, 2), Fraction(67), Fraction(211, 3), Fraction(80), Fraction(401, 5))


@pytest.mark.parametrize(
    "p5",
    [make_params(5), ParamSet(CTX, _LARGE_ALPHAS, n_max=3), ParamSet(CTX, MIXED_ALPHAS, unchecked=True)],
    ids=["small-alphas", "large-alphas", "mixed-signs"],
)
def test_block_oracle_is_the_definition_for_every_five_leaf_pair(p5):
    """Every ordered pair of five-leaf trees at degrees 0..3: each entry is
    <Q_c, Q_d> / <Q_d, Q_d> through the public inner product, with each
    target norm taken once, and exactly the nonzero ones are stored, so
    the block rule skips no nonzero entry.  The inner product is
    symmetric, so one table of it serves both orders of a pair."""
    trees = all_trees(5)
    for n in range(4):
        grids = {t: {e.labeling: e.grid for e in basis(t, p5, n, n)} for t in trees}
        norms = {t: {d: inner_product(g, g, p5) for d, g in grids[t].items()} for t in trees}
        for k, src in enumerate(trees):
            for tgt in trees[k:]:
                dots = {
                    (c, d): inner_product(f, g, p5)
                    for c, f in grids[src].items()
                    for d, g in grids[tgt].items()
                }
                flipped = {(d, c): v for (c, d), v in dots.items()}
                for a, b, table in ((src, tgt, dots), (tgt, src, flipped)):
                    want = {c: {} for c in grids[a]}
                    for (c, d), v in table.items():
                        if v:
                            want[c][d] = v / norms[b][d]
                    assert connection_oracle(a, b, n, p5).rows == want, (a, b, n)


def test_oracle_takes_one_dot_product_per_target_norm_and_per_block_entry(monkeypatch):
    """Every ordered pair of five-leaf trees at degree 2: the oracle takes
    one dot product per target norm and one per (c, d) whose eigenvalues
    agree at every span below the root that is a vertex of both trees,
    and no others.  A dot product multiplies one pair of entries per
    point of [5; 2], so the count is read from the calls of `mul`."""
    p5, n = make_params(5), 2
    calls = []
    monkeypatch.setattr(connect, "mul", lambda x, y: calls.append(None) or x * y)
    trees = all_trees(5)
    skipped = 0
    for src in trees:
        for tgt in trees:
            tgt_vertices = {(w.lo, w.hi): w.index for w in tgt.vertices}
            shared = [
                (u.index, tgt_vertices[u.lo, u.hi])
                for u in src.vertices[1:]
                if (u.lo, u.hi) in tgt_vertices
            ]
            sources, targets = enumerate_labelings(src, n), enumerate_labelings(tgt, n)
            in_blocks = sum(
                all(vertex_eigenvalue(src, c, p5, u) == vertex_eigenvalue(tgt, d, p5, w) for u, w in shared)
                for c in sources
                for d in targets
            )
            skipped += len(sources) * len(targets) - in_blocks
            calls.clear()
            connection_oracle(src, tgt, n, p5)
            assert len(calls) == (len(targets) + in_blocks) * composition_count(5, n), (src, tgt)
    assert skipped > 0


def test_two_levels_share_a_span_eigenvalue_only_where_p_q_power_is_one():
    """lambda(m) - lambda(m') = (q^(-m) - q^(-m')) (1 - P q^(m+m'-1)) for
    the eigenvalue lambda(m) = q^(-m) (1 - q^m) (1 - P q^(m-1)) of a span
    with p-value P, so the oracle's blocks, keyed by eigenvalue, merge two
    levels exactly where P q^(m+m'-1) = 1."""
    q = CTX.q
    for P in (Fraction(2, 3), Fraction(-7, 5), Fraction(1), q**-3, Fraction(16)):
        lam = [Fraction(*_eigenvalue(CTX, (P.numerator, P.denominator), m)) for m in range(5)]
        for m in range(5):
            for m2 in range(5):
                assert lam[m] - lam[m2] == (q**-m - q**-m2) * (1 - P * q ** (m + m2 - 1)), (P, m, m2)
                assert (lam[m] == lam[m2]) == (m == m2 or P * q ** (m + m2 - 1) == 1)


# q = 1/4 and alpha_1 alpha_2 = 256: the span (0, 2] has the p-value
# alpha_1 alpha_2 q^2 = 16, where its levels 1 and 2 share an eigenvalue,
# and so do its levels 0 and 3.
COLLIDING = ParamSet(CTX, (Fraction(32), Fraction(8), Fraction(2, 3), Fraction(3, 5), Fraction(4, 7)), unchecked=True)


def _oracle_outcome(src, tgt, n, p):
    """The oracle's canonical integer rows as text, each rank read as its
    labeling, or the text of the ZeroDenominator it raises."""
    try:
        matrix = connection_oracle(src, tgt, n, p)
    except ZeroDenominator as exc:
        return f"ZeroDenominator: {exc}"
    targets = matrix.target_labelings()
    return repr(sorted(
        (c, sorted((targets[t], v) for t, v in nums.items()), den)
        for c, (nums, den) in zip(matrix.source_labelings(), matrix.integer_rows)
    ))


def test_oracle_where_two_levels_of_a_shared_span_share_an_eigenvalue():
    """At COLLIDING every ordered five-leaf pair at degrees 1..4 has the
    outcome of the oracle that took every dot product, before the block
    rule: the same integer rows or the same ZeroDenominator text, pinned
    as one digest.  A tree with the vertex (0, 2] has a basis pole from
    degree 2 on, where the two levels first meet, so every pair with such
    a tree raises there."""
    assert COLLIDING.p_pair(0, 2) == (16, 1)
    # 16 q^(m+m'-1) = 1 wherever m + m' = 3
    assert [Fraction(*_eigenvalue(CTX, (16, 1), m)) for m in range(5)] == [0, -45, -45, 0, Fraction(765, 4)]
    trees = all_trees(5)
    outcomes = []
    for n in range(1, 5):
        for src in trees:
            for tgt in trees:
                outcome = _oracle_outcome(src, tgt, n, COLLIDING)
                with_02 = any((v.lo, v.hi) == (0, 2) for t in (src, tgt) for v in t.vertices)
                assert outcome.startswith("ZeroDenominator") == (n >= 2 and with_02), (src, tgt, n)
                outcomes.append(outcome)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "bb0ec1ad8933a17fc23c82d178fab465be75c1d5f3a8621058095c32fb92f460"


def test_warm_oracle_builds_one_fraction_per_nonzero_entry(fraction_builds):
    """Warm, neither route builds a Fraction until `.rows` is read; the
    first read builds one per nonzero entry, and later reads none."""
    p5 = make_params(5)
    rc, lc = right_comb(5), left_comb(5)
    for route in (connection_oracle, connection_by_path):
        route(rc, lc, 3, p5)  # fills the basis, weight, plan and block caches
        fraction_builds.clear()
        matrix = route(rc, lc, 3, p5)
        assert fraction_builds == [], route
        rows = matrix.rows
        assert len(fraction_builds) == sum(map(len, rows.values())) > 0
        assert matrix.rows is rows and len(fraction_builds) == sum(map(len, rows.values()))


def _assert_integer_rows(matrix):
    """One row per source labeling, each canonical and keyed by target
    ranks, and `.rows` is its Fraction view keyed by labelings."""
    sources, targets = matrix.source_labelings(), matrix.target_labelings()
    assert type(matrix.integer_rows) is tuple and len(matrix.integer_rows) == len(sources)
    for s, (nums, den) in enumerate(matrix.integer_rows):
        assert den > 0 and math.gcd(den, *nums.values()) == 1, s
        assert all(type(v) is int and v for v in nums.values()), s
        assert all(t in range(len(targets)) for t in nums), s
    assert matrix.rows == {
        c: {targets[t]: Fraction(v, den) for t, v in nums.items()}
        for c, (nums, den) in zip(sources, matrix.integer_rows)
    }


@pytest.mark.parametrize("p4", [make_params(4, "secondary"), MIXED_SIGNS], ids=["secondary", "mixed-signs"])
def test_every_route_keeps_canonical_integer_rows_under_its_fraction_view(p4):
    trees = all_trees(4)
    negative_norms = 0
    for src in trees:
        for tgt in trees:
            for n in range(3):
                negative_norms += sum(norm_Q(tgt, d, p4, n) < 0 for d in enumerate_labelings(tgt, n))
                oracle = connection_oracle(src, tgt, n, p4)
                inverse = oracle.invert()
                for matrix in (oracle, inverse, oracle.compose(inverse)):
                    _assert_integer_rows(matrix)
                assert inverse.integer_rows == connection_oracle(tgt, src, n, p4).integer_rows
                assert oracle.compose(inverse).is_identity()
                try:
                    path = connection_by_path(src, tgt, n, p4)
                except NotRightReachable:
                    continue
                _assert_integer_rows(path)
                assert path.integer_rows == oracle.integer_rows
    assert (negative_norms > 0) == (p4 is MIXED_SIGNS)


def test_move_tables_match_displayed_coefficient():
    # Each row against the paper's one-move coefficient, evaluated with the
    # unmemoized `racah` and matched to the rotated tree's labelings: the
    # labels off the two rotated vertices are kept, and u is the coefficient
    # sum of the new left child of the rotated vertex.
    p5 = make_params(5)
    for tree in all_trees(5):
        for U in tree.vertices:
            if U.right is None:
                continue
            target, move = transplant_right_to_left(tree, U.index)
            R = tree.vertices[U.right]
            k, r = U.index, R.index
            p1 = p5.span_p(U.lo, U.split)
            p2 = p5.span_p(R.lo, R.split)
            p3 = p5.span_p(R.split, R.hi)
            for n in range(4):
                for c in enumerate_labelings(tree, n):
                    cs = coefficient_sums(tree, c)
                    (i, v), (l, j), n_U = child_sums(U, cs), child_sums(R, cs), cs[k]
                    want = {}
                    for d in enumerate_labelings(target, n):
                        if c[:k] + c[k + 1 : r] + c[r + 1 :] != d[:k] + d[k + 2 :]:
                            continue
                        u = coefficient_sums(target, d)[k + 1]
                        spec = Racah1DSpec(
                            CTX,
                            u - i - l,
                            p2 * CTX.q_power(2 * l - 1),
                            p1 * CTX.q_power(2 * i - 1),
                            p2 * p3 * CTX.q_power(n_U + l + j - i - 1),
                            n_U - i - l - j,
                        )
                        value = CTX.q_power(-i * (v - l - j)) * racah(spec, v - l - j)
                        if value != 0:
                            want[d] = value
                    assert dict(one_move_coefficients(move, c, p5)) == want, (tree, k, c)
    caches = (_move_plan, _local_block)
    assert all(cache.cache_info().maxsize is not None for cache in caches)
    rc, lc = right_comb(5), left_comb(5)
    connection_by_path(rc, lc, 2, make_params(5))
    before = [cache.cache_info() for cache in caches]
    connection_by_path(rc, lc, 2, make_params(5))
    after = [cache.cache_info() for cache in caches]
    for old, new in zip(before, after):
        assert new.hits > old.hits and new.misses == old.misses


def _moves(h):
    for tree in all_trees(h):
        for U in tree.vertices:
            if U.right is not None:
                yield transplant_right_to_left(tree, U.index)[1]


def test_move_tables_are_integers_over_one_denominator():
    """A step's block rows, each times its factor, are integers over one
    denominator D, the lcm of the entries' reduced denominators, and place
    each source labeling's coefficients at the plan's target ranks."""
    p5 = make_params(5)
    for move in _moves(5):
        for n in range(4):
            plan, rows, D = _step(move, n, p5)
            assert type(D) is int and D > 0
            assert all(type(factor) is int and factor > 0 for _, factor in rows)
            entries = [Fraction(num * factor, D) for row, factor in rows for _, num in row]
            assert D == math.lcm(*(value.denominator for value in entries))
            sources = enumerate_labelings(move.source, n)
            targets = enumerate_labelings(move.target, n)
            assert len(plan.cells) == len(plan.targets) == len(sources)
            for cvec, cell, places in zip(sources, plan.cells, plan.targets):
                row, factor = rows[cell]
                assert all(type(t) is int and 0 <= t < len(targets) for t in places)
                assert all(type(m) is int and 0 <= m < len(places) for m, _ in row)
                assert all(type(num) is int and num != 0 for _, num in row)
                assert one_move_coefficients(move, cvec, p5) == [
                    (targets[places[m]], Fraction(num * factor, D)) for m, num in row
                ]


def test_move_tables_build_no_fraction(fraction_builds):
    p5 = make_params(5)
    moves = list(_moves(5))
    fraction_builds.clear()
    _move_plan.cache_clear()
    _local_block.cache_clear()
    for move in moves:
        for n in range(4):
            _step(move, n, p5)
    assert fraction_builds == []


def test_each_local_block_is_built_once_across_moves_and_degrees(monkeypatch):
    """The steps of every five-leaf move at degrees 0..3 build one
    local block per distinct (spans, i, l, j, n_U) with N = n_U - i - l - j
    > 0, with the sums read by the `coefficient_sums` walk, and share it
    between moves and degrees; each block has a row for every x = 0..N.
    No key with N = 0 reaches the block cache: every lookup is one of the
    N > 0 keys, and every build has N > 0."""
    p5 = make_params(5)
    builds = []

    def counted(*args):
        builds.append(args)
        return _racah_block(*args)

    monkeypatch.setattr(connect, "_racah_block", counted)
    _local_block.cache_clear()
    keys, looked_up = set(), 0
    for move in _moves(5):
        tree = move.source
        U = tree.vertices[move.vertex]
        R = tree.vertices[U.right]
        for n in range(4):
            _step(move, n, p5)
            table_keys = set()
            for c in enumerate_labelings(tree, n):
                cs = coefficient_sums(tree, c)
                (i, _), (l, j) = child_sums(U, cs), child_sums(R, cs)
                if cs[U.index] > i + l + j:
                    table_keys.add((U.lo, U.split, R.split, R.hi, i, l, j, cs[U.index]))
            keys |= table_keys
            looked_up += len(table_keys)
    info = _local_block.cache_info()
    assert len(builds) == info.misses == info.currsize == len(keys)
    assert info.hits == looked_up - len(keys) > 0
    assert info.hits + info.misses == looked_up  # no lookup of an N = 0 key
    assert all(N > 0 and len(scales) == N + 1 for *_, N, scales in builds)  # a factor per x


def test_move_plans_carry_no_parameters():
    """Steps of one move and degree at two alpha vectors, and at two
    values of q, share one plan: one miss, then hits."""
    move = next(m for m in _moves(5) if m.source == right_comb(5))
    others = [make_params(5, "secondary"), make_params(5, s=Fraction(2, 3))]
    _move_plan.cache_clear()
    for p in [make_params(5)] + others:
        _step(move, 3, p)
    info = _move_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    plan = _move_plan(move, 3)
    assert all(type(v) is int for v in move.spans) and plan.domain.points == tuple(
        enumerate_labelings(move.source, 3)
    )
    assert len(plan.cells) == len(plan.targets) == len(plan.domain.points)


def test_a_pole_raises_before_any_push():
    """At these alphas the second move of a two-move path reads a q-Racah
    pole, though not in the row of a labeling that the first move sends
    (1, 0, 0) to.  Pushing (1, 0, 0) on still raises at the second move, a
    fresh copy of the pole's error, and so does the whole path."""
    p = ParamSet(CTX, (Fraction(2), Fraction(2), Fraction(2), Fraction(32)), unchecked=True)
    source = parse_tree("(1 (2 (3 4)))")
    first = transplant_right_to_left(source, 1)[1]
    second = transplant_right_to_left(first.target, 0)[1]
    middle = apply_move(first, ({(1, 0, 0): 1}, 1), p)
    plan = _move_plan(second, 1)
    blocks = [_local_block(p, *second.spans, *group) for group in plan.groups]
    cells = [row for rows, _ in blocks for row in rows]
    read = {plan.domain.ranks[d] for d in middle[0]}
    poles = [s for s, cell in enumerate(plan.cells) if isinstance(cells[cell], ArithmeticError)]
    assert read and poles and read.isdisjoint(poles)
    text = "4phi3 denominator vanished at k=1 for alpha=1, beta=2, delta=2"
    assert str(cells[plan.cells[poles[0]]]) == text  # the first pole in enumeration order
    errors = []
    for call in (
        lambda: apply_move(second, middle, p),
        lambda: connection_by_path(source, second.target, 1, p, (first, second)),
    ):
        with pytest.raises(ZeroDenominator) as caught:
            call()
        assert type(caught.value) is ZeroDenominator and str(caught.value) == text
        assert caught.value is not cells[plan.cells[poles[0]]]
        errors.append(caught.value)
    assert errors[0] is not errors[1]


def _step_through_every_block(move, n, params):
    """`_step` with every group, N = 0 included, sent through
    `_local_block`: the reference for the groups that build no block."""
    plan = _move_plan(move, n)
    blocks = [_local_block(params, *move.spans, *group) for group in plan.groups]
    D = math.lcm(*(L for _, L in blocks))
    rows = [(row, D // L) for block, L in blocks for row in block]
    poles = {cell for cell, (row, _) in enumerate(rows) if isinstance(row, ArithmeticError)}
    if poles:
        row = rows[next(cell for cell in plan.cells if cell in poles)][0]
        raise type(row)(*row.args)
    return plan, rows, D


def _step_or_error(step, move, n, params):
    try:
        return step(move, n, params)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def test_identity_groups_leave_every_step_and_every_pole_unchanged():
    """Every five-leaf move at degrees 0..3 gives the (plan, rows, D), or
    the error type and text, of a step that builds every block, at the
    stock alphas and at unchecked alphas from {2, 8, 32, 1/2, 1/8, 3},
    whose products meet q-Racah poles at q = 1/4."""
    rng = random.Random(34)
    values = [Fraction(2), Fraction(8), Fraction(32), Fraction(1, 2), Fraction(1, 8), Fraction(3)]
    params = [make_params(5), make_params(5, "secondary")] + [
        ParamSet(CTX, tuple(rng.choice(values) for _ in range(5)), unchecked=True)
        for _ in range(12)
    ]
    moves = list(_moves(5))
    outcomes = {"rows": 0, "identity": 0, "poles": 0}
    for p in params:
        for move in moves:
            for n in range(4):
                got = _step_or_error(_step, move, n, p)
                assert got == _step_or_error(_step_through_every_block, move, n, p), (p, move, n)
                if len(got) == 2:
                    outcomes["poles"] += 1
                    continue
                outcomes["rows"] += 1
                groups = got[0].groups
                outcomes["identity"] += any(n_U == i + l + j for i, l, j, n_U in groups)
    assert min(outcomes.values()) > 0, outcomes


def _push_by_fractions(move, weights, params):
    """Reference push of a Fraction combination through one move, from the
    coefficients that `one_move_coefficients` displays."""
    out = {}
    for cvec, w in weights.items():
        if w:
            for dvec, value in one_move_coefficients(move, cvec, params):
                out[dvec] = out.get(dvec, Fraction(0)) + w * value
    return {d: v for d, v in out.items() if v}


def test_apply_move_matches_a_fraction_push():
    rng = random.Random(13)
    p5 = make_params(5)
    moves = list(_moves(5))
    for _ in range(60):
        move = rng.choice(moves)
        labelings = enumerate_labelings(move.source, rng.randrange(4))
        den = rng.randint(1, 40)
        nums = {
            c: rng.choice((0, 0, rng.randint(-50, 50)))
            for c in rng.sample(labelings, min(6, len(labelings)))
        }
        got_nums, got_den = apply_move(move, (nums, den), p5)
        assert got_den > 0 and math.gcd(got_den, *got_nums.values()) == 1
        assert all(type(v) is int and v != 0 for v in got_nums.values())
        want = _push_by_fractions(move, {c: Fraction(w, den) for c, w in nums.items()}, p5)
        assert {d: Fraction(v, got_den) for d, v in got_nums.items()} == want
    assert apply_move(moves[0], ({}, 7), p5) == ({}, 1)
    for move in moves[:5]:
        k = move.source.n_internal
        one, two = (1,) + (0,) * (k - 1), (2, 1) + (0,) * (k - 2)
        stranger = (0,) * (k + 1)
        with pytest.raises(ValueError):
            apply_move(move, ({stranger: 1}, 1), p5)
        # a combination has one degree: a zero weight of another is dropped,
        # a nonzero one is an error that names the degree
        assert apply_move(move, ({two: 0, one: 3}, 1), p5) == apply_move(
            move, ({one: 3}, 1), p5
        )
        message = f"{two} is not a degree-1 labeling of {move.source}"
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_move(move, ({one: 1, two: 1}, 1), p5)


def test_connection_is_path_independent():
    # Right comb to left comb on four leaves: the shortest path has two
    # moves, and a distinct three-move detour gives the same matrix.
    p4 = make_params(4)
    rc, lc = right_comb(4), left_comb(4)
    short = find_rl_path(rc, lc)
    assert len(short) == 2

    t1, m1 = transplant_right_to_left(rc, 1)  # (1 ((2 3) 4))
    t2, m2 = transplant_right_to_left(t1, 0)  # ((1 (2 3)) 4)
    t3, m3 = transplant_right_to_left(t2, 1)  # (((1 2) 3) 4)
    assert t3 == lc
    long_path = [m1, m2, m3]

    for n in range(4):
        a = connection_by_path(rc, lc, n, p4, path=short)
        b = connection_by_path(rc, lc, n, p4, path=long_path)
        assert a.rows == b.rows


def test_connection_composition():
    p4 = make_params(4)
    rc, lc = right_comb(4), left_comb(4)
    mid = parse_tree("((1 2) (3 4))")
    for n in range(3):
        ab = connection_by_path(rc, mid, n, p4)
        bc = connection_by_path(mid, lc, n, p4)
        ac = connection_by_path(rc, lc, n, p4)
        assert ab.compose(bc).rows == ac.rows
    with pytest.raises(ValueError):
        connection_by_path(rc, mid, 1, p4).compose(
            connection_by_path(rc, mid, 1, p4)
        )


def test_compose_rejects_other_q_or_alphas():
    rc, lc = right_comb(3), left_comb(3)
    ctx = QContext(Fraction(1, 2))
    params = ParamSet(ctx, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    other_alphas = ParamSet(ctx, (Fraction(2, 3), Fraction(1, 3), Fraction(1, 5)))
    other_q = ParamSet(QContext(Fraction(1, 3)), params.alphas)
    conn = connection_by_path(rc, lc, 2, params)
    back = conn.invert()
    assert conn.compose(back).is_identity()
    for other in (other_alphas, other_q):
        with pytest.raises(ValueError):
            conn.compose(connection_by_path(rc, lc, 2, other).invert())


def test_orthogonality_check_rejects_a_scaled_entry_or_a_dropped_row():
    p4 = make_params(4)
    conn = connection_by_path(right_comb(4), left_comb(4), 2, p4)
    assert conn.orthogonality_check()
    s, (nums, den) = next((s, row) for s, row in enumerate(conn.integer_rows) if len(row[0]) > 1)
    t = next(iter(nums))
    nums = {**nums, t: 2 * nums[t]}
    g = math.gcd(den, *nums.values())
    rows = list(conn.integer_rows)
    rows[s] = ({e: v // g for e, v in nums.items()}, den // g)
    bad = ConnectionMatrix(conn.source, conn.target, conn.n, conn.params, rows, conn.path)
    c, d = conn.source_labelings()[s], conn.target_labelings()[t]
    assert bad.rows[c][d] == 2 * conn.rows[c][d]
    assert not bad.orthogonality_check()
    rows[s] = ({}, 1)  # the row dropped: zeroed, since every source keeps its rank
    assert not ConnectionMatrix(conn.source, conn.target, conn.n, conn.params, rows, conn.path).orthogonality_check()
    with pytest.raises(ValueError):
        ConnectionMatrix(conn.source, conn.target, conn.n, conn.params, rows[:s] + rows[s + 1 :], conn.path)


def _defining_relation_by_grids(matrix, N):
    """The defining relation summed as `GridFunction`s from the `rows` view."""
    src = {e.labeling: e for e in basis(matrix.source, matrix.params, matrix.n, N)}
    tgt = {e.labeling: e for e in basis(matrix.target, matrix.params, matrix.n, N)}
    for c, row in matrix.rows.items():
        combo = GridFunction.zero(matrix.source.h, N)
        for d, value in row.items():
            combo = combo + tgt[d].grid.scale(value)
        if not (combo - src[c].grid).is_zero():
            return False
    return True


def test_defining_relation_check_rejects_every_changed_entry():
    """The integer check gives the verdict of the `GridFunction` sum on the
    matrix, and fails, as that sum does, when any one entry is changed,
    dropped or added."""
    p4 = make_params(4)
    conn = connection_by_path(right_comb(4), left_comb(4), 2, p4)

    def with_row(s, row):
        rows = conn.integer_rows[:s] + (row,) + conn.integer_rows[s + 1 :]
        return ConnectionMatrix(conn.source, conn.target, conn.n, conn.params, rows, conn.path)

    bad = []
    for s, (nums, den) in enumerate(conn.integer_rows):
        for t in range(len(conn.target_labelings())):
            changed = {**nums, t: nums.get(t, 0) + 1}
            if not changed[t]:
                del changed[t]
            g = math.gcd(den, *changed.values())
            row = ({e: v // g for e, v in changed.items()}, den // g)
            bad.append(with_row(s, row))
        if len(nums) > 1:
            t = next(iter(nums))
            row = ({e: v for e, v in nums.items() if e != t}, den)
            bad.append(with_row(s, row))
    assert len(bad) > len(conn.integer_rows) * len(conn.target_labelings())
    for N in (2, 3):
        assert conn.defining_relation_check(N) and _defining_relation_by_grids(conn, N)
        for matrix in bad:
            assert not matrix.defining_relation_check(N)
            assert not _defining_relation_by_grids(matrix, N)


def test_connection_invert_matches_reverse_oracle():
    rc, lc = right_comb(3), left_comb(3)
    for n in range(4):
        inv = connection_by_path(rc, lc, n, P3).invert()
        assert inv.source == lc and inv.target == rc
        assert inv.path is None
        assert inv.rows == connection_oracle(lc, rc, n, P3).rows
    with pytest.raises(NotRightReachable):
        connection_by_path(lc, rc, 2, P3)
    # every ordered pair of 4-leaf trees, through the path where one exists
    p4 = make_params(4)
    trees = all_trees(4)
    for source in trees:
        for target in trees:
            for n in range(3):
                try:
                    conn = connection_by_path(source, target, n, p4)
                except NotRightReachable:
                    conn = connection_oracle(source, target, n, p4)
                inv = conn.invert()
                assert inv.source == target and inv.target == source
                assert inv.rows == connection_oracle(target, source, n, p4).rows


def test_invert_reads_the_integer_rows(fraction_builds):
    """`invert` builds no `Fraction` view of the matrix it inverts, and its
    integer rows are the reverse oracle's."""
    p4 = make_params(4)
    rc, lc = right_comb(4), left_comb(4)
    conn = connection_by_path(rc, lc, 2, p4)
    fraction_builds.clear()
    inv = conn.invert()
    assert fraction_builds == []
    assert inv.integer_rows == connection_oracle(lc, rc, 2, p4).integer_rows


def test_compose_reads_the_right_factor_s_integer_rows(fraction_builds):
    """`compose` builds no `Fraction` view of its right factor, so the
    orthogonality check builds none of the inverse it has just summed."""
    p4 = make_params(4)
    conn = connection_by_path(right_comb(4), left_comb(4), 2, p4)
    inv = conn.invert()
    fraction_builds.clear()
    assert conn.compose(inv).is_identity()
    assert fraction_builds == []


def _compose_by_fractions(left, right):
    """`compose` read from its left factor's `rows` view, keyed by
    labelings, put over one denominator by `over_common_denominator`: the
    reference for the integer `compose`, its rows by rank."""
    L = math.lcm(*(den for _, den in right.integer_rows))
    scaled = {
        d: [(e, w * (L // den)) for e, w in nums.items()]
        for d, (nums, den) in zip(right.source_labelings(), right.integer_rows)
    }
    rows = []
    for row in left.rows.values():
        vs, D = over_common_denominator(row.values())
        acc = {}
        for d, v in zip(row, vs):
            for e, w in scaled[d]:
                acc[e] = acc.get(e, 0) + v * w
        rows.append(_reduced_row(acc, D * L))
    path = left.path + right.path if left.path is not None and right.path is not None else None
    return tuple(rows), path


def test_compose_equals_the_fraction_reading_compose():
    """On every reachable five-leaf pair at degrees 0..2, products of path
    matrices (split after the path's first move), their `invert` and the
    oracle give the rows and path of a `compose` that reads its left
    factor's `Fraction` view."""
    p5 = make_params(5)
    products = 0
    for src, tgt in _reachable_pairs(5):
        path = find_rl_path(src, tgt)
        for n in range(3):
            conn = connection_by_path(src, tgt, n, p5, path=path)
            inv, oracle = conn.invert(), connection_oracle(src, tgt, n, p5)
            pairs = [(conn, inv), (inv, conn), (oracle, inv), (inv, oracle)]
            if len(path) > 1:
                mid = path[0].target
                head = connection_by_path(src, mid, n, p5, path=path[:1])
                tail = connection_by_path(mid, tgt, n, p5, path=path[1:])
                pairs += [(head, tail), (head, connection_oracle(mid, tgt, n, p5)), (oracle, tail.invert())]
            for left, right in pairs:
                got = left.compose(right)
                assert (got.integer_rows, got.path) == _compose_by_fractions(left, right), (src, tgt, n)
                products += 1
    assert products > 4 * 54 * 3


def test_orthogonality_check_builds_no_fraction(fraction_builds):
    """Neither factor of the orthogonality check's product builds a
    `Fraction`: the matrix, its inverse and their product stay in
    integers."""
    p5 = make_params(5)
    rc, lc = right_comb(5), left_comb(5)
    for n in range(4):
        for conn in (connection_by_path(rc, lc, n, p5), connection_oracle(rc, lc, n, p5)):
            fraction_builds.clear()
            assert conn.orthogonality_check()
            assert fraction_builds == [], n


def test_identity_matrix_for_equal_trees():
    rc = right_comb(3)
    conn = connection_by_path(rc, rc, 2, P3)
    assert conn.path == ()
    assert conn.is_identity()
    assert connection_oracle(rc, rc, 2, P3).is_identity()
    assert not connection_by_path(rc, left_comb(3), 2, P3).is_identity()


def test_connection_value_and_json():
    rc, lc = right_comb(3), left_comb(3)
    conn = connection_by_path(rc, lc, 1, P3)
    assert conn.value((1, 0), (0, 1)) == conn.rows[(1, 0)][(0, 1)] == Fraction(115, 114)
    for c, d in (((2, 0), (0, 1)), ((1, 0), (9, 9)), ((1, 0, 0), (0, 1))):
        assert conn.value(c, d) == 0, (c, d)
    for c in conn.source_labelings():
        for d in conn.target_labelings():
            assert conn.value(c, d) == conn.rows[c].get(d, 0), (c, d)
    leaf = parse_tree("1")  # no vertex: one labeling, (), at n = 0 and none at n = 1
    p1 = make_params(1)
    assert [connection_by_path(leaf, leaf, n, p1).value((), ()) for n in (0, 1)] == [1, 0]
    obj = conn.to_json_obj()
    assert obj["source"] == "(1 (2 3))"
    assert obj["target"] == "((1 2) 3)"
    assert obj["n"] == 1
    assert [m["vertex"] for m in obj["path"]] == [0]
    assert all(set(e) == {"c", "d", "value"} for e in obj["matrix"])


def test_path_validation():
    rc, lc = right_comb(4), left_comb(4)
    _, m1 = transplant_right_to_left(rc, 1)
    with pytest.raises(ValueError):
        connection_by_path(rc, lc, 1, make_params(4), path=[m1])
    bad_order = list(reversed(find_rl_path(rc, lc)))
    with pytest.raises(ValueError):
        connection_by_path(rc, lc, 1, make_params(4), path=bad_order)


def test_a_matrix_with_another_pairs_path_is_refused(monkeypatch):
    """The constructor and `connection_by_path` check a path alike, and
    `connection_by_path` before any step is taken."""
    p4 = make_params(4)
    rc, lc, mid = right_comb(4), left_comb(4), parse_tree("((1 2) (3 4))")
    rows = connection_by_path(rc, lc, 1, p4).integer_rows
    cases = [
        (find_rl_path(rc, mid), f"path ends at {mid}, expected {lc}"),
        (find_rl_path(mid, lc), f"path step starts at {mid}, expected {rc}"),
    ]
    monkeypatch.setattr(connect, "_step", lambda *args: pytest.fail("a step was taken"))
    for path, text in cases:
        with pytest.raises(ValueError, match=re.escape(text)):
            ConnectionMatrix(rc, lc, 1, p4, rows, tuple(path))
        with pytest.raises(ValueError, match=re.escape(text)):
            connection_by_path(rc, lc, 1, p4, path=path)


@pytest.mark.parametrize("entry", ["connection_by_path", "connection_oracle", "apply_move"])
def test_connection_entry_points_refuse_a_parameter_set_for_another_leaf_count(entry):
    rc, lc = right_comb(3), left_comb(3)
    move = MoveRecord(rc, 0)
    call = {
        "connection_by_path": lambda p: connection_by_path(rc, lc, 1, p),
        "connection_oracle": lambda p: connection_oracle(rc, lc, 1, p),
        "apply_move": lambda p: apply_move(move, ({(1, 0): 1}, 1), p),
    }[entry]
    for h in (2, 4):
        with pytest.raises(InvalidSlice, match=re.escape(f"function has 3 variables, params have {h}")):
            call(make_params(h))


_WALK_SOURCES = [t for h in (3, 4, 5) for t in all_trees(h) if t != left_comb(h)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_WALK_SOURCES), st.integers(1, 4), st.data())
def test_connection_is_path_independent_on_random_walks(source, length, data):
    """A walk of moves need not be a shortest path; the product along it
    is still the oracle's matrix."""
    walk, current = [], source
    while len(walk) < length:
        movable = [v.index for v in current.vertices if v.right is not None]
        if not movable:
            break
        walk.append(MoveRecord(current, data.draw(st.sampled_from(movable))))
        current = walk[-1].target
    p = make_params(source.h)
    for n in range(3):
        by_walk = connection_by_path(source, current, n, p, path=walk)
        assert by_walk.integer_rows == connection_oracle(source, current, n, p).integer_rows


# --- edge-value expansion and interpolation kernel ----------------------


def test_dunkl_coeffs_for_theta_are_deltas():
    for n in range(4):
        for i in range(n + 1):
            grid = GridFunction.from_callable(
                3, n, lambda x: theta_polynomial(P3, (i, n - i), x)
            )
            coeffs = dunkl_expansion_coeffs(grid, P3)
            assert coeffs == [
                Fraction(1) if t == i else Fraction(0) for t in range(n + 1)
            ]


def test_dunkl_coeffs_constant():
    assert dunkl_expansion_coeffs(GridFunction.constant(3, 0, 1), P3) == [
        Fraction(1)
    ]


def test_dunkl_rejects_non_kernel():
    bad = GridFunction.delta(3, 2, (1, 1, 0))
    with pytest.raises(NotInKernel):
        dunkl_expansion_coeffs(bad, P3)
    with pytest.raises(ValueError):
        dunkl_expansion_coeffs(GridFunction.zero(4, 1), make_params(4))


def test_edge_values_closed_form():
    # Values of the right-comb kernel functions on the edge x2 = 0 have a
    # closed product form; the expansion coefficients above only consume
    # these values.
    a1, a2, a3 = P3.alphas
    for n in range(5):
        for j in range(n + 1):
            for k in range(n + 1):
                got = xi_polynomial(P3, (n - j, j), (k, 0, n - k))
                want = (
                    (-a1) ** k
                    * CTX.q_half_power(k * (k + 1) - n * n)
                    * q_factorial(CTX, n - j)
                    * pochhammer(CTX, a2 * a3 * CTX.q_power(n + j - k + 2), k)
                    * pochhammer(CTX, CTX.q_power(n - j - k + 1), j)
                    / pochhammer(CTX, a1 * CTX.q, k)
                )
                assert got == want


def test_kernel_interpolation_basis():
    for N in range(5):
        fs = [kernel_interpolation_basis(P3, N, k) for k in range(N + 1)]
        for k, f in enumerate(fs):
            # Edge deltas and kernel membership are re-verified here on
            # top of the constructor's own checks.
            for m in range(N + 1):
                assert f.at((m, 0, N - m)) == (1 if m == k else 0)
            if N >= 1:
                assert apply_L(f, P3).is_zero()
            # Support: x1 <= k <= x1 + x2, and nowhere else.
            for x in f.domain():
                inside = x[0] <= k <= x[0] + x[1]
                assert (f.at(x) != 0) == inside
        # Any kernel function is the edge-value combination of these.
        for g in kernel_basis(3, N, P3):
            combo = GridFunction.zero(3, N)
            for k, f in enumerate(fs):
                combo = combo + f.scale(g.at((k, 0, N - k)))
            assert combo == g
    with pytest.raises(ValueError):
        kernel_interpolation_basis(P3, 2, 3)
    with pytest.raises(ValueError):
        kernel_interpolation_basis(make_params(4), 2, 1)


# --- comb-to-comb closed form and the classical bridge ------------------


def test_comb_product_matches_connection_matrix():
    for h, n_top in ((3, 3), (4, 2)):
        p = make_params(h)
        rc, lc = right_comb(h), left_comb(h)
        for n in range(n_top + 1):
            conn = connection_by_path(rc, lc, n, p)
            for m in enumerate_labelings(rc, n):
                for nv in enumerate_labelings(lc, n):
                    # nv here is bottom-up (n_2, ..., n_h).
                    dvec = tuple(reversed(nv))
                    assert comb_connection_product(p, n, nv, m) == conn.value(
                        m, dvec
                    )


def test_comb_product_validation():
    with pytest.raises(ValueError):
        comb_connection_product(P3, 2, (1, 1), (1, 0, 0))
    with pytest.raises(ValueError):
        comb_connection_product(P3, 2, (1, 0), (1, 1))


def test_gr_substitution_shape():
    p4 = make_params(4)
    sub = gr_substitution(p4, 2)
    assert sub["s"] == 2
    assert sub["b"] == p4.alphas[0]
    assert sub["N"] == 2
    assert len(sub["a"]) == 3
    a2, a3 = p4.alphas[1], p4.alphas[2]
    assert sub["a"][1] == a2 * CTX.q and sub["a"][2] == a3 * CTX.q
    span = p4.alphas[1] * p4.alphas[2] * p4.alphas[3]
    assert sub["a"][0] == CTX.q_power(-2 * 2 - 4 + 2) / span


def test_gr_trivial_values():
    p4 = make_params(4)
    assert gr_weight_factor(p4, 0) == 1
    assert gr_conversion_factor(p4, 0, (0, 0, 0)) == 1
    assert gr_conversion_factor(p4, 0, (0, 0, 0), squared=False) == 1
    with pytest.raises(ValueError):
        gr_conversion_factor(p4, 1, (0, 0))


def test_gr_correspondence_reports():
    for h in (3, 4):
        p = make_params(h)
        for n in range(3):
            reports = gr_correspondence_check(p, n)
            assert [r["identity"] for r in reports] == [
                "classical-product-identity",
                "classical-signed-product-identity",
                "classical-weight-orthogonality",
            ]
            for rep in reports:
                assert rep["status"] == "pass", rep
                assert rep["cases"] > 0
                assert rep["counterexample"] is None
            # the squared identity covers every pair of degree-n labelings
            assert reports[0]["cases"] == len(enumerate_labelings(left_comb(h), n)) ** 2


def test_five_leaf_example_reports():
    p5 = make_params(5)
    for n in range(2):
        reports = three_dim_racah_example_check(p5, n)
        assert [r["identity"] for r in reports] == [
            "worked-example-path",
            "worked-example-triple-product",
            "worked-example-oracle-agreement",
            "worked-example-norm-display",
            "worked-example-orthogonality",
        ]
        for rep in reports:
            assert rep["status"] == "pass", rep
            assert rep["cases"] > 0
