"""Composition lattice, parameter sets, grid functions, weighted inner product."""

import copy
import math
import pickle
import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreehahn import (
    DimensionMismatch,
    GridFunction,
    IndexOutOfRange,
    ParamSet,
    composition_count,
    enumerate_compositions,
    inner_product,
    norm_squared,
    partial_sums,
    pochhammer,
    q_factorial,
    rank_of,
    weight,
)

from qtreehahn import (
    QContext,
    apply_D_at_vertex,
    apply_L,
    basis,
    connect,
    connection_by_path,
    lattice,
    left_comb,
    multihahn,
    norm_Q,
    parse_tree,
    qops,
    right_comb,
)

from conftest import PRIMARY_ALPHAS, SECONDARY_ALPHAS, make_ctx, make_params

CTX = make_ctx()


# --- compositions --------------------------------------------------------


def test_composition_count_matches_binomial():
    for h in range(1, 7):
        for N in range(7):
            assert composition_count(h, N) == comb(N + h - 1, h - 1)
            assert len(enumerate_compositions(h, N)) == composition_count(h, N)


def test_enumeration_is_lexicographic_and_complete():
    pts = enumerate_compositions(3, 4)
    assert pts == sorted(pts)
    assert len(set(pts)) == len(pts)
    assert all(len(x) == 3 and sum(x) == 4 and min(x) >= 0 for x in pts)
    assert pts[0] == (0, 0, 4)
    assert pts[-1] == (4, 0, 0)


@settings(max_examples=80)
@given(st.integers(1, 6), st.integers(0, 8), st.data())
def test_rank_unrank_round_trip(h, N, data):
    points = enumerate_compositions(h, N)
    r = data.draw(st.integers(0, len(points) - 1))
    x = points[r]
    assert rank_of(x) == r
    assert points[rank_of(x)] == x


def test_rank_errors():
    with pytest.raises(IndexOutOfRange):
        rank_of((1, -1, 2))
    with pytest.raises(IndexOutOfRange):
        rank_of(())


def test_partial_sums():
    # Leading zero included: (X_0, X_1, ..., X_h).
    assert partial_sums((2, 0, 3)) == (0, 2, 2, 5)
    assert partial_sums(()) == (0,)


# --- parameter sets ------------------------------------------------------


def test_paramset_accepts_both_stock_families():
    for alphas in (PRIMARY_ALPHAS, SECONDARY_ALPHAS):
        p = ParamSet(ctx=CTX, alphas=alphas)
        assert p.h == 5
        assert p.prefix_product(0) == 1
        assert p.prefix_product(2) == alphas[0] * alphas[1]
        assert p.span_product(1, 3) == alphas[1] * alphas[2]
        assert p.span_product(4, 4) == 1
        sub = ParamSet(p.ctx, p.alphas[1:4], unchecked=True)
        assert sub.alphas == alphas[1:4]


@pytest.mark.parametrize(
    "p",
    [
        ParamSet(ctx=CTX, alphas=PRIMARY_ALPHAS),
        ParamSet(ctx=make_ctx(Fraction(2, 3)), alphas=SECONDARY_ALPHAS[:4]),
        ParamSet(
            ctx=CTX,
            alphas=(Fraction(3, 2), Fraction(0), Fraction(-5, 7), Fraction(9)),
            unchecked=True,
        ),
    ],
    ids=["primary", "secondary", "zero-and-negative"],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_span_tables_equal_products(p, data):
    _assert_span_tables(p)
    # drawn sets over the stock alphas, 0, negatives, integers, 1/q and
    # q^-m at the scan bound and past it: the constructor accepts exactly
    # what the Fraction rule accepts, and rejects the rest with its text
    s = data.draw(st.sampled_from((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))))
    n_max = data.draw(st.sampled_from((1, 3, 12)))
    ctx = QContext(s)
    q = ctx.q
    special = (Fraction(0), Fraction(-2, 3), Fraction(-5), Fraction(1), Fraction(7))
    special += (1 / q, q**-n_max, q ** -(n_max + 1)) + p.alphas
    value = st.one_of(st.sampled_from(special), st.fractions(-3, 30, max_denominator=9))
    alphas = tuple(data.draw(st.lists(value, min_size=1, max_size=5)))
    unchecked = data.draw(st.booleans())
    pole = next(((a, m) for a in alphas for m in range(1, n_max + 1) if a == q**-m), None)
    in_band = all(0 < a < 1 / q for a in alphas) or all(a > q**-n_max for a in alphas)
    if pole is not None:
        want = f"alpha={pole[0]} equals q**(-{pole[1]}); weights degenerate below n_max"
    elif not (unchecked or in_band):
        want = (
            "parameters outside the positivity regime; "
            "pass unchecked=True for generic identity testing"
        )
    else:
        _assert_span_tables(ParamSet(ctx, alphas, n_max, unchecked))
        return
    with pytest.raises(ValueError) as info:
        ParamSet(ctx, alphas, n_max, unchecked)
    assert str(info.value) == want


def _assert_span_tables(p):
    """Every span table entry equals the Fraction product it stands for."""
    alphas = p.alphas
    for lo in range(p.h + 1):
        assert p.prefix_product(lo) == prod(alphas[:lo])
        for hi in range(lo, p.h + 1):
            product = prod(alphas[lo:hi])
            p_value = product * p.ctx.q ** (hi - lo)
            assert p.span_product(lo, hi) == product
            assert p.span_p(lo, hi) == p_value
            assert p.p_pair(lo, hi) == (p_value.numerator, p_value.denominator)


def test_paramset_builds_and_compares_no_fraction(fraction_builds, fraction_key_reads):
    # on an existing context, with Fraction alphas: the pole scan, the band
    # check and both span tables are integer work, accepted or rejected
    ctx = make_ctx()
    pole, out_of_band = (Fraction(1, 2), Fraction(16)), (Fraction(1, 2), Fraction(5))
    fraction_builds.clear()
    fraction_key_reads.clear()
    p = ParamSet(ctx, PRIMARY_ALPHAS)
    ParamSet(ctx, SECONDARY_ALPHAS, n_max=3, unchecked=True)
    with pytest.raises(ValueError, match=r"q\*\*\(-2\)"):  # 16 = q^-2
        ParamSet(ctx, pole)
    with pytest.raises(ValueError, match="positivity regime"):
        ParamSet(ctx, out_of_band)
    hash(p)
    assert fraction_builds == []
    assert fraction_key_reads == []


def test_paramset_rejects_poles_always():
    # alpha = q^(-m) for m <= n_max degenerates weights; even unchecked
    # construction refuses it.
    for m in (1, 3, 12):
        bad = (Fraction(1, 2), CTX.q_power(-m))
        with pytest.raises(ValueError):
            ParamSet(ctx=CTX, alphas=bad)
        with pytest.raises(ValueError):
            ParamSet(ctx=CTX, alphas=bad, unchecked=True)


def test_paramset_band_condition():
    # One parameter outside (0, 1/q) while another is small: rejected
    # unless unchecked.
    mixed = (Fraction(1, 2), Fraction(5))
    with pytest.raises(ValueError):
        ParamSet(ctx=CTX, alphas=mixed)
    p = ParamSet(ctx=CTX, alphas=mixed, unchecked=True)
    assert p.h == 2
    with pytest.raises(ValueError):
        ParamSet(ctx=CTX, alphas=())


def test_paramset_index_errors():
    p = make_params(3)
    with pytest.raises(IndexOutOfRange):
        p.prefix_product(4)
    with pytest.raises(IndexOutOfRange):
        p.span_product(2, 1)
    with pytest.raises(IndexOutOfRange):
        p.span_p(-1, 2)
    with pytest.raises(IndexOutOfRange):
        p.p_pair(1, 4)


# --- parameter identity --------------------------------------------------


def test_parameter_identity_is_q_and_the_alphas():
    alphas = (Fraction(1, 3), Fraction(2, 5))
    p = ParamSet(CTX, alphas)
    unchecked = ParamSet(CTX, alphas, unchecked=True)
    low = ParamSet(CTX, alphas, n_max=3)
    # the validation flags decide what the constructor accepts, not identity
    assert p == unchecked == low
    assert hash(p) == hash(unchecked) == hash(low)
    tree = parse_tree("(1 2)")
    assert basis(tree, unchecked, 1, 2) is basis(tree, p, 1, 2)
    # written forms do not matter, only the values
    assert ParamSet(QContext("2/4"), ("2/6", "2/5")) == p
    assert QContext("2/4") == QContext(Fraction(1, 2))
    assert hash(QContext("2/4")) == hash(QContext(Fraction(1, 2)))
    # one different s or one different alpha does
    assert ParamSet(make_ctx(Fraction(1, 3)), alphas) != p
    assert ParamSet(CTX, (alphas[0], Fraction(3, 5))) != p
    assert ParamSet(CTX, alphas[:1]) != p
    assert p != p.ctx and p != (CTX, alphas) and p != p._key
    assert CTX != (1, 2) and CTX != Fraction(1, 2)


def _fresh_params() -> ParamSet:
    """An equal but distinct parameter set: a new context, new alphas."""
    return ParamSet(
        QContext(Fraction(1, 2)),
        tuple(Fraction(a.numerator, a.denominator) for a in PRIMARY_ALPHAS[:4]),
    )


def test_equal_parameter_sets_share_caches_without_fraction_compares(fraction_key_reads):
    tree, source, target = parse_tree("((1 2) (3 4))"), right_comb(4), left_comb(4)

    def calls(p):
        elems = basis(tree, p, 2, 3)
        f = elems[0].grid
        inner_product(f, elems[-1].grid, p)
        norm_Q(tree, elems[0].labeling, p, 3)
        apply_D_at_vertex(f, p, 1, 3)
        apply_L(f, p)
        connection_by_path(source, target, 2, p)

    caches = (
        basis,
        lattice._weights,
        multihahn._gamma,
        multihahn._level_factor,
        qops._vertex_stencil,
        qops._lowering_stencil,
        connect._move_plan,
        connect._local_block,
    )
    first, second = _fresh_params(), _fresh_params()
    assert first == second and first.ctx is not second.ctx
    assert first.alphas[0] is not second.alphas[0]
    calls(first)
    misses = [cache.cache_info().misses for cache in caches]
    fraction_key_reads.clear()
    calls(second)
    assert fraction_key_reads == []
    assert [cache.cache_info().misses for cache in caches] == misses


def test_warm_rows_are_read_without_fraction_compares(fraction_key_reads):
    tree, first, second = parse_tree("((1 2) (3 4))"), _fresh_params(), _fresh_params()
    basis.__wrapped__(tree, first, 2, 3)  # warms the factor columns
    fraction_key_reads.clear()
    basis.__wrapped__(tree, second, 2, 3)
    assert fraction_key_reads == []


# --- grid functions ------------------------------------------------------


def test_grid_function_constructors_and_access():
    f = GridFunction.delta(3, 2, (1, 1, 0))
    assert f.at((1, 1, 0)) == 1
    assert f.at((0, 1, 1)) == 0
    assert not f.is_zero()
    assert GridFunction.zero(3, 2).is_zero()
    c = GridFunction.constant(2, 3, Fraction(2, 7))
    assert set(c.values) == {Fraction(2, 7)}
    g = GridFunction.from_callable(3, 2, lambda x: x[0] - x[2])
    assert g.at((2, 0, 0)) == 2
    assert g.at((0, 0, 2)) == -2


def test_grid_function_shape_errors():
    with pytest.raises(DimensionMismatch):
        GridFunction(2, 2, (Fraction(1),) * 4)
    with pytest.raises(IndexOutOfRange):
        GridFunction.delta(3, 2, (1, 1, 1))
    f = GridFunction.zero(3, 2)
    with pytest.raises(IndexOutOfRange):
        f.at((2, 1, 0))
    with pytest.raises(DimensionMismatch):
        f + GridFunction.zero(3, 3)


def test_grid_function_arithmetic():
    f = GridFunction.from_callable(2, 2, lambda x: Fraction(x[0], 3))
    g = GridFunction.from_callable(2, 2, lambda x: Fraction(x[1]))
    assert (f + g) - g == f
    assert f.scale(3) == GridFunction.from_callable(2, 2, lambda x: Fraction(x[0]))
    assert (f - f).is_zero()


def test_grid_function_is_immutable_and_copies():
    f = GridFunction.from_callable(3, 2, lambda x: Fraction(x[0] - x[1], 5))
    with pytest.raises(AttributeError):
        f.N = 3
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert g == f and hash(g) == hash(f) and g.values == f.values


def _assert_canonical(g: GridFunction):
    nums, den = g._integer_form
    assert type(nums) is tuple and all(type(n) is int for n in nums)
    assert den > 0 and math.gcd(den, *nums) == 1
    assert type(g.values) is tuple and all(type(v) is Fraction for v in g.values)
    assert g.values == tuple(Fraction(n, den) for n in nums)


RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-30, 30).map(Fraction),
    st.fractions(min_value=-40, max_value=40, max_denominator=90),
)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_grid_arithmetic_matches_elementwise_fractions(data):
    h = data.draw(st.integers(1, 3), label="h")
    N = data.draw(st.integers(0, 3), label="N")
    size = composition_count(h, N)
    vectors = st.lists(RATIONALS, min_size=size, max_size=size).map(tuple)
    a, b = data.draw(vectors, label="a"), data.draw(vectors, label="b")
    c = data.draw(st.one_of(st.just(Fraction(0)), st.just(Fraction(-7, 3)), RATIONALS), label="c")
    f, g = GridFunction(h, N, a), GridFunction(h, N, b)
    results = {
        "sum": (f + g, tuple(x + y for x, y in zip(a, b))),
        "difference": (f - g, tuple(x - y for x, y in zip(a, b))),
        "scaled": (f.scale(c), tuple(c * x for x in a)),
        "self-difference": (f - f, (Fraction(0),) * size),
    }
    for name, (got, want) in results.items():
        _assert_canonical(got)
        assert got.values == want, name
        assert got.is_zero() == all(v == 0 for v in want), name
        rebuilt = GridFunction(h, N, want)
        assert got == rebuilt and hash(got) == hash(rebuilt), name
    _assert_canonical(f)
    assert f.values is a
    assert f.is_zero() == all(v == 0 for v in a)
    assert (f == g) == (a == b)
    if a == b:
        assert hash(f) == hash(g)
    # a stencil image equals, and hashes as, the same values built from Fractions
    p = ParamSet(CTX, tuple(Fraction(k + 2, 7) for k in range(h)))
    raised = qops.apply_R(f, p)
    _assert_canonical(raised)

    def raised_at(x):
        total = Fraction(0)
        for i in range(h):
            if x[i]:
                lowered = x[:i] + (x[i] - 1,) + x[i + 1:]
                total += CTX.q_power(sum(x[:i]) - N - 1) * (1 - CTX.q_power(x[i])) * f.at(lowered)
        return total

    want = GridFunction.from_callable(h, N + 1, raised_at)
    assert raised == want and hash(raised) == hash(want)
    assert raised.values == want.values


# --- weights and inner product ------------------------------------------


def test_weight_two_variable_closed_form():
    # For h = 2 the weight reduces to a single-variable expression in x1.
    p = make_params(2)
    a1, a2 = p.alphas
    q = CTX.q
    N = 3
    for x1 in range(N + 1):
        x = (x1, N - x1)
        expect = (
            CTX.q_power(N * (N + 1) // 2)
            * pochhammer(CTX, q * a1, x1)
            / q_factorial(CTX, x1)
            * pochhammer(CTX, q * a2, N - x1)
            / q_factorial(CTX, N - x1)
            * (a1 * q) ** (N - x1)
        )
        assert weight(x, p) == expect


def test_weight_pins():
    p = make_params(3)
    assert weight((0, 0, 0), p) == 1
    # N = 1 values, written out from the definition by hand.
    a1, a2, a3 = p.alphas
    q = Fraction(1, 4)
    assert weight((1, 0, 0), p) == q * (1 - a1 * q) / (1 - q)
    assert weight((0, 1, 0), p) == q * (1 - a2 * q) / (1 - q) * (a1 * q)
    assert weight((0, 0, 1), p) == q * (1 - a3 * q) / (1 - q) * (a1 * q) * (a2 * q)


def test_weight_dimension_check():
    with pytest.raises(DimensionMismatch):
        weight((1, 0), make_params(3))
    with pytest.raises(IndexOutOfRange, match=r"\(2, -1, 1\)"):
        weight((2, -1, 1), make_params(3))


def test_weight_positivity_in_band():
    for which in ("primary", "secondary"):
        for h in (2, 3):
            p = make_params(h, which)
            for N in range(5):
                assert all(weight(x, p) > 0 for x in enumerate_compositions(h, N))


@settings(max_examples=25)
@given(st.integers(0, 3), st.data())
def test_inner_product_bilinear_symmetric(N, data):
    p = make_params(3)
    small = st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=7
    )
    dim = composition_count(3, N)
    f = GridFunction(3, N, tuple(data.draw(small) for _ in range(dim)))
    g = GridFunction(3, N, tuple(data.draw(small) for _ in range(dim)))
    k = GridFunction(3, N, tuple(data.draw(small) for _ in range(dim)))
    c = data.draw(small)
    assert inner_product(f, g, p) == inner_product(g, f, p)
    assert inner_product(f.scale(c) + k, g, p) == c * inner_product(
        f, g, p
    ) + inner_product(k, g, p)
    assert norm_squared(f, p) >= 0
    if norm_squared(f, p) == 0:
        assert f.is_zero()


def test_inner_product_shape_errors():
    p = make_params(3)
    with pytest.raises(DimensionMismatch):
        inner_product(GridFunction.zero(2, 1), GridFunction.zero(2, 1), p)
    with pytest.raises(DimensionMismatch):
        inner_product(GridFunction.zero(3, 1), GridFunction.zero(3, 2), p)


def test_returned_domains_are_fresh_lists():
    pts = enumerate_compositions(3, 2)
    pts.append((9, 9, 9))
    pts[0] = (7, 7, 7)
    f = GridFunction.zero(3, 2)
    dom = f.domain()
    dom.clear()
    assert enumerate_compositions(3, 2) == sorted(enumerate_compositions(3, 2))
    assert len(enumerate_compositions(3, 2)) == composition_count(3, 2)
    assert f.domain() == enumerate_compositions(3, 2)
    assert f.domain() is not f.domain()
    assert enumerate_compositions(3, 2)[0] == (0, 0, 2)


def test_inner_product_weights_match_pointwise_weight():
    p = make_params(3)
    for N in range(4):
        for x in enumerate_compositions(3, N):
            assert inner_product(GridFunction.delta(3, N, x), GridFunction.delta(3, N, x), p) == weight(x, p)


def test_inner_product_equals_pointwise_weighted_sum():
    """The integer dot product equals sum_x weight(x, p) f(x) g(x) on
    functions mixing zeros, negative values, unlike denominators and ints."""
    rng = random.Random(5)

    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 9, 25, 49, 121)))

    params = [
        make_params(3),
        make_params(3, "secondary", s=Fraction(1, 3)),
        ParamSet(make_ctx(), (Fraction(-2, 3), Fraction(5, 2), 7), unchecked=True),
    ]
    for p in params:
        for N in range(5):
            points = enumerate_compositions(3, N)
            for _ in range(6):
                f = GridFunction(3, N, tuple(value() for _ in points))
                g = GridFunction(3, N, tuple(value() for _ in points))
                want = sum(
                    (weight(x, p) * a * b for x, a, b in zip(points, f.values, g.values)),
                    Fraction(0),
                )
                assert inner_product(f, g, p) == want
                assert inner_product(f, GridFunction.zero(3, N), p) == 0


def test_grid_function_coerces_only_what_needs_it():
    values = (Fraction(1, 2), Fraction(-3), Fraction(0))
    f = GridFunction(2, 2, values)
    assert f.values is values
    for raw in ((1, -3, 0), ("1/2", "-3", "0"), (Fraction(1, 2), "-3", 0), [Fraction(1, 2), -3, 0]):
        g = GridFunction(2, 2, raw)
        assert type(g.values) is tuple
        assert all(type(v) is Fraction for v in g.values)
    assert GridFunction(2, 2, ("1/2", -3, Fraction(0))) == f
    assert GridFunction(2, 2, [Fraction(1, 2), Fraction(-3), Fraction(0)]).values == values


def test_integer_form_is_cached_and_leaves_equality_alone():
    f = GridFunction(2, 2, (Fraction(1, 6), Fraction(-3, 4), Fraction(0)))
    g = GridFunction(2, 2, (Fraction(1, 6), Fraction(-3, 4), Fraction(0)))
    nums, den = f._integer_form
    assert den == 12
    assert nums == (2, -9, 0)
    assert f._integer_form is f._integer_form
    assert f == g
    assert hash(f) == hash(g)
