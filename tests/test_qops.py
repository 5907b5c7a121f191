"""Raising, lowering and diagonal operators on the composition lattice."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreehahn import (
    EmptyDomain,
    GridFunction,
    InvalidSlice,
    ParamSet,
    apply_D,
    apply_D_at_vertex,
    apply_L,
    apply_R,
    check_identity,
    composition_count,
    eigenvalue,
    enumerate_compositions,
    inner_product,
    kernel_basis,
    pochhammer,
    raise_chain,
    spectral_decomposition_check,
    verify_operator_algebra,
)
from qtreehahn import _linalg, classical, connect, hahn1d, lattice, multihahn, qnum, qops, trees
from qtreehahn.qops import to_matrix

from conftest import MIXED_ALPHAS, make_ctx, make_params

P2 = make_params(2)
P3 = make_params(3)
Q = Fraction(1, 4)


def test_eigenvalue_closed_form():
    assert eigenvalue(P3, 0) == 0
    n = 2
    A3 = P3.prefix_product(3)
    expect = Q**-n * (1 - Q**n) * (1 - A3 * Q ** (n + 3 - 1))
    assert eigenvalue(P3, n) == expect


@settings(max_examples=60)
@given(
    st.sampled_from([Fraction(1, 2), Fraction(2, 3)]),
    st.fractions(-9, 9, max_denominator=9),
    st.integers(-4, 8),
)
def test_eigenvalue_equals_its_fraction_formula(s, P, n):
    """The integer form of the span eigenvalue, at signed p-values and
    negative levels too."""
    ctx = make_ctx(s)
    q = ctx.q
    num, den = qops._eigenvalue(ctx, (P.numerator, P.denominator), n)
    assert den > 0 and Fraction(num, den) == q**-n * (1 - q**n) * (1 - P * q ** (n - 1))


def test_diagonal_operator_hand_pin():
    # h = 2, N = 1, alphas = (1/2, 1/3): the action on the delta at (1, 0),
    # expanded by hand from the definition.
    f = GridFunction.delta(2, 1, (1, 0))
    g = apply_D(f, P2)
    assert g.at((0, 1)) == Fraction(-21, 8)
    assert g.at((1, 0)) == Fraction(11, 32)


def test_lowering_operator_hand_pin():
    f = GridFunction.delta(2, 1, (1, 0))
    g = apply_L(f, P2)
    a1 = P2.alphas[0]
    assert g.at((0, 0)) == a1 * Q - 1


def test_raising_operator_hand_pin():
    f = GridFunction.constant(2, 0, 1)
    g = apply_R(f, P2)
    assert g.at((1, 0)) == Q**-1 * (1 - Q) == 3
    assert g.at((0, 1)) == 3


def test_lowering_matrix_level_one():
    a1, a2 = P2.alphas
    m = to_matrix(lambda g: apply_L(g, P2), 2, 1)
    # Columns ordered (0,1), (1,0) lexicographically.
    assert m == [[a1 * Q * (a2 * Q - 1), a1 * Q - 1]]


def test_adjoint_up_to_sign():
    rng = random.Random(7)

    def rand(h, N):
        return GridFunction.from_callable(
            h, N, lambda x: Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        )

    for N in (1, 2, 3):
        f = rand(3, N)
        g = rand(3, N - 1)
        assert inner_product(apply_L(f, P3), g, P3) == -inner_product(
            f, apply_R(g, P3), P3
        )


def test_vertex_restriction_of_width_one_is_zero():
    rng = random.Random(3)
    f = GridFunction.from_callable(
        3, 3, lambda x: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    )
    for lo in range(3):
        assert apply_D_at_vertex(f, P3, lo, lo + 1).is_zero()
    assert apply_D_at_vertex(f, P3, 0, 3) == apply_D(f, P3)


def test_slice_validation():
    f = GridFunction.zero(3, 2)
    with pytest.raises(InvalidSlice):
        apply_D_at_vertex(f, P3, 2, 2)
    with pytest.raises(InvalidSlice):
        apply_D_at_vertex(f, P3, -1, 2)
    with pytest.raises(InvalidSlice):
        apply_D_at_vertex(f, P3, 0, 4)
    with pytest.raises(InvalidSlice):
        apply_D(GridFunction.zero(2, 1), P3)
    with pytest.raises(InvalidSlice):
        apply_R(GridFunction.zero(2, 1), P3)
    with pytest.raises(InvalidSlice):
        apply_L(GridFunction.zero(2, 1), P3)
    for n in (0, 1):
        with pytest.raises(InvalidSlice):
            kernel_basis(5, n, P3)
    for h in (2, 4):
        with pytest.raises(InvalidSlice):
            verify_operator_algebra(h, 2, P3)
        with pytest.raises(InvalidSlice):
            spectral_decomposition_check(h, 2, P3)
    tree = trees.parse_tree("(1 (2 3))")
    with pytest.raises(InvalidSlice):
        list(multihahn.vertex_eigen_cases(tree, (0, 1), make_params(4), 2))


def test_chain_direction_errors():
    f = GridFunction.constant(3, 2, 1)
    with pytest.raises(EmptyDomain):
        apply_L(GridFunction.constant(3, 0, 1), P3)
    with pytest.raises(ValueError):
        raise_chain(f, P3, 1)
    assert raise_chain(f, P3, 2) == f


def test_collapse_scalar_on_constants():
    # Lowering all the way back down after raising the level-0 constant
    # multiplies it by the closed-form collapse scalar (n = m = 0, N = 2).
    ctx = P3.ctx
    A3 = P3.prefix_product(3)
    f = GridFunction.constant(3, 0, 1)
    g = apply_L(apply_L(raise_chain(f, P3, 2), P3), P3)
    scalar = (
        ctx.q_power(-3)
        * pochhammer(ctx, Q, 2)
        * pochhammer(ctx, A3 * ctx.q_power(3), 2)
    )
    assert g == f.scale(scalar)


def test_kernel_basis_structure():
    assert [len(kernel_basis(3, n, P3)) for n in range(4)] == [1, 2, 3, 4]
    assert kernel_basis(3, 0, P3)[0] == GridFunction.constant(3, 0, 1)
    for n in (1, 2, 3):
        for f in kernel_basis(3, n, P3):
            assert apply_L(f, P3).is_zero()
            assert not f.is_zero()


# alphas in (0, 1/q) and alphas above q^(-n_max), with n_max = 4
KERNEL_REGIMES = {
    "unit-band": (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 5)),
    "above-band": (257, 263, Fraction(601, 2), 271),
}


@pytest.mark.parametrize("regime", sorted(KERNEL_REGIMES))
def test_kernel_basis_is_unit_on_the_free_columns_of_L(regime):
    for h in range(1, 5):
        p = ParamSet(make_ctx(), KERNEL_REGIMES[regime][:h], n_max=4)
        for n in range(5):
            vectors = kernel_basis(h, n, p)
            dim = comb(n + h - 1, h - 1) - (comb(n + h - 2, h - 1) if n else 0)
            assert len(vectors) == dim, (h, n)
            if n == 0:
                assert vectors == [GridFunction.constant(h, 0, 1)]
                continue
            pivots = _linalg.rref(to_matrix(lambda g: apply_L(g, p), h, n))[1]
            free = [c for c in range(composition_count(h, n)) if c not in pivots]
            assert len(free) == dim, (h, n)
            for k, f in enumerate(vectors):
                assert apply_L(f, p).is_zero(), (h, n, k)
                assert [f.values[c] for c in free] == [int(j == k) for j in range(dim)], (h, n, k)


REPORT_KEYS = {"identity", "cases", "status", "counterexample"}


def test_check_identity_stops_at_first_failure():
    consumed = []

    def cases():
        for k in range(5):
            consumed.append(k)
            yield {"k": k}, k != 2

    assert check_identity("demo", cases()) == {
        "identity": "demo",
        "cases": 3,
        "status": "fail",
        "counterexample": {"k": 2},
    }
    assert consumed == [0, 1, 2]
    passing = check_identity("demo", (({"k": k}, True) for k in range(4)))
    assert passing == {
        "identity": "demo",
        "cases": 4,
        "status": "pass",
        "counterexample": None,
    }
    assert set(check_identity("empty", [])) == REPORT_KEYS


def test_verify_operator_algebra_report_shape():
    reports = verify_operator_algebra(2, 3, P2)
    names = [r["identity"] for r in reports]
    assert len(names) == len(set(names)) == 8
    for r in reports:
        assert set(r) == REPORT_KEYS
        assert r["status"] == "pass"
        assert r["cases"] > 0
        assert r["counterexample"] is None


def test_spectral_decomposition_levels():
    reports = spectral_decomposition_check(3, 3, P3)
    assert [r["identity"] for r in reports] == [
        "kernel_dimensions_sum_to_level_dimension",
        "raised_kernels_span_level",
        "raised_kernels_are_eigenvectors_of_D",
    ]
    for r in reports:
        assert set(r) == REPORT_KEYS
        assert r["status"] == "pass" and r["cases"] > 0
    assert reports[2]["cases"] == 10  # one case per raised kernel vector
    assert [len(kernel_basis(3, n, P3)) for n in range(4)] == [1, 2, 3, 4]
    assert composition_count(3, 3) == 10
    assert [len(kernel_basis(2, n, P2)) for n in range(4)] == [1, 1, 1, 1]
    assert all(r["status"] == "pass" for r in spectral_decomposition_check(2, 3, P2))




# --- cached stencils ------------------------------------------------------


def _random_grid(h, N, rng):
    def value(x):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.8 else 0

    return GridFunction.from_callable(h, N, value)


def _raise_pointwise(f, p):
    """(R f)(x) = sum_i q^(X_{i-1} - N - 1) (1 - q^(x_i)) f(x - e_i), read off the docstring."""
    ctx = p.ctx

    def value(x):
        total = Fraction(0)
        for i in range(f.h):
            if x[i]:
                lowered = x[:i] + (x[i] - 1,) + x[i + 1:]
                total += ctx.q_power(sum(x[:i]) - f.N - 1) * (1 - ctx.q_power(x[i])) * f.at(lowered)
        return total

    return GridFunction.from_callable(f.h, f.N + 1, value)


def _lower_pointwise(f, p):
    """(L f)(x) = sum_j A_{j-1} q^(j - 1 + X_{j-1}) (alpha_j q^(x_j + 1) - 1) f(x + e_j)."""
    ctx = p.ctx

    def value(x):
        total = Fraction(0)
        for j in range(f.h):
            raised = x[:j] + (x[j] + 1,) + x[j + 1:]
            total += (
                p.prefix_product(j)
                * ctx.q_power(j + sum(x[:j]))
                * (p.alphas[j] * ctx.q_power(x[j] + 1) - 1)
                * f.at(raised)
            )
        return total

    return GridFunction.from_callable(f.h, f.N - 1, value)


def _vertex_pointwise(f, p, lo, hi):
    """The operator of the span (lo, hi] at each point x, summed over the
    unit moves from slot i to slot j inside the span and the diagonal, in
    Fractions:

        A_{j-1} (alpha_j q^(x_j + 1) - 1) q^e (1 - q^(x_i)) f(x - e_i + e_j),
            e = (j-1-lo) + (X_{j-1} - X_lo) + (X_{i-1} - X_lo) - n - [i < j],
        sum_j A_{j-1} q^((j-1-lo) + 2 (X_{j-1} - X_lo) - n)
            (alpha_j q^(x_j) - 1) (1 - q^(x_j)) f(x)
        + (A_{hi-lo} q^(hi - lo + n - 1) - 1) (1 - q^(-n)) f(x),

    with A_k the span product of alpha_{lo+1}..alpha_{lo+k} and n the
    level of x inside the span."""
    ctx, alphas = p.ctx, p.alphas

    def value(x):
        X = [sum(x[:k]) for k in range(len(x) + 1)]
        n = X[hi] - X[lo]
        total = Fraction(0)
        for j in range(lo + 1, hi + 1):
            a_prefix = p.span_product(lo, j - 1)
            coeff_j = a_prefix * (alphas[j - 1] * ctx.q_power(x[j - 1] + 1) - 1)
            for i in range(lo + 1, hi + 1):
                if i == j or x[i - 1] == 0:
                    continue
                shifted = list(x)
                shifted[i - 1] -= 1
                shifted[j - 1] += 1
                e = (j - 1 - lo) + (X[j - 1] - X[lo]) + (X[i - 1] - X[lo]) - n - (i < j)
                coeff = coeff_j * ctx.q_power(e) * (1 - ctx.q_power(x[i - 1]))
                total += coeff * f.at(tuple(shifted))
            total += (
                a_prefix
                * ctx.q_power((j - 1 - lo) + 2 * (X[j - 1] - X[lo]) - n)
                * (alphas[j - 1] * ctx.q_power(x[j - 1]) - 1)
                * (1 - ctx.q_power(x[j - 1]))
                * f.at(x)
            )
        total += (
            (p.span_product(lo, hi) * ctx.q_power(hi - lo + n - 1) - 1)
            * (1 - ctx.q_power(-n))
            * f.at(x)
        )
        return total

    return GridFunction.from_callable(f.h, f.N, value)


def _pointwise_params(h):
    """Primary and secondary alphas at s = 1/2 and 1/3, and one unchecked
    set above q^(-n_max) at s = 1/2."""
    for s in (Fraction(1, 2), Fraction(1, 3)):
        for which in ("primary", "secondary"):
            yield make_params(h, which, s)
    above = (257, 263, Fraction(601, 2), 271, Fraction(1033, 4))
    yield ParamSet(make_ctx(), above[:h], n_max=4, unchecked=True)


def _assert_lowest_terms(stencil):
    rows, den = stencil
    coeffs = [c for _, cs in rows for c in cs]
    assert all(type(c) is int and c for c in coeffs) and type(den) is int and den > 0
    assert gcd(den, *coeffs) == 1


def test_vertex_operator_equals_its_pointwise_formula():
    rng = random.Random(14)
    for h in range(1, 6):
        for p in _pointwise_params(h):
            for N in range(5):
                f = _random_grid(h, N, rng)
                for lo in range(h):
                    for hi in range(lo + 1, h + 1):
                        assert apply_D_at_vertex(f, p, lo, hi) == _vertex_pointwise(f, p, lo, hi), (
                            p, N, lo, hi,
                        )
                        _assert_lowest_terms(qops._vertex_stencil(p, N, lo, hi))
                _assert_lowest_terms(qops._raising_stencil(p.ctx, h, N))
                if N > 0:
                    _assert_lowest_terms(qops._lowering_stencil(p, N))


def test_stencils_build_no_fraction(fraction_builds):
    ps = [make_params(4), make_params(4, "secondary", s=Fraction(1, 3))]
    fraction_builds.clear()
    for p in ps:
        for N in range(5):
            for lo in range(4):
                for hi in range(lo + 1, 5):
                    qops._vertex_stencil.__wrapped__(p, N, lo, hi)
            qops._raising_stencil.__wrapped__(p.ctx, 4, N)
            if N > 0:
                qops._lowering_stencil.__wrapped__(p, N)
    assert fraction_builds == []


def test_raising_and_lowering_equal_their_pointwise_formulas():
    rng = random.Random(11)
    for h in range(1, 6):
        p = make_params(h, "secondary")
        for N in range(5):
            for _ in range(2):
                f = _random_grid(h, N, rng)
                assert apply_R(f, p) == _raise_pointwise(f, p)
                if N > 0:
                    assert apply_L(f, p) == _lower_pointwise(f, p)


def test_vertex_operator_is_the_restricted_operator_on_every_fiber():
    rng = random.Random(12)
    for h in range(1, 6):
        p = make_params(h)
        for N in range(5):
            f = _random_grid(h, N, rng)
            for lo in range(h):
                for hi in range(lo + 1, h + 1):
                    got = apply_D_at_vertex(f, p, lo, hi)
                    local = ParamSet(p.ctx, p.alphas[lo:hi], unchecked=True)
                    fibers = {(x[:lo], x[hi:]) for x in f.domain()}
                    for left, right in fibers:
                        n_loc = N - sum(left) - sum(right)
                        g = GridFunction.from_callable(
                            hi - lo, n_loc, lambda y: f.at(left + y + right)
                        )
                        want = apply_D(g, local)
                        for y, v in zip(want.domain(), want.values):
                            assert got.at(left + y + right) == v, (h, N, lo, hi, y)


def test_interleaved_parameter_sets_match_fresh_caches():
    rng = random.Random(13)
    ps = [make_params(3), make_params(3, "secondary", s=Fraction(1, 3))]
    funcs = {N: _random_grid(3, N, rng) for N in range(1, 4)}

    def results(p):
        out = []
        for f in funcs.values():
            out.append(apply_R(f, p))
            out.append(apply_L(f, p))
            out.append(inner_product(f, f, p))
            out.extend(apply_D_at_vertex(f, p, lo, hi) for lo, hi in ((0, 3), (0, 2), (1, 3)))
        out.extend(kernel_basis(3, 2, p))
        return out

    caches = (lattice.domain_table, lattice._weights, qops._vertex_stencil,
              qops._raising_stencil, qops._lowering_stencil)
    fresh = {}
    for k, p in enumerate(ps):
        for cache in caches:
            cache.cache_clear()
        fresh[k] = results(p)
    assert fresh[0] != fresh[1]
    for _ in range(2):
        for k, p in enumerate(ps):
            assert results(p) == fresh[k]


@pytest.mark.parametrize("regime", ["positivity", "mixed-signs"])
def test_every_span_operator_is_symmetric_for_the_weight(regime):
    """<D_U f, g> = <f, D_U g> for the operator of every span (lo, hi] at
    h <= 5 and levels N <= 3, on random functions, at alphas in the
    positivity regime and at unchecked alphas of both signs.  This is
    what makes tree bases orthogonal, and connection matrices vanish
    where a shared span carries unequal eigenvalues."""
    rng = random.Random(5)
    spans = 0
    for h in range(2, 6):
        if regime == "positivity":
            p = make_params(h)
        else:
            p = ParamSet(make_ctx(), MIXED_ALPHAS[:h], unchecked=True)
        for N in range(4):
            f, g = _random_grid(h, N, rng), _random_grid(h, N, rng)
            for lo in range(h):
                for hi in range(lo + 1, h + 1):
                    lhs = inner_product(apply_D_at_vertex(f, p, lo, hi), g, p)
                    assert lhs == inner_product(f, apply_D_at_vertex(g, p, lo, hi), p), (h, N, lo, hi)
                    spans += 1
    assert spans == 4 * (3 + 6 + 10 + 15)


def test_every_cache_is_bounded():
    caches = {
        f"{obj.__module__}.{obj.__qualname__}": obj
        for module in (qnum, lattice, qops, hahn1d, multihahn, connect, trees, classical)
        for obj in vars(module).values()
        if hasattr(obj, "cache_info")
    }
    for name in (
        "multihahn.basis",
        "multihahn._span_index",
        "multihahn._gamma",
        "multihahn._level_factor",
        "hahn1d.hahn_eval",
        "hahn1d._lift_step",
        "multihahn._column",
        "hahn1d.racah_eval",
        "connect._move_plan",
        "connect._local_block",
        "trees._rl_parents",
    ):
        assert f"qtreehahn.{name}" in caches
    assert len(caches) >= 14
    # the rotation route keeps a plan and a block cache, and no more
    assert {name for name in caches if name.startswith("qtreehahn.connect.")} == {
        "qtreehahn.connect._move_plan",
        "qtreehahn.connect._local_block",
    }
    unbounded = [name for name, cache in caches.items() if cache.cache_info().maxsize is None]
    assert unbounded == []


# --- the inner-product identities, checked in integers ---------------------

ADJOINT = "lowering_is_minus_adjoint_of_raising"
CHAIN_NORM = "raising_chain_preserves_orthogonality_and_scales_norms"
ALGEBRA_ALPHAS = (Fraction(5, 3), Fraction(7, 9), Fraction(11, 27), Fraction(13, 9))


def _algebra_params(h):
    return ParamSet(make_ctx(), ALGEBRA_ALPHAS[:h])


def test_operator_algebra_passes_with_its_case_counts():
    """Every identity's case count at h = 4, N = 3 and at h = 3, N = 4."""
    for (h, n_max), counts in {
        (4, 3): [40, 21, 18, 354, 33, 56, 360, 10],
        (3, 4): [42, 28, 25, 355, 55, 70, 238, 15],
    }.items():
        for seed in (0, 1):
            reports = verify_operator_algebra(h, n_max, _algebra_params(h), seed)
            assert [r["cases"] for r in reports] == counts, (h, n_max, seed)
            assert {r["status"] for r in reports} == {"pass"}
            assert reports[3]["identity"] == ADJOINT and reports[6]["identity"] == CHAIN_NORM


def _adjoint_reference(h, n_max, p, funcs, raising):
    """The adjoint identity's cases as two `Fraction` inner products each."""
    for N in range(1, n_max + 1):
        upper, lower = funcs(h, N), funcs(h, N - 1)
        for k1, f1 in enumerate(upper):
            for k2, f2 in enumerate(lower):
                ok = inner_product(apply_L(f1, p), f2, p) == -inner_product(f1, raising(f2, p), p)
                yield {"N": N, "f1": k1, "f2": k2}, ok


def _raised_kernels(h, n_max, p, raising, kernel):
    """raised[n][N]: the kernel basis of L on level n raised to level N."""
    raised = {}
    for n in range(n_max + 1):
        raised[n] = {n: kernel(h, n, p)}
        for N in range(n + 1, n_max + 1):
            raised[n][N] = [raising(g, p) for g in raised[n][N - 1]]
    return raised


def _chain_norm_reference(h, n_max, p, raising, kernel):
    """The chain-norm identity's cases as `Fraction` inner products, with
    the closed-form norm factors."""
    ctx, q, A_h = p.ctx, p.ctx.q, p.prefix_product(h)
    raised = _raised_kernels(h, n_max, p, raising, kernel)
    for n in range(n_max + 1):
        for m in range(n + 1):
            for N in range(n, n_max + 1):
                factor = (
                    ctx.q_power(-(N - n) * (N + n + 1) // 2)
                    * pochhammer(ctx, q, N - n)
                    * pochhammer(ctx, A_h * ctx.q_power(2 * n + h), N - n)
                )
                for k2, g2 in enumerate(raised[n][N]):
                    for k1, g1 in enumerate(raised[m][N]):
                        got = inner_product(g1, g2, p)
                        want = Fraction(0)
                        if m == n:
                            want = factor * inner_product(raised[m][m][k1], raised[n][n][k2], p)
                        yield {"n": n, "m": m, "N": N, "f1": k1, "f2": k2}, got == want


def _level_functions(h, N):
    """The deltas of [h; N], then the two random functions that
    `verify_operator_algebra` draws there under `fixed_draws`."""
    deltas = [GridFunction.delta(h, N, x) for x in enumerate_compositions(h, N)]
    draws = qops._random_functions(h, N, random.Random(N))
    return deltas + [GridFunction._from_integers(h, N, *v) for v in draws]


def _raising_off_by_a_delta(stencil):
    """The raising stencil plus f's first value at the last point of its
    target level: its last row gains column 0 at the stencil's denominator."""
    rows, den = stencil
    cols, coeffs = rows[-1]
    return (*rows[:-1], ((*cols, 0), (*coeffs, den))), den


@pytest.mark.parametrize("h, n_max", [(3, 3), (4, 2)])
@pytest.mark.parametrize("wrong", ["raising", "kernel"])
@pytest.mark.usefixtures("fixed_draws")
def test_inner_product_identities_catch_a_wrong_operator(monkeypatch, wrong, h, n_max):
    """Either R off by one delta at its target level, scaled by f's first
    value, or the level-1 kernel vectors of L shifted by a constant: both
    identities report the cases, status and locator that `Fraction` inner
    products give."""
    p = _algebra_params(h)
    exact_R, exact_kernel = qops.apply_R, qops.kernel_basis

    def wrong_R(f, p):
        last = enumerate_compositions(f.h, f.N + 1)[-1]
        return exact_R(f, p) + GridFunction.delta(f.h, f.N + 1, last).scale(f.values[0])

    def wrong_kernel(h, n, p):
        basis = exact_kernel(h, n, p)
        return [g + GridFunction.constant(h, n, 1) for g in basis] if n == 1 else basis

    raising, kernel = (wrong_R, exact_kernel) if wrong == "raising" else (exact_R, wrong_kernel)
    # the reference reads the exact stencils, so it runs before any is patched
    expected = {
        ADJOINT: check_identity(ADJOINT, _adjoint_reference(h, n_max, p, _level_functions, raising)),
        CHAIN_NORM: check_identity(CHAIN_NORM, _chain_norm_reference(h, n_max, p, raising, kernel)),
    }
    if wrong == "raising":
        f = _level_functions(h, 1)[-1]
        want = wrong_R(f, p)
        exact_stencil = qops._raising_stencil
        off = lambda *args: _raising_off_by_a_delta(exact_stencil(*args))
        monkeypatch.setattr(qops, "_raising_stencil", off)
        assert qops.apply_R(f, p) == want
    monkeypatch.setattr(qops, "kernel_basis", kernel)
    reports = {r["identity"]: r for r in verify_operator_algebra(h, n_max, p)}
    for name, want in expected.items():
        assert reports[name] == want, name
    assert expected[CHAIN_NORM]["status"] == "fail"
    if wrong == "raising":
        assert expected[ADJOINT]["status"] == "fail"
    else:
        # the shifted vectors are no longer orthogonal to the level-0 chain
        assert expected[ADJOINT]["status"] == "pass"
        locator = expected[CHAIN_NORM]["counterexample"]
        assert (locator["n"], locator["m"]) == (1, 0)


def test_inner_product_identities_build_no_fraction_per_case(monkeypatch, fraction_builds):
    """The adjoint identity builds no `Fraction`; the chain-norm identity
    builds only its per-level norm factors, as many at h = 3 as at h = 4."""
    monkeypatch.setattr(qops, "check_identity", lambda name, cases: (name, cases))
    built = {}
    for h in (3, 4):
        generators = dict(verify_operator_algebra(h, 3, _algebra_params(h), seed=1))
        for name in (ADJOINT, CHAIN_NORM):
            fraction_builds.clear()
            cases = list(generators[name])
            assert all(ok for _, ok in cases), (h, name)
            built[h, name] = (len(cases), len(fraction_builds))
    assert built[3, ADJOINT][1] == built[4, ADJOINT][1] == 0
    assert built[4, ADJOINT][0] == 354
    (few, at_3), (many, at_4) = built[3, CHAIN_NORM], built[4, CHAIN_NORM]
    assert many == 360 and few < many
    assert at_3 == at_4 < few


# --- the stencil-image identities against their GridFunction route ---------

RL = "raise_after_lower_equals_D_minus_scalar"
LR = "lower_after_raise_equals_D_minus_scalar"
COMMUTATOR = "commutator_is_scalar"
CHAIN_SWAP = "lowering_moves_through_raising_chain"
COLLAPSE = "lowering_chain_collapses_raising_chain_on_kernel"
EIGEN = "raised_kernels_are_eigenvectors_of_D"
VERTEX = "vertex-eigenvalues"


def _algebra_references(h, n_max, p, funcs):
    """The five stencil-image identities of `verify_operator_algebra` by
    their `GridFunction` route, as check_identity reports by name."""
    ctx, q, A_h = p.ctx, p.ctx.q, p.prefix_product(h)
    R, L = (lambda f: apply_R(f, p)), (lambda f: apply_L(f, p))

    def rl():
        for N in range(1, n_max + 1):
            s = (1 - ctx.q_power(-N)) * (A_h * ctx.q_power(N + h - 1) - 1)
            for k, f in enumerate(funcs(h, N)):
                yield {"N": N, "f": k}, R(L(f)) == apply_D(f, p) - f.scale(s)

    def lr():
        for N in range(n_max):
            s = (1 - ctx.q_power(-N - 1)) * (A_h * ctx.q_power(N + h) - 1)
            for k, f in enumerate(funcs(h, N)):
                yield {"N": N, "f": k}, L(R(f)) == apply_D(f, p) - f.scale(s)

    def commutator():
        for N in range(1, n_max):
            s = ctx.q_power(-N - 1) * (1 - q) * (A_h * ctx.q_power(2 * N + h) - 1)
            for k, f in enumerate(funcs(h, N)):
                yield {"N": N, "f": k}, L(R(f)) - R(L(f)) == f.scale(s)

    def chain_swap():
        for n in range(n_max):
            for k, f in enumerate(funcs(h, n)):
                chain = [f]
                for _ in range(n_max - n):
                    chain.append(R(chain[-1]))
                lchain = []
                if n > 0:
                    lchain.append(L(f))
                    for _ in range(n_max - n):
                        lchain.append(R(lchain[-1]))
                for N in range(n + 1, n_max + 1):
                    s = ctx.q_power(-N) * (1 - ctx.q_power(N - n)) * (A_h * ctx.q_power(N + n + h - 1) - 1)
                    rhs = chain[N - 1 - n].scale(s)
                    if n > 0:
                        rhs = rhs + lchain[N - n]
                    yield {"n": n, "N": N, "f": k}, L(chain[N - n]) == rhs

    def collapse():
        raised = _raised_kernels(h, n_max, p, apply_R, kernel_basis)
        for n in range(n_max + 1):
            for k in range(len(raised[n][n])):
                for N in range(n, n_max + 1):
                    lowered = raised[n][N][k]
                    for m in range(N, n - 1, -1):
                        s = (
                            (-1) ** (N - m)
                            * ctx.q_power(-(N - m) * (N + m + 1) // 2)
                            * pochhammer(ctx, ctx.q_power(m - n + 1), N - m)
                            * pochhammer(ctx, A_h * ctx.q_power(n + m + h), N - m)
                        )
                        yield {"n": n, "m": m, "N": N, "f": k}, lowered == raised[n][m][k].scale(s)
                        if m > n:
                            lowered = L(lowered)

    cases = {RL: rl(), LR: lr(), COMMUTATOR: commutator(), CHAIN_SWAP: chain_swap(), COLLAPSE: collapse()}
    return {name: check_identity(name, c) for name, c in cases.items()}


def _eigen_reference(h, N, p):
    """The spectral eigenvalue identity by its `GridFunction` route."""
    for n in range(N + 1):
        lam = eigenvalue(p, n)
        for k, f in enumerate(kernel_basis(h, n, p)):
            g = raise_chain(f, p, N)
            yield {"n": n, "f": k}, apply_D(g, p) == g.scale(lam)


def _vertex_reference(tree, labeling, p, N):
    """`multihahn.vertex_eigen_cases` by its `GridFunction` route."""
    grid = multihahn.basis(tree, p, sum(labeling), N)[lattice.rank_of(labeling)].grid
    where = {"tree": tree.serialize(), "labeling": list(labeling)}
    for vert in tree.vertices:
        lam = multihahn.vertex_eigenvalue(tree, labeling, p, vert.index)
        got = apply_D_at_vertex(grid, p, vert.lo, vert.hi)
        yield {**where, "vertex": vert.index}, got == grid.scale(lam)
    yield {**where, "vertex": "global"}, apply_D(grid, p) == grid.scale(eigenvalue(p, sum(labeling)))


def _vertex_suite(cases, h, N, p):
    """The vertex cases of every tree and labeling that `qtree verify
    --suite eigen` runs, from one route."""
    return (
        case
        for tree in trees.all_trees(h)
        for n in range(min(N, 2) + 1)
        for labeling in trees.enumerate_labelings(tree, n)
        for case in cases(tree, labeling, p, N)
    )


def _stencil_reports(h, n_max, p):
    """{identity: (report, reference report)} for the seven identities."""
    got = {r["identity"]: r for r in verify_operator_algebra(h, n_max, p)}
    got.update((r["identity"], r) for r in spectral_decomposition_check(h, n_max, p))
    got[VERTEX] = check_identity(VERTEX, _vertex_suite(multihahn.vertex_eigen_cases, h, n_max, p))
    want = _algebra_references(h, n_max, p, _level_functions)
    want[EIGEN] = check_identity(EIGEN, _eigen_reference(h, n_max, p))
    want[VERTEX] = check_identity(VERTEX, _vertex_suite(_vertex_reference, h, n_max, p))
    return {name: (got[name], report) for name, report in want.items()}


def _one_coefficient_off(stencil):
    """The stencil with the first coefficient of its first nonempty row
    raised by one."""
    rows, den = stencil
    r = next((r for r, (cols, _) in enumerate(rows) if cols), None)
    if r is None:
        return stencil
    cols, coeffs = rows[r]
    return rows[:r] + ((cols, (coeffs[0] + 1,) + coeffs[1:]),) + rows[r + 1 :], den


# the identities that read each stencil, and so fail when one of its
# coefficients is off
READERS = {
    "_raising_stencil": {RL, LR, COMMUTATOR, CHAIN_SWAP, COLLAPSE, EIGEN},
    "_lowering_stencil": {RL, LR, COMMUTATOR, CHAIN_SWAP, COLLAPSE, EIGEN},
    "_vertex_stencil": {RL, LR, EIGEN, VERTEX},
}


@pytest.fixture
def fixed_draws(monkeypatch):
    """A fixed draw of random functions per level, so that each identity
    sees the same functions however far the identities before it ran."""
    exact = qops._random_functions
    monkeypatch.setattr(qops, "_random_functions", lambda h, N, rng: exact(h, N, random.Random(N)))


@pytest.mark.parametrize("h, n_max", [(3, 3), (4, 2)])
@pytest.mark.parametrize("wrong", [None, *READERS])
@pytest.mark.usefixtures("fixed_draws")
def test_stencil_image_identities_match_their_grid_function_route(monkeypatch, wrong, h, n_max):
    """Report for report, the seven identities equal their `GridFunction`
    route with every stencil exact, and with one coefficient off in every
    stencil of one kind, where each identity that reads it fails."""
    p = _algebra_params(h)
    if wrong:
        original = getattr(qops, wrong)
        off = lambda *args: _one_coefficient_off(original(*args))
        monkeypatch.setattr(qops, wrong, off)
        if wrong == "_vertex_stencil":
            monkeypatch.setattr(multihahn, wrong, off)
    reports = _stencil_reports(h, n_max, p)
    for name, (got, want) in reports.items():
        assert got == want, name
    failing = {name for name, (got, _) in reports.items() if got["status"] == "fail"}
    assert failing == (READERS[wrong] if wrong else set())


@pytest.mark.parametrize("h, n_max", [(3, 3), (4, 2)])
@pytest.mark.usefixtures("fixed_draws")
def test_stencil_image_identities_match_at_mixed_signs(h, n_max):
    """Unchecked parameters of both signs: the same reports by both routes."""
    alphas = (Fraction(-5, 3), Fraction(7, 9), Fraction(-11, 27), Fraction(13, 9))
    p = ParamSet(make_ctx(), alphas[:h], unchecked=True)
    for name, (got, want) in _stencil_reports(h, n_max, p).items():
        assert got == want, name
        assert got["status"] == "pass", name


def test_stencil_image_identities_build_no_fraction_per_case(monkeypatch, fraction_builds):
    """The five identities of the operator algebra build only their
    per-level scalars, as many at h = 3 as at h = 4; the two eigenvalue
    identities build no `Fraction` at all."""
    monkeypatch.setattr(qops, "check_identity", lambda name, cases: (name, cases))
    built = {}
    for h in (3, 4):
        p = _algebra_params(h)
        generators = dict(verify_operator_algebra(h, 3, p, seed=1))
        generators.update(spectral_decomposition_check(h, 3, p))
        generators[VERTEX] = _vertex_suite(multihahn.vertex_eigen_cases, h, 3, p)
        for name in (RL, LR, COMMUTATOR, CHAIN_SWAP, COLLAPSE, EIGEN, VERTEX):
            fraction_builds.clear()
            cases = list(generators[name])
            assert all(ok for _, ok in cases), (h, name)
            built[h, name] = (len(cases), len(fraction_builds))
    for name in (RL, LR, COMMUTATOR, CHAIN_SWAP, COLLAPSE):
        (few, at_3), (many, at_4) = built[3, name], built[4, name]
        assert few < many and at_3 == at_4, name
    for name in (EIGEN, VERTEX):
        assert built[3, name][1] == built[4, name][1] == 0, name


# --- the operator identities as stencil products ---------------------------

# The two positivity regimes at q = 1/4 with n_max = 4: every alpha in
# (0, 1/q) = (0, 4), or every alpha above q^(-4) = 256.
_REGIMES = (
    st.fractions(0, 4, max_denominator=12).filter(lambda a: 0 < a < 4),
    st.fractions(256, 1600, max_denominator=12).filter(lambda a: a > 256),
)


@st.composite
def _stencil_pairs(draw):
    """Drawn alphas on h <= 4 variables in either regime, a source level N,
    and the pairs (A, B) of stencils composed from level N that stay at
    levels <= 4: R.L, L.R, D.R, R.R and L.(R.R)."""
    h, N = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    alphas = draw(st.lists(draw(st.sampled_from(_REGIMES)), min_size=h, max_size=h))
    p = ParamSet(make_ctx(), alphas, n_max=4)
    R = lambda M: qops._raising_stencil(p.ctx, h, M)
    L = lambda M: qops._lowering_stencil(p, M)
    n = composition_count(h, N)
    pairs = [(R(N - 1), L(N))] if N else []
    if N < 4:
        pairs += [(L(N + 1), R(N)), (qops._vertex_stencil(p, N + 1, 0, h), R(N))]
    if N < 3:
        pairs += [(R(N + 1), R(N)), (L(N + 2), qops._compose(R(N + 1), R(N), n))]
    return n, pairs


@settings(max_examples=40, deadline=None)
@given(_stencil_pairs())
def test_composed_stencil_columns_are_pushed_deltas(case):
    """Column k of A.B is the image of the k-th delta under B, then A."""
    n, pairs = case
    for a, b in pairs:
        rows, den = qops._compose(a, b, n)
        dense = qops._dense((rows, den), n)
        for k in range(n):
            delta = [int(j == k) for j in range(n)], 1
            assert ([row[k] for row in dense], den) == qops._push(a, qops._push(b, delta)), k


FIVE = (RL, LR, COMMUTATOR, ADJOINT, CHAIN_SWAP)


def test_operator_identities_push_only_random_and_kernel_vectors(monkeypatch):
    """`verify_operator_algebra(4, 3, ...)` builds no delta function, and
    the five operator identities call `_image` on their two random vectors
    per level only: as often at h = 4, with 20 deltas on level 3, as at
    h = 3, with 10.  Each product's two images are taken once per call, by
    the first identity that reads it, so the commutator and the adjoint,
    whose products all come before them, call it not at all.  The rest of
    its calls raise and lower kernel vectors."""

    def no_delta(*args):
        raise AssertionError("a delta function was built")

    calls = []
    image = qops._image
    monkeypatch.setattr(GridFunction, "delta", no_delta)
    monkeypatch.setattr(qops, "_image", lambda stencil, nums: calls.append(nums) or image(stencil, nums))
    monkeypatch.setattr(qops, "check_identity", lambda name, cases: (name, cases))
    counts = {}
    for h in (3, 4):
        p = _algebra_params(h)
        calls.clear()
        generators = dict(verify_operator_algebra(h, 3, p, seed=1))
        kernels = [len(kernel_basis(h, n, p)) for n in range(4)]
        # the raised kernels, built once for the three kernel identities
        assert len(calls) == sum(k * (3 - n) for n, k in enumerate(kernels))
        for name, cases in generators.items():
            calls.clear()
            assert all(ok for _, ok in cases), (h, name)
            counts[h, name] = len(calls)
        # the collapse identity lowers each raised kernel vector to its own level
        assert counts[h, COLLAPSE] == sum(k * (3 - n) * (4 - n) // 2 for n, k in enumerate(kernels))
        assert counts[h, CHAIN_NORM] == counts[h, "raising_chain_is_injective_on_kernel"] == 0
    assert {name: counts[4, name] for name in FIVE} == {name: counts[3, name] for name in FIVE}
    assert {name: counts[4, name] for name in FIVE} == {
        RL: 18, LR: 14, COMMUTATOR: 0, ADJOINT: 0, CHAIN_SWAP: 14,
    }
