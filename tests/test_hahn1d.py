"""One-variable q-Hahn and q-Racah families: routes, norms, bridges."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreehahn import (
    GridFunction,
    Hahn1DSpec,
    NonSquareRadicand,
    ParamSet,
    QContext,
    Racah1DSpec,
    apply_D,
    gr_racah_bridge,
    hahn_eval,
    hahn_norm,
    hahn_row,
    hahn_via_phi2,
    hahn_via_raising,
    inner_product,
    ZeroDenominator,
    racah,
    racah_eval,
    vandermonde_sum_check,
    verify_hahn_recurrences,
)
from qtreehahn import hahn1d
from qtreehahn._linalg import rref
from qtreehahn.hahn1d import _racah_block

from conftest import make_ctx, make_params

CTX = make_ctx()

unit_fractions = st.tuples(
    st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9)
).map(lambda t: Fraction(t[0], t[0] + t[1]))


def _pair(x: Fraction) -> tuple[int, int]:
    """The integer pair `hahn_row` takes for a parameter."""
    return x.numerator, x.denominator


def spec(n, N, which="primary", ctx=CTX):
    p = make_params(2, which)
    return Hahn1DSpec(ctx=ctx, n=n, alpha=p.alphas[0], beta=p.alphas[1], N=N)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(3, 2)
    with pytest.raises(ValueError):
        spec(-1, 2)
    with pytest.raises(ValueError):
        Racah1DSpec(
            ctx=CTX, n=4, alpha=Fraction(1, 2), beta=Fraction(1, 3),
            delta=Fraction(1, 5), N=3,
        )
    with pytest.raises(ValueError):
        hahn_via_phi2(spec(1, 2), 3)
    with pytest.raises(ValueError):
        hahn_via_phi2(spec(1, 2), -1)


def test_seed_lives_at_its_own_level():
    s = spec(2, 2)
    for x in range(3):
        assert hahn_via_raising(s, x) == hahn_via_phi2(s, x)


def test_two_routes_agree():
    for which in ("primary", "secondary"):
        for N in range(5):
            for n in range(N + 1):
                s = spec(n, N, which)
                # beta = 0 too: the seed reads no beta^-1
                for sp in (s, Hahn1DSpec(CTX, n, s.alpha, Fraction(0), N)):
                    for x in range(N + 1):
                        assert hahn_via_phi2(sp, x) == hahn_via_raising(sp, x)
                        assert hahn_eval(CTX, n, x, sp.alpha, sp.beta, N) == hahn_via_phi2(
                            sp, x
                        )


@settings(max_examples=40)
@given(
    unit_fractions,
    unit_fractions,
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1, 5)]),
)
def test_two_routes_agree_generic(alpha, beta, n, N, s_val):
    if n > N:
        n, N = N, n
    ctx = QContext(s=s_val)
    sp = Hahn1DSpec(ctx=ctx, n=n, alpha=alpha, beta=beta, N=N)
    for x in range(N + 1):
        assert hahn_via_phi2(sp, x) == hahn_via_raising(sp, x)


def test_hahn_row_equals_both_routes_entry_by_entry():
    rng = random.Random(11)

    def draw():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 12))

    compared = 0
    for ctx in (CTX, make_ctx(Fraction(2, 3))):
        q = ctx.q
        # signed, and above 1/q
        pairs = [(draw(), draw()) for _ in range(4)]
        pairs += [(1 / q + draw() ** 2, 2 / q + draw() ** 2), (1 / q + draw() ** 2, -draw() ** 2)]
        pairs.append((draw(), Fraction(0)))
        for alpha, beta in pairs:
            for N in range(7):
                for n in range(N + 1):
                    row = hahn_row(ctx, n, _pair(alpha), _pair(beta), N)
                    assert len(row) == N + 1
                    sp = Hahn1DSpec(ctx, n, alpha, beta, N)
                    for x in range(N + 1):
                        want = hahn_via_phi2(sp, x)
                        assert Fraction(*row[x]) == want == hahn_via_raising(sp, x)
                        # a Fraction's own pair is reduced, with a positive denominator
                        assert row[x] == (want.numerator, want.denominator)
                        compared += 1
    assert compared == 2 * 7 * sum((N + 1) ** 2 for N in range(7))


# s in (0, 1), and alpha and beta signed, as integer pairs; beta may be
# zero, since the raising route's seed reads no beta^-1
s_pairs = st.tuples(st.integers(1, 8), st.integers(2, 9)).filter(lambda t: t[0] < t[1])
alpha_pairs = st.tuples(st.integers(-40, 40), st.integers(1, 12))
beta_pairs = st.tuples(st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(
    s_pairs,
    alpha_pairs,
    beta_pairs,
    st.one_of(st.just(0), st.integers(1, 3)),
    st.integers(0, 5),
    st.integers(0, 5),
)
def test_hahn_row_equals_both_routes_at_drawn_parameters(s, alpha, beta, pole, n, N):
    """`hahn_row` == `hahn_via_phi2` == `hahn_via_raising` entry by entry,
    with None exactly where `hahn_eval` raises; `pole` = k > 0 puts alpha
    at q^-k, where (alpha q; q)_j vanishes from j = k on."""
    if n > N:
        n, N = N, n
    ctx = QContext(s=Fraction(*s))
    alpha = ctx.q**-pole if pole else Fraction(*alpha)
    beta = Fraction(*beta)
    row = hahn_row(ctx, n, _pair(alpha), _pair(beta), N)
    assert len(row) == N + 1
    sp = Hahn1DSpec(ctx, n, alpha, beta, N)
    for x in range(N + 1):
        try:
            want = hahn_eval(ctx, n, x, alpha, beta, N)
        except ZeroDenominator:
            assert row[x] is None, x
            continue
        assert row[x] == (want.numerator, want.denominator)
        assert want == hahn_via_phi2(sp, x) == hahn_via_raising(sp, x)


def test_hahn_row_raises_where_hahn_eval_raises():
    q = CTX.q
    with pytest.raises(ValueError):
        hahn_row(CTX, 3, (1, 2), (1, 3), 2)
    with pytest.raises(ValueError):
        hahn_row(CTX, -1, (1, 2), (1, 3), 2)
    poles = 0
    for k in (1, 2, 3):
        # alpha = q^-k: (alpha q; q)_j vanishes from j = k on, so the
        # entries with min(n, x) >= k meet the pole
        alpha, beta = q**-k, Fraction(2, 3)
        for N in range(6):
            for n in range(N + 1):
                row = hahn_row(CTX, n, _pair(alpha), _pair(beta), N)
                for x in range(N + 1):
                    if min(n, x) >= k:
                        with pytest.raises(ZeroDenominator):
                            hahn_eval(CTX, n, x, alpha, beta, N)
                        assert row[x] is None
                        poles += 1
                    else:
                        assert Fraction(*row[x]) == hahn_eval(CTX, n, x, alpha, beta, N)
    assert poles > 0


def test_hahn_row_builds_no_fraction(fraction_builds):
    rng = random.Random(12)

    def draw():
        return Fraction(rng.randint(1, 60), rng.randint(1, 12))

    # a random pair, a negative alpha, and alpha = q^-2, whose rows meet a pole
    pairs = [(draw(), draw()), (Fraction(-7, 3), Fraction(5, 2)), (CTX.q**-2, Fraction(2, 3))]
    fraction_builds.clear()
    rows = [
        hahn_row(CTX, n, _pair(alpha), _pair(beta), N)
        for alpha, beta in pairs
        for N in range(6)
        for n in range(N + 1)
    ]
    assert fraction_builds == []
    assert any(None in row for row in rows)


@settings(max_examples=200, deadline=None)
@given(
    s_pairs,
    alpha_pairs,
    alpha_pairs,  # beta, zero included
    st.one_of(st.just(0), st.integers(1, 3)),
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 5),
)
def test_raising_chain_rows_equal_the_phi_sum_rows(s, alpha, beta, pole, c, low, top):
    """Every row `_hahn_levels` lifts from the seed equals `hahn_row` entry
    by entry, and stops where `hahn_row` meets its first None; beta = 0 is
    drawn too, and `pole` = k > 0 puts alpha at q^-k."""
    c, low, top = sorted((c, low, top))
    ctx = QContext(s=Fraction(*s))
    alpha = _pair(ctx.q**-pole) if pole else _pair(Fraction(*alpha))
    beta = _pair(Fraction(*beta))
    rows, den = hahn1d._hahn_levels(ctx, c, alpha, beta, low, top)
    assert den != 0 and len(rows) == top + 1 - low
    for M, row in enumerate(rows, low):
        want = hahn_row(ctx, c, alpha, beta, M)
        width = want.index(None) if None in want else M + 1
        assert [Fraction(v, den) for v in row] == [Fraction(*pair) for pair in want[:width]]
        assert all(pair is None for pair in want[width:])


def test_constant_and_top_degree():
    # Degree 0 at any level is the constant 1.
    for N in range(4):
        s0 = spec(0, N)
        assert all(hahn_via_phi2(s0, x) == 1 for x in range(N + 1))


def test_polynomial_degree_in_shifted_variable():
    # On z = q^(-x) the degree-n member is a polynomial of exact degree n:
    # fit an interpolating polynomial through all N+1 points and look at the
    # coefficients above n.
    N = 5
    zs = [CTX.q_power(-x) for x in range(N + 1)]
    vdm = [[z**k for k in range(N + 1)] for z in zs]
    for n in range(N + 1):
        s = spec(n, N)
        rows, pivots, _ = rref([row + [hahn_via_phi2(s, x)] for x, row in enumerate(vdm)])
        assert pivots == list(range(N + 1))  # row k holds coefficient k in its last entry
        coeffs = [row[-1] for row in rows]
        assert all(c == 0 for c in coeffs[n + 1 :])
        assert coeffs[n] != 0


def test_norm_against_brute_gram():
    for which in ("primary", "secondary"):
        p = make_params(2, which)
        a, b = p.alphas
        for N in range(5):
            grids = [
                GridFunction.from_callable(
                    2, N, lambda x, n=n: hahn_eval(CTX, n, x[0], a, b, N)
                )
                for n in range(N + 1)
            ]
            for i, gi in enumerate(grids):
                for j, gj in enumerate(grids):
                    got = inner_product(gi, gj, p)
                    if i == j:
                        assert got == hahn_norm(spec(i, N, which))
                    else:
                        assert got == 0


def test_endpoint_values():
    ctx = CTX
    n, N = 2, 5
    s = spec(n, N)
    from qtreehahn import pochhammer

    head = ctx.q_half_power(-n * (2 * N - n)) * pochhammer(
        ctx, ctx.q_power(N - n + 1), n
    )
    assert hahn_via_phi2(s, 0) == head
    tail = (
        head
        * (s.alpha * s.beta * ctx.q_power(n + 1)) ** n
        * pochhammer(ctx, ctx.q_power(-n) / s.beta, n)
        / pochhammer(ctx, s.alpha * ctx.q, n)
    )
    assert hahn_via_phi2(s, N) == tail


def test_recurrence_reports():
    p = make_params(2)
    reports = verify_hahn_recurrences(CTX, p.alphas[0], p.alphas[1], 4)
    assert [r["identity"] for r in reports] == [
        "raising_shifts_level",
        "lowering_shifts_level",
        "diagonal_operator_eigenvalue",
    ]
    for r in reports:
        assert r["status"] == "pass"
        assert r["counterexample"] is None


def test_eigen_cases_match_the_grid_function_route_and_a_wrong_eigenvalue_fails(monkeypatch):
    """The diagonal-operator identity passes exactly where `apply_D` of the
    level-N polynomial equals its `GridFunction` scaled by the displayed
    eigenvalue, in both sign regimes, and fails at its first case when the
    eigenvalue is that of the next degree."""
    for alphas in (make_params(2).alphas, (Fraction(-5, 3), Fraction(7, 9))):
        alpha, beta = alphas
        p = ParamSet(CTX, alphas, unchecked=True)
        cases = 0
        for n in range(5):
            lam = CTX.q_power(-n) * (1 - CTX.q_power(n)) * (1 - alpha * beta * CTX.q_power(n + 1))
            for N in range(n, 5):
                grid = GridFunction(2, N, tuple(hahn_eval(CTX, n, x, alpha, beta, N) for x in range(N + 1)))
                assert apply_D(grid, p) == grid.scale(lam)
                cases += 1
        report = verify_hahn_recurrences(CTX, alpha, beta, 4)[2]
        assert report == {
            "identity": "diagonal_operator_eigenvalue",
            "cases": cases,
            "status": "pass",
            "counterexample": None,
        }
    exact = hahn1d._eigenvalue
    monkeypatch.setattr(hahn1d, "_eigenvalue", lambda ctx, P, n: exact(ctx, P, n + 1))
    report = verify_hahn_recurrences(CTX, alpha, beta, 4)[2]
    assert (report["status"], report["counterexample"]) == ("fail", {"n": 0, "N": 0})


def test_vandermonde_domain():
    with pytest.raises(ValueError):
        vandermonde_sum_check(CTX, 2, 3, Fraction(1, 2), Fraction(1, 3))
    assert vandermonde_sum_check(CTX, 3, 2, Fraction(1, 2), Fraction(1, 3))
    assert vandermonde_sum_check(CTX, 3, 2, Fraction(1, 2), Fraction(0))  # no beta^-1


def racah_spec(n, N, delta=Fraction(2, 7)):
    p = make_params(2)
    return Racah1DSpec(
        ctx=CTX, n=n, alpha=p.alphas[0], beta=p.alphas[1], delta=delta, N=N
    )


def test_racah_degree_zero_is_one():
    for N in range(4):
        s = racah_spec(0, N)
        assert all(racah(s, x) == 1 for x in range(N + 1))


def test_racah_eval_memoized_consistency():
    s = racah_spec(2, 4)
    for x in range(5):
        assert racah_eval(CTX, 2, x, s.alpha, s.beta, s.delta, 4) == racah(s, x)


def _racah_by_degree(ctx, x, alpha, beta, delta, N):
    """(r_0(x), ..., r_N(x)) by the phi-sum route, or the type of what
    `racah` raises at the lowest degree that meets a pole."""
    values = []
    for n in range(N + 1):
        try:
            values.append(racah(Racah1DSpec(ctx, n, alpha, beta, delta, N), x))
        except (ZeroDivisionError, ZeroDenominator) as exc:
            return type(exc)
    return tuple(values)


def _racah_column_or_pole(ctx, x, alpha, beta, delta, N):
    """`_pairs_or_pole` read as Fractions."""
    pairs = _pairs_or_pole(ctx, x, alpha, beta, delta, N)
    if isinstance(pairs, type):
        return pairs
    return tuple(Fraction(*pair) for pair in pairs)


def test_racah_column_equals_racah_entry_by_entry():
    rng = random.Random(20)

    def draw():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 12))

    compared = 0
    for ctx in (CTX, make_ctx(Fraction(2, 3))):
        q = ctx.q
        triples = [(draw(), draw(), draw()) for _ in range(5)]
        # above 1/q, and negative
        triples += [(1 / q + draw() ** 2, -1 / q - draw() ** 2, 2 / q + draw() ** 2)]
        # the shifted forms of a local block: p2 q^(2l-1), p1 q^(2i-1),
        # p2 p3 q^(n_U + l + j - i - 1)
        p1, p2, p3 = (abs(draw()) for _ in range(3))
        for i, l, j, n_U in ((0, 0, 0, 0), (1, 0, 2, 4), (0, 2, 1, 6), (2, 1, 1, 5)):
            alpha, beta = p2 * q ** (2 * l - 1), p1 * q ** (2 * i - 1)
            triples.append((alpha, beta, p2 * p3 * q ** (n_U + l + j - i - 1)))
        for alpha, beta, delta in triples:
            for N in range(7):
                for x in range(N + 1):
                    want = _racah_by_degree(ctx, x, alpha, beta, delta, N)
                    assert _racah_column_or_pole(ctx, x, alpha, beta, delta, N) == want
                    compared += isinstance(want, tuple)
    assert compared > 300


def test_racah_column_raises_what_racah_raises():
    q = CTX.q
    assert _racah_column_or_pole(CTX, 0, Fraction(2), Fraction(3), Fraction(5), 0) == (1,)
    # alpha = q^-1: (alpha q; q)_k vanishes from k = 1, so the series of
    # degree 1 has a pole once x >= 1.  alpha beta = q^-3: the prefactor
    # of degree 2 divides by 1 - alpha beta q^3.  The lower degree decides.
    alpha, beta, delta = 1 / q, q**-2, Fraction(1, 5)
    for N in range(2, 6):
        for x in range(N + 1):
            want = ZeroDivisionError if x == 0 else ZeroDenominator
            with pytest.raises(want):
                racah(Racah1DSpec(CTX, 1 if x else 2, alpha, beta, delta, N), x)
            assert _racah_by_degree(CTX, x, alpha, beta, delta, N) is want
            assert _pairs_or_pole(CTX, x, alpha, beta, delta, N) is want
    # alpha = beta = q^-1: degree 1 meets both poles once x >= 1, and
    # `racah` raises for the prefactor first
    for x in range(4):
        with pytest.raises(ZeroDivisionError):
            racah(Racah1DSpec(CTX, 1, 1 / q, 1 / q, delta, 3), x)
        assert _pairs_or_pole(CTX, x, 1 / q, 1 / q, delta, 3) is ZeroDivisionError
    # alpha = q^-2 reaches only degrees n >= 2 at points x >= 2
    alpha, beta = q**-2, Fraction(2, 3)
    assert _pairs_or_pole(CTX, 2, alpha, beta, delta, 3) is ZeroDenominator
    assert _racah_column_or_pole(CTX, 1, alpha, beta, delta, 3) == _racah_by_degree(
        CTX, 1, alpha, beta, delta, 3
    )


@pytest.mark.parametrize(
    "x, alpha, beta, error, message",
    [
        (0, (8, 1), (2, 1), ZeroDivisionError,
         "(alpha beta q^(n+1); q)_n vanished for alpha=8, beta=2, n=1"),
        (1, (4, 1), (1, 3), ZeroDenominator,
         "4phi3 denominator vanished at k=1 for alpha=4, beta=1/3, delta=1/5"),
    ],
    ids=["prefactor", "series"],
)
def test_racah_block_pole_messages_print_parameters_as_fractions(x, alpha, beta, error, message):
    # at q = 1/4: alpha beta = 16 = q^-2 zeroes the prefactor of degree 1,
    # and alpha = 4 = q^-1 zeroes (alpha q; q)_1 in the series; the block
    # holds the error at its row, unraised
    row = _racah_block(1, 4, alpha, beta, (1, 5), 2, [(1, 1)] * 3)[x]
    assert type(row) is error
    assert str(row) == message


def _pair_of(v: Fraction) -> tuple[int, int]:
    return v.numerator, v.denominator


def _block(ctx, alpha, beta, delta, N, scales=None):
    """`_racah_block` at the context's q and the given Fractions, with the
    Fraction factors `scales` (all 1 by default)."""
    scales = [Fraction(1)] * (N + 1) if scales is None else scales
    return _racah_block(
        ctx.q.numerator,
        ctx.q.denominator,
        *map(_pair_of, (alpha, beta, delta)),
        N,
        [_pair_of(s) for s in scales],
    )


def _pairs_or_pole(ctx, x, alpha, beta, delta, N):
    """Row x of the block, or the type of the error it holds there."""
    row = _block(ctx, alpha, beta, delta, N)[x]
    return type(row) if isinstance(row, ArithmeticError) else row


def test_racah_block_rows_are_reduced_and_are_racah():
    """Every row of a block, each point times its own factor, is racah at
    that x times the factor, as the reduced pair of the product; a row at
    a pole holds the error racah raises at its lowest such degree."""
    rng = random.Random(21)

    def draw():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 12))

    compared = poles = 0
    for ctx in (CTX, make_ctx(Fraction(2, 3))):
        q = ctx.q
        # random, then poles: alpha = q^-1 with alpha beta = q^-3, and beta delta = q^-2
        triples = [(draw(), draw(), draw()) for _ in range(4)]
        triples += [(1 / q, q**-2, Fraction(1, 5)), (Fraction(2, 3), q**-2 / 5, Fraction(5))]
        for alpha, beta, delta in triples:
            for N in range(6):
                scales = [-3 * q ** (x - N) * draw() for x in range(N + 1)]
                block = _block(ctx, alpha, beta, delta, N, scales)
                assert len(block) == N + 1
                for x, (row, scale) in enumerate(zip(block, scales)):
                    want = _racah_by_degree(ctx, x, alpha, beta, delta, N)
                    if isinstance(want, type):
                        assert type(row) is want
                        poles += 1
                        continue
                    # a Fraction's own pair is reduced, with a positive denominator
                    assert row == tuple(_pair_of(scale * v) for v in want)
                    assert all(type(num) is int and type(den) is int for num, den in row)
                    compared += len(row)
    assert compared > 200 and poles > 20


def test_racah_degenerates_to_hahn_at_delta_zero():
    # At delta = 0 the 4phi3 collapses to the 3phi2 of the q-Hahn family up
    # to the same prefactor structure; compare against the explicit ratio.
    n, N = 2, 4
    s = racah_spec(n, N, delta=Fraction(0))
    from qtreehahn import pochhammer, q_factorial

    pre = (
        CTX.q_power(-n * (N - n))
        * pochhammer(CTX, CTX.q_power(N - n + 1), n)
        / (
            pochhammer(CTX, s.alpha * s.beta * CTX.q_power(n + 1), n)
            * q_factorial(CTX, n)
        )
    )
    hahn_pre = (
        CTX.q_half_power(n * n - 2 * n * N) * q_factorial(CTX, N) / q_factorial(CTX, N - n)
    )
    for x in range(N + 1):
        hahn_val = hahn_eval(CTX, n, x, s.alpha, s.beta, N)
        assert racah(s, x) * hahn_pre == hahn_val * pre


def test_gr_racah_bridge_squared_mode():
    from qtreehahn import pochhammer, q_factorial

    # Degree zero: the bridge is exactly 1.
    s0 = racah_spec(0, 3)
    assert all(gr_racah_bridge(s0, x) == 1 for x in range(4))
    # Squared mode is always rational and equals the square of the
    # unsquared value whenever the radicand is a perfect square; the
    # unsquared value is the displayed formula, sign included.
    n, N = 3, 4
    delta = CTX.q_power(N - n - 1) * Fraction(9, 4)  # radicand (3/2)^2
    s = racah_spec(n, N, delta=delta)
    poly = (
        pochhammer(CTX, s.alpha * s.beta * CTX.q_power(n + 1), n)
        * pochhammer(CTX, s.alpha * CTX.q, n)
        * q_factorial(CTX, n)
    )
    for x in range(N + 1):
        u = gr_racah_bridge(s, x, squared=False)
        assert u == -poly * Fraction(2, 3) ** 3 * racah(s, x)
        assert gr_racah_bridge(s, x, squared=True) == u * u


def test_gr_racah_bridge_non_square_radicand():
    n, N = 1, 3
    delta = CTX.q_power(N - n - 1) * 2  # radicand 2: not a rational square
    s = racah_spec(n, N, delta=delta)
    with pytest.raises(NonSquareRadicand):
        gr_racah_bridge(s, 1, squared=False)
    # Squared mode never needs the root.
    assert isinstance(gr_racah_bridge(s, 1, squared=True), Fraction)
