"""One-dimensional q-Hahn and q-Racah polynomials, exactly.

The q-Hahn family is evaluated by a terminating 3-phi-2 sum (memoized as
`hahn_eval`).  The raising chain applied to the top-level seed in closed
form, the independent route that tests compare with it point by point,
is `classical.hahn_via_raising`.

The polynomials here are normalized so that the raising chain is exactly
the level-lift: the value at level N is the chain applied to the level-n
values, scaled by q^((N-n)(N-n+1)/2) / (q;q)_{N-n}.  `_hahn_levels`
lifts the seed row level by level in integers, by a recurrence whose
coefficients (`_lift_step`) depend only on q, the degree and the level;
the tree bases of `multihahn` are built from it.  `hahn_row`, every
lattice point of one level from the 3phi2 in one pass, is its phi-sum
reference, and tests compare it with the lift and with both routes.

The q-Racah family also has two routes.  `racah` (memoized as
`racah_eval`) sums the 4phi3 term by term with `phi_sum`; it serves the
classical q-Racah bridge and is the cross-check.  `_racah_block` returns
every degree at every lattice point in one pass, from the x-free factors
shared by the whole block, in integer arithmetic, each point times a
factor the caller passes so that each value is reduced once; the local
blocks of the rotation steps in `connect` read it with their q-power
prefactor and cache those (`_racah_block` keeps no cache).  Tests
compare the two routes entry by entry.

`hahn_row` and `_racah_block` return reduced integer pairs (numerator,
denominator) with a positive denominator, `_hahn_levels` numerators over
one denominator; none builds a Fraction.  The Fraction views left are the
termwise routes `hahn_eval` and `racah_eval`, which serve single values
and the cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .qnum import (
    QContext,
    Rational,
    ZeroDenominator,
    _one_minus,
    _poch_pair,
    _power_pair,
    _reduced,
    _Value,
    as_fraction,
    phi_sum,
    pochhammer,
    q_factorial,
)

__all__ = [
    "Hahn1DSpec",
    "Racah1DSpec",
    "hahn_via_phi2",
    "hahn_eval",
    "hahn_row",
    "norm_exponent",
    "racah",
    "racah_eval",
]


class Hahn1DSpec(_Value):
    """Degree, parameter pair and level of a one-dimensional q-Hahn polynomial."""

    __slots__ = _fields = ("ctx", "n", "alpha", "beta", "N")

    def __init__(self, ctx: QContext, n: int, alpha: Rational, beta: Rational, N: int):
        values = (ctx, n, as_fraction(alpha), as_fraction(beta), N)
        if not (0 <= n <= N):
            raise ValueError(f"need 0 <= n <= N, got n={n}, N={N}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


class Racah1DSpec(_Value):
    """Degree, three parameters and level of a one-dimensional q-Racah polynomial.

    The lattice is always the finite one: the fourth textbook parameter is
    pinned to q**(-N) by the level.
    """

    __slots__ = _fields = ("ctx", "n", "alpha", "beta", "delta", "N")

    def __init__(
        self, ctx: QContext, n: int, alpha: Rational, beta: Rational, delta: Rational, N: int
    ):
        values = (ctx, n, as_fraction(alpha), as_fraction(beta), as_fraction(delta), N)
        if not (0 <= n <= N):
            raise ValueError(f"need 0 <= n <= N, got n={n}, N={N}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


def _check_x(x: int, N: int):
    if not (0 <= x <= N):
        raise ValueError(f"lattice point x={x} outside 0..{N}")


def hahn_via_phi2(spec: Hahn1DSpec, x: int) -> Fraction:
    """Hypergeometric route:

        q^(-nN + n^2/2) (q;q)_N / (q;q)_{N-n}
            * 3phi2[q^-n, alpha beta q^(n+1), q^-x; alpha q, q^-N; q, q].
    """
    _check_x(x, spec.N)
    ctx, n, N = spec.ctx, spec.n, spec.N
    prefactor = (
        ctx.q_half_power(n * n - 2 * n * N)
        * q_factorial(ctx, N)
        / q_factorial(ctx, N - n)
    )
    series = phi_sum(
        ctx,
        (ctx.q_power(-n), spec.alpha * spec.beta * ctx.q_power(n + 1), ctx.q_power(-x)),
        (spec.alpha * ctx.q, ctx.q_power(-N)),
        ctx.q,
        min(n, x),
    )
    return prefactor * series


@lru_cache(maxsize=1 << 14)
def hahn_eval(
    ctx: QContext, n: int, x: int, alpha: Fraction, beta: Fraction, N: int
) -> Fraction:
    """Memoized q-Hahn value by the phi-sum route of `hahn_via_phi2`."""
    return hahn_via_phi2(Hahn1DSpec(ctx, n, alpha, beta, N), x)


def hahn_row(
    ctx: QContext, n: int, alpha: tuple[int, int], beta: tuple[int, int], N: int
) -> tuple[tuple[int, int] | None, ...]:
    """Every lattice point of one degree: (Q_n(0), ..., Q_n(N)), each the
    reduced pair (numerator, denominator), with a positive denominator, of
    `hahn_eval(ctx, n, x, alpha, beta, N)` for alpha and beta as such pairs:
    the phi-sum reference for the rows of `_hahn_levels`.

    Term k of the 3phi2 in `hahn_via_phi2` is its term k - 1 times

        rho_k (1 - q^(k-1-x)),

    where the part free of x,

        rho_k = (1 - q^(k-1-n)) (1 - alpha beta q^(n+k)) q
                / ((1 - alpha q^k) (1 - q^(k-1-N)) (1 - q^k)),

    is taken once for the row, and the prefactor
    s^(n^2 - 2nN) prod_{m=N-n+1}^{N} (1 - q^m) is one integer pair.
    Everything is an unreduced integer pair, each sum is taken by Horner's
    rule, and each value is reduced once.  When (alpha q; q)_k vanishes,
    the entries with min(n, x) >= k, where `hahn_eval` raises
    ZeroDenominator, are None; the rest of the row is still returned.
    """
    if not (0 <= n <= N):
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={N}")
    a, b = ctx.q.numerator, ctx.q.denominator
    (an, ad), (bn, bd) = alpha, beta
    abn, abd = an * bn, ad * bd  # alpha beta
    lower = [_one_minus(1, 1, -m, a, b) for m in range(N + 1)]  # 1 - q^(-m)
    rho = [None]
    pole = n + 1  # first k whose denominator vanishes
    for k in range(1, n + 1):
        u1, v1 = lower[n + 1 - k]
        u2, v2 = _one_minus(abn, abd, n + k, a, b)
        u3, v3 = _one_minus(an, ad, k, a, b)
        u4, v4 = lower[N + 1 - k]
        u5, v5 = _one_minus(1, 1, k, a, b)
        if u3 == 0:
            pole = k
            break
        rho.append((u1 * u2 * a * v3 * v4 * v5, v1 * v2 * b * u3 * u4 * u5))
    pre_num, pre_den = _power_pair(ctx.s.numerator, ctx.s.denominator, n * n - 2 * n * N)
    u, v = _poch_pair(1, 1, N - n + 1, n, a, b)
    pre_num, pre_den = pre_num * u, pre_den * v
    row = []
    for x in range(N + 1):
        terms = min(n, x)
        if pole <= terms:
            row.append(None)
            continue
        sum_num, sum_den = 1, 1
        for k in range(terms, 0, -1):
            u, v = lower[x + 1 - k]
            t_num, t_den = rho[k][0] * u, rho[k][1] * v
            sum_num, sum_den = t_den * sum_den + t_num * sum_num, t_den * sum_den
        row.append(_reduced(pre_num * sum_num, pre_den * sum_den))
    return tuple(row)


# Keyed by q and (c, M) alone, 1 <= c <= M < N: the benchmarks, at one q
# and N <= 4, make at most 6 keys and the h = 7 connections suite 1, and 64
# hold every key of one q up to level 11.
@lru_cache(maxsize=64)
def _lift_step(a: int, b: int, c: int, M: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The lift of degree c from level M to M + 1 at q = a/b, free of the
    parameters: the raising relation of `classical.verify_hahn_recurrences` over its
    factor q^(c-M-1) - 1, cleared of powers of q.  For x = 0..M+1,

        Q_c(x; M+1) = (left[x] Q_c(x-1; M) + right[x] Q_c(x; M)) / den,
        left[x] = (b^x - a^x) b^(M+1-x),
        right[x] = a^x (b^(M+1-x) - a^(M+1-x)),
        den = a^c (b^(M+1-c) - a^(M+1-c))."""
    e = M + 1
    left = tuple((b**x - a**x) * b ** (e - x) for x in range(e + 1))
    right = tuple(a**x * (b ** (e - x) - a ** (e - x)) for x in range(e + 1))
    return left, right, a**c * (b ** (e - c) - a ** (e - c))


def _hahn_levels(
    ctx: QContext, c: int, alpha: tuple[int, int], beta: tuple[int, int], low: int, top: int
) -> tuple[list[list[int]], int]:
    """The rows of degree c at the levels low..top (c <= low): (rows, den)
    with rows[M - low][x] / den the value of `hahn_row(ctx, c, alpha, beta,
    M)[x]`, over one unreduced nonzero denominator of either sign.  A row
    stops where `hahn_row` has None, at the first k <= c where
    (alpha q; q)_k vanishes.

    Only the seed, the level-c row, reads alpha = an/ad and beta = bn/bd:

        Q_c(x; c) = q^(-c^2/2) (q; q)_c (alpha q^(c+1))^x
                    prod_{j<x} (beta - q^(j-c)) / (alpha q; q)_x,

    term x being term x - 1 times, at q = a/b,

        an a^x (bn a^(c+1-x) - bd b^(c+1-x)) / (bd b^(c+1-x) (ad b^x - an a^x)),

    with no beta^-1.  Each lift of `_lift_step` multiplies the denominator
    by the step's, so each row goes over the top one by multiplications.
    """
    a, b = ctx.q.numerator, ctx.q.denominator
    s_num, s_den = ctx.s.numerator, ctx.s.denominator
    (an, ad), (bn, bd) = alpha, beta
    num, den = _poch_pair(a, b, 0, c, a, b)  # (q; q)_c
    row, den = [num * s_den ** (c * c)], den * s_num ** (c * c)
    for x in range(1, c + 1):
        down = ad * b**x - an * a**x
        if not down:  # (alpha q; q)_x vanishes from here on
            break
        e = c + 1 - x
        down *= bd * b**e
        row = [v * down for v in row] + [row[-1] * an * a**x * (bn * a**e - bd * b**e)]
        den *= down
    kept = []
    for M in range(c, top + 1):
        if M >= low:
            kept.append((row, den))
        if M < top:
            left, right, step = _lift_step(a, b, c, M)
            pad = [0] if len(row) > M else []  # a row cut short by a pole stays so
            row = [u * w + v * z for u, v, w, z in zip(left, right, [0, *row], row + pad)]
            den *= step
    return [[v * (den // d) for v in row] if d != den else row for row, d in kept], den


def norm_exponent(N: int, n: int) -> int:
    """The (always even) exponent 2e with q^e = q^(((N-2n)^2 + N + 2n - 2n^2)/2)."""
    return (N - 2 * n) ** 2 + N + 2 * n - 2 * n * n


def racah(spec: Racah1DSpec, x: int) -> Fraction:
    """q-Racah value on the finite lattice:

        q^(-n(N-n)) (beta delta q; q)_n (q^(N-n+1); q)_n
        / ((alpha beta q^(n+1); q)_n (q; q)_n)
        * 4phi3[q^-n, delta q^(x-N), q^-x, alpha beta q^(n+1);
                alpha q, beta delta q, q^-N; q, q].
    """
    _check_x(x, spec.N)
    ctx, n, N = spec.ctx, spec.n, spec.N
    alpha, beta, delta = spec.alpha, spec.beta, spec.delta
    q = ctx.q
    den = pochhammer(ctx, alpha * beta * ctx.q_power(n + 1), n) * q_factorial(ctx, n)
    if den == 0:
        raise ZeroDivisionError(
            f"(alpha beta q^(n+1); q)_n (q;q)_n vanished for alpha={alpha}, beta={beta}"
        )
    prefactor = (
        ctx.q_power(-n * (N - n))
        * pochhammer(ctx, beta * delta * q, n)
        * pochhammer(ctx, ctx.q_power(N - n + 1), n)
        / den
    )
    series = phi_sum(
        ctx,
        (
            ctx.q_power(-n),
            delta * ctx.q_power(x - N),
            ctx.q_power(-x),
            alpha * beta * ctx.q_power(n + 1),
        ),
        (alpha * q, beta * delta * q, ctx.q_power(-N)),
        q,
        min(n, x),
    )
    return prefactor * series


@lru_cache(maxsize=1 << 14)
def racah_eval(
    ctx: QContext,
    n: int,
    x: int,
    alpha: Fraction,
    beta: Fraction,
    delta: Fraction,
    N: int,
) -> Fraction:
    """Memoized q-Racah value by the termwise route of `racah`."""
    return racah(Racah1DSpec(ctx, n, alpha, beta, delta, N), x)


def _racah_block(
    a: int,
    b: int,
    alpha: tuple[int, int],
    beta: tuple[int, int],
    delta: tuple[int, int],
    N: int,
    scales: Sequence[tuple[int, int]],
) -> tuple[tuple[tuple[int, int], ...] | ArithmeticError, ...]:
    """Every degree at every lattice point: row x is (s_x r_0(x), ...,
    s_x r_N(x)) at q = a/b, each the reduced pair (numerator, denominator),
    with a positive denominator, of s_x times
    `racah(Racah1DSpec(ctx, n, alpha, beta, delta, N), x)`.  alpha, beta,
    delta and s_x = `scales[x]` (nonzero denominator) are integer pairs
    too, so a caller's factor is folded in before the one reduction.

    Term k of the 4phi3 in `racah` is its term k - 1 times

        rho_k (1 - delta q^(x-N+k-1)) (1 - q^(k-1-x))
              (1 - q^(k-1-n)) (1 - alpha beta q^(n+k)),

    where rho_k = q / ((1 - alpha q^k) (1 - beta delta q^k) (1 - q^(k-1-N))
    (1 - q^k)) is free of x and n.  It is taken once for the block, as is
    the prefactor of degree n,

        q^(-n(N-n)) (q; q)_N / ((q; q)_n (q; q)_(N-n))
        * (beta delta q; q)_n / (alpha beta q^(n+1); q)_n.

    Everything is an unreduced integer pair, each sum is taken by Horner's
    rule, and each value is reduced once.  Where some degree at x meets a
    pole, row x is the error, unraised, of the lowest such degree, of the
    type `racah` raises: ZeroDivisionError for the prefactor,
    ZeroDenominator for the series.
    """
    (an, ad), (bn, bd), (dn, dd) = alpha, beta, delta
    f = [None] + [_one_minus(an * bn, ad * bd, j, a, b) for j in range(1, 2 * N + 1)]
    g = [None] + [_one_minus(bn * dn, bd * dd, k, a, b) for k in range(1, N + 1)]
    h = [None] + [_one_minus(1, 1, k, a, b) for k in range(1, N + 1)]
    lower = [_one_minus(1, 1, -m, a, b) for m in range(N + 1)]  # 1 - q^(-m)
    shifted = [_one_minus(dn, dd, e - N, a, b) for e in range(2 * N)]  # 1 - delta q^(e-N)
    rho = [None]
    pole = N + 1  # first k whose series denominator vanishes
    for k in range(1, N + 1):
        u3, v3 = _one_minus(an, ad, k, a, b)
        u4, v4 = g[k]
        if u3 == 0 or u4 == 0:
            pole = k
            break
        u5, v5 = lower[N + 1 - k]
        u6, v6 = h[k]
        rho.append((a * v3 * v4 * v5 * v6, b * u3 * u4 * u5 * u6))
    qq = [(1, 1)]  # (q; q)_m
    for m in range(1, N + 1):
        qq.append((qq[-1][0] * h[m][0], qq[-1][1] * h[m][1]))
    prefactors = []  # of degrees 0, 1, ... up to the first that vanishes
    bd_num, bd_den = 1, 1  # (beta delta q; q)_n
    for n in range(N + 1):
        if n:
            bd_num *= g[n][0]
            bd_den *= g[n][1]
        den_num, den_den = 1, 1  # (alpha beta q^(n+1); q)_n
        for j in range(n + 1, 2 * n + 1):
            den_num *= f[j][0]
            den_den *= f[j][1]
        if den_num == 0:
            break
        e = n * (N - n)
        prefactors.append((
            b**e * qq[N][0] * qq[n][1] * qq[N - n][1] * bd_num * den_den,
            a**e * qq[N][1] * qq[n][0] * qq[N - n][0] * bd_den * den_num,
        ))
    zero_at = len(prefactors)  # the first degree whose prefactor vanishes, or N + 1
    series = prefactor = None
    if pole < zero_at or zero_at <= N:
        named = f"alpha={Fraction(*alpha)}, beta={Fraction(*beta)}"
        if pole < zero_at:
            series = ZeroDenominator(
                f"4phi3 denominator vanished at k={pole} for {named}, delta={Fraction(*delta)}"
            )
        if zero_at <= N:
            prefactor = ZeroDivisionError(
                f"(alpha beta q^(n+1); q)_n vanished for {named}, n={zero_at}"
            )
    block = []
    for x in range(N + 1):
        error = series if series is not None and pole <= x else prefactor
        if error is not None:
            block.append(error)
            continue
        s_num, s_den = scales[x]
        steps = [None] + [
            (rho[k][0] * shifted[x + k - 1][0] * lower[x + 1 - k][0],
             rho[k][1] * shifted[x + k - 1][1] * lower[x + 1 - k][1])
            for k in range(1, x + 1)
        ]
        row = []
        for n, (p_num, p_den) in enumerate(prefactors):
            sum_num, sum_den = 1, 1
            for k in range(min(n, x), 0, -1):
                u, v = lower[n + 1 - k]
                t_num = steps[k][0] * u * f[n + k][0]
                t_den = steps[k][1] * v * f[n + k][1]
                sum_num, sum_den = t_den * sum_den + t_num * sum_num, t_den * sum_den
            row.append(_reduced(s_num * p_num * sum_num, s_den * p_den * sum_den))
        block.append(tuple(row))
    return tuple(block)


