"""One-dimensional q-Hahn and q-Racah polynomials, exactly.

Two genuinely independent evaluation routes are kept for the q-Hahn
family: a terminating 3-phi-2 sum (memoized as `hahn_eval`), and a raising
chain applied to the top-level seed in closed form.  Tests compare them
point by point.  `hahn_row` returns every lattice point of one degree in
one pass, in integer arithmetic; the tree bases of `multihahn` read their
factors from it, and tests compare it with both routes entry by entry.

The polynomials here are normalized so that the raising chain is exactly
the level-lift: the value at level N is the chain applied to the level-n
values, scaled by q^((N-n)(N-n+1)/2) / (q;q)_{N-n}.

The q-Racah family also has two routes.  `racah` (memoized as
`racah_eval`) sums the 4phi3 term by term with `phi_sum`; it serves the
classical bridges and is the cross-check.  `_racah_pairs` returns every
degree at one lattice point in one pass, from q-shifted factorials shared
by all degrees, in integer arithmetic, keyed by integers; the rotation
move tables in `connect` read it.  Tests compare the two routes entry by
entry.

Both one-pass bodies, `hahn_row` and `_racah_pairs`, return reduced
integer pairs (numerator, denominator) with a positive denominator and
build no Fraction; `multihahn.basis` and `connect._move_table` keep the
pairs up to the finished grid or move table.  The Fraction views left are
the termwise routes `hahn_eval` and `racah_eval`, which serve single
values and the cross-checks.

The standard-reference q-Racah normalization multiplies by a signed
half-power (-1)^n poly radicand^(-n/2); `_tilde_scale` states it once for
`gr_racah_bridge` and for the classical conversion factor in `connect`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .lattice import GridFunction, ParamSet
from .qnum import (
    QContext,
    Rational,
    ZeroDenominator,
    _one_minus,
    _poch_pair,
    _power_pair,
    _reduced,
    as_fraction,
    phi_sum,
    pochhammer,
    q_binomial,
    q_factorial,
    rational_sqrt,
)
from .qops import apply_D, check_identity

__all__ = [
    "NonSquareRadicand",
    "Hahn1DSpec",
    "Racah1DSpec",
    "hahn_via_phi2",
    "hahn_via_raising",
    "hahn_eval",
    "hahn_row",
    "hahn_norm",
    "norm_exponent",
    "verify_hahn_recurrences",
    "vandermonde_sum_check",
    "racah",
    "racah_eval",
    "gr_hahn_bridge",
    "gr_racah_bridge",
]


class NonSquareRadicand(ArithmeticError):
    """An explicit half-integer exponent landed on a non-square rational."""


@dataclass(frozen=True)
class Hahn1DSpec:
    """Degree, parameter pair and level of a one-dimensional q-Hahn polynomial."""

    ctx: QContext
    n: int
    alpha: Fraction
    beta: Fraction
    N: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        if not (0 <= self.n <= self.N):
            raise ValueError(f"need 0 <= n <= N, got n={self.n}, N={self.N}")


@dataclass(frozen=True)
class Racah1DSpec:
    """Degree, three parameters and level of a one-dimensional q-Racah polynomial.

    The lattice is always the finite one: the fourth textbook parameter is
    pinned to q**(-N) by the level.
    """

    ctx: QContext
    n: int
    alpha: Fraction
    beta: Fraction
    delta: Fraction
    N: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if not (0 <= self.n <= self.N):
            raise ValueError(f"need 0 <= n <= N, got n={self.n}, N={self.N}")


def _check_x(x: int, N: int):
    if not (0 <= x <= N):
        raise ValueError(f"lattice point x={x} outside 0..{N}")


def _seed_value(ctx: QContext, n: int, x: int, alpha: Fraction, beta: Fraction) -> Fraction:
    """Top-level value at its own level:

        q^(-n^2/2) (q; q)_n (alpha beta q^(n+1))^x (beta^-1 q^-n; q)_x / (alpha q; q)_x.
    """
    q = ctx.q
    if beta == 0:
        raise ZeroDivisionError(f"beta^-1 q^-n is undefined for beta=0, n={n}")
    den = pochhammer(ctx, alpha * q, x)
    if den == 0:
        raise ZeroDivisionError(f"(alpha q; q)_x vanished for alpha={alpha}, x={x}")
    return (
        ctx.q_half_power(-n * n)
        * q_factorial(ctx, n)
        * (alpha * beta * ctx.q_power(n + 1)) ** x
        * pochhammer(ctx, ctx.q_power(-n) / beta, x)
        / den
    )


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


def hahn_via_raising(spec: Hahn1DSpec, x: int) -> Fraction:
    """Chain route: the raising chain from the level-n seed, in closed form.

        q^(-n(N-n)) * sum_y [N-x, n-y]_q [x, y]_q q^(y(y+N-x-n)) seed(y)
    """
    _check_x(x, spec.N)
    ctx, n, N = spec.ctx, spec.n, spec.N
    total = Fraction(0)
    for y in range(max(0, x - (N - n)), min(x, n) + 1):
        total += (
            q_binomial(ctx, N - x, n - y)
            * q_binomial(ctx, x, y)
            * ctx.q_power(y * (y + N - x - n))
            * _seed_value(ctx, n, y, spec.alpha, spec.beta)
        )
    return ctx.q_power(-n * (N - n)) * total


@lru_cache(maxsize=1 << 14)
def hahn_eval(
    ctx: QContext, n: int, x: int, alpha: Fraction, beta: Fraction, N: int
) -> Fraction:
    """Memoized q-Hahn value by the phi-sum route of `hahn_via_phi2`."""
    return hahn_via_phi2(Hahn1DSpec(ctx, n, alpha, beta, N), x)


# Bound set on the `gram`, `connect` and `operators` benchmarks: 1024 rows
# keep every hit on `connect`, where 256 lost a tenth of them, and about
# 97% of the hits that 16,384 rows get on `gram` and `operators`; 4096
# rows added 1.3 MB of peak RSS on `gram`.
@lru_cache(maxsize=1 << 10)
def hahn_row(
    ctx: QContext, n: int, alpha: tuple[int, int], beta: tuple[int, int], N: int
) -> tuple[tuple[int, int] | None, ...]:
    """Every lattice point of one degree: (Q_n(0), ..., Q_n(N)), each the
    reduced pair (numerator, denominator), with a positive denominator, of
    `hahn_eval(ctx, n, x, alpha, beta, N)` for alpha and beta as such pairs.

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


def norm_exponent(N: int, n: int) -> int:
    """The (always even) exponent 2e with q^e = q^(((N-2n)^2 + N + 2n - 2n^2)/2)."""
    return (N - 2 * n) ** 2 + N + 2 * n - 2 * n * n


def hahn_norm(spec: Hahn1DSpec) -> Fraction:
    """Squared norm for the lattice inner product with parameters (alpha, beta):

        (alpha beta q^(n+1); q)_{N+1} (q; q)_n (beta q; q)_n
        / ((1 - alpha beta q^(2n+1)) (q; q)_{N-n} (alpha q; q)_n)
        * alpha^n q^(((N-2n)^2 + N + 2n - 2n^2)/2).
    """
    ctx, n, N = spec.ctx, spec.n, spec.N
    alpha, beta = spec.alpha, spec.beta
    q = ctx.q
    return (
        pochhammer(ctx, alpha * beta * ctx.q_power(n + 1), N + 1)
        * q_factorial(ctx, n)
        * pochhammer(ctx, beta * q, n)
        / (
            (1 - alpha * beta * ctx.q_power(2 * n + 1))
            * q_factorial(ctx, N - n)
            * pochhammer(ctx, alpha * q, n)
        )
        * alpha**n
        * ctx.q_power(norm_exponent(N, n) // 2)
    )


def _hahn_grid(ctx: QContext, n: int, alpha: Fraction, beta: Fraction, N: int) -> GridFunction:
    """The level-N polynomial as a two-variable grid function (x, N - x)."""
    values = tuple(hahn_eval(ctx, n, N - x2, alpha, beta, N) for x2 in range(N + 1))
    # enumeration of [2; N] is (0, N), (1, N-1), ..., (N, 0)
    return GridFunction(2, N, tuple(reversed(values)))


def verify_hahn_recurrences(
    ctx: QContext, alpha: Rational, beta: Rational, n_max: int
) -> list[dict]:
    """Exact check of the three structure relations of the q-Hahn family.

    For all 0 <= n <= N <= n_max and all lattice points:

      * raising: the raising operator sends the level-(N-1) polynomial to
        (q^(n-N) - 1) times the level-N one,
      * lowering: the lowering operator sends the level-(N+1) polynomial to
        q^(-n) (alpha beta q^(N+n+2) - 1) times the level-N one,
      * eigen: the full operator D at level N multiplies the polynomial by
        q^(-n) (1 - q^n) (1 - alpha beta q^(n+1)).

    Raising and lowering are checked against their explicit two-variable
    displays; the eigen relation goes through the operator module.
    Returns one `check_identity` report per relation.
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    p = ParamSet(ctx, (alpha, beta), unchecked=True)

    def value(n, x, N):
        return hahn_eval(ctx, n, x, alpha, beta, N)

    def raise_cases():
        for n in range(n_max + 1):
            for N in range(n + 1, n_max + 1):
                for x1 in range(N + 1):
                    x2 = N - x1
                    lhs = Fraction(0)
                    if x1 > 0:
                        lhs += (
                            ctx.q_power(-x1 - x2)
                            * (1 - ctx.q_power(x1))
                            * value(n, x1 - 1, N - 1)
                        )
                    if x2 > 0:
                        lhs += ctx.q_power(-x2) * (1 - ctx.q_power(x2)) * value(n, x1, N - 1)
                    rhs = (ctx.q_power(-x1 - x2 + n) - 1) * value(n, x1, N)
                    yield {"n": n, "N": N, "x1": x1}, lhs == rhs

    def lower_cases():
        for n in range(n_max + 1):
            for N in range(n, n_max + 1):
                for x1 in range(N + 1):
                    x2 = N - x1
                    lhs = (alpha * ctx.q_power(x1 + 1) - 1) * value(n, x1 + 1, N + 1)
                    lhs += (
                        alpha
                        * ctx.q_power(x1 + 1)
                        * (beta * ctx.q_power(x2 + 1) - 1)
                        * value(n, x1, N + 1)
                    )
                    rhs = (
                        ctx.q_power(-n)
                        * (alpha * beta * ctx.q_power(x1 + x2 + n + 2) - 1)
                        * value(n, x1, N)
                    )
                    yield {"n": n, "N": N, "x1": x1}, lhs == rhs

    def eigen_cases():
        for n in range(n_max + 1):
            lam = ctx.q_power(-n) * (1 - ctx.q_power(n)) * (1 - alpha * beta * ctx.q_power(n + 1))
            for N in range(n, n_max + 1):
                grid = _hahn_grid(ctx, n, alpha, beta, N)
                yield {"n": n, "N": N}, apply_D(grid, p) == grid.scale(lam)

    return [
        check_identity("raising_shifts_level", raise_cases()),
        check_identity("lowering_shifts_level", lower_cases()),
        check_identity("diagonal_operator_eigenvalue", eigen_cases()),
    ]


def vandermonde_sum_check(
    ctx: QContext, n: int, j: int, alpha: Rational, beta: Rational
) -> bool:
    """Exact check of the alternating seed sum used to normalize kernels:

        sum_{x=0}^{j} (-1)^x q^(x(x-1)/2) seed(x) / ((q;q)_x (q;q)_{j-x})
            = (alpha beta q^(n+1); q)_j / ((alpha q; q)_j (q; q)_j)
              * q^(-n^2/2) (q; q)_n          for 0 <= j <= n.
    """
    if not (0 <= j <= n):
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    lhs = Fraction(0)
    for x in range(j + 1):
        lhs += (
            (-1) ** x
            * ctx.q_power(x * (x - 1) // 2)
            * _seed_value(ctx, n, x, alpha, beta)
            / (q_factorial(ctx, x) * q_factorial(ctx, j - x))
        )
    rhs = (
        pochhammer(ctx, alpha * beta * ctx.q_power(n + 1), j)
        / (pochhammer(ctx, alpha * ctx.q, j) * q_factorial(ctx, j))
        * ctx.q_half_power(-n * n)
        * q_factorial(ctx, n)
    )
    return lhs == rhs


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


# Bound set on the `rotations` benchmark, replaying the 572 requests of a
# 20 s run in one process, seeds 3 and 11: 1024 columns hit 5723 and 5287
# times, against 5733 and 5297 with no bound; 256 hit 3891 and 3359, and
# 4096 add 2.9 and 2.8 MB of peak RSS (20.3 MB at 1024) for 6 and 0 more
# hits.
@lru_cache(maxsize=1 << 10)
def _racah_pairs(
    a: int,
    b: int,
    x: int,
    alpha: tuple[int, int],
    beta: tuple[int, int],
    delta: tuple[int, int],
    N: int,
) -> tuple[tuple[int, int], ...]:
    """Every degree at one lattice point: (r_0(x), ..., r_N(x)) at q = a/b,
    each the reduced pair (numerator, denominator), with a positive
    denominator, of `racah(Racah1DSpec(ctx, n, alpha, beta, delta, N), x)`.
    alpha, beta and delta are given as integer pairs too.

    Term k of the 4phi3 in `racah` is its term k - 1 times

        rho_k (1 - q^(k-1-n)) (1 - alpha beta q^(n+k)),

    where the part free of n,

        rho_k = (1 - delta q^(x-N+k-1)) (1 - q^(k-1-x)) q
                / ((1 - alpha q^k) (1 - beta delta q^k) (1 - q^(k-1-N)) (1 - q^k)),

    is taken once for the column.  The prefactor of degree n is

        q^(-n(N-n)) (q; q)_N / ((q; q)_n (q; q)_(N-n))
        * (beta delta q; q)_n / (alpha beta q^(n+1); q)_n,

    read from tables of (q; q)_m, (beta delta q; q)_m and the factors
    1 - alpha beta q^j.  Everything is an unreduced integer pair, the sum
    is taken by Horner's rule, and each value is reduced once.  A pole
    raises what `racah` raises at the lowest degree that meets it:
    ZeroDivisionError for the prefactor, ZeroDenominator for the series.
    """
    _check_x(x, N)
    (an, ad), (bn, bd), (dn, dd) = alpha, beta, delta
    f = [None] + [_one_minus(an * bn, ad * bd, j, a, b) for j in range(1, 2 * N + 1)]
    g = [None] + [_one_minus(bn * dn, bd * dd, k, a, b) for k in range(1, N + 1)]
    h = [None] + [_one_minus(1, 1, k, a, b) for k in range(1, N + 1)]
    rho = [None]
    pole = x + 1  # first k whose denominator vanishes
    for k in range(1, x + 1):
        u1, v1 = _one_minus(dn, dd, x - N + k - 1, a, b)
        u2, v2 = _one_minus(1, 1, k - 1 - x, a, b)
        u3, v3 = _one_minus(an, ad, k, a, b)
        u4, v4 = g[k]
        u5, v5 = _one_minus(1, 1, k - 1 - N, a, b)
        u6, v6 = h[k]
        if u3 == 0 or u4 == 0:
            pole = k
            break
        rho.append((u1 * u2 * a * v3 * v4 * v5 * v6, v1 * v2 * b * u3 * u4 * u5 * u6))
    qq = [(1, 1)]  # (q; q)_m
    for m in range(1, N + 1):
        qq.append((qq[-1][0] * h[m][0], qq[-1][1] * h[m][1]))
    column = []
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
            raise ZeroDivisionError(
                f"(alpha beta q^(n+1); q)_n vanished for alpha={Fraction(*alpha)}, "
                f"beta={Fraction(*beta)}, n={n}"
            )
        terms = min(n, x)
        if pole <= terms:
            raise ZeroDenominator(
                f"4phi3 denominator vanished at k={pole} for alpha={Fraction(*alpha)}, "
                f"beta={Fraction(*beta)}, delta={Fraction(*delta)}"
            )
        sum_num, sum_den = 1, 1
        for k in range(terms, 0, -1):
            u, v = _one_minus(1, 1, k - 1 - n, a, b)
            t_num = rho[k][0] * u * f[n + k][0]
            t_den = rho[k][1] * v * f[n + k][1]
            sum_num, sum_den = t_den * sum_den + t_num * sum_num, t_den * sum_den
        e = n * (N - n)
        column.append(_reduced(
            b**e * qq[N][0] * qq[n][1] * qq[N - n][1] * bd_num * den_den * sum_num,
            a**e * qq[N][1] * qq[n][0] * qq[N - n][0] * bd_den * den_num * sum_den,
        ))
    return tuple(column)


def gr_hahn_bridge(spec: Hahn1DSpec, x: int) -> Fraction:
    """Value of the standard-reference q-Hahn polynomial h_n:

        h_n = (-1)^(N-n) q^(-n/2) (alpha q; q)_n * Q_n

    where Q_n is this package's normalization.  Always exact: q^(n/2) is a
    power of the context's square root.
    """
    ctx, n, N = spec.ctx, spec.n, spec.N
    return (
        (-1) ** (N - n)
        * ctx.q_half_power(-n)
        * pochhammer(ctx, spec.alpha * ctx.q, n)
        * hahn_eval(ctx, n, x, spec.alpha, spec.beta, N)
    )


def _tilde_scale(poly: Fraction, radicand: Fraction, n: int, squared: bool) -> Fraction:
    """The standard-reference scale (-1)^n poly radicand^(-n/2), or its
    square (always rational) when `squared`.  Unsquared at odd n, a
    radicand that is not a rational square raises NonSquareRadicand, and
    the positive root is taken."""
    if squared:
        return poly * poly * radicand ** (-n)
    if n % 2 == 0:
        return poly * radicand ** (-n // 2)
    try:
        root = rational_sqrt(radicand)
    except ValueError as exc:
        raise NonSquareRadicand(f"{radicand} has no rational square root") from exc
    return -poly * root ** (-n)


def gr_racah_bridge(spec: Racah1DSpec, x: int, squared: bool = True) -> Fraction:
    """Standard-reference q-Racah normalization:

        r~_n = (-1)^n (alpha beta q^(n+1); q)_n (alpha q; q)_n (q; q)_n
               * (q^(-N+n+1) delta)^(-n/2) * r_n.

    For odd n the radicand q^(-N+n+1) delta must be a positive rational
    square for r~_n itself to be rational; `squared=True` (the default)
    sidesteps the branch question by returning r~_n**2, which is always
    rational.  With squared=False a non-square radicand raises
    NonSquareRadicand, and the positive square root is always taken.
    """
    ctx, n, N = spec.ctx, spec.n, spec.N
    value = racah_eval(ctx, n, x, spec.alpha, spec.beta, spec.delta, N)
    poly = (
        pochhammer(ctx, spec.alpha * spec.beta * ctx.q_power(n + 1), n)
        * pochhammer(ctx, spec.alpha * ctx.q, n)
        * q_factorial(ctx, n)
    )
    radicand = ctx.q_power(-N + n + 1) * spec.delta
    scale = _tilde_scale(poly, radicand, n, squared)
    return scale * value * value if squared else scale * value
