"""Exact scalar arithmetic for terminating q-series.

Everything in this package is evaluated over the rationals.  The base q is
always the square of a rational s with 0 < s < 1, so that half-integer
powers q**(k/2) = s**k stay inside Q and identities can be checked for
exact equality instead of within a floating-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[Fraction, int, str]

__all__ = [
    "QContext",
    "ZeroDenominator",
    "as_fraction",
    "pochhammer",
    "pochhammer_many",
    "q_binomial",
    "q_factorial",
    "phi_sum",
    "norm_splitting_identity_check",
    "rational_sqrt",
]


# Powers q**k with |k| up to this bound, and (q; q)_n with n up to it, are
# kept in per-context tables; the exponents and lengths of the package's
# sums and norms stay far below it.
TABLED_EXPONENT = 64


class ZeroDenominator(ArithmeticError):
    """A q-shifted factorial appearing in a denominator vanished."""


def as_fraction(value: Rational) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class QContext:
    """Evaluation point q = s**2 for a rational square root s, 0 < s < 1.

    All q-dependent quantities in the package are functions of this context;
    passing the same context everywhere guarantees that the two sides of an
    identity are compared at the same exact base point.  Each context keeps
    its own bounded tables of q**k and (q; q)_n, filled on first use.
    """

    s: Fraction
    q: Fraction = None  # derived; never pass explicitly

    def __post_init__(self):
        s = as_fraction(self.s)
        if not (0 < s < 1):
            raise ValueError(f"square root of q must satisfy 0 < s < 1, got {s}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "q", s * s)
        # hashed once: contexts key every lru_cache of the package
        object.__setattr__(self, "_hash", hash(s))
        object.__setattr__(self, "_powers", {})
        object.__setattr__(self, "_q_factorials", {0: Fraction(1)})

    def q_power(self, k: int) -> Fraction:
        """q**k for any integer k (negative exponents allowed)."""
        value = self._powers.get(k)
        if value is None:
            value = self.q ** k
            if -TABLED_EXPONENT <= k <= TABLED_EXPONENT:
                self._powers[k] = value
        return value

    def q_half_power(self, half_exponent: int) -> Fraction:
        """q**(half_exponent/2), i.e. s**half_exponent, exactly."""
        return self.s ** half_exponent

    def __hash__(self):
        return self._hash


def _power_pair(a: int, b: int, e: int) -> tuple[int, int]:
    """(a/b)^e for any integer e, as an integer pair (numerator, denominator)."""
    return (a**e, b**e) if e >= 0 else (b**-e, a**-e)


def _one_minus(c: Fraction, e: int, a: int, b: int) -> tuple[int, int]:
    """1 - c q^e for q = a/b, as an unreduced integer pair (numerator, denominator)."""
    num, den = _power_pair(a, b, e)
    return c.denominator * den - c.numerator * num, c.denominator * den


def pochhammer(ctx: QContext, a: Rational, k: int) -> Fraction:
    """q-shifted factorial (a; q)_k = (1-a)(1-aq)...(1-aq^(k-1)).

    Empty product for k = 0.  Negative k is rejected: every use in this
    package arises from a terminating sum where lengths are >= 0.
    """
    if k < 0:
        raise ValueError(f"pochhammer length must be >= 0, got {k}")
    a = as_fraction(a)
    q = ctx.q
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(k):
        out *= 1 - a * power
        power *= q
    return out


def pochhammer_many(ctx: QContext, bases: Iterable[Rational], k: int) -> Fraction:
    """Product (a1, a2, ...; q)_k of several q-shifted factorials."""
    out = Fraction(1)
    for a in bases:
        out *= pochhammer(ctx, a, k)
    return out


def q_factorial(ctx: QContext, n: int) -> Fraction:
    """(q; q)_n."""
    value = ctx._q_factorials.get(n)
    if value is None:
        value = pochhammer(ctx, ctx.q, n)
        if n <= TABLED_EXPONENT:
            ctx._q_factorials[n] = value
    return value


def q_binomial(ctx: QContext, n: int, k: int) -> Fraction:
    """Gaussian binomial [n choose k]_q; zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return Fraction(0)
    # (q;q)_n / ((q;q)_k (q;q)_{n-k}) computed as a ratio of exact products.
    return q_factorial(ctx, n) / (q_factorial(ctx, k) * q_factorial(ctx, n - k))


def phi_sum(
    ctx: QContext,
    numerators: Sequence[Rational],
    denominators: Sequence[Rational],
    z: Rational,
    terms: int,
) -> Fraction:
    """Truncated basic hypergeometric sum.

    Returns sum over m = 0..terms of

        (a1,...,ar; q)_m / (b1,...,bs; q)_m * z**m / (q; q)_m

    where numerators = (a1..ar) and denominators = (b1..bs); the implicit
    (q; q)_m belongs to every term and must not be listed.  All series in
    this package terminate, so the truncation bound is explicit and the
    caller is responsible for passing the index of the last nonzero term.

    Raises ZeroDenominator if some (bi; q)_m vanishes at or before the
    truncation bound.
    """
    if terms < 0:
        raise ValueError(f"truncation bound must be >= 0, got {terms}")
    nums = [as_fraction(a) for a in numerators]
    dens = [as_fraction(b) for b in denominators]
    z = as_fraction(z)
    q = ctx.q

    total = Fraction(0)
    num_prod = Fraction(1)   # product of numerator Pochhammers at length m
    den_prod = Fraction(1)   # product of denominator Pochhammers and (q;q)_m
    z_pow = Fraction(1)
    q_pow = Fraction(1)      # q**m
    for m in range(terms + 1):
        total += num_prod / den_prod * z_pow
        if m == terms:
            break
        for a in nums:
            num_prod *= 1 - a * q_pow
        for b in dens:
            factor = 1 - b * q_pow
            if factor == 0:
                raise ZeroDenominator(
                    f"(b; q)_m vanished for b={b} at m={m + 1} (<= terms={terms})"
                )
            den_prod *= factor
        den_prod *= 1 - q * q_pow  # extend (q;q)_m
        z_pow *= z
        q_pow *= q
    return total


def norm_splitting_identity_check(
    ctx: QContext, A: Rational, h: int, n: int, i: int, j: int, N: int
) -> bool:
    """Check the factorization used to split chain norms across a tree vertex:

        (A q^(h+n+i+j-1); q)_{N-i-j+1} / (1 - A q^(h+2n-1))
            = (A q^(h+n+i+j-1); q)_{n-i-j} * (A q^(h+2n); q)_{N-n}.

    Preconditions: 0 <= i + j <= n <= N.  Raises ZeroDenominator when the
    left-hand denominator vanishes.
    """
    if not (0 <= i + j <= n <= N):
        raise ValueError(f"need 0 <= i+j <= n <= N, got i={i} j={j} n={n} N={N}")
    A = as_fraction(A)
    q = ctx.q
    pivot = 1 - A * ctx.q_power(h + 2 * n - 1)
    if pivot == 0:
        raise ZeroDenominator(f"1 - A q^(h+2n-1) = 0 for A={A}, h={h}, n={n}")
    base = A * ctx.q_power(h + n + i + j - 1)
    lhs = pochhammer(ctx, base, N - i - j + 1) / pivot
    rhs = pochhammer(ctx, base, n - i - j) * pochhammer(
        ctx, A * ctx.q_power(h + 2 * n), N - n
    )
    return lhs == rhs


def rational_sqrt(value: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational, or raise ValueError.

    Used where a formula carries an explicit half-integer exponent on a
    parameter combination; the caller decides how to report failure.
    """
    import math

    if value < 0:
        raise ValueError(f"negative radicand {value}")
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{value} is not the square of a rational")
    return Fraction(rn, rd)
