"""Compositions of N into h parts and weighted grid functions on them.

The domain [h; N] is the set of h-tuples of nonnegative integers summing
to N, enumerated lexicographically.  Functions on the domain are stored
densely in that order, as integer numerators over one reduced common
denominator, so arithmetic, equality and the inner product are integer
work; `GridFunction.values` reads them as `Fraction`s.  The inner product
below makes the raising and lowering operators of `qops` mutually adjoint
up to sign.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from operator import mul
from typing import Callable, NamedTuple, Sequence

from ._linalg import over_common_denominator
from .qnum import QContext, Rational, _power_pair, _reduced, _Value, as_fraction, pochhammer, q_factorial

__all__ = [
    "DimensionMismatch",
    "IndexOutOfRange",
    "OutsidePositivityRegime",
    "ParamSet",
    "GridFunction",
    "DomainTable",
    "composition_count",
    "domain_table",
    "enumerate_compositions",
    "rank_of",
    "partial_sums",
    "weight",
    "inner_product",
    "norm_squared",
]


class DimensionMismatch(ValueError):
    """Two grid functions (or a function and a parameter set) disagree in shape."""


class IndexOutOfRange(IndexError):
    """Rank or composition outside the declared domain."""


class OutsidePositivityRegime(ValueError):
    """Parameters in neither band where the weight is positive, with the
    band check on."""


def composition_count(h: int, N: int) -> int:
    """Number of points in [h; N], i.e. C(N+h-1, h-1)."""
    if h < 1 or N < 0:
        raise ValueError(f"need h >= 1 and N >= 0, got h={h}, N={N}")
    return math.comb(N + h - 1, h - 1)


def enumerate_compositions(h: int, N: int) -> list[tuple[int, ...]]:
    """All of [h; N] in lexicographic order, e.g. (0,2), (1,1), (2,0)."""
    return list(domain_table(h, N).points)


class DomainTable(NamedTuple):
    """The points of [h; N] in lexicographic order and the rank of each."""

    points: tuple[tuple[int, ...], ...]
    ranks: dict[tuple[int, ...], int]


@lru_cache(maxsize=64)
def domain_table(h: int, N: int) -> DomainTable:
    """The cached table of [h; N], its points read off the bars of stars
    and bars.  Shared between callers, so never mutate it."""
    if h < 1 or N < 0:
        raise ValueError(f"need h >= 1 and N >= 0, got h={h}, N={N}")
    points = tuple(
        tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (N + h - 1,)))
        for bars in combinations(range(N + h - 1), h - 1)
    )
    return DomainTable(points, {x: r for r, x in enumerate(points)})


def rank_of(x: Sequence[int]) -> int:
    """Position of a composition in the lexicographic enumeration of its domain."""
    h = len(x)
    N = sum(x)
    if h < 1 or any(v < 0 for v in x):
        raise IndexOutOfRange(f"not a composition: {tuple(x)}")
    rank = 0
    remaining = N
    for i in range(h - 1):
        for v in range(x[i]):
            rank += composition_count(h - 1 - i, remaining - v)
        remaining -= x[i]
    return rank


def partial_sums(x: Sequence[int]) -> tuple[int, ...]:
    """(X_0, X_1, ..., X_h) with X_k = x_1 + ... + x_k and X_0 = 0."""
    sums = [0]
    for v in x:
        sums.append(sums[-1] + v)
    return tuple(sums)


class ParamSet(_Value):
    """A q-context together with the per-variable parameters alpha_1..alpha_h.

    By default the constructor insists the parameters sit in a regime where
    the weight below is positive on every [h; N] with N <= n_max: either
    all alphas in (0, 1/q) or all alphas > q**(-n_max).  Identities hold
    for generic parameters, so `unchecked=True` waives the range condition;
    the no-pole condition alpha_i != q**(-m) (1 <= m <= n_max) is always
    enforced because those points make weights and norms degenerate.
    Equality and the once-taken hash read only `_key`, the integers of q and the alphas.

    Both checks work on the integer pairs of `_key`, which also fill the two
    stored tables of reduced pairs: `_product_pairs[lo][k]`, the span product
    alpha_{lo+1} * ... * alpha_{lo+k}, and `_p_pairs[lo][k]`, its p-value,
    read by `p_pair`; `span_product` and `span_p` are `Fraction` views.
    """

    __slots__ = ("ctx", "alphas", "n_max", "unchecked", "_key", "_hash", "_product_pairs", "_p_pairs")
    _fields = ("ctx", "alphas", "n_max", "unchecked")

    def __init__(self, ctx: QContext, alphas: Sequence[Rational], n_max: int = 12, unchecked: bool = False):
        alphas = tuple(as_fraction(a) for a in alphas)
        if not alphas:
            raise ValueError("need at least one parameter")
        pairs = tuple((a.numerator, a.denominator) for a in alphas)
        a, b = ctx.q.numerator, ctx.q.denominator
        # both sides reduced: u/w == q**(-m) == b^m / a^m iff u == b^m and w == a^m
        poles = {(b**m, a**m): m for m in range(1, n_max + 1)}
        for alpha, pair in zip(alphas, pairs):
            if pair in poles:
                raise ValueError(
                    f"alpha={alpha} equals q**(-{poles[pair]}); weights degenerate below n_max"
                )
        if not unchecked:
            top, bottom = _power_pair(a, b, -n_max)  # q**(-n_max)
            in_unit_band = all(0 < u and u * a < w * b for u, w in pairs)
            above_band = all(u * bottom > w * top for u, w in pairs)
            if not (in_unit_band or above_band):
                raise OutsidePositivityRegime(
                    "parameters outside the positivity regime; "
                    "pass unchecked=True for generic identity testing"
                )
        shifted = tuple((u * a, w * b) for u, w in pairs)  # a p-value multiplies alpha_i q
        product_pairs, p_pairs = (
            tuple(
                tuple(accumulate(factors[lo:], _times, initial=(1, 1)))
                for lo in range(len(pairs) + 1)
            )
            for factors in (pairs, shifted)
        )
        self._set(
            ctx, alphas, n_max, unchecked, _key=(ctx._key, pairs),
            _product_pairs=product_pairs, _p_pairs=p_pairs,
        )

    @property
    def h(self) -> int:
        return len(self.alphas)

    def prefix_product(self, k: int) -> Fraction:
        """A_k = alpha_1 * ... * alpha_k (A_0 = 1)."""
        if not (0 <= k <= self.h):
            raise IndexOutOfRange(f"prefix length {k} outside 0..{self.h}")
        return Fraction(*self._product_pairs[0][k])

    def span_product(self, lo: int, hi: int) -> Fraction:
        """alpha_{lo+1} * ... * alpha_{hi}."""
        if not (0 <= lo <= hi <= self.h):
            raise IndexOutOfRange(f"span ({lo}, {hi}] outside 0..{self.h}")
        return Fraction(*self._product_pairs[lo][hi - lo])

    def p_pair(self, lo: int, hi: int) -> tuple[int, int]:
        """p-value of the span (lo, hi] as a reduced integer pair."""
        if not (0 <= lo <= hi <= self.h):
            raise IndexOutOfRange(f"span ({lo}, {hi}] outside 0..{self.h}")
        return self._p_pairs[lo][hi - lo]

    def span_p(self, lo: int, hi: int) -> Fraction:
        """p-value of the span (lo, hi]: alpha_{lo+1} * ... * alpha_{hi} * q^(hi - lo)."""
        return Fraction(*self.p_pair(lo, hi))


def _times(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The product of two integer pairs, reduced."""
    return _reduced(x[0] * y[0], x[1] * y[1])


def _rank_in(h: int, N: int, x: Sequence[int]) -> int:
    """Rank of the point x of [h; N]; IndexOutOfRange if x is not one."""
    x = tuple(x)
    rank = domain_table(h, N).ranks.get(x)
    if rank is None:
        raise IndexOutOfRange(f"{x} is not in [h;N] for h={h}, N={N}")
    return rank


class GridFunction(_Value):
    """Dense rational-valued function on [h; N], stored in lexicographic order.

    The one stored form is `_integer_form`: a tuple of integer numerators,
    one per point, over one positive common denominator, reduced so that
    gcd(den, *nums) == 1.  Since that form is canonical, the value's `_key`
    is (h, N, `_integer_form`), and `+`, `-` and `scale` work in integers
    and reduce once per result; code that has integers already builds
    through `_from_integers`, which makes no `Fraction`.  `.values` reads
    the function as a tuple of `Fraction`s: the caller's tuple when one was
    passed in, otherwise built on first use.
    """

    __slots__ = ("h", "N", "_integer_form", "_values")
    _fields = ("h", "N", "values")

    def __init__(self, h: int, N: int, values: Sequence[Rational]):
        expected = composition_count(h, N)
        if len(values) != expected:
            raise DimensionMismatch(
                f"[{h}; {N}] has {expected} points, got {len(values)} values"
            )
        if type(values) is not tuple or not all(isinstance(v, Fraction) for v in values):
            values = tuple(as_fraction(v) for v in values)
        self._set(h, N, _integer_form=over_common_denominator(values), _values=values)

    @classmethod
    def _from_integers(cls, h: int, N: int, nums, den: int) -> "GridFunction":
        """The function with values nums[k] / den (den > 0), reduced once."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple(n // g for n in nums)
            den //= g
        elif type(nums) is not tuple:
            nums = tuple(nums)
        out = object.__new__(cls)
        out._set(h, N, _integer_form=(nums, den), _values=None)
        return out

    @property
    def values(self) -> tuple[Fraction, ...]:
        values = self._values
        if values is None:
            nums, den = self._integer_form
            values = tuple(Fraction(n, den) for n in nums)
            object.__setattr__(self, "_values", values)
        return values

    @property
    def _key(self) -> tuple:
        return self.h, self.N, self._integer_form

    @property
    def nums(self) -> tuple[int, ...]:
        """The integer numerators of `_integer_form`, one per point."""
        return self._integer_form[0]

    @classmethod
    def from_callable(cls, h: int, N: int, fn: Callable[[tuple[int, ...]], Rational]):
        return cls(h, N, tuple(fn(x) for x in enumerate_compositions(h, N)))

    @classmethod
    def constant(cls, h: int, N: int, value: Rational = 1):
        v = as_fraction(value)
        return cls(h, N, (v,) * composition_count(h, N))

    @classmethod
    def zero(cls, h: int, N: int):
        return cls.constant(h, N, 0)

    @classmethod
    def delta(cls, h: int, N: int, at: Sequence[int]):
        """Indicator of a single composition."""
        nums = [0] * composition_count(h, N)
        nums[_rank_in(h, N, at)] = 1
        return cls._from_integers(h, N, nums, 1)

    def at(self, x: Sequence[int]) -> Fraction:
        nums, den = self._integer_form
        return Fraction(nums[_rank_in(self.h, self.N, x)], den)

    def domain(self) -> list[tuple[int, ...]]:
        return enumerate_compositions(self.h, self.N)

    def _check_same_shape(self, other: "GridFunction"):
        if self.h != other.h or self.N != other.N:
            raise DimensionMismatch(
                f"[{self.h};{self.N}] vs [{other.h};{other.N}]"
            )

    def _combine(self, other: "GridFunction", sign: int) -> "GridFunction":
        """self + sign * other, over the lcm of the two denominators."""
        self._check_same_shape(other)
        nums1, den1 = self._integer_form
        nums2, den2 = other._integer_form
        den = math.lcm(den1, den2)
        a, b = den // den1, sign * (den // den2)
        return GridFunction._from_integers(
            self.h, self.N, [a * x + b * y for x, y in zip(nums1, nums2)], den
        )

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return self._combine(other, 1)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return self._combine(other, -1)

    def scale(self, c: Rational) -> "GridFunction":
        c = as_fraction(c)
        nums, den = self._integer_form
        factor = c.numerator
        return GridFunction._from_integers(
            self.h, self.N, [factor * n for n in nums], den * c.denominator
        )

    def is_zero(self) -> bool:
        return not any(self._integer_form[0])


def weight(x: Sequence[int], p: ParamSet) -> Fraction:
    """Weight of a composition in the inner product:

        q^(N(N+1)/2) * prod_i (q a_i; q)_{x_i} / (q; q)_{x_i} * (a_i q)^(N - X_i)

    with X_i the partial sums of x and N their total.
    """
    x = tuple(x)
    if len(x) != p.h:
        raise DimensionMismatch(f"composition has {len(x)} parts, params have {p.h}")
    if any(xi < 0 for xi in x):
        raise IndexOutOfRange(f"not a composition: {x}")
    ctx = p.ctx
    q = ctx.q
    N = sum(x)
    out = ctx.q_power(N * (N + 1) // 2)
    X = 0
    for xi, ai in zip(x, p.alphas):
        X += xi
        out *= pochhammer(ctx, q * ai, xi) / q_factorial(ctx, xi)
        out *= (ai * q) ** (N - X)
    return out


@lru_cache(maxsize=32)
def _weights(p: ParamSet, N: int) -> tuple[tuple[int, ...], int]:
    """The weights of [h; N] in lexicographic order, as integer numerators
    over one common denominator, reduced once.

    For q = a/b and alpha_i = u_i/w_i, the factors of `weight` come from
    two integer rows per coordinate, each over its own denominator:

        (q alpha_i; q)_k / (q; q)_k
            = prod_{j<=k} (w_i b^j - u_i a^j) prod_{k<j<=N} w_i (b^j - a^j)
              / prod_{j<=N} w_i (b^j - a^j),
        (alpha_i q)^k = (u_i a)^k (w_i b)^(N-k) / (w_i b)^N,

    and q^(N(N+1)/2) = a^T / b^T is taken once.
    """
    a, b = p.ctx.q.numerator, p.ctx.q.denominator
    T = N * (N + 1) // 2
    den = b**T
    rows = []
    for alpha in p.alphas:
        u, w = alpha.numerator, alpha.denominator
        rising, falling = [1], [1]  # falling[N - k] = prod_{k<j<=N} w (b^j - a^j)
        for j in range(1, N + 1):
            rising.append(rising[-1] * (w * b**j - u * a**j))
            falling.append(falling[-1] * w * (b ** (N + 1 - j) - a ** (N + 1 - j)))
        shifted = [rising[k] * falling[N - k] for k in range(N + 1)]
        powers = [(u * a) ** k * (w * b) ** (N - k) for k in range(N + 1)]
        rows.append((shifted, powers))
        den *= falling[N] * (w * b) ** N
    nums = []
    for x in domain_table(p.h, N).points:
        num, rest = a**T, N
        for xi, (shifted, powers) in zip(x, rows):
            rest -= xi
            num *= shifted[xi] * powers[rest]
        nums.append(num)
    g = math.gcd(den, *nums)
    return tuple(num // g for num in nums), den // g


def _weighted(f: GridFunction, p: ParamSet) -> tuple[tuple[int, ...], int]:
    """The column of f weighted once: f's numerators times the weights of
    its level, over their full denominator (the weights' times f's).  The
    caller checks that f lives on p's variables."""
    weights, den = _weights(p, f.N)
    nums, fden = f._integer_form
    return tuple(map(mul, weights, nums)), den * fden


def inner_product(f1: GridFunction, f2: GridFunction, p: ParamSet) -> Fraction:
    """Weighted inner product on [h; N].  Exact, bilinear, symmetric.

    f2 is weighted by `_weighted`, the one statement of the weight
    kernel; the result is one integer dot product with f1's numerators
    over the product of the denominators, and one `Fraction`.
    """
    f1._check_same_shape(f2)
    if f1.h != p.h:
        raise DimensionMismatch(f"function on {f1.h} variables, params have {p.h}")
    weighted, den = _weighted(f2, p)
    nums1, den1 = f1._integer_form
    return Fraction(sum(map(mul, nums1, weighted)), den1 * den)


def norm_squared(f: GridFunction, p: ParamSet) -> Fraction:
    return inner_product(f, f, p)

