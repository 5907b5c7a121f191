"""Exact scalar arithmetic for terminating q-series.

Everything in this package is evaluated over the rationals.  The base q is
always the square of a rational s with 0 < s < 1, so that half-integer
powers q**(k/2) = s**k stay inside Q and identities can be checked for
exact equality instead of within a floating-point tolerance.

The q-shifted factorial has one statement, the integer product
`_poch_pair`; `pochhammer`, `q_factorial` and the context's `q_power` are
`Fraction` views of it or of a power of q, and a context keeps no tables.
`phi_sum` keeps its own termwise products: it is the independent reference
that the integer rows are checked against.

`_Value` is the base of every immutable value type of the package, the
context first among them: one statement of write-once slots, equality by
key, the key's stored hash, repr, pickle and copy.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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
    "rational_sqrt",
]


class ZeroDenominator(ArithmeticError):
    """A q-shifted factorial appearing in a denominator vanished."""


def as_fraction(value: Rational) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class _Value:
    """Base of the package's immutable value types.

    A subclass names its constructor arguments in `_fields` and fills its
    slots once in `__init__` through `_set`, the one writer past the guard:
    assignment and deletion raise AttributeError, and no instance has a
    `__dict__`.  Equality holds between instances of one class with equal
    `_key`s, by default the tuple of the `_fields`.  A type that keys caches
    passes its key to `_set`, which keeps it as `_key` with its hash taken
    once; `__hash__` returns that hash, or hashes `_key` for a type that
    stores none.  Repr shows the `_fields`, and pickle and copy rebuild the
    value through its constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hash = None  # shadowed by the slot of a type that stores its key's hash

    def _set(self, *fields, _key=None, **slots) -> None:
        """Write the `_fields` slots from `fields`, in order, then each of
        `slots` by name; with a `_key`, also `_key` and `_hash`."""
        for name, value in zip(self._fields, fields):
            object.__setattr__(self, name, value)
        for name, value in slots.items():
            object.__setattr__(self, name, value)
        if _key is not None:
            object.__setattr__(self, "_key", _key)
            object.__setattr__(self, "_hash", hash(_key))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        stored = self._hash
        return hash(self._key) if stored is None else stored

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class QContext(_Value):
    """Evaluation point q = s**2 for a rational square root s, 0 < s < 1.

    All q-dependent quantities in the package are functions of this context.
    Two contexts are equal, and share one hash taken once, exactly when their
    integer `_key`s (s.numerator, s.denominator) are.  A context holds
    nothing else, so the value that keys every cache is immutable.
    """

    __slots__ = ("s", "q", "_key", "_hash")
    _fields = ("s",)

    def __init__(self, s: Rational):
        s = as_fraction(s)
        if not (0 < s < 1):
            raise ValueError(f"square root of q must satisfy 0 < s < 1, got {s}")
        self._set(s, q=s * s, _key=(s.numerator, s.denominator))  # q derived from s

    def q_power(self, k: int) -> Fraction:
        """q**k for any integer k (negative exponents allowed)."""
        return self.q ** k

    def q_half_power(self, half_exponent: int) -> Fraction:
        """q**(half_exponent/2), i.e. s**half_exponent, exactly."""
        return self.s ** half_exponent

    def __repr__(self):
        return f"QContext(s={self.s!r}, q={self.q!r})"


def _power_pair(a: int, b: int, e: int) -> tuple[int, int]:
    """(a/b)^e for any integer e, as an integer pair (numerator, denominator)."""
    return (a**e, b**e) if e >= 0 else (b**-e, a**-e)


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator; den != 0."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _shifted(num: int, den: int, e: int, a: int, b: int) -> tuple[int, int]:
    """(num/den) q^e for q = a/b, as a reduced integer pair; den != 0."""
    u, v = _power_pair(a, b, e)
    return _reduced(num * u, den * v)


def _one_minus(cn: int, cd: int, e: int, a: int, b: int) -> tuple[int, int]:
    """1 - c q^e for c = cn/cd and q = a/b, as an unreduced integer pair
    (numerator, denominator)."""
    num, den = _power_pair(a, b, e)
    return cd * den - cn * num, cd * den


def _poch_pair(cn: int, cd: int, e: int, k: int, a: int, b: int) -> tuple[int, int]:
    """(c q^e; q)_k for c = cn/cd and q = a/b, as an unreduced integer pair
    (numerator, denominator)."""
    num = den = 1
    for j in range(e, e + k):
        u, v = _one_minus(cn, cd, j, a, b)
        num *= u
        den *= v
    return num, den


def pochhammer(ctx: QContext, a: Rational, k: int) -> Fraction:
    """q-shifted factorial (a; q)_k = (1-a)(1-aq)...(1-aq^(k-1)).

    The `Fraction` view of `_poch_pair`, reduced once.  Empty product for
    k = 0.  Negative k is rejected: every use in this package arises from a
    terminating sum where lengths are >= 0.
    """
    if k < 0:
        raise ValueError(f"pochhammer length must be >= 0, got {k}")
    a, q = as_fraction(a), ctx.q
    return Fraction(*_poch_pair(a.numerator, a.denominator, 0, k, q.numerator, q.denominator))


def pochhammer_many(ctx: QContext, bases: Iterable[Rational], k: int) -> Fraction:
    """Product (a1, a2, ...; q)_k of several q-shifted factorials."""
    out = Fraction(1)
    for a in bases:
        out *= pochhammer(ctx, a, k)
    return out


def q_factorial(ctx: QContext, n: int) -> Fraction:
    """(q; q)_n."""
    return pochhammer(ctx, ctx.q, n)


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
