"""Scalar layer: q-shifted factorials, Gaussian binomials, terminating sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreehahn import qnum
from qtreehahn import (
    QContext,
    ZeroDenominator,
    as_fraction,
    phi_sum,
    pochhammer,
    pochhammer_many,
    q_binomial,
    q_factorial,
    rational_sqrt,
)

CTX = QContext(s=Fraction(1, 2))  # q = 1/4

# Small positive rationals strictly inside (0, 1): a/(a+b) never hits a pole
# of any q-shifted factorial with positive argument.
unit_fractions = st.tuples(
    st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9)
).map(lambda t: Fraction(t[0], t[0] + t[1]))

contexts = st.tuples(
    st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)
).map(lambda t: QContext(s=Fraction(min(t), min(t) + max(t))))


def test_context_derives_q_and_validates():
    assert CTX.q == Fraction(1, 4)
    assert CTX.q_power(-2) == 16
    assert CTX.q_half_power(3) == Fraction(1, 8)
    assert CTX.q_half_power(-1) == 2
    assert CTX.q_half_power(2 * 5) == CTX.q_power(5)
    with pytest.raises(ValueError):
        QContext(s=Fraction(3, 2))
    with pytest.raises(ValueError):
        QContext(s=Fraction(0))


def test_context_takes_no_q():
    with pytest.raises(TypeError):
        QContext(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(TypeError):
        QContext(s=Fraction(1, 2), q=Fraction(1, 4))
    ctx = QContext(Fraction(1, 2))
    assert repr(ctx) == "QContext(s=Fraction(1, 2), q=Fraction(1, 4))"
    assert ctx == QContext(Fraction(1, 2)) and hash(ctx) == hash(QContext(Fraction(1, 2)))
    assert ctx != QContext(Fraction(1, 3))
    moved = QContext(s=Fraction(1, 3))
    assert moved.q == Fraction(1, 9) and moved == QContext(Fraction(1, 3))


def test_context_powers_are_exact_and_leave_no_state():
    """q_power and q_factorial are exact views, and reading them leaves the
    context's state as a fresh context's: it keeps no tables."""
    ctx = QContext(s=Fraction(2, 3))
    for k in range(-192, 192):
        assert ctx.q_power(k) == ctx.q**k
    for n in range(192):
        assert q_factorial(ctx, n) == pochhammer(ctx, ctx.q, n)
    assert not hasattr(ctx, "__dict__")
    assert QContext.__slots__ == ("s", "q", "_key", "_hash")
    with pytest.raises(ValueError):
        q_factorial(ctx, -1)


@settings(max_examples=80)
@given(st.sampled_from([Fraction(1, 2), Fraction(2, 3)]), st.integers(0, 24), st.data())
def test_pochhammer_is_the_termwise_product(s, k, data):
    """(a; q)_k equals the literal product of (1 - a q^j) over j < k, at
    a = 0, at signed a, and at a = q^(-m) with m < k, where it is exactly 0."""
    ctx = QContext(s=s)
    q = ctx.q
    bases = [st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=9)]
    if k:
        bases.append(st.integers(0, k - 1).map(lambda m: q**-m))
    a = data.draw(st.one_of(bases))
    want = Fraction(1)
    for j in range(k):
        want *= 1 - a * q**j
    got = pochhammer(ctx, a, k)
    assert got == want
    assert (got == 0) == any(a * q**j == 1 for j in range(k))
    assert pochhammer(ctx, str(a), k) == want
    if a.denominator == 1:
        assert pochhammer(ctx, int(a), k) == want


def test_as_fraction_accepts_strings_ints_fractions():
    assert as_fraction("3/7") == Fraction(3, 7)
    assert as_fraction(5) == Fraction(5)
    assert as_fraction(Fraction(-1, 2)) == Fraction(-1, 2)


def test_pochhammer_small_values():
    # (q; q)_2 = (1 - 1/4)(1 - 1/16)
    assert q_factorial(CTX, 2) == Fraction(45, 64)
    assert pochhammer(CTX, Fraction(1, 3), 0) == 1
    assert pochhammer(CTX, Fraction(1, 3), 1) == Fraction(2, 3)
    assert pochhammer_many(
        CTX, [Fraction(1, 3), Fraction(1, 2)], 1
    ) == Fraction(2, 3) * Fraction(1, 2)
    with pytest.raises(ValueError):
        pochhammer(CTX, Fraction(1, 3), -1)


@settings(max_examples=60)
@given(
    contexts,
    unit_fractions,
    st.integers(0, 8),
    st.integers(0, 8),
    st.fractions(-9, 9, max_denominator=9),
    st.integers(-8, 8),
)
def test_pochhammer_splits_multiplicatively(ctx, a, m, k, c, e):
    lhs = pochhammer(ctx, a, m + k)
    rhs = pochhammer(ctx, a, m) * pochhammer(ctx, a * ctx.q_power(m), k)
    assert lhs == rhs
    # the integer pair (c q^e; q)_k of the norm tables, at a signed base
    a, b = ctx.q.numerator, ctx.q.denominator
    num, den = qnum._poch_pair(c.numerator, c.denominator, e, k, a, b)
    assert Fraction(num, den) == pochhammer(ctx, c * ctx.q_power(e), k)
    # the reduced pair (c q^e) of the local blocks and norm factors
    assert qnum._shifted(c.numerator, c.denominator, e, a, b) == (
        (c * ctx.q_power(e)).numerator,
        (c * ctx.q_power(e)).denominator,
    )


def test_q_binomial_values():
    assert q_binomial(CTX, 4, 2) == Fraction(357, 256)
    assert q_binomial(CTX, 6, 0) == 1
    assert q_binomial(CTX, 6, 6) == 1
    assert q_binomial(CTX, 3, 5) == 0
    assert q_binomial(CTX, 3, -1) == 0


@settings(max_examples=60)
@given(contexts, st.integers(1, 10), st.integers(0, 10))
def test_q_binomial_pascal_rules(ctx, n, k):
    top = q_binomial(ctx, n, k)
    assert top == q_binomial(ctx, n - 1, k - 1) + ctx.q_power(k) * q_binomial(
        ctx, n - 1, k
    )
    if 0 <= k <= n:
        assert top == q_binomial(ctx, n - 1, k) + ctx.q_power(n - k) * q_binomial(
            ctx, n - 1, k - 1
        )
        assert top == q_binomial(ctx, n, n - k)


def test_phi_sum_matches_term_by_term_oracle():
    q = CTX.q
    nums = [Fraction(1, 3), Fraction(2, 5)]
    dens = [Fraction(1, 7)]
    z = Fraction(3, 4)
    for terms in range(5):
        total = Fraction(0)
        for m in range(terms + 1):
            total += (
                pochhammer_many(CTX, nums, m)
                / (pochhammer(CTX, dens[0], m) * q_factorial(CTX, m))
                * z**m
            )
        assert phi_sum(CTX, nums, dens, z, terms) == total


def test_phi_sum_q_vandermonde():
    # Terminating 2phi1 at z = c q^n / b sums to (c/b; q)_n / (c; q)_n.
    q = CTX.q
    b, c = Fraction(1, 3), Fraction(1, 5)
    for n in range(7):
        got = phi_sum(
            CTX, [CTX.q_power(-n), b], [c], c * CTX.q_power(n) / b, n
        )
        want = pochhammer(CTX, c / b, n) / pochhammer(CTX, c, n)
        assert got == want


def test_phi_sum_truncation_and_errors():
    # A numerator q^(-n) kills every term past m = n, so extending the
    # truncation bound must not change the value.
    nums = [CTX.q_power(-3), Fraction(1, 2)]
    dens = [Fraction(1, 7)]
    v3 = phi_sum(CTX, nums, dens, Fraction(2, 3), 3)
    v5 = phi_sum(CTX, nums, dens, Fraction(2, 3), 5)
    assert v3 == v5
    with pytest.raises(ValueError):
        phi_sum(CTX, nums, dens, Fraction(1), -1)
    # Denominator parameter q^(-2) vanishes at m = 3.
    with pytest.raises(ZeroDenominator):
        phi_sum(CTX, [Fraction(1, 2)], [CTX.q_power(-2)], Fraction(1), 4)
    assert phi_sum(CTX, [Fraction(1, 2)], [CTX.q_power(-2)], Fraction(1), 2)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    with pytest.raises(ValueError):
        rational_sqrt(Fraction(2))
    with pytest.raises(ValueError):
        rational_sqrt(Fraction(-1, 4))


@settings(max_examples=40)
@given(st.integers(1, 400), st.integers(1, 400))
def test_rational_sqrt_round_trip(a, b):
    v = Fraction(a, b)
    assert rational_sqrt(v * v) == v
