"""Shared fixtures: exact contexts and two generic parameter families.

Every test runs at exact rational tolerance; there are no float comparisons
anywhere in the suite.
"""

from fractions import Fraction

import pytest

from qtreehahn import ParamSet, QContext

# Default demo family used throughout: q = 1/4 via sqrt(q) = 1/2.
PRIMARY_ALPHAS = (
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(3, 5),
    Fraction(4, 7),
)

# A second generic family with no special structure, still inside the
# positivity band for q = 1/4 (all entries below 1/q = 4).
SECONDARY_ALPHAS = (
    Fraction(5, 7),
    Fraction(2, 5),
    Fraction(3, 2),
    Fraction(7, 9),
    Fraction(9, 11),
)

# Generic alphas of both signs, outside every positivity regime: used with
# `unchecked=True` to test identities that hold for any parameters.
MIXED_ALPHAS = (Fraction(-5, 3), Fraction(7, 9), Fraction(-11, 27), Fraction(13, 9), Fraction(-17, 3))


def make_ctx(s: Fraction = Fraction(1, 2)) -> QContext:
    return QContext(s=s)


def make_params(h: int, which: str = "primary", s: Fraction = Fraction(1, 2)) -> ParamSet:
    alphas = PRIMARY_ALPHAS if which == "primary" else SECONDARY_ALPHAS
    if h > len(alphas):
        raise ValueError(f"no stock alphas for h={h}")
    return ParamSet(ctx=make_ctx(s), alphas=alphas[:h])


@pytest.fixture
def fraction_builds(monkeypatch) -> list:
    """The argument tuples of every `Fraction` built from here to the end of
    the test, in order; the list starts empty."""
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    Fraction(1, 3)
    assert built == [(1, 3)]  # the counter does see a Fraction being built
    built.clear()
    return built


@pytest.fixture
def fraction_key_reads(monkeypatch) -> list:
    """The name, "__eq__" or "__hash__", of every `Fraction` comparison or
    hash from here to the end of the test, in order; the list starts empty."""
    reads = []
    for name in ("__eq__", "__hash__"):
        original = getattr(Fraction, name)

        def counting(self, *args, _name=name, _original=original):
            reads.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(Fraction, name, counting)
    assert Fraction(1, 3) == Fraction(1, 3) and hash(Fraction(1, 3)) is not None
    assert reads == ["__eq__", "__hash__"]  # the counter does see both
    reads.clear()
    return reads


@pytest.fixture
def ctx() -> QContext:
    return make_ctx()


@pytest.fixture
def params3() -> ParamSet:
    return make_params(3)


@pytest.fixture
def params4() -> ParamSet:
    return make_params(4)


@pytest.fixture
def params5() -> ParamSet:
    return make_params(5)
