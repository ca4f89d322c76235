from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from relbrauer import CurvePoint, WeierstrassCurve


@pytest.fixture
def order5_curve():
    # y^2 + y = x^3 - x^2 - 10x - 20, rational 5-torsion generated by (5, 5)
    return WeierstrassCurve(0, -1, 1, -10, -20)


@pytest.fixture
def order5_gen():
    return CurvePoint(F(5), F(5))


@pytest.fixture
def mixed_torsion_curve():
    # y^2 + xy + y = x^3 + x^2 - 10x - 10, torsion Z/4 x Z/2
    return WeierstrassCurve(1, 1, 1, -10, -10)


@pytest.fixture
def hyperelliptic_curve():
    # y^2 = x^3 - 48x
    return WeierstrassCurve(0, 0, 0, -48, 0)


@pytest.fixture
def full_two_torsion_curve():
    # y^2 = x^3 - x
    return WeierstrassCurve(0, 0, 0, -1, 0)


@pytest.fixture
def rank_one_curve():
    # y^2 = x^3 - 2x + 2 has trivial torsion and the non-torsion point (1, 1)
    return WeierstrassCurve(0, 0, 0, -2, 2)


@pytest.fixture
def add_calls(monkeypatch):
    """The argument pairs of every WeierstrassCurve.add call made from here on."""
    calls = []
    add = WeierstrassCurve.add

    def counted_add(self, p, q):
        calls.append((p, q))
        return add(self, p, q)

    monkeypatch.setattr(WeierstrassCurve, "add", counted_add)
    return calls


@pytest.fixture
def fraction_arithmetic_refused(monkeypatch):
    """A context manager inside which every arithmetic operator of Fraction
    raises; building a Fraction and comparing two still work."""

    def refuse(*args):
        raise AssertionError("Fraction arithmetic where integers were expected")

    @contextmanager
    def refused():
        with monkeypatch.context() as patch:
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                         "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__"):
                patch.setattr(F, name, refuse)
            yield

    return refused
