"""Function field elements: canonical form, evaluation, and translation.

Every element is stored as (a(x) + b(x) y) / d(x) with d monic and no common
factor, so equality of representations is equality of functions.
"""

import random
from fractions import Fraction as F

import pytest

from relbrauer import (
    CurvePoint,
    INFINITY,
    RationalCocycle,
    WeierstrassCurve,
    cocycle_function,
    line_function,
)
from relbrauer.exact import Poly
from relbrauer.funcfield import (
    INDETERMINATE,
    POLE,
    DivisionByZeroFunction,
    EllFn,
)

from oracles import has_pole_at, pairing_scalar_by_chain, seeded_models, vanishes_at


@pytest.fixture
def xy(order5_curve):
    return EllFn.coordinate_x(order5_curve), EllFn.coordinate_y(order5_curve)


def test_canonical_form_reduces_common_factors(order5_curve):
    f = EllFn(order5_curve, Poly((-1, 0, 1)), Poly(), Poly((-1, 1)))
    assert f == EllFn(order5_curve, Poly((1, 1)), Poly(), Poly((1,)))
    # denominator is forced monic
    g = EllFn(order5_curve, Poly((2,)), Poly(), Poly((0, 4)))
    assert g.d == Poly((0, 1))
    assert g.a == Poly((F(1, 2),))


def test_parts_coerce_like_poly_operands(order5_curve):
    # an int or a Fraction is a constant polynomial, as for Poly arithmetic
    assert EllFn(order5_curve, 2, F(1, 2), 4) == EllFn(
        order5_curve, Poly((F(1, 2),)), Poly((F(1, 8),)), Poly((1,))
    )
    for parts in ((None, 0, 1), (0, "x", 1), (0, 0, None)):
        bad = next(v for v in parts if not isinstance(v, int))
        with pytest.raises(TypeError, match=f"cannot use {bad!r} as a polynomial"):
            EllFn(order5_curve, *parts)


def test_zero_is_unique(order5_curve):
    z = EllFn(order5_curve, Poly(), Poly(), Poly((3, 7)))
    assert z.is_zero
    assert z == EllFn.const(order5_curve, 0)
    assert z.d == Poly((1,))


def test_defining_relation(order5_curve, xy):
    x, y = xy
    c = order5_curve
    s = x**3 + c.a2 * x**2 + c.a4 * x + c.a6
    h = c.a1 * x + c.a3
    assert y * y == s - h * y


def test_field_axioms_randomized(order5_curve, xy):
    x, y = xy
    rng = random.Random(14)

    def rand_fn():
        while True:
            f = (
                rng.randrange(-4, 5)
                + rng.randrange(-4, 5) * x
                + rng.randrange(-4, 5) * y
                + rng.randrange(-4, 5) * x * y
            )
            if not f.is_zero:
                return f

    for _ in range(15):
        f, g, h = rand_fn(), rand_fn(), rand_fn()
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f * f.inverse() == 1
        assert (f / g) * g == f
        assert f - f == 0
        assert (f + g) - g == f


def test_pow(order5_curve, xy):
    x, y = xy
    assert x**3 == x * x * x
    assert (x + y) ** 0 == 1
    assert x**-2 == 1 / (x * x)


def test_division_by_zero(order5_curve, xy):
    x, _ = xy
    zero = EllFn.const(order5_curve, 0)
    with pytest.raises(DivisionByZeroFunction):
        x / zero
    with pytest.raises(DivisionByZeroFunction):
        zero.inverse()
    with pytest.raises(DivisionByZeroFunction):
        x / 0


def test_evaluate_affine(order5_curve, xy):
    x, y = xy
    p = CurvePoint(F(16), F(60))
    assert x.evaluate(p) == 16
    assert ((y - 5) / (x + 1)).evaluate(p) == F(55, 17)


def test_evaluate_at_infinity_weighted_degrees(order5_curve, xy):
    x, y = xy
    assert x.evaluate(INFINITY) is POLE
    assert (1 / x).evaluate(INFINITY) == 0
    assert (x / y).evaluate(INFINITY) == 0
    assert (y / x).evaluate(INFINITY) is POLE
    # x^3 and y^2 both have six poles at infinity and leading weight 1
    assert (x**3 / (y * y)).evaluate(INFINITY) == 1
    assert EllFn.const(order5_curve, F(7, 3)).evaluate(INFINITY) == F(7, 3)


def test_evaluate_indeterminate_form_resolved(order5_curve, xy):
    # at (16, -61) both sides of 1/(5x - y - 20) vanish before reduction
    x, y = xy
    f = 1 / (5 * x - y - 20)
    assert f.evaluate(CurvePoint(F(16), F(-61))) == F(1, 121)
    assert (5 * x - y - 20).evaluate(CurvePoint(F(16), F(-61))) == 121


def test_zero_and_pole_location(order5_curve, xy):
    x, y = xy
    g = CurvePoint(F(5), F(5))
    f = (x - 5) / (x - 16)
    assert vanishes_at(f, g)
    assert has_pole_at(f, CurvePoint(F(16), F(60)))
    assert not vanishes_at(f, INFINITY)
    assert not has_pole_at(f, INFINITY)
    assert has_pole_at(x, INFINITY)
    with pytest.raises(DivisionByZeroFunction):
        has_pole_at(EllFn.const(order5_curve, 0), g)


def test_is_constant(order5_curve, xy):
    x, _ = xy
    assert EllFn.const(order5_curve, F(-3, 7)).is_constant() == F(-3, 7)
    assert ((x + 1) / (x + 1)).is_constant() == 1
    assert x.is_constant() is None


def test_leading_coefficient_and_monic(hyperelliptic_curve):
    x = EllFn.coordinate_x(hyperelliptic_curve)
    f = 1 / (48 * x)
    assert f.leading_coefficient() == F(1, 48)
    assert f.monic() == 1 / x
    y = EllFn.coordinate_y(hyperelliptic_curve)
    assert (3 * y).leading_coefficient() == 3
    assert (3 * y).monic() == y


def test_translate_identity_and_roundtrip(order5_curve, order5_gen, xy):
    x, y = xy
    f = (x * x - 3 * y + 1) / (x + 7)
    assert f.translate(INFINITY) == f
    q = order5_gen
    assert f.translate(q).translate(order5_curve.negate(q)) == f


def test_translate_matches_pointwise_shift(rank_one_curve):
    c = rank_one_curve
    x = EllFn.coordinate_x(c)
    y = EllFn.coordinate_y(c)
    p0 = CurvePoint(F(1), F(1))
    pts = [c.multiply(k, p0) for k in range(1, 6)]
    rng = random.Random(8)
    for _ in range(12):
        f = (
            rng.randrange(-3, 4)
            + rng.randrange(-3, 4) * x
            + rng.randrange(-3, 4) * y
        ) / (x + rng.randrange(3, 9))
        q = pts[rng.randrange(len(pts))]
        p = pts[rng.randrange(len(pts))]
        assert f.translate(q).evaluate(p) == f.evaluate(c.add(p, c.negate(q)))


def test_translate_is_a_field_homomorphism(order5_curve, order5_gen, xy):
    x, y = xy
    f = (x - 16) / (5 * x - y - 20)
    g = (y + 2 * x - 7) / (x * y + 1)
    q = order5_curve.multiply(2, order5_gen)
    assert (f * g).translate(q) == f.translate(q) * g.translate(q)
    assert (f + g).translate(q) == f.translate(q) + g.translate(q)


def test_translate_on_general_models():
    # seeded models with rational a1 ... a6, a1 and a3 nonzero: the pullback
    # of a line and of a cocycle function by P -> P - q takes at p the value
    # the function takes at p - q, a pole included, and translating back by
    # -q gives the function again; q runs over the points of order 2 and one
    # other point of each model
    rng = random.Random(25)
    checked = {"general": 0, "order 2": 0, "poles": 0}
    for curve, points in seeded_models():
        affine = [p for p in points if not p.is_infinity]
        halves = [p for p in affine if curve.negate(p) == p]
        shifts = halves + [rng.choice(affine)]
        funcs = [
            line_function(curve, rng.choice(affine), rng.choice(affine)),
            cocycle_function(curve, rng.choice(affine), rng.choice(affine)),
        ]
        for f in funcs:
            for q in shifts:
                g = f.translate(q)
                for p in points:
                    value = g.evaluate(p)
                    expected = f.evaluate(curve.add(p, curve.negate(q)))
                    assert INDETERMINATE not in (value, expected)
                    if POLE in (value, expected):
                        assert value is expected
                        checked["poles"] += 1
                    else:
                        assert value == expected
                assert g.translate(curve.negate(q)) == f
        if curve.a1 and curve.a3:
            checked["general"] += 1
        checked["order 2"] += len(halves)
    assert checked["general"] >= 40 and checked["order 2"] >= 30 and checked["poles"] >= 100


@pytest.mark.parametrize(
    "p, b",
    [((21, 79), F(1, 466560000)), ((-9, 49), F(1, 24603750)), ((9, 31), F(1, 114791256))],
)
def test_translate_raises_no_polynomial_to_a_power(monkeypatch, p, b):
    # 90c3 with t of order 12: translate substitutes the chord-tangent
    # coordinates of P - q by Horner's rule, so no Poly is raised to a power,
    # and b is the value the chain of translates gave when translate raised
    # x - x(-q) to each power
    def no_pow(self, n):
        raise AssertionError("Poly.__pow__ called")

    translates = []
    translate = EllFn.translate

    def counted_translate(self, q):
        translates.append(q)
        return translate(self, q)

    monkeypatch.setattr(Poly, "__pow__", no_pow)
    monkeypatch.setattr(EllFn, "translate", counted_translate)
    curve = WeierstrassCurve(1, -1, 1, -122, 1721)
    cocycle = RationalCocycle(curve, 12, CurvePoint(-9, 49))
    assert pairing_scalar_by_chain(cocycle, CurvePoint(*p)) == b
    assert len(translates) == 4


def test_str(order5_curve, xy):
    x, y = xy
    f = (5 * x + y - 19) / (x - 5) ** 2
    assert str(f) == "(5*x - 19 + y)/(x^2 - 10*x + 25)"


def test_immutability(order5_curve, xy):
    x, _ = xy
    with pytest.raises(AttributeError):
        x.a = Poly((1,))
