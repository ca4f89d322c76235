import copy
import importlib
import pickle
import random
from fractions import Fraction as F
from math import gcd

import pytest

from relbrauer import (
    INFINITY,
    ORDER_BOUND,
    CurvePoint,
    ModelMap,
    PointNotOnCurve,
    SingularCurve,
    WeierstrassCurve,
    to_short_integral,
    torsion_subgroup,
)
from relbrauer.curve import _integral_b, equation_text

from oracles import seeded_models

curve_module = importlib.import_module("relbrauer.curve")


def test_singular_models_rejected():
    with pytest.raises(SingularCurve):
        WeierstrassCurve(0, 0, 0, 0, 0)
    with pytest.raises(SingularCurve):
        WeierstrassCurve(0, 0, 0, -3, 2)  # x^3 - 3x + 2 has a double root


def test_invariants(order5_curve, mixed_torsion_curve, hyperelliptic_curve):
    assert _integral_b(order5_curve._scaled) == (-4, -20, -79, -21)
    assert order5_curve.discriminant() == -161051  # -11^5
    assert mixed_torsion_curve.discriminant() == 50625  # 3^4 5^4
    assert hyperelliptic_curve.discriminant() == 7077888


def test_equation_strings(order5_curve, mixed_torsion_curve):
    assert order5_curve.equation() == "y^2 + y = x^3 - x^2 - 10*x - 20"
    assert mixed_torsion_curve.equation() == "y^2 + x*y + y = x^3 + x^2 - 10*x - 10"


def _fraction_equation(c):
    # the equation as WeierstrassCurve.equation wrote it from Fractions
    def side(pairs, constant):
        out = ""
        for coeff, sym in pairs:
            if coeff == 0:
                continue
            mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
            out += (" - " if coeff < 0 else " + ") + mag + sym
        if constant != 0:
            out += (" - " if constant < 0 else " + ") + str(abs(constant))
        return out

    lhs = "y^2" + side([(c.a1, "x*y"), (c.a3, "y")], 0)
    rhs = "x^3" + side([(c.a2, "x^2"), (c.a4, "x")], c.a6)
    return f"{lhs} = {rhs}"


def test_equation_text_matches_fraction_formula():
    rng = random.Random(41)
    values = [F(0), F(1), F(-1), F(2), F(-10), F(1, 2), F(-3, 4), F(7, 9), F(-1, 3)]
    checked = 0
    while checked < 200:
        coeffs = [rng.choice(values) for _ in range(5)]
        try:
            c = WeierstrassCurve(*coeffs)
        except SingularCurve:
            continue
        expected = _fraction_equation(c)
        assert c.equation() == expected
        assert equation_text(*(str(a) for a in coeffs)) == expected
        checked += 1


def test_order_bound_is_mazurs_and_shared(monkeypatch, rank_one_curve):
    import relbrauer
    import relbrauer.curve as curve_mod

    assert ORDER_BOUND == 12
    assert relbrauer.ORDER_BOUND is curve_mod.ORDER_BOUND
    adds = []
    add = WeierstrassCurve.add

    def counted_add(self, p, q):
        adds.append(1)
        return add(self, p, q)

    monkeypatch.setattr(WeierstrassCurve, "add", counted_add)
    # a point of infinite order gives up at its 12th multiple, 11 adds in
    assert rank_one_curve.point_order(CurvePoint(F(1), F(1))) is None
    assert len(adds) == 11


def test_membership(order5_curve):
    assert order5_curve.is_on_curve(INFINITY)
    assert order5_curve.is_on_curve(CurvePoint(F(5), F(5)))
    assert not order5_curve.is_on_curve(CurvePoint(F(5), F(6)))
    with pytest.raises(PointNotOnCurve):
        order5_curve.add(CurvePoint(F(5), F(6)), INFINITY)


def test_is_on_curve_matches_fraction_formula(order5_curve, mixed_torsion_curve):
    # seeded rational models, so coefficients and coordinates have denominators
    def reference(curve, p):
        x, y = p.x, p.y
        lhs = y * y + curve.a1 * x * y + curve.a3 * y
        return lhs == x**3 + curve.a2 * x * x + curve.a4 * x + curve.a6

    rng = random.Random(7)

    def rat():
        return F(rng.randint(-30, 30), rng.randint(1, 9))

    seen = {True: 0, False: 0}
    for base in (order5_curve, mixed_torsion_curve):
        points = [p for p in torsion_subgroup(base).elements if not p.is_infinity]
        for _ in range(20):
            phi = ModelMap(rat() or F(1, 2), rat(), rat(), rat())
            curve = phi.transform_curve(base)
            for p in map(phi.push_point, points):
                moved = (CurvePoint(p.x, p.y + rat()), CurvePoint(p.x + rat(), p.y))
                for q in (p, *moved, CurvePoint(rat(), rat())):
                    expected = reference(curve, q)
                    assert curve.is_on_curve(q) is expected
                    seen[expected] += 1
    assert seen[True] >= 200 and seen[False] >= 600


def _slope_by_fractions(curve, p, q):
    """chord_slope_by_fractions as _slope gives it: (N, D) in lowest terms
    with D > 0, or None for a vertical line."""
    from oracles import chord_slope_by_fractions

    slope = chord_slope_by_fractions(curve, p, q)
    return None if slope is None else (slope.numerator, slope.denominator)


def test_add_matches_fraction_oracle():
    from oracles import add_by_fractions

    seen = dict.fromkeys(["O + P", "P + (-P)", "2-torsion doubled", "chord", "tangent"], 0)
    fractional = 0
    for curve, points in seeded_models():
        coeffs = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
        fractional += any(a.denominator > 1 for a in coeffs)
        for p in points:
            for q in points:
                total = curve.add(p, q)
                assert total == add_by_fractions(curve, p, q), (curve, p, q)
                assert total.is_infinity or type(total.x) is type(total.y) is F
                if p.is_infinity or q.is_infinity:
                    seen["O + P"] += 1
                    continue
                assert curve._slope(p, q) == _slope_by_fractions(curve, p, q)
                if p.x != q.x:
                    seen["chord"] += 1
                elif p.y != q.y:
                    # x1 = x2 and y1 != y2: q = -p, the vertical line
                    assert total.is_infinity
                    seen["P + (-P)"] += 1
                elif total.is_infinity:
                    seen["2-torsion doubled"] += 1
                else:
                    seen["tangent"] += 1
    assert fractional >= 40
    assert min(seen.values()) >= 20, seen


def test_add_makes_no_fraction_arithmetic(monkeypatch):
    # the group law runs on the integers of the coordinates and of _scaled:
    # every Fraction operator raises while add and _slope run
    pairs = [
        (curve, p, q)
        for curve, points in seeded_models()
        for p in points
        for q in points
    ]
    expected = [curve.add(p, q) for curve, p, q in pairs]
    slopes = [
        curve._slope(p, q) if not (p.is_infinity or q.is_infinity) else None
        for curve, p, q in pairs
    ]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside the group law")

    with monkeypatch.context() as patch:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__pow__", "__neg__"):
            patch.setattr(F, name, refuse)
        got = [curve.add(p, q) for curve, p, q in pairs]
        got_slopes = [
            curve._slope(p, q) if not (p.is_infinity or q.is_infinity) else None
            for curve, p, q in pairs
        ]
    assert got == expected and got_slopes == slopes


def _canonical(p):
    """Whether p.integers is None at infinity, else (X, dx, Y, dy) in lowest
    terms with dx, dy > 0, and the integers of the Fractions x and y."""
    if p.integers is None:
        return p.is_infinity and (p.x, p.y) == (None, None)
    X, dx, Y, dy = p.integers
    return (dx > 0 and dy > 0 and gcd(X, dx) == 1 and gcd(Y, dy) == 1
            and p.integers == (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator))


def test_point_integers_are_canonical_and_match_the_fraction_oracles():
    # every add, negate and pull_point result holds reduced integers with
    # positive denominators, the integers of the Fraction oracle's point
    from oracles import add_by_fractions, pull_point_by_fractions

    checked = dict.fromkeys(["add", "negate", "pull_point"], 0)
    for curve, points in seeded_models():
        _, phi = to_short_integral(curve)
        for p in points:
            for q in points:
                total = curve.add(p, q)
                expected = add_by_fractions(curve, p, q)
                assert _canonical(total) and total.integers == expected.integers, (curve, p, q)
                checked["add"] += 1
            minus = curve.negate(p)
            expected = p if p.is_infinity else CurvePoint(p.x, -p.y - curve.a1 * p.x - curve.a3)
            assert _canonical(minus) and minus.integers == expected.integers, (curve, p)
            image = phi.push_point(p)
            pulled = phi.pull_point(image)
            assert _canonical(pulled) and pulled.integers == pull_point_by_fractions(phi, image).integers == p.integers
            checked["negate"] += 1
            checked["pull_point"] += 1
    assert min(checked.values()) >= 200, checked


def test_group_law_builds_no_fraction(monkeypatch):
    # on points built from integers, add, _slope, is_on_curve, negate and
    # pull_point run with relbrauer.curve.Fraction refusing to be called
    cases = []
    for curve, points in seeded_models():
        _, phi = to_short_integral(curve)
        points = [INFINITY if p.is_infinity else CurvePoint.from_integers(*p.integers) for p in points]
        cases.append((curve, phi, points, [phi.push_point(p) for p in points]))

    def run():
        out = []
        for curve, phi, points, images in cases:
            for p in points:
                out.append((curve.is_on_curve(p), curve.negate(p).integers))
                for q in points:
                    slope = None if p.is_infinity or q.is_infinity else curve._slope(p, q)
                    out.append((slope, curve.add(p, q).integers))
            out += [phi.pull_point(image).integers for image in images]
        return out

    expected = run()

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction built inside the group law")

    monkeypatch.setattr(curve_module, "Fraction", refuse)
    assert run() == expected
    assert len(expected) > 2000


def test_coordinates_are_built_once_on_demand():
    curve = WeierstrassCurve(0, -1, 1, -10, -20)
    p = curve.add(CurvePoint(5, 5), CurvePoint(5, 5))
    # the sum holds integers only until x or y is read
    assert p.integers == (16, 1, -61, 1)
    with pytest.raises(AttributeError):
        object.__getattribute__(p, "_f")
    assert hash(p) == hash((F(16), F(-61)))
    assert p.x is p.x and p.y is p.y and (p.x, p.y) == (16, -61)
    q = CurvePoint.from_integers(-13, 4, 9, 8)
    for r in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert r == q and r.integers == q.integers and hash(r) == hash(q) and repr(r) == repr(q)
    assert repr(q) == "CurvePoint(x=Fraction(-13, 4), y=Fraction(9, 8))"
    assert q == CurvePoint(F(-13, 4), F(9, 8)) and str(q) == "(-13/4, 9/8)"
    assert INFINITY.integers is None and INFINITY == CurvePoint() != q
    assert INFINITY._fractions() == (None, None) == (INFINITY.x, INFINITY.y)
    # the constructor keeps the Fractions it builds from its arguments
    given = CurvePoint(F(-13, 4), F(9, 8))
    x, y = object.__getattribute__(given, "_f")
    assert given.x is x and given.y is y and given == q
    # from_integers brings any nonzero denominators to lowest terms
    assert CurvePoint.from_integers(26, -8, -18, -16).integers == (-13, 4, 9, 8)
    assert CurvePoint.from_integers(0, -5, 7, 1).integers == (0, 1, 7, 1)
    with pytest.raises(ZeroDivisionError):
        CurvePoint.from_integers(1, 0, 1, 1)


def _prime_to_6(n: int) -> int:
    for p in (2, 3):
        while n % p == 0:
            n //= p
    return n


# y^2 = x^3 + 1 under x -> x + 1/X, with X = M61 * M89: L > 1 but c4 and
# c6 are those of y^2 = x^3 + 1, and rho cannot split X within its cap
TRANSLATED_X = (2**61 - 1) * (2**89 - 1)
TRANSLATED = (0, F(3, TRANSLATED_X), 0, F(3, TRANSLATED_X**2), 1 + F(1, TRANSLATED_X**3))


def test_to_short_integral_factors_only_what_is_left_after_2_and_3(monkeypatch):
    # the denominators of -c4/48 and -c6/864 divide 48 L^4 and 864 L^6: v
    # comes from the valuations at 2 and 3, and factor sees only the parts
    # of those denominators prime to 6, and only those above 1
    from oracles import TORSION_CURVES, b_invariants_by_fractions, to_short_integral_by_chain

    factored = []
    real_factor = curve_module.factor

    def recording_factor(n):
        factored.append(n)
        return real_factor(n)

    monkeypatch.setattr(curve_module, "factor", recording_factor)
    curves = [WeierstrassCurve(*c) for c in TORSION_CURVES]
    curves += [curve for curve, _ in seeded_models()]
    curves.append(WeierstrassCurve(F(1, 35), 0, F(1, 7), F(3, 25), F(2, 49)))
    seen = 0
    for curve in curves:
        factored.clear()
        assert to_short_integral(curve) == to_short_integral_by_chain(curve)
        b2, b4, b6, _ = b_invariants_by_fractions(curve)
        c4, c6 = b2 * b2 - 24 * b4, -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
        left = [_prime_to_6((c / k).denominator) for c, k in ((c4, 48), (c6, 864))]
        assert factored == [d for d in left if d > 1], curve
        seen += len(factored)
    assert seen > 0
    factored.clear()
    curve = WeierstrassCurve(*TRANSLATED)
    short, phi = to_short_integral(curve)
    assert factored == [] and curve._scaled[0] > 1
    assert short == WeierstrassCurve(0, 0, 0, 0, 1) and phi.u == 1


def test_translated_model_with_an_unsplittable_common_denominator():
    group = torsion_subgroup(WeierstrassCurve(*TRANSLATED))
    assert group.invariants == (6,) and group.order == 6
    xs = {p.x for p in group.elements if not p.is_infinity}
    # the x of y^2 = x^3 + 1, moved by -1/X
    assert xs == {x - F(1, TRANSLATED_X) for x in (-1, 0, 2)}


def test_invariants_match_fraction_oracle():
    from oracles import b_invariants_by_fractions, discriminant_by_fractions

    fractional = 0
    for curve, _ in seeded_models():
        fractional += curve._scaled[0] > 1
        # _integral_b gives L^2*b2, L^4*b4, L^6*b6, L^8*b8, with L = _scaled[0]
        weights = [curve._scaled[0] ** (2 * k) for k in (1, 2, 3, 4)]
        expected = [w * b for w, b in zip(weights, b_invariants_by_fractions(curve))]
        assert _integral_b(curve._scaled) == tuple(expected)
        disc = curve.discriminant()
        assert disc == discriminant_by_fractions(curve) and type(disc) is F
        assert curve._disc == disc * curve._scaled[0] ** 12
    assert fractional >= 40


def test_to_short_integral_matches_chain_oracle():
    from oracles import to_short_integral_by_chain

    for curve, points in seeded_models():
        short, phi = to_short_integral(curve)
        expected_short, expected_phi = to_short_integral_by_chain(curve)
        assert short == expected_short and phi == expected_phi
        assert (short.a1, short.a2, short.a3) == (0, 0, 0) and short._scaled[0] == 1
        assert all(short.is_on_curve(phi.push_point(q)) for q in points)


def test_pull_point_matches_fraction_oracle(fraction_arithmetic_refused):
    # every point of the seeded models and of the torsion curves, pushed to
    # the short model and pulled back on integers, as the Fraction form does
    from oracles import TORSION_CURVES, pull_point_by_fractions

    cases = [(WeierstrassCurve(*c), list(torsion_subgroup(WeierstrassCurve(*c)).elements))
             for c in TORSION_CURVES]
    cases += list(seeded_models())
    pulled = 0
    for curve, points in cases:
        _, phi = to_short_integral(curve)
        for q in points:
            image = phi.push_point(q)
            expected = pull_point_by_fractions(phi, image)
            with fraction_arithmetic_refused():
                got = phi.pull_point(image)
            assert got == expected == q
            assert (type(got.x), type(got.y)) == (F, F) or got.is_infinity
            pulled += not q.is_infinity
    assert pulled > 200


def test_curve_construction_makes_no_fraction_arithmetic(fraction_arithmetic_refused):
    # the discriminant and the short integral model come from the integers
    # of _scaled: every Fraction operator raises while they are built
    coeffs = [(c.a1, c.a2, c.a3, c.a4, c.a6) for c, _ in seeded_models()]
    expected = [(WeierstrassCurve(*a), to_short_integral(WeierstrassCurve(*a))) for a in coeffs]
    with fraction_arithmetic_refused():
        got = [(WeierstrassCurve(*a), to_short_integral(WeierstrassCurve(*a))) for a in coeffs]
    assert got == expected


def test_curve_from_integers_matches_the_fraction_constructor(monkeypatch):
    # from_integers takes numerators and denominators in any form and builds
    # the curve of the Fractions, with the same _scaled and no Fraction
    cases = [(c.a1, c.a2, c.a3, c.a4, c.a6) for c, _ in seeded_models()]
    cases += [(0, -1, 1, -10, -20), (F(1, 2), 0, F(1, 3), 1, 1), (0, 0, 0, F(-4, 9), F(5, 27))]
    expected = [WeierstrassCurve(*coeffs) for coeffs in cases]
    rng = random.Random(27)
    integers = []
    for coeffs in cases:
        row = []
        for a in coeffs:
            a, k = F(a), rng.choice([1, 2, -3, 5])
            row += (a.numerator * k, a.denominator * k)
        integers.append(row)

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction built by WeierstrassCurve.from_integers")

    with monkeypatch.context() as patch:
        patch.setattr(curve_module, "Fraction", refuse)
        got = [WeierstrassCurve.from_integers(*row) for row in integers]
        texts = [(c.equation(), c.integers) for c in got]
    for curve, want, (equation, ints) in zip(got, expected, texts):
        assert curve == want and hash(curve) == hash(want) and repr(curve) == repr(want)
        assert curve._scaled == want._scaled and curve._disc == want._disc
        assert equation == want.equation()
        parts = iter(ints)
        coeffs = [want.a1, want.a2, want.a3, want.a4, want.a6]
        assert [F(n, d) for n, d in zip(parts, parts)] == coeffs
        assert all(d > 0 and gcd(n, d) == 1 for n, d in zip(ints[::2], ints[1::2]))


def test_curve_from_integers_builds_its_fractions_once_on_demand():
    c = WeierstrassCurve.from_integers(0, 1, -2, 2, 3, 3, -20, 2, -40, 2)
    assert c._scaled == (1, 0, -1, 1, -10, -20)
    with pytest.raises(AttributeError):
        object.__getattribute__(c, "_f")
    assert c == WeierstrassCurve(0, -1, 1, -10, -20)
    assert c.a4 is c.a4 and type(c.a4) is F and c.a4 == -10
    d = WeierstrassCurve.from_integers(0, 1, -2, 2, 3, 3, -20, 2, -40, 2)
    for e in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert e == c and hash(e) == hash(c) and repr(e) == repr(c)
    with pytest.raises(ZeroDivisionError):
        WeierstrassCurve.from_integers(0, 1, 0, 1, 0, 1, 1, 0, 1, 1)
    with pytest.raises(SingularCurve, match=r"discriminant vanishes for y\^2 = x\^3 - 3\*x \+ 2"):
        WeierstrassCurve.from_integers(0, 1, 0, 1, 0, 1, -6, 2, 2, 1)


def test_model_map_from_integers_matches_the_fraction_constructor():
    m = ModelMap.from_integers(-2, -6, 4, 2, 0, -7, 9, -12)
    assert m == ModelMap(F(1, 3), 2, 0, F(-3, 4))
    assert m._q == (1, 3, 2, 1, 0, 1, -3, 4)
    assert hash(m) == hash((F(1, 3), 2, 0, F(-3, 4)))
    assert m.u is m.u and type(m.t) is F
    with pytest.raises(ValueError, match="scaling factor u must be nonzero"):
        ModelMap.from_integers(0, 1, 0, 1, 0, 1, 0, 1)
    with pytest.raises(ZeroDivisionError):
        ModelMap.from_integers(1, 1, 1, 0, 0, 1, 0, 1)
    p = CurvePoint(F(3, 4), F(-5, 8))
    assert m.pull_point(p) == ModelMap(F(1, 3), 2, 0, F(-3, 4)).pull_point(p)


def test_to_short_integral_builds_no_fraction(monkeypatch):
    # the short model and the map come from integers; an already short
    # integral model comes back itself, with IDENTITY_MAP
    from relbrauer import IDENTITY_MAP

    curves = [curve for curve, _ in seeded_models()]
    curves += [WeierstrassCurve(0, 0, 0, -48, 0), WeierstrassCurve(0, 0, 0, F(1, 4), 0)]
    expected = [to_short_integral(curve) for curve in curves]

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction built by to_short_integral")

    with monkeypatch.context() as patch:
        patch.setattr(curve_module, "Fraction", refuse)
        got = [to_short_integral(curve) for curve in curves]
    assert got == expected
    identity = [(curve, phi) for curve, (short, phi) in zip(curves, got) if short is curve]
    assert len(identity) >= 1
    assert all(phi is IDENTITY_MAP for _, phi in identity)
    assert all(curve._scaled[0] == 1 and curve._scaled[1:4] == (0, 0, 0)
               for curve, _ in identity)


def test_point_display():
    assert str(INFINITY) == "O"
    assert str(CurvePoint(F(-13, 4), F(9, 8))) == "(-13/4, 9/8)"
    assert INFINITY.is_infinity
    assert CurvePoint(1, 2) == CurvePoint(F(1), F(2))


def test_group_law_multiples(order5_curve, order5_gen):
    c, g = order5_curve, order5_gen
    assert c.multiply(2, g) == CurvePoint(F(16), F(-61))
    assert c.multiply(3, g) == CurvePoint(F(16), F(60))
    assert c.multiply(4, g) == CurvePoint(F(5), F(-6))
    assert c.multiply(5, g) == INFINITY
    assert c.negate(g) == c.multiply(4, g)
    assert c.multiply(-1, g) == c.negate(g)
    assert c.add(g, c.negate(g)) == INFINITY
    assert c.add(g, INFINITY) == g


def test_group_law_is_associative_and_commutative(mixed_torsion_curve):
    c = mixed_torsion_curve
    pts = [
        INFINITY,
        CurvePoint(F(8), F(18)),
        CurvePoint(F(-1), F(0)),
        CurvePoint(F(-2), F(3)),
        CurvePoint(F(-13, 4), F(9, 8)),
    ]
    for p in pts:
        for q in pts:
            assert c.add(p, q) == c.add(q, p)
            for r in pts:
                assert c.add(c.add(p, q), r) == c.add(p, c.add(q, r))


def test_point_order(mixed_torsion_curve, rank_one_curve):
    c = mixed_torsion_curve
    assert c.point_order(CurvePoint(F(8), F(18))) == 4
    assert c.point_order(CurvePoint(F(-1), F(0))) == 2
    assert c.point_order(CurvePoint(F(-2), F(3))) == 4
    assert c.point_order(INFINITY) == 1
    # non-torsion points run past the bound
    assert rank_one_curve.point_order(CurvePoint(F(1), F(1))) is None


@pytest.mark.parametrize("n", range(-12, 13))
def test_multiply_stops_at_its_last_needed_add(add_calls, rank_one_curve, n):
    # doublings from the lowest set bit and none past the top bit:
    # floor(log2 |n|) + popcount(|n|) - 1 adds, so 3 for n = 5 and 2 for n = 4
    p = CurvePoint(F(1), F(1))
    step = p if n > 0 else rank_one_curve.negate(p)
    expected = INFINITY
    for _ in range(abs(n)):
        expected = rank_one_curve.add(expected, step)
    add_calls.clear()
    assert rank_one_curve.multiply(n, p) == expected
    k = abs(n)
    assert len(add_calls) == (k.bit_length() + k.bit_count() - 2 if k else 0)


def test_point_order_stops_at_the_bound(add_calls):
    # 37a1's (0, 0) has infinite order: 12p is the last multiple looked at
    curve = WeierstrassCurve(0, 0, 1, -1, 0)
    assert curve.point_order(CurvePoint(F(0), F(0))) is None
    assert len(add_calls) == 11
    add_calls.clear()
    # 90c3's (-9, 49) has order 12, the bound
    assert WeierstrassCurve(1, -1, 1, -122, 1721).point_order(CurvePoint(F(-9), F(49))) == 12
    assert len(add_calls) == 11
    add_calls.clear()
    assert curve.point_order(CurvePoint(F(0), F(0)), bound=1) is None
    assert add_calls == []


def test_to_short_integral_general_model(order5_curve, order5_gen):
    short, phi = to_short_integral(order5_curve)
    assert (short.a1, short.a2, short.a3) == (0, 0, 0)
    assert (short.a4, short.a6) == (-13392, -1080432)
    assert (phi.u, phi.r, phi.s, phi.t) == (F(1, 6), F(1, 3), 0, F(-1, 2))
    image = phi.push_point(order5_gen)
    assert image == CurvePoint(F(168), F(1188))
    assert short.is_on_curve(image)
    assert phi.pull_point(image) == order5_gen
    assert phi.push_point(INFINITY) == INFINITY


def test_to_short_integral_already_short(hyperelliptic_curve):
    short, phi = to_short_integral(hyperelliptic_curve)
    assert short == hyperelliptic_curve
    assert (phi.u, phi.r, phi.s, phi.t) == (1, 0, 0, 0)


def test_to_short_integral_clears_denominators():
    c = WeierstrassCurve(0, 0, 0, F(1, 4), 0)
    short, phi = to_short_integral(c)
    assert (short.a4, short.a6) == (4, 0)
    p = CurvePoint(F(1, 2), F(1, 2))
    assert c.is_on_curve(p)
    q = phi.push_point(p)
    assert short.is_on_curve(q)
    assert phi.pull_point(q) == p


def test_model_map_composition(order5_curve):
    short, phi = to_short_integral(order5_curve)
    u, r, s, t = phi.u, phi.r, phi.s, phi.t
    roundtrip = phi.then(ModelMap(1 / u, -r / u**2, -s / u, (r * s - t) / u**3))
    assert roundtrip.transform_curve(order5_curve) == order5_curve
    g = CurvePoint(F(5), F(5))
    assert roundtrip.push_point(g) == g


def test_group_law_respects_model_maps(order5_curve, order5_gen):
    short, phi = to_short_integral(order5_curve)
    g2 = order5_curve.multiply(2, order5_gen)
    assert phi.push_point(g2) == short.multiply(2, phi.push_point(order5_gen))
