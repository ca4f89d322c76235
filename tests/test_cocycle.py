import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from relbrauer import (
    INFINITY,
    CurvePoint,
    Cyclotomic,
    NonConstantCocycleValue,
    PointNotOnCurve,
    Quadratic,
    RationalCocycle,
    TwoCocycle,
    WeierstrassCurve,
    brauer_pairing,
    class_status,
    cocycle_function,
    cyclic_reduce,
    line_function,
    pairing_scalar,
    relative_brauer,
    two_cocycle,
    verify_two_cocycle,
)
from relbrauer.funcfield import EllFn

import oracles
from oracles import has_pole_at, pairing_scalar_by_chain, vanishes_at


@pytest.fixture
def xy(order5_curve):
    return EllFn.coordinate_x(order5_curve), EllFn.coordinate_y(order5_curve)


def test_line_through_infinity(order5_curve, order5_gen):
    assert line_function(order5_curve, INFINITY, INFINITY) == 1
    x = EllFn.coordinate_x(order5_curve)
    assert line_function(order5_curve, order5_gen, INFINITY) == x - 5
    assert line_function(order5_curve, INFINITY, order5_gen) == x - 5


def test_tangent_line(order5_curve, order5_gen, xy):
    x, y = xy
    line = line_function(order5_curve, order5_gen, order5_gen)
    assert line == 11 * y - 55 * x + 220
    # a tangent at g meets the curve again at -[2]g = [3]g
    assert vanishes_at(line, order5_gen)
    assert vanishes_at(line, CurvePoint(F(16), F(60)))


def test_chord_line(order5_curve, order5_gen, xy):
    x, y = xy
    g2 = order5_curve.multiply(2, order5_gen)
    line = line_function(order5_curve, order5_gen, g2)
    assert line == -66 * x - 11 * y + 385
    assert vanishes_at(line, order5_gen)
    assert vanishes_at(line, g2)
    assert not vanishes_at(line, CurvePoint(F(16), F(60)))


def test_vertical_chord(order5_curve, order5_gen, xy):
    x, _ = xy
    g4 = order5_curve.multiply(4, order5_gen)
    line = line_function(order5_curve, order5_gen, g4)
    assert line == -11 * x + 55
    assert vanishes_at(line, order5_gen)
    assert vanishes_at(line, g4)


def test_sum_witness_divisor(order5_curve, order5_gen):
    # the inverse of a cocycle function witnesses p1 + p2 ~ (p1 + p2) + O
    g2 = order5_curve.multiply(2, order5_gen)
    g3 = order5_curve.multiply(3, order5_gen)
    w = cocycle_function(order5_curve, order5_gen, g2).inverse()
    assert vanishes_at(w, order5_gen)
    assert vanishes_at(w, g2)
    assert has_pole_at(w, g3)


def test_cocycle_function_closed_forms(order5_curve, order5_gen, xy):
    x, y = xy
    f1 = cocycle_function(order5_curve, order5_gen, order5_gen)
    assert f1 == (5 * x + y - 19) / (x - 5) ** 2
    assert f1.leading_coefficient() == 1
    g4 = order5_curve.multiply(4, order5_gen)
    assert cocycle_function(order5_curve, g4, order5_gen) == 1 / (x - 5)
    assert cocycle_function(order5_curve, INFINITY, order5_gen) == 1


def test_cocycle_function_is_monic(order5_curve, mixed_torsion_curve):
    cases = [
        (order5_curve, CurvePoint(F(16), F(60)), CurvePoint(F(5), F(5))),
        (mixed_torsion_curve, CurvePoint(F(8), F(18)), CurvePoint(F(-2), F(3))),
        (mixed_torsion_curve, CurvePoint(F(-1), F(0)), CurvePoint(F(8), F(-27))),
    ]
    for curve, shift, p in cases:
        assert cocycle_function(curve, shift, p).leading_coefficient() == 1


def test_cocycle_function_divisor(order5_curve, order5_gen):
    # divisor (shift + p) + O - shift - p, with coincident points merged
    g = order5_gen
    g2 = order5_curve.multiply(2, g)
    g3 = order5_curve.multiply(3, g)
    g4 = order5_curve.multiply(4, g)
    f = cocycle_function(order5_curve, g, g)
    assert vanishes_at(f, g2)
    assert has_pole_at(f, g)
    assert not vanishes_at(f, g3) and not has_pole_at(f, g3)
    # when shift + p = O the zero at infinity doubles up: no finite zero
    f2 = cocycle_function(order5_curve, g4, g)
    assert has_pole_at(f2, g) and has_pole_at(f2, g4)
    for q in (g2, g3):
        assert not vanishes_at(f2, q) and not has_pole_at(f2, q)


def test_cocycle_function_rejects_off_curve_points(order5_curve, order5_gen):
    with pytest.raises(PointNotOnCurve):
        cocycle_function(order5_curve, CurvePoint(F(5), F(6)), order5_gen)


def test_rational_cocycle_validation(order5_curve, order5_gen, mixed_torsion_curve):
    with pytest.raises(ValueError):
        RationalCocycle(order5_curve, 3, order5_gen)  # [3]g is not O
    with pytest.raises(ValueError):
        RationalCocycle(order5_curve, 0, INFINITY)
    with pytest.raises(PointNotOnCurve):
        RationalCocycle(order5_curve, 5, CurvePoint(F(5), F(6)))
    coc = RationalCocycle(order5_curve, 5, order5_gen)
    assert coc.value(0) == INFINITY
    assert coc.value(7) == order5_curve.multiply(2, order5_gen)
    assert coc.value(-1) == order5_curve.multiply(4, order5_gen)


def test_two_cocycle_exact_matrix(order5_curve, order5_gen):
    coc = RationalCocycle(order5_curve, 5, order5_gen)
    tc = two_cocycle(coc, order5_gen)
    eleventh = F(1, 11)
    expected = [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, eleventh],
        [1, 1, -1, -eleventh, eleventh],
        [1, -1, -eleventh, -eleventh, eleventh],
        [1, eleventh, eleventh, eleventh, -eleventh],
    ]
    assert [[tc.value(i, j) for j in range(5)] for i in range(5)] == expected
    assert verify_two_cocycle(tc)
    assert cyclic_reduce(tc) == F(-1, 11)


def test_two_cocycle_index_wraps(order5_curve, order5_gen):
    coc = RationalCocycle(order5_curve, 5, order5_gen)
    tc = two_cocycle(coc, order5_gen)
    assert tc.value(6, 7) == tc.value(1, 2)
    assert tc.value(-1, 3) == tc.value(4, 3)


def test_verify_rejects_tampered_matrix(order5_curve, order5_gen):
    coc = RationalCocycle(order5_curve, 5, order5_gen)
    tc = two_cocycle(coc, order5_gen)
    rows = [list(row) for row in tc.values]
    rows[1][1] = F(2)
    tampered = TwoCocycle(5, tuple(tuple(r) for r in rows))
    assert not verify_two_cocycle(tampered)


def test_two_cocycle_validation():
    with pytest.raises(ValueError):
        TwoCocycle(2, ((F(1), F(1)),))  # ragged
    with pytest.raises(ValueError):
        TwoCocycle(2, ((F(1), F(1)), (F(1), F(0))))  # zero entry


def test_cyclic_reduce_requires_normalization():
    tc = TwoCocycle(2, ((F(2), F(1)), (F(1), F(1))))
    with pytest.raises(ValueError):
        cyclic_reduce(tc)


def test_rescaling_changes_b_by_mth_power(order5_curve, order5_gen):
    coc = RationalCocycle(order5_curve, 5, order5_gen)
    base = cyclic_reduce(two_cocycle(coc, order5_gen))
    lam = [F(1), F(2), F(3, 7), F(-5), F(1, 4)]
    tc = two_cocycle(coc, order5_gen, rescale=lam)
    assert verify_two_cocycle(tc)
    assert cyclic_reduce(tc) == base * F(2) ** 5


def test_rescale_validation(order5_curve, order5_gen):
    coc = RationalCocycle(order5_curve, 5, order5_gen)
    with pytest.raises(ValueError):
        two_cocycle(coc, order5_gen, rescale=[F(2)] * 5)  # first scale not 1
    with pytest.raises(ValueError):
        two_cocycle(coc, order5_gen, rescale=[F(1), F(2)])  # wrong length
    with pytest.raises(ValueError):
        two_cocycle(coc, order5_gen, rescale=[F(1), F(0), F(1), F(1), F(1)])


def test_non_constant_entry_detected(mixed_torsion_curve):
    # a forged cocycle whose shift point is not m-torsion leaves genuinely
    # non-constant entries; two_cocycle must refuse rather than evaluate.
    # The forged walk O, t gives the shifts [0]t, [1]t that two_cocycle reads
    forged = object.__new__(RationalCocycle)
    t = CurvePoint(F(-2), F(3))  # order 4
    object.__setattr__(forged, "curve", mixed_torsion_curve)
    object.__setattr__(forged, "m", 2)
    object.__setattr__(forged, "t", t)
    object.__setattr__(forged, "_cycle", (INFINITY, t))
    with pytest.raises(NonConstantCocycleValue):
        two_cocycle(forged, CurvePoint(F(8), F(18)))


def test_pairing_values_on_mixed_curve(mixed_torsion_curve):
    coc = RationalCocycle(mixed_torsion_curve, 4, CurvePoint(F(8), F(-27)))
    ext = Cyclotomic.from_generators(5, (1,))
    cases = [
        (CurvePoint(F(8), F(18)), F(1, 10125), F(5)),
        (CurvePoint(F(-1), F(0)), F(-1, 81), F(-1)),
        (CurvePoint(F(-2), F(3)), F(-1, 125), F(-5)),
        (CurvePoint(F(-13, 4), F(9, 8)), F(-16, 2025), F(-25)),
    ]
    for point, b_raw, b_norm in cases:
        alg = brauer_pairing(coc, point, ext)
        assert alg.b_raw == b_raw
        assert alg.b_normalized == b_norm
        assert alg.m == 4


def test_pairing_at_identity_is_trivial(order5_curve, order5_gen):
    coc = RationalCocycle(order5_curve, 5, order5_gen)
    alg = brauer_pairing(coc, INFINITY, Cyclotomic.from_generators(11, (10,)))
    assert alg.b_raw == 1
    assert class_status(alg).kind == "trivial"


def test_pairing_degree_mismatch(order5_curve, order5_gen):
    coc = RationalCocycle(order5_curve, 5, order5_gen)
    with pytest.raises(ValueError):
        brauer_pairing(coc, order5_gen, Quadratic(3))


def test_relative_brauer_presentation(order5_curve, order5_gen):
    coc = RationalCocycle(order5_curve, 5, order5_gen)
    ext = Cyclotomic.from_generators(11, (10,))
    pres = relative_brauer(coc, [(order5_gen, 5)], ext)
    assert pres.order_bound == 5
    # -1/11 is a local norm everywhere: -1 lies in H = {1, 10}, and at the
    # ramified prime 11 the symbol is u^-1 = -1
    assert pres.group_invariants == ()
    (entry,) = pres.entries
    assert entry.point == order5_gen
    assert entry.order == 5
    assert entry.algebra.b_normalized == 14641
    assert entry.status.kind == "trivial"


def test_relative_brauer_quaternion_invariants(full_two_torsion_curve):
    c = full_two_torsion_curve
    coc = RationalCocycle(c, 2, CurvePoint(F(0), F(0)))
    gens = [(CurvePoint(F(1), F(0)), 2), (CurvePoint(F(-1), F(0)), 2)]
    pres = relative_brauer(coc, gens, Quadratic(-1))
    assert pres.order_bound == 2
    assert pres.group_invariants == (2,)


def test_cocycle_values_randomized_are_constant(mixed_torsion_curve):
    # every entry of every generated matrix is a plain rational
    from relbrauer import torsion_subgroup

    pts = torsion_subgroup(mixed_torsion_curve).elements
    coc = RationalCocycle(mixed_torsion_curve, 4, CurvePoint(F(8), F(-27)))
    rng = random.Random(2)
    for _ in range(6):
        p = pts[rng.randrange(len(pts))]
        tc = two_cocycle(coc, p)
        assert verify_two_cocycle(tc)
        assert all(isinstance(v, F) and v != 0 for row in tc.values for v in row)


@pytest.mark.parametrize(
    "coeffs", [(0, -1, 1, -10, -20), (1, 1, 1, -10, -10), (0, 0, 0, -1, 0)]
)
def test_pairing_scalar_equals_reduced_table(coeffs):
    # the norm of f_1 is the table's cyclic reduction, for every torsion pair
    from relbrauer import torsion_subgroup

    curve = WeierstrassCurve(*coeffs)
    pts = torsion_subgroup(curve).elements
    for t in pts:
        coc = RationalCocycle(curve, curve.point_order(t), t)
        for p in pts:
            assert pairing_scalar(coc, p) == cyclic_reduce(two_cocycle(coc, p))


@pytest.mark.parametrize(
    "coeffs,t,step",
    [
        ((1, -1, 1, -3, 3), (-1, 2), 1),  # 26b1, Z/7
        ((1, -1, 1, -14, 29), (-3, 7), 1),  # 54b3, Z/9
        ((1, -1, 1, -14, 29), (1, 3), 1),  # 54b3, t of order 3
        ((1, -1, 1, -122, 1721), (-9, 49), 2),  # 90c3, Z/12, t of order 12
        ((1, -1, 1, -122, 1721), (21, 79), 3),  # 90c3, t of order 6
    ],
    ids=["26b1", "54b3", "54b3-order3", "90c3", "90c3-order6"],
)
def test_pairing_scalar_equals_reduced_table_higher_order(coeffs, t, step):
    # a fixed subset: t against every step-th torsion point, in sorted order
    from relbrauer import torsion_subgroup

    curve = WeierstrassCurve(*coeffs)
    t = CurvePoint(F(t[0]), F(t[1]))
    coc = RationalCocycle(curve, curve.point_order(t), t)
    for p in torsion_subgroup(curve).elements[::step]:
        assert pairing_scalar(coc, p) == cyclic_reduce(two_cocycle(coc, p))


def test_pairing_scalar_when_t_order_is_below_m(order5_curve, order5_gen):
    for coc, p in [
        (RationalCocycle(order5_curve, 3, INFINITY), order5_gen),
        (RationalCocycle(order5_curve, 10, order5_gen), order5_gen),
        (RationalCocycle(order5_curve, 10, order5_gen), CurvePoint(F(16), F(60))),
    ]:
        assert pairing_scalar(coc, p) == cyclic_reduce(two_cocycle(coc, p))


# (curve, t, m, p, translates): floor(log2 m) + popcount(m) - 1 translates
# in the chain oracle
_E1, _90C3 = (0, -1, 1, -10, -20), (1, -1, 1, -122, 1721)
_CHAIN_CASES = [
    (_E1, None, 1, (5, 5), 0),
    (_90C3, (-15, 7), 2, (-9, 49), 1),  # order 2
    (_90C3, (1, 39), 3, (21, 79), 2),  # order 3
    (_90C3, (9, 31), 4, (-9, 49), 2),  # order 4
    (_E1, (5, 5), 5, (5, 5), 3),
    (_90C3, (21, 79), 6, (-9, 49), 3),  # order 6
    (_90C3, (9, 31), 8, (21, 79), 3),  # order 4, below m
    (_E1, (5, 5), 10, (16, 60), 4),  # order 5, below m
    (_90C3, (-9, 49), 12, (21, 79), 4),  # order 12
    (_90C3, (21, 79), 12, (9, 31), 4),  # order 6, below m
]
_CHAIN_IDS = ["m1-O", "m2", "m3", "m4", "m5", "m6", "m8-order4", "m10-order5", "m12", "m12-order6"]


def _chain_case(coeffs, t, m, p):
    curve = WeierstrassCurve(*coeffs)
    t = INFINITY if t is None else CurvePoint(F(t[0]), F(t[1]))
    return RationalCocycle(curve, m, t), CurvePoint(F(p[0]), F(p[1]))


@pytest.mark.parametrize("coeffs,t,m,p,translates", _CHAIN_CASES, ids=_CHAIN_IDS)
def test_pairing_takes_chain_translates_and_no_table(monkeypatch, coeffs, t, m, p, translates):
    import relbrauer.cocycle as cocycle_mod

    coc, p = _chain_case(coeffs, t, m, p)
    expected = cyclic_reduce(two_cocycle(coc, p))
    calls = {"translate": 0, "function": 0, "add": 0}
    translate, function, add = EllFn.translate, oracles.cocycle_function, WeierstrassCurve.add
    in_function = []

    def counted_translate(self, q):
        calls["translate"] += 1
        return translate(self, q)

    def counted_function(*args):
        calls["function"] += 1
        in_function.append(True)
        try:
            return function(*args)
        finally:
            in_function.pop()

    def counted_add(self, *args):
        if not in_function:
            calls["add"] += 1
        return add(self, *args)

    def no_table(*args, **kwargs):
        raise AssertionError("the chain must not build the 2-cocycle table")

    monkeypatch.setattr(EllFn, "translate", counted_translate)
    monkeypatch.setattr(WeierstrassCurve, "add", counted_add)
    monkeypatch.setattr(oracles, "cocycle_function", counted_function)
    monkeypatch.setattr(cocycle_mod, "two_cocycle", no_table)
    assert pairing_scalar_by_chain(coc, p) == expected
    # each shift the chain computes is used by the next translate
    assert calls == {"translate": translates, "function": 1, "add": max(translates - 1, 0)}


@pytest.mark.parametrize("coeffs,t,m,p,translates", _CHAIN_CASES, ids=_CHAIN_IDS)
def test_pairing_reads_points_with_no_function_field(monkeypatch, add_calls, coeffs, t, m, p, translates):
    import relbrauer.cocycle as cocycle_mod

    coc, p = _chain_case(coeffs, t, m, p)
    expected = cyclic_reduce(two_cocycle(coc, p))

    def refuse(*args, **kwargs):
        raise AssertionError("the pairing must not build functions")

    monkeypatch.setattr(EllFn, "translate", refuse)
    monkeypatch.setattr(EllFn, "__init__", refuse)
    monkeypatch.setattr(cocycle_mod, "cocycle_function", refuse)
    monkeypatch.setattr(cocycle_mod, "two_cocycle", refuse)
    add_calls.clear()
    assert pairing_scalar(coc, p) == expected
    # t + p, then [2]t, ..., [m-1]t
    assert len(add_calls) <= (0 if coc.t.is_infinity else m - 1)
    add_calls.clear()
    assert pairing_scalar(coc, INFINITY) == 1
    assert add_calls == []


@pytest.mark.parametrize("coeffs,t,m,p,translates", _CHAIN_CASES, ids=_CHAIN_IDS)
def test_cocycle_walks_t_once(add_calls, coeffs, t, m, p, translates):
    # RationalCocycle walks t, [2]t, ... to O in ord(t) - 1 adds; the
    # pairing then adds only t + p and raises one period's product to m/n
    add_calls.clear()
    coc, p = _chain_case(coeffs, t, m, p)
    walked = len(add_calls)
    n = coc.curve.point_order(coc.t)
    assert walked == n - 1 and m % n == 0
    assert [coc.value(i) for i in range(-1, m + 1)] == [
        coc.curve.multiply(i, coc.t) for i in range(-1, m + 1)
    ]
    expected = pairing_scalar_by_chain(coc, p)
    add_calls.clear()
    assert pairing_scalar(coc, p) == expected
    assert len(add_calls) == (0 if coc.t.is_infinity else 1)


def test_rational_cocycle_walk_is_bounded(add_calls, order5_curve, order5_gen):
    # Mazur: a rational point that has not reached O by its 12th multiple has
    # infinite order, so the walk stops there however large m is
    message = "t is not the identity; t must be m-torsion"
    p37 = WeierstrassCurve(0, 0, 1, -1, 0), CurvePoint(F(0), F(0))
    for (curve, t), m, adds in [
        (p37, 13, 11),
        (p37, 10**6, 11),
        (p37, 5, 4),
        ((order5_curve, order5_gen), 3, 2),
        ((order5_curve, order5_gen), 10**6 + 1, 4),
    ]:
        add_calls.clear()
        with pytest.raises(ValueError, match=re.escape(f"[{m}]{message}")):
            RationalCocycle(curve, m, t)
        assert len(add_calls) == adds
    add_calls.clear()
    coc = RationalCocycle(order5_curve, 10**6, order5_gen)
    assert len(add_calls) == 4
    assert coc.value(10**6 - 1) == order5_curve.negate(order5_gen)
    # one period's product, raised to m/n = 7, is the norm over all 35 shifts
    coc = RationalCocycle(order5_curve, 35, order5_gen)
    g3 = CurvePoint(F(16), F(60))
    b5 = pairing_scalar(RationalCocycle(order5_curve, 5, order5_gen), g3)
    assert pairing_scalar(coc, g3) == pairing_scalar_by_chain(coc, g3) == b5**7 != b5


def test_relative_brauer_walks_t_once(add_calls):
    # the 26b1 m = 7 relbr --gens job of the highm_pairing pool: each
    # generator costs one add, t + p, and no generator walks <t> again
    curve = WeierstrassCurve(1, -1, 1, -3, 3)
    t = CurvePoint(F(-1), F(-2))
    coc = RationalCocycle(curve, 7, t)
    gens = [(CurvePoint(F(x), F(y)), 7) for x, y in [(-1, -2), (-1, 2), (1, -2)]]
    expected = [pairing_scalar_by_chain(coc, g) for g, _ in gens]
    add_calls.clear()
    presentation = relative_brauer(coc, gens, Cyclotomic.from_generators(29, (12,)))
    assert len(add_calls) == len(gens)
    assert [e.algebra.b_raw for e in presentation.entries] == expected


def test_pairing_refuses_a_line_that_misses_t_plus_p(monkeypatch, order5_curve, order5_gen):
    # an add that hands back -(t + p), one whose negative is on the tangent
    # y = 5x - 20 at t but not on E, and one that claims t + p = O: each
    # gives a pairing line that does not meet E where the divisor needs it to
    coc = RationalCocycle(order5_curve, 5, order5_gen)
    add = WeierstrassCurve.add
    monkeypatch.setattr(WeierstrassCurve, "add", lambda self, a, b: self.negate(add(self, a, b)))
    with pytest.raises(NonConstantCocycleValue, match="does not meet"):
        pairing_scalar(coc, order5_gen)
    monkeypatch.setattr(WeierstrassCurve, "add", lambda self, a, b: CurvePoint(F(0), F(19)))
    with pytest.raises(NonConstantCocycleValue, match="does not meet"):
        pairing_scalar(coc, order5_gen)
    monkeypatch.setattr(WeierstrassCurve, "add", lambda self, a, b: INFINITY)
    with pytest.raises(NonConstantCocycleValue, match="not -t"):
        pairing_scalar(coc, order5_gen)


def test_pairing_refuses_orders_that_do_not_sum_to_zero(mixed_torsion_curve):
    # a forged cocycle whose t has order 4, not m = 2, with the walk O, t
    # that a check-free RationalCocycle would keep: the tangent at t is a
    # true pairing line, but <t> is not closed, and f_1 has order 1 at O
    # and -2 at t
    forged = object.__new__(RationalCocycle)
    t = CurvePoint(F(-2), F(3))
    object.__setattr__(forged, "curve", mixed_torsion_curve)
    object.__setattr__(forged, "m", 2)
    object.__setattr__(forged, "t", t)
    object.__setattr__(forged, "_cycle", (INFINITY, t))
    with pytest.raises(NonConstantCocycleValue, match="do not sum to 0"):
        pairing_scalar(forged, t)


_TORSION_CURVES = [
    (0, -1, 1, -10, -20),  # E1, Z/5
    (1, 1, 1, -10, -10),  # E2, Z/4 x Z/2
    (1, -1, 1, -3, 3),  # 26b1, Z/7
    (1, -1, 1, -14, 29),  # 54b3, Z/9
    (1, -1, 1, -122, 1721),  # 90c3, Z/12
    (0, 0, 0, -1, 0),  # Z/2 x Z/2
]


@pytest.mark.parametrize("coeffs", _TORSION_CURVES, ids=["E1", "E2", "26b1", "54b3", "90c3", "x3-x"])
def test_cocycle_function_is_the_line_quotient(coeffs):
    # the closed form pairing_scalar reads: f_1 = V/L, or 1/(x - x(t))
    from relbrauer import torsion_subgroup

    curve = WeierstrassCurve(*coeffs)
    x, y = EllFn.coordinate_x(curve), EllFn.coordinate_y(curve)
    points = torsion_subgroup(curve).elements
    for t in points:
        for p in points:
            total = curve.add(t, p)
            if t.is_infinity or p.is_infinity:
                expected = EllFn.const(curve, 1)
            elif total.is_infinity:
                expected = 1 / (x - t.x)
            else:
                lam = F(*curve._slope(t, p))
                nu = t.y - lam * t.x
                expected = (x - total.x) / (y - lam * x - nu)
            assert cocycle_function(curve, t, p) == expected


def test_pairing_scalar_matches_chain_on_highm_reference():
    # every pairing and relbr point of the benchmark's highm_pairing pool
    from relbrauer import torsion_subgroup
    from relbrauer.cli import _job_from_args

    path = Path(__file__).resolve().parents[1] / "bench" / "reference" / "highm_pairing.json"
    cases = set()
    for entries in json.loads(path.read_text()).values():
        for entry in entries:
            job = _job_from_args(entry["argv"])
            if job.command == "pairing":
                points = [job.p]
            elif job.gens is None:
                points = [g for g, _ in torsion_subgroup(job.curve).generators]
            else:
                points = list(job.gens)
            cases.update((job.curve, job.m, job.t, p) for p in points)
    assert len(cases) > 100  # 172 distinct (curve, m, t, p)
    for curve, m, t, p in cases:
        coc = RationalCocycle(curve, m, t)
        assert pairing_scalar(coc, p) == pairing_scalar_by_chain(coc, p)


@pytest.mark.parametrize(
    "coeffs,t,m,gens,ext,invariants",
    [
        ((0, -1, 1, -10, -20), (5, 5), 5, [(5, 5), (16, 60)], "cyclo:11:10", ()),
        ((0, 0, 0, -386240409, 0), (0, 0), 2, [(19653, 0), (-19653, 0)], "quad:2027600613242",
         (2,)),
        ((0, 0, 0, -87647044, 0), (0, 0), 2, [(-9362, 0)], "cyclo:3019:4", (2,)),
        ((0, 0, 0, -(1000162000477**2), 0), (0, 0), 2, [(1000162000477, 0)], "quad:-2", (2,)),
    ],
    ids=["m5-cyclo", "m2-quad-relbr", "m2-cyclo", "m2-quad-large"],
)
def test_pairing_and_status_factor_b_once(monkeypatch, coeffs, t, m, gens, ext, invariants):
    # per pairing: |numerator(b)| and denominator(b) at most once each, never 1
    import relbrauer.brauer as brauer_mod
    import relbrauer.exact as exact_mod
    from relbrauer.cli import parse_extension

    curve = WeierstrassCurve(*coeffs)
    coc = RationalCocycle(curve, m, CurvePoint(F(t[0]), F(t[1])))
    ext = parse_extension(ext)
    calls = []
    factor = exact_mod.factor

    def counted_factor(n, **kwargs):
        calls.append(n)
        return factor(n, **kwargs)

    monkeypatch.setattr(exact_mod, "factor", counted_factor)
    monkeypatch.setattr(brauer_mod, "factor", counted_factor)
    points = [(CurvePoint(F(x), F(y)), None) for x, y in gens]
    presentation = relative_brauer(coc, points, ext)
    expected = []
    for entry in presentation.entries:
        b = entry.algebra.b_raw
        expected += [n for n in (abs(b.numerator), b.denominator) if n != 1]
    assert sorted(calls) == sorted(expected)
    assert presentation.group_invariants == invariants


def _torsion_pairings():
    """(cocycle, p) for every torsion point t != O of each seeded model, with
    m = ord(t), and every torsion point p of that model."""
    from oracles import seeded_models

    for curve, points in seeded_models():
        torsion = [q for q in points if curve.point_order(q) is not None]
        for t in torsion:
            if not t.is_infinity:
                coc = RationalCocycle(curve, curve.point_order(t), t)
                yield from ((coc, p) for p in torsion)


def test_pairing_scalar_matches_fraction_closed_forms():
    # on the torsion curves and 40 seeded models with fractional a1 ... a6,
    # every pair of torsion points, with m = ord(t) and with m = 2 ord(t)
    from oracles import pairing_scalar_by_fractions

    fractional, in_t = 0, 0
    for coc, p in _torsion_pairings():
        fractional += coc.curve._scaled[0] > 1
        in_t += p in coc._cycle
        assert pairing_scalar(coc, p) == pairing_scalar_by_fractions(coc, p)
        twice = RationalCocycle(coc.curve, 2 * coc.m, coc.t)
        assert pairing_scalar(twice, p) == pairing_scalar_by_fractions(twice, p)
    assert fractional >= 1500 and in_t >= 1500  # 1,910 and 1,544 of 2,244


def test_pairing_scalar_makes_no_fraction_arithmetic(fraction_arithmetic_refused):
    # the closed forms and the checks around them run on integers: every
    # Fraction operator raises while pairing_scalar runs (m = ord(t), so
    # no power is taken)
    cases = list(_torsion_pairings())
    expected = [pairing_scalar(coc, p) for coc, p in cases]
    with fraction_arithmetic_refused():
        got = [pairing_scalar(coc, p) for coc, p in cases]
    assert got == expected


def test_order_of_reads_the_walk():
    # [k]t has order n / gcd(k, n); points outside <t> give None
    from oracles import seeded_models

    seen = 0
    for curve, points in seeded_models():
        for t in points:
            n = curve.point_order(t)
            if n is None:
                continue
            coc = RationalCocycle(curve, n, t)
            for p in points:
                order = coc.order_of(p)
                if p in coc._cycle:
                    assert order == curve.point_order(p)
                    seen += 1
                else:
                    assert order is None
    assert seen >= 1000


def test_relbr_gens_take_their_orders_from_the_walk(add_calls):
    # the 26b1 m = 7 relbr --gens job of the highm_pairing pool: the walk of
    # <t> (6 adds) and one add per pairing, and none for the orders
    from relbrauer.cli import _job_from_args, run

    argv = ["relbr", "--curve", "1 -1 1 -3 3", "--t=-1,-2", "--m", "7",
            "--ext", "cyclo:29:12", "--gens=-1,-2;-1,2;1,-2"]
    job = _job_from_args(argv)
    add_calls.clear()
    report = run(job)
    assert len(add_calls) == 6 + 3
    assert [e["order"] for e in report["results"]] == [
        job.curve.point_order(p) for p in job.gens
    ] == [7, 7, 7]


def test_brauer_pairing_factors_c_not_its_power(monkeypatch):
    # E1 with t = p = (5, 5) and m = 50,000 over cyclo:150001:h, h = g^m for
    # a primitive root g: c = -1/11 and b = c^10000, but only c is factored
    import relbrauer.brauer as brauer_mod
    import relbrauer.exact as exact_mod

    n, m = 150001, 50000
    g = next(g for g in range(2, n) if all(pow(g, (n - 1) // q, n) != 1 for q in (2, 3, 5)))
    ext = Cyclotomic.from_generators(n, (pow(g, m, n),))
    curve = WeierstrassCurve(0, -1, 1, -10, -20)
    t = CurvePoint(F(5), F(5))
    coc = RationalCocycle(curve, m, t)
    calls = []
    factor = exact_mod.factor

    def counted_factor(k):
        calls.append(k)
        return factor(k)

    monkeypatch.setattr(exact_mod, "factor", counted_factor)
    monkeypatch.setattr(brauer_mod, "factor", counted_factor)
    algebra = brauer_pairing(coc, t, ext)
    assert calls and all(k.bit_length() <= 64 for k in calls)
    assert algebra.b_raw == F(1, 11**10000) and algebra.b_normalized == 11**40000
    assert algebra.primes == (11,)
    assert class_status(algebra).witness == 11


def test_large_m_class_is_decided_within_budget():
    # E1 with t = p = (5, 5) and m = 250,000 over cyclo:N:h, N = 15m + 1
    # prime and h = g^m: b_raw = 1/11^50000.  The class constructor reads
    # v_11 off the exponents brauer_pairing passes, and the local symbol at
    # 11 takes it by repeated squaring; one division by 11 at a time took
    # 5.1 s for the two calls below on a 2-core VM
    import time

    n, m = 3750001, 250000
    g = next(g for g in range(2, n) if all(pow(g, (n - 1) // q, n) != 1 for q in (2, 3, 5)))
    ext = Cyclotomic.from_generators(n, (pow(g, m, n),))
    curve = WeierstrassCurve(0, -1, 1, -10, -20)
    t = CurvePoint(F(5), F(5))
    coc = RationalCocycle(curve, m, t)
    start = time.perf_counter()
    algebra = brauer_pairing(coc, t, ext)
    status = class_status(algebra)
    assert time.perf_counter() - start < 1.5
    assert algebra.b_raw == F(1, 11**50000) and algebra.primes == (11,)
    assert status.witness == 11


def test_large_m_class_with_its_descriptor_is_decided_within_budget():
    # the case above, descriptor included: the local invariants are
    # characters of (Z/N)*, so the cost does not grow with m = 250,000
    import time

    n, m = 3750001, 250000
    start = time.perf_counter()
    ext = Cyclotomic.from_generators(n, (558125,))
    coc = RationalCocycle(WeierstrassCurve(0, -1, 1, -10, -20), m, CurvePoint(F(5), F(5)))
    status = class_status(brauer_pairing(coc, coc.t, ext))
    assert time.perf_counter() - start < 0.5
    assert ext.degree == m and ext.literal() == "cyclo:3750001:558125"
    assert status.witness == 11
