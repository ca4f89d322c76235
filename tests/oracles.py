"""Slow reference checks that only the tests use.

Each is an independent route to a fact the pipeline computes another way:
zeros and poles of a function by evaluation, equality of quaternion
classes by Hilbert symbols, the pairing scalar as the norm of a function,
the group law in Fraction arithmetic, and the rational torsion subgroup by
the full Nagell-Lutz search.
"""

from fractions import Fraction

from relbrauer import (
    INDETERMINATE,
    POLE,
    DivisionByZeroFunction,
    NonConstantCocycleValue,
    cocycle_function,
    quaternion_is_split,
)
from relbrauer.curve import INFINITY, ORDER_BOUND, CurvePoint, to_short_integral
from relbrauer.torsion import _integer_roots_depressed_cubic, _presentation, _square_divisor_roots


def vanishes_at(f, point) -> bool:
    """Whether the function f has a zero at the point."""
    v = f.evaluate(point)
    if v is INDETERMINATE and not f.is_zero:
        return f.inverse().evaluate(point) is POLE
    return isinstance(v, Fraction) and v == 0


def has_pole_at(f, point) -> bool:
    """Whether the function f has a pole at the point."""
    if f.is_zero:
        raise DivisionByZeroFunction("the zero function has no poles")
    w = f.inverse().evaluate(point)
    if w is INDETERMINATE:
        return f.evaluate(point) is POLE
    return isinstance(w, Fraction) and w == 0


def quaternion_class_equal(alg1, alg2) -> bool:
    """Whether two m = 2 classes over the same Q(sqrt(d)) coincide in Br(Q)."""
    if alg1.ext != alg2.ext:
        raise ValueError("classes live over different extensions")
    # quaternion classes are 2-torsion: equality iff the product splits
    return quaternion_is_split(alg1.ext.d, alg1.b_raw * alg2.b_raw)


def chord_slope_by_fractions(curve, p, q):
    """The slope of the line through the affine points p and q of the curve,
    the tangent when p = q, or None when it is vertical, in Fractions."""
    x1, y1 = p.x, p.y
    x2, y2 = q.x, q.y
    if x1 != x2:
        return (y2 - y1) / (x2 - x1)
    if y1 + y2 + curve.a1 * x2 + curve.a3 == 0:
        return None
    # same x and not -p, so q = p
    denom = 2 * y1 + curve.a1 * x1 + curve.a3
    return (3 * x1 * x1 + 2 * curve.a2 * x1 + curve.a4 - curve.a1 * y1) / denom


def add_by_fractions(curve, p, q):
    """p + q by the chord-tangent formulas (Silverman, AEC, III.2.3) in
    Fraction arithmetic on the coefficients a1 ... a6."""
    curve._require(p)
    curve._require(q)
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    lam = chord_slope_by_fractions(curve, p, q)
    if lam is None:
        return INFINITY
    x1 = p.x
    nu = p.y - lam * x1
    x3 = lam * lam + curve.a1 * lam - curve.a2 - x1 - q.x
    y3 = -(lam + curve.a1) * x3 - nu - curve.a3
    return CurvePoint(x3, y3)


def pairing_scalar_by_chain(cocycle, p):
    """The scalar b of (cocycle, p) as the norm of f_1 = cocycle_function at
    shift t, built as a function: b = N_m, where
    N_j = prod_{k<j} (translate of f_1 by [k]t).

    N_m is built along the binary digits of m, as Miller's algorithm builds
    its products of translated line functions:
    N_2j = N_j * (translate of N_j by [j]t) and
    N_{j+1} = N_j * (translate of f_1 by [j]t), in
    floor(log2 m) + popcount(m) - 1 translates.  The norm must come out a
    constant function.
    """
    curve = cocycle.curve
    curve._require(p)
    t = cocycle.t
    f1 = cocycle_function(curve, t, p)
    digits = bin(cocycle.m)[3:]  # after the leading 1, which gives N_1 = f_1
    norm, shift = f1, t  # N_j and [j]t
    for k, digit in enumerate(digits):
        more = k + 1 < len(digits)
        norm = norm * norm.translate(shift)
        if digit == "1" or more:
            shift = curve.add(shift, shift)
        if digit == "1":
            norm = norm * f1.translate(shift)
            if more:
                shift = curve.add(shift, t)
    b = norm.is_constant()
    if b is None:
        raise NonConstantCocycleValue("the norm of the pairing function is not a constant")
    return b


def torsion_subgroup_by_full_search(curve):
    """The rational torsion subgroup without the sieve or the early exits.

    On the short integral model, factor a6 - y^2 for every y with y = 0 or
    y^2 dividing the discriminant, try every divisor as x, and keep the
    points whose order there is at most 12; then read every order again on
    the original model.
    """
    short, phi = to_short_integral(curve)
    a4 = int(short.a4)
    a6 = int(short.a6)
    found = set()
    for y in _square_divisor_roots(int(short.discriminant())):
        for x in _integer_roots_depressed_cubic(a4, a6 - y * y):
            p = CurvePoint.affine(x, y)
            if short.point_order(p, ORDER_BOUND) is not None:
                found.add(p)
                found.add(short.negate(p))
    elements = [INFINITY] + sorted(
        (phi.pull_point(p) for p in found), key=lambda p: (p.x, p.y)
    )
    orders = {p: curve.point_order(p, ORDER_BOUND) for p in elements}
    return _presentation(curve, tuple(elements), orders)
