"""Torsion-translation cocycles on an elliptic curve over Q.

The data (E, m, t) with [m]t = 0 encodes a homomorphism from a cyclic group
of order m into E(Q).  For each rational point p this produces, through line
functions on the curve, a 2-cocycle with constant rational values, which
collapses to a single scalar b; the pair (extension descriptor, b) is a
cyclic-algebra class in the relative Brauer group of the associated
homogeneous space.

The pairing reads b off the points of <t>: b is the norm of one function
f_1 = V/L, a quotient of a vertical and a line function, and equals the
product of the leading coefficients of f_1 at O, t, ..., [m-1]t, each in a
uniformizer normalized by the invariant differential.  Those come from
closed forms in the coordinates, computed on their numerators and
denominators and on the curve's scaled coefficients, and repeat with the
period n = ord(t), so the pairing reads the n points of <t> that
RationalCocycle walked once, takes one group-law add (t + p), and does no
function-field arithmetic.  The walk also gives the order of each point of
<t>.
two_cocycle and cyclic_reduce build and reduce the full table and remain as
the reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .brauer import (
    BrauerEntry,
    BrauerPresentation,
    CyclicAlgebraClass,
    class_status,
    quaternion_group_invariants,
)
from .curve import INFINITY, ORDER_BOUND, CurvePoint, WeierstrassCurve
from .exact import FactoringLimitExceeded, Poly, _Value, rational_exponents
from .funcfield import EllFn


class NonConstantCocycleValue(Exception):
    """A cocycle entry failed to reduce to a constant; this signals a bug in
    the pipeline, not bad input."""


def line_function(curve: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> EllFn:
    """Affine equation of the line through p and q on the curve.

    Tangent when p = q, vertical through the affine point when the other is
    at infinity, and the constant 1 when both are; the zero set (counted
    with the curve) is p + q + third intersection point.
    """
    curve._require(p)
    curve._require(q)
    if p.is_infinity and q.is_infinity:
        return EllFn.const(curve, 1)
    if p.is_infinity:
        return EllFn(curve, Poly((-q.x, 1)))
    if q.is_infinity:
        return EllFn(curve, Poly((-p.x, 1)))
    x1, y1 = p.x, p.y
    if p == q:
        slope_den = 2 * y1 + curve.a1 * x1 + curve.a3
        slope_num = 3 * x1 * x1 + 2 * curve.a2 * x1 + curve.a4 - curve.a1 * y1
        return EllFn(
            curve,
            Poly((slope_num * x1 - slope_den * y1, -slope_num)),
            Poly((slope_den,)),
        )
    x2, y2 = q.x, q.y
    return EllFn(
        curve,
        Poly((x2 * y1 - x1 * y2, y2 - y1)),
        Poly((-(x2 - x1),)),
    )


def cocycle_function(curve: WeierstrassCurve, shift: CurvePoint, p: CurvePoint) -> EllFn:
    """The function with divisor (shift + p) + infinity - shift - p,
    normalized to weighted leading coefficient 1.

    The divisor determines the function only up to a scalar; the weighted
    normalization picks one representative deterministically, so downstream
    cocycle entries and the reduced scalar b are reproducible.  Whenever
    shift or p is infinity the result is exactly the constant 1.
    """
    total = curve.add(shift, p)
    numer = line_function(curve, total, curve.negate(total))
    denom = line_function(curve, shift, p)
    return (numer / denom).monic()


class RationalCocycle(_Value):
    """The twisting data: a cyclic group of order m acting through the
    m-torsion point t, as the homomorphism i -> [i]t into E(Q).

    _cycle holds O, t, [2]t, ..., [n-1]t with n the order of t, walked once
    here and read by value, order_of and pairing_scalar; it is not compared.
    The walk takes at most min(m, ORDER_BOUND) - 1 adds: a rational point
    that has not reached O by its ORDER_BOUND-th multiple has infinite order
    (Mazur).
    """

    __slots__ = ("curve", "m", "t", "_cycle")
    _fields = __slots__[:3]

    def __init__(self, curve: WeierstrassCurve, m: int, t: CurvePoint):
        if not isinstance(m, int) or m < 1:
            raise ValueError("the cyclic order m must be a positive integer")
        curve._require(t)
        cycle, q = [INFINITY], t
        while not q.is_infinity and len(cycle) < min(m, ORDER_BOUND):
            cycle.append(q)
            q = curve.add(q, t)
        if not q.is_infinity or m % len(cycle):
            raise ValueError(f"[{m}]t is not the identity; t must be m-torsion")
        self._set(curve, m, t, tuple(cycle))

    def value(self, i: int) -> CurvePoint:
        """The point [i]t attached to the i-th group element."""
        return self._cycle[i % len(self._cycle)]

    def order_of(self, p: CurvePoint) -> int | None:
        """The order n/gcd(k, n) of p = [k]t, read off the walk, or None when
        p is not in <t>."""
        cycle = self._cycle
        try:
            k = cycle.index(p)
        except ValueError:
            return None
        n = len(cycle)
        return n // gcd(k, n)


class TwoCocycle(_Value):
    """An m-by-m table of nonzero rational cocycle values c(i, j)."""

    __slots__ = _fields = ("m", "values")

    def __init__(self, m: int, values: tuple[tuple[Fraction, ...], ...]):
        if not isinstance(m, int) or m < 1:
            raise ValueError("the cyclic order m must be a positive integer")
        if len(values) != m:
            raise ValueError(f"expected {m} rows, got {len(values)}")
        rows = []
        for row in values:
            if len(row) != m:
                raise ValueError(f"expected {m} columns, got {len(row)}")
            entries = tuple(Fraction(v) for v in row)
            if any(v == 0 for v in entries):
                raise ValueError("cocycle values must be nonzero")
            rows.append(entries)
        self._set(m, tuple(rows))

    def value(self, i: int, j: int) -> Fraction:
        return self.values[i % self.m][j % self.m]


def two_cocycle(cocycle: RationalCocycle, p: CurvePoint, rescale=None) -> TwoCocycle:
    """The constant-valued 2-cocycle attached to (cocycle, p).

    Entry (i, j) is f_i * (translate of f_j by [i]t) / f_{i+j}, where f_i is
    cocycle_function at shift [i]t; each such quotient has trivial divisor,
    hence is a constant.  An optional rescale vector multiplies each f_i by
    a nonzero constant (the first must stay 1): the table changes by a
    coboundary and the class is unchanged.
    """
    curve = cocycle.curve
    curve._require(p)
    m = cocycle.m
    shifts = [cocycle.value(i) for i in range(m)]
    fs = [cocycle_function(curve, shift, p) for shift in shifts]
    if rescale is not None:
        scales = [Fraction(c) for c in rescale]
        if len(scales) != m:
            raise ValueError(f"rescale needs exactly {m} constants")
        if scales[0] != 1:
            raise ValueError("the identity-slot rescale constant must be 1")
        if any(c == 0 for c in scales):
            raise ValueError("rescale constants must be nonzero")
        fs = [f * c for f, c in zip(fs, scales)]
    inverses = [f.inverse() for f in fs]
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            entry = fs[i] * fs[j].translate(shifts[i]) * inverses[(i + j) % m]
            value = entry.is_constant()
            if value is None:
                raise NonConstantCocycleValue(f"entry ({i}, {j}) is not a constant")
            row.append(value)
        rows.append(tuple(row))
    return TwoCocycle(m, tuple(rows))


def verify_two_cocycle(tc: TwoCocycle) -> bool:
    """Check normalization (row and column 0 all ones) and the cocycle
    identity c(i,j) c(i+j,k) = c(j,k) c(i,j+k) over every index triple."""
    m, c = tc.m, tc.values
    if any(c[0][j] != 1 for j in range(m)):
        return False
    if any(c[i][0] != 1 for i in range(m)):
        return False
    for i in range(m):
        for j in range(m):
            ij = (i + j) % m
            for k in range(m):
                if c[i][j] * c[ij][k] != c[j][k] * c[i][(j + k) % m]:
                    return False
    return True


def cyclic_reduce(tc: TwoCocycle) -> Fraction:
    """Collapse a normalized table to the scalar b = c(1,1) c(2,1) ... c(m-1,1).

    The table is cohomologous to the standard cyclic cocycle taking the
    value b when exponents wrap past m, so b presents the same algebra.
    """
    m, c = tc.m, tc.values
    if any(c[0][j] != 1 for j in range(m)) or any(c[i][0] != 1 for i in range(m)):
        raise ValueError("cyclic reduction requires a normalized cocycle")
    b = Fraction(1)
    for i in range(1, m):
        b *= c[i][1]
    return b


def _lc_vertical(curve: WeierstrassCurve, q: tuple[int, int, int, int],
                 a: tuple[int, int]) -> tuple[int, int, int]:
    """(numerator, denominator, ord_q) of lc_q of x - A/dA, for a = (A, dA)
    in lowest terms, at q = (X, dx, Y, dy)."""
    X, dx, _, _ = q
    A, dA = a
    if X != A or dx != dA:
        return X * dA - A * dx, dx * dA, 0
    num, den = curve._fy(q)
    if num:
        return num, den, 1
    num, den = curve._fx(q)
    return -num, den, 2


def _line_numerator(line: tuple[int, int, int], q: tuple[int, int, int, int]) -> int:
    """alpha dx dy times L = y - (beta x + gamma)/alpha at x = X/dx, y = Y/dy,
    for line = (alpha, beta, gamma) and q = (X, dx, Y, dy)."""
    alpha, beta, gamma = line
    X, dx, Y, dy = q
    return alpha * Y * dx - dy * (beta * X + gamma * dx)


def _lc_line(curve: WeierstrassCurve, q: tuple[int, int, int, int], line: tuple[int, int, int],
             roots: tuple[tuple[int, int], ...]) -> tuple[int, int, int]:
    """(numerator, denominator, ord_q) of lc_q of L = y - (beta x + gamma)/alpha,
    for line = (alpha, beta, gamma), at q = (X, dx, Y, dy), where L meets the
    curve at the x-coordinates roots, each (R, dR) in lowest terms."""
    X, dx, _, dy = q
    num = _line_numerator(line, q)
    if num:
        return num, line[0] * dx * dy, 0
    fy, fy_den = curve._fy(q)
    if not fy:
        num, den = curve._fx(q)
        return -num, den, 1
    # F_y^(e-1) prod_{x_i != x0} (x0 - x_i), starting from 1/F_y
    num, den, e = fy_den, fy, 0
    for R, dR in roots:
        if R == X and dR == dx:
            num, den, e = num * fy, den * fy_den, e + 1
        else:
            num, den = num * (X * dR - R * dx), den * dx * dR
    return num, den, e


def _period_product(cocycle: RationalCocycle, p: CurvePoint) -> tuple[Fraction, int]:
    """(c, k) with pairing_scalar(cocycle, p) = c^k: c is the product of the
    leading coefficients over one period O, t, ..., [n-1]t of <t>, and
    k = m/n.  See pairing_scalar for the closed forms and the checks.

    Every closed form is a quotient of integers in the points' integers
    (X, dx, Y, dy) and in _scaled; the product keeps one integer numerator
    and one denominator, and c is the one Fraction built.
    """
    curve = cocycle.curve
    curve._require(p)
    t = cocycle.t
    k = cocycle.m // len(cocycle._cycle)
    if t.is_infinity or p.is_infinity:
        return Fraction(1), k
    scale, a1, a2, a3, _, _ = curve._scaled
    Xt, dxt, Yt, dyt = t.integers
    Xp, dxp, _, _ = p.integers
    total = curve.add(t, p)
    vertical = total.is_infinity
    if vertical:
        # t + p = O, so p must be -t
        if p != curve.negate(t):
            raise NonConstantCocycleValue("t + p = O but p is not -t")
        num, den, order = 1, 1, 2
    else:
        slope = curve._slope(t, p)
        if slope is None:
            raise NonConstantCocycleValue("the pairing line does not meet E at t, p, -(t+p)")
        N, D = slope
        # L = y - lam x - nu through t, with lam = N/D and nu = y(t) - lam x(t),
        # is (alpha y - beta x - gamma) / alpha
        alpha, beta = D * dxt * dyt, N * dxt * dyt
        line = (alpha, beta, Yt * D * dxt - N * Xt * dyt)
        X3, dx3, Y3, dy3 = total.integers
        # -(t+p) = (x3, -y(t+p) - a1 x3 - a3) lies on L, and x3 is the root
        # of prod (x - x_i) that x(t) and x(p) leave: x(t) + x(p) + x3 =
        # lam^2 + a1 lam - a2
        neg = (X3, dx3, -(scale * Y3 * dx3 + dy3 * (a1 * X3 + a3 * dx3)), scale * dx3 * dy3)
        if (
            _line_numerator(line, neg)
            or (Xt * dxp * dx3 + Xp * dxt * dx3 + X3 * dxt * dxp) * scale * D * D
            != (scale * N * N + (a1 * N - a2 * D) * D) * dxt * dxp * dx3
        ):
            raise NonConstantCocycleValue("the pairing line does not meet E at t, p, -(t+p)")
        roots = ((Xt, dxt), (Xp, dxp), (X3, dx3))
        num, den, order = -1, 1, 1
    for q in cocycle._cycle[1:]:
        q = q.integers
        if vertical:
            c, d, e = _lc_vertical(curve, q, (Xt, dxt))
            num, den, order = num * d, den * c, order - e
        else:
            c, d, e = _lc_vertical(curve, q, (X3, dx3))
            f, g, h = _lc_line(curve, q, line, roots)
            num, den, order = num * c * g, den * d * f, order + e - h
    if order:
        raise NonConstantCocycleValue("the orders of the pairing function on <t> do not sum to 0")
    return Fraction(num, den), k


def pairing_scalar(cocycle: RationalCocycle, p: CurvePoint) -> Fraction:
    """The scalar b of (cocycle, p), read off the points of <t>.

    Let F = y^2 + a1 x y + a3 y - x^3 - a2 x^2 - a4 x - a6, with
    F_y = 2y + a1 x + a3 and F_x = a1 y - 3x^2 - 2 a2 x - a4, and let
    omega = dx / F_y be the invariant differential.  For a function g and a
    point Q, lc_Q(g) is the leading coefficient of g in a uniformizer whose
    differential at Q is omega.

    b is the norm N_m = prod_{k<m} (translate of f_1 by [k]t), with f_1 =
    cocycle_function at shift t: in cyclic_reduce(two_cocycle(cocycle, p))
    = prod_{i=1}^{m-1} c(i, 1), with c(i, 1) = f_i * (translate of f_1 by
    [i]t) / f_{i+1}, the f_i telescope away because f_m = f_0 = 1.  N_m is
    the constant b.  Leading coefficients multiply, and translation
    preserves omega, so b = lc_O(N_m) = prod_{k=0}^{m-1} lc_{[k]t}(f_1),
    and the orders of f_1 at the [k]t sum to 0.  The factors repeat with
    the period n = ord(t), which divides m, so b is the product over
    O, t, ..., [n-1]t raised to m/n, and the orders already sum to 0 over
    one period.

    The monic f_1 is exactly V/L with V = x - x(t+p) and L = y - lam x - nu,
    where lam is the chord or tangent slope through t and p and
    nu = y(t) - lam x(t).  If t + p = O, then f_1 = 1/(x - x(t)); if t or
    p is O, then f_1 = 1 and b = 1.  The closed forms, at O and at an
    affine Q = (x0, y0):

    - at O: lc_O(f_1) = -1 with order 1 (x ~ z^-2, y ~ -z^-3), or +1 with
      order 2 for 1/(x - x(t));
    - x - a: x0 - a if x0 != a; else F_y(Q) with order 1 if F_y(Q) != 0;
      else -F_x(Q) with order 2;
    - L: L(Q) if it is not 0; else -F_x(Q) with order 1 if F_y(Q) = 0;
      else F_y(Q)^(e-1) prod_{x_i != x0} (x0 - x_i) with order e, where e
      counts how many of x(t), x(p), x(t+p) equal x0.  This comes from
      L * (y + lam x + nu + a1 x + a3) = prod (x - x_i) on E, whose second
      factor is F_y(Q) at a zero Q of L.

    Before the product, L is checked to meet E at t, p and -(t+p), where
    t+p comes from add: L(t) = L(p) = 0 by the choice of lam and nu,
    L(-(t+p)) = 0 is checked, and so is x(t) + x(p) + x(t+p) =
    lam^2 + a1 lam - a2, the sum of the roots x_i, which makes -(t+p) the
    third intersection.  In the vertical case p = -t is checked.  Then
    div f_1 = (t+p) + (O) - (t) - (p), and with [m]t = O, which
    RationalCocycle checks, N_m is constant.  After the product the orders
    over the period must sum to 0.  Either failure raises
    NonConstantCocycleValue.
    """
    c, k = _period_product(cocycle, p)
    # for m = n, c is b, and no power is taken
    return c if k == 1 else c**k


def brauer_pairing(cocycle: RationalCocycle, p: CurvePoint, ext) -> CyclicAlgebraClass:
    """The Brauer class paired with the point p, as a cyclic algebra over ext.

    ext must be a degree-m extension descriptor; the class scalar b = c^k
    of pairing_scalar is reported raw and in m-th-power-free form.  Only the
    period product c is factored, once: b's exponents are k times c's, and
    the class reads its normal form and its primes off them.  A factoring
    refusal names the point: "pairing of (x, y): ...".
    """
    if ext.degree != cocycle.m:
        raise ValueError(
            f"extension degree {ext.degree} does not match cocycle order {cocycle.m}"
        )
    c, k = _period_product(cocycle, p)
    b = c**k
    try:
        exps = {q: e * k for q, e in rational_exponents(c).items()}
    except FactoringLimitExceeded as exc:
        raise FactoringLimitExceeded(f"pairing of {p}: {exc}") from None
    return CyclicAlgebraClass(cocycle.m, ext, b, exps)


def relative_brauer(cocycle: RationalCocycle, generators, ext) -> BrauerPresentation:
    """Image of a generating set of E(Q) under the Brauer pairing.

    generators is a sequence of (point, order) pairs, typically the
    generators of a torsion subgroup when the rank is asserted to be zero.
    Every class is decided, and the exact structure of the group they
    generate is attached for every m.
    """
    entries = []
    for point, order in generators:
        algebra = brauer_pairing(cocycle, point, ext)
        entries.append(BrauerEntry(point, order, algebra, class_status(algebra)))
    invariants = quaternion_group_invariants([e.algebra for e in entries])
    return BrauerPresentation(tuple(entries), invariants, cocycle.m)
