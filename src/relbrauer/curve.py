"""Weierstrass models over Q.

Full five-coefficient models y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6,
the chord-tangent group law, point orders, and admissible changes of
variables down to a short integral model.  A point holds its coordinates as
integers, x = X/dx and y = Y/dy in lowest terms, and builds the Fractions x
and y only when they are asked for.  The group law, the membership test and
the pull back from the short model run on those integers and on the
coefficients scaled to integers (WeierstrassCurve._scaled); each coordinate
of a sum is reduced by one gcd.  The invariants run on the weighted integral
model L*a1, L^2*a2, L^3*a3, L^4*a4, L^6*a6, with L the common denominator:
its discriminant decides singularity, and its c4 and c6 give the short
integral model in one step (Silverman, AEC, III.1; Cremona, Algorithms for
Modular Elliptic Curves, 3.1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .exact import _Value, factor, split_prime_power


class SingularCurve(Exception):
    """The discriminant vanishes, so there is no group law to work with."""


class PointNotOnCurve(Exception):
    pass


class CurvePoint(_Value):
    """A rational point: affine coordinates, or the point at infinity (None, None).

    The property integers is (X, dx, Y, dy) for the point x = X/dx,
    y = Y/dy, each in lowest terms with dx, dy > 0, or None at infinity;
    from_integers builds a point from four integers in any form and reduces
    them, while _of, used only in this module, takes them as they are.
    Equality compares the integers.  The properties x and y are Fractions
    built from them on first access and kept, and the hash is that of
    (x, y).
    """

    __slots__ = ("_c", "_x", "_y")
    _fields = ("x", "y")

    def __init__(self, x: Fraction | None = None, y: Fraction | None = None):
        if (x is None) != (y is None):
            raise ValueError("affine points need both coordinates")
        if x is None:
            self._set(None, None, None)
        else:
            x, y = Fraction(x), Fraction(y)
            self._set((x.numerator, x.denominator, y.numerator, y.denominator), x, y)

    @staticmethod
    def affine(x, y) -> "CurvePoint":
        return CurvePoint(Fraction(x), Fraction(y))

    @staticmethod
    def from_integers(X: int, dx: int, Y: int, dy: int) -> "CurvePoint":
        """The affine point (X/dx, Y/dy), for integers with dx, dy nonzero,
        each coordinate brought to lowest terms with a positive denominator."""
        if not dx or not dy:
            raise ZeroDivisionError("a coordinate has denominator 0")
        g, h = gcd(X, dx), gcd(Y, dy)
        if dx < 0:
            g = -g
        if dy < 0:
            h = -h
        return CurvePoint._of(X // g, dx // g, Y // h, dy // h)

    @staticmethod
    def _of(X: int, dx: int, Y: int, dy: int) -> "CurvePoint":
        """The affine point (X/dx, Y/dy) of integers in lowest terms with
        dx, dy > 0, which it takes as they are."""
        p = _new(CurvePoint)
        _set_c(p, (X, dx, Y, dy))
        return p

    @property
    def x(self) -> Fraction | None:
        try:
            return self._x
        except AttributeError:
            X, dx, _, _ = self._c
            object.__setattr__(self, "_x", Fraction(X, dx))
            return self._x

    @property
    def y(self) -> Fraction | None:
        try:
            return self._y
        except AttributeError:
            _, _, Y, dy = self._c
            object.__setattr__(self, "_y", Fraction(Y, dy))
            return self._y

    integers = property(
        attrgetter("_c"),
        doc="(X, dx, Y, dy) with x = X/dx and y = Y/dy in lowest terms and "
        "dx, dy > 0, or None at infinity.",
    )

    @property
    def is_infinity(self) -> bool:
        return self._c is None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash((self.x, self.y))

    def __str__(self):
        if self.is_infinity:
            return "O"
        return f"({self.x}, {self.y})"


_new = object.__new__
_set_c = CurvePoint._c.__set__

INFINITY = CurvePoint()

# Mazur: a rational torsion point has order at most 12
ORDER_BOUND = 12


def equation_text(a1: str, a2: str, a3: str, a4: str, a6: str) -> str:
    """The equation of the model whose coefficients are written as the
    strings str(Fraction), e.g. 'y^2 + y = x^3 - x^2 - 10*x - 20'."""

    def side(head, terms):
        for coeff, sym in terms:
            if coeff != "0":
                mag = coeff.lstrip("-")
                if sym:
                    mag = sym if mag == "1" else f"{mag}*{sym}"
                head += (" - " if coeff.startswith("-") else " + ") + mag
        return head

    lhs = side("y^2", [(a1, "x*y"), (a3, "y")])
    return f"{lhs} = {side('x^3', [(a2, 'x^2'), (a4, 'x'), (a6, '')])}"


def _integral_b(scaled: tuple[int, ...]) -> tuple[int, int, int, int]:
    """b2, b4, b6, b8 of the integral model L*a1, L^2*a2, L^3*a3, L^4*a4,
    L^6*a6, from _scaled = (L, L*a1, ..., L*a6)."""
    scale, a1, a2, a3, a4, a6 = scaled
    s2 = scale * scale
    a2, a3, a4, a6 = scale * a2, s2 * a3, s2 * scale * a4, s2 * s2 * scale * a6
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


class WeierstrassCurve(_Value):
    """A Weierstrass model over Q.

    _scaled holds (L, L*a1, L*a2, L*a3, L*a4, L*a6) as integers, with L the
    least common denominator of the coefficients, for is_on_curve, add and
    chord_slope, which compute on it and on the coordinates' numerators and
    denominators.  Weighting a_i by L^i instead gives the integral model
    L*a1, L^2*a2, L^3*a3, L^4*a4, L^6*a6 (the change of variables with
    u = 1/L); its b-invariants are L^2*b2, L^4*b4, L^6*b6, L^8*b8, and _disc
    holds its discriminant, the integer L^12 * discriminant().  Neither slot
    is compared.
    """

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "_scaled", "_disc")
    _fields = __slots__[:5]

    def __init__(self, a1: Fraction, a2: Fraction, a3: Fraction, a4: Fraction, a6: Fraction):
        coeffs = tuple(map(Fraction, (a1, a2, a3, a4, a6)))
        scale = lcm(*(a.denominator for a in coeffs))
        scaled = (scale, *(a.numerator * (scale // a.denominator) for a in coeffs))
        b2, b4, b6, b8 = _integral_b(scaled)
        self._set(*coeffs, scaled, -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6)
        if not self._disc:
            raise SingularCurve(f"discriminant vanishes for {self.equation()}")

    def b_invariants(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        b2, b4, b6, b8 = _integral_b(self._scaled)
        l2 = self._scaled[0] ** 2
        return Fraction(b2, l2), Fraction(b4, l2**2), Fraction(b6, l2**3), Fraction(b8, l2**4)

    def discriminant(self) -> Fraction:
        return Fraction(self._disc, self._scaled[0] ** 12)

    def equation(self) -> str:
        return equation_text(*(str(a) for a in (self.a1, self.a2, self.a3, self.a4, self.a6)))

    def is_on_curve(self, p: CurvePoint) -> bool:
        """Whether p satisfies the curve equation.

        With x = X/dx, y = Y/dy and the coefficients scaled to integers,
        the equation times dx^3 dy^2 is an identity between integers.
        """
        c = p._c
        if c is None:
            return True
        X, dx, Y, dy = c
        scale, a1, a2, a3, a4, a6 = self._scaled
        dx2 = dx * dx
        lhs = scale * Y * Y * dx2 * dx + Y * dy * dx2 * (a1 * X + a3 * dx)
        rhs = dy * dy * (scale * X * X * X + dx * (a2 * X * X + dx * (a4 * X + a6 * dx)))
        return lhs == rhs

    def _require(self, p: CurvePoint) -> None:
        if not self.is_on_curve(p):
            raise PointNotOnCurve(f"{p} does not satisfy {self.equation()}")

    def negate(self, p: CurvePoint) -> CurvePoint:
        """-p = (x, -y - a1 x - a3), its y over scale dx dy and reduced."""
        self._require(p)
        if p.is_infinity:
            return INFINITY
        X, dx, Y, dy = p._c
        scale, a1, _, a3, _, _ = self._scaled
        num = -(scale * Y * dx + dy * (a1 * X + a3 * dx))
        den = scale * dx * dy
        g = gcd(num, den)
        return CurvePoint._of(X, dx, num // g, den // g)

    def _slope(self, p: CurvePoint, q: CurvePoint) -> tuple[int, int] | None:
        """The slope of chord_slope as (N, D) in lowest terms with D > 0, or None.

        With x = X/dx and y = Y/dy, the chord slope is
        (Y2 dy1 - Y1 dy2) dx1 dx2 / ((X2 dx1 - X1 dx2) dy1 dy2).  The tangent
        slope (3x^2 + 2 a2 x + a4 - a1 y) / (2y + a1 x + a3), with both terms
        multiplied by scale dx^2 dy, is a quotient of integers in the scaled
        coefficients.  Reducing the quotient takes one gcd.
        """
        X1, dx1, Y1, dy1 = p._c
        X2, dx2, Y2, dy2 = q._c
        if X1 != X2 or dx1 != dx2:
            num = (Y2 * dy1 - Y1 * dy2) * dx1 * dx2
            den = (X2 * dx1 - X1 * dx2) * dy1 * dy2
        elif Y1 != Y2 or dy1 != dy2:
            # same x and a different y: on the curve, q = -p
            return None
        else:
            scale, a1, a2, a3, a4, _ = self._scaled
            dxx = dx1 * dx1
            num = dy1 * (X1 * (3 * scale * X1 + 2 * a2 * dx1) + a4 * dxx) - a1 * Y1 * dxx
            den = dx1 * (2 * scale * Y1 * dx1 + (a1 * X1 + a3 * dx1) * dy1)
            if not den:
                return None
        g = gcd(num, den)
        if den < 0:
            g = -g
        return num // g, den // g

    def chord_slope(self, p: CurvePoint, q: CurvePoint) -> Fraction | None:
        """Slope of the line through the affine points p and q of the curve,
        the tangent when p = q, or None when that line is vertical (q = -p)."""
        slope = self._slope(p, q)
        return None if slope is None else Fraction(*slope)

    def add(self, p: CurvePoint, q: CurvePoint) -> CurvePoint:
        """p + q by the chord-tangent law (Silverman, AEC, III.2.3), on the
        integers of the coordinates and of _scaled, with the slope N/D:

            x3 = (N/D)^2 + a1 N/D - a2 - x1 - x2,
            y3 = (N/D)(x1 - x3) - y1 - a1 x3 - a3,

        each over one positive common denominator and reduced by one gcd.
        """
        self._require(p)
        self._require(q)
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        slope = self._slope(p, q)
        if slope is None:
            return INFINITY
        N, D = slope
        scale, a1, a2, a3, _, _ = self._scaled
        X1, dx1, Y1, dy1 = p._c
        X2, dx2, _, _ = q._c
        sD2 = scale * D * D
        num = (scale * N * N + (a1 * N - a2 * D) * D) * dx1 * dx2 - sD2 * (X1 * dx2 + X2 * dx1)
        den = sD2 * dx1 * dx2
        g = gcd(num, den)
        X3, dx3 = num // g, den // g
        sD = scale * D
        num = (dy1 * (scale * N * (X1 * dx3 - X3 * dx1) - D * dx1 * (a1 * X3 + a3 * dx3))
               - sD * dx1 * dx3 * Y1)
        den = sD * dx1 * dx3 * dy1
        g = gcd(num, den)
        return CurvePoint._of(X3, dx3, num // g, den // g)

    def multiply(self, n: int, p: CurvePoint) -> CurvePoint:
        """[n]p, by doubling from the lowest set bit of n: floor(log2 n) +
        popcount(n) - 1 adds for n >= 1."""
        self._require(p)
        if n < 0:
            return self.multiply(-n, self.negate(p))
        if n == 0:
            return INFINITY
        addend = p
        while not n & 1:
            addend = self.add(addend, addend)
            n >>= 1
        result = addend
        n >>= 1
        while n:
            addend = self.add(addend, addend)
            if n & 1:
                result = self.add(result, addend)
            n >>= 1
        return result

    def point_order(self, p: CurvePoint, bound: int = ORDER_BOUND) -> int | None:
        """Smallest n >= 1 with n*p = O, or None if it exceeds bound."""
        self._require(p)
        q = p
        for n in range(1, bound + 1):
            if q.is_infinity:
                return n
            if n < bound:
                q = self.add(q, p)
        return None


class ModelMap(_Value):
    """Admissible change of variables x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    The substitution expresses source coordinates (x, y) through target
    coordinates (x', y'); push_point carries source points to the target
    model, pull_point carries them back.
    """

    __slots__ = _fields = ("u", "r", "s", "t")

    def __init__(self, u: Fraction, r: Fraction, s: Fraction, t: Fraction):
        u, r, s, t = map(Fraction, (u, r, s, t))
        if u == 0:
            raise ValueError("scaling factor u must be nonzero")
        self._set(u, r, s, t)

    def push_point(self, p: CurvePoint) -> CurvePoint:
        if p.is_infinity:
            return INFINITY
        xp = (p.x - self.r) / self.u**2
        yp = (p.y - self.s * (p.x - self.r) - self.t) / self.u**3
        return CurvePoint(xp, yp)

    def pull_point(self, p: CurvePoint) -> CurvePoint:
        if p.is_infinity:
            return INFINITY
        # x = u^2 x' + r and y = u^3 y' + s u^2 x' + t on numerators and
        # denominators, each coordinate over a positive denominator and
        # reduced by one gcd
        un, ud = self.u.numerator, self.u.denominator
        rn, rd = self.r.numerator, self.r.denominator
        sn, sd = self.s.numerator, self.s.denominator
        tn, td = self.t.numerator, self.t.denominator
        a, b, c, d = p._c
        u2n, u2d = un * un, ud * ud
        num, den = u2n * a * rd + rn * u2d * b, u2d * b * rd
        g = gcd(num, den)
        X, dx = num // g, den // g
        num = (un * c * sd * b + sn * a * ud * d) * u2n * td + tn * ud * u2d * sd * b * d
        den = ud * u2d * sd * td * b * d
        g = gcd(num, den)
        return CurvePoint._of(X, dx, num // g, den // g)

    def transform_curve(self, c: WeierstrassCurve) -> WeierstrassCurve:
        u, r, s, t = self.u, self.r, self.s, self.t
        a1 = (c.a1 + 2 * s) / u
        a2 = (c.a2 - s * c.a1 + 3 * r - s * s) / u**2
        a3 = (c.a3 + r * c.a1 + 2 * t) / u**3
        a4 = (c.a4 - s * c.a3 + 2 * r * c.a2 - (t + r * s) * c.a1 + 3 * r * r - 2 * s * t) / u**4
        a6 = (c.a6 + r * c.a4 + r * r * c.a2 + r**3 - t * c.a3 - t * t - r * t * c.a1) / u**6
        return WeierstrassCurve(a1, a2, a3, a4, a6)

    def then(self, second: "ModelMap") -> "ModelMap":
        """The composite map: apply self first, then second."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = second.u, second.r, second.s, second.t
        return ModelMap(
            u1 * u2,
            r1 + u1**2 * r2,
            s1 + u1 * s2,
            t1 + u1**2 * s1 * r2 + u1**3 * t2,
        )

    def inverse(self) -> "ModelMap":
        u, r, s, t = self.u, self.r, self.s, self.t
        return ModelMap(1 / u, -r / u**2, -s / u, (r * s - t) / u**3)


IDENTITY_MAP = ModelMap(1, 0, 0, 0)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def to_short_integral(c: WeierstrassCurve) -> tuple[WeierstrassCurve, ModelMap]:
    """Transform to y^2 = x^3 + A x + B with integer A, B.

    Returns (short_curve, phi) where phi.push_point maps points of c onto the
    short model.  Already-short integral curves come back equal, with the
    identity map.

    With c4 = b2^2 - 24 b4 and c6 = -b2^3 + 36 b2 b4 - 216 b6 of the integral
    model in _scaled (Silverman, AEC, III.1), completing the square and the
    cube (s = -a1/2, then r = -b2/12) gives y^2 = x^3 - c4/(48 L^4) x -
    c6/(864 L^6).  Scaling by u = 1/v, with v the least integer whose p-adic
    valuation clears both denominators at each of their primes p, makes A
    and B integers.  Those primes divide 6 L: the valuations at 2 and 3 are
    split off, and only a cofactor left above 1 is factored, so an integral
    model factors nothing.  Composed, the map is (1/v, r, s, -a3/2 + s r).
    """
    scale, a1, _, a3, _, _ = c._scaled
    b2, b4, b6, _ = _integral_b(c._scaled)
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    l2 = scale * scale
    den4, den6 = 48 * l2 * l2, 864 * l2 * l2 * l2
    # the denominators of -c4/den4 and -c6/den6, whose primes divide 6 L
    d4, d6 = den4 // gcd(c4, den4), den6 // gcd(c6, den6)
    v = 1
    for p in (2, 3):
        (e4, d4), (e6, d6) = split_prime_power(d4, p), split_prime_power(d6, p)
        v *= p ** max(_ceil_div(e4, 4), _ceil_div(e6, 6))
    # what is left of d4 and d6 is prime to 6 and divides a power of L
    v4, v6 = ({} if d == 1 else factor(d)[1] for d in (d4, d6))
    for p in v4.keys() | v6.keys():
        v *= p ** max(_ceil_div(v4.get(p, 0), 4), _ceil_div(v6.get(p, 0), 6))
    v2 = v * v
    A, rest4 = divmod(-c4 * v2 * v2, den4)
    B, rest6 = divmod(-c6 * v2 * v2 * v2, den6)
    if rest4 or rest6:
        raise ArithmeticError(f"the short model of {c.equation()} is not integral")
    # s = -a1/2, r = -b2/12 and t = -a3/2 + s r, over 2L, 12 L^2 and 24 L^3
    phi = ModelMap(
        Fraction(1, v),
        Fraction(-b2, 12 * l2),
        Fraction(-a1, 2 * scale),
        Fraction(a1 * b2 - 12 * l2 * a3, 24 * l2 * scale),
    )
    return WeierstrassCurve(0, 0, 0, A, B), phi
