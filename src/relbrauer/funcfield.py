"""Exact arithmetic in the function field Q(E) of a Weierstrass curve.

Every element is kept in the canonical form (A(x) + B(x)*y) / D(x) with D
monic and gcd(gcd(A, B), D) = 1; y^2 is eliminated through the curve equation
whenever it appears, so {1, y} is a basis and representatives are unique.
Inversion multiplies by the y-conjugate to push the denominator into Q[x].
"""

from __future__ import annotations

from fractions import Fraction

from .curve import CurvePoint, WeierstrassCurve
from .exact import Poly, poly_gcd


class DivisionByZeroFunction(Exception):
    pass


class _Special:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


POLE = _Special("Pole")
INDETERMINATE = _Special("Indeterminate")


def _rhs_poly(curve: WeierstrassCurve) -> Poly:
    # x^3 + a2 x^2 + a4 x + a6
    return Poly((curve.a6, curve.a4, curve.a2, 1))


def _ycoef_poly(curve: WeierstrassCurve) -> Poly:
    # a1 x + a3; the curve equation reads y^2 = rhs(x) - ycoef(x) * y
    return Poly((curve.a3, curve.a1))


class EllFn:
    """An element of Q(E), canonicalized on construction."""

    __slots__ = ("curve", "a", "b", "d")

    def __init__(self, curve: WeierstrassCurve, a=0, b=0, d=1):
        polys = []
        for v in (a, b, d):
            poly = Poly._coerce(v)
            if poly is None:
                raise TypeError(f"cannot use {v!r} as a polynomial")
            polys.append(poly)
        a, b, d = polys
        if d.is_zero:
            raise ValueError("denominator polynomial is zero")
        g = poly_gcd(poly_gcd(a, b), d)
        if g.degree > 0:
            a, b, d = a // g, b // g, d // g
        if a.is_zero and b.is_zero:
            d = Poly((1,))
        else:
            lead = d.lc
            if lead != 1:
                inv = 1 / lead
                a, b, d = a * inv, b * inv, d * inv
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("EllFn is immutable")

    @classmethod
    def coordinate_x(cls, curve: WeierstrassCurve) -> "EllFn":
        return cls(curve, Poly((0, 1)))

    @classmethod
    def coordinate_y(cls, curve: WeierstrassCurve) -> "EllFn":
        return cls(curve, 0, Poly((1,)))

    @classmethod
    def const(cls, curve: WeierstrassCurve, value) -> "EllFn":
        return cls(curve, Poly((value,)))

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero

    def _coerce(self, other) -> "EllFn | None":
        if isinstance(other, EllFn):
            if other.curve != self.curve:
                raise ValueError("functions live on different curves")
            return other
        if isinstance(other, (int, Fraction)):
            return EllFn.const(self.curve, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return EllFn(
            self.curve,
            self.a * other.d + other.a * self.d,
            self.b * other.d + other.b * self.d,
            self.d * other.d,
        )

    __radd__ = __add__

    def __neg__(self):
        return EllFn(self.curve, -self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return EllFn(self.curve, self.a * other, self.b * other, self.d)
        if not isinstance(other, EllFn):
            return NotImplemented
        if other.curve != self.curve:
            raise ValueError("functions live on different curves")
        rhs = _rhs_poly(self.curve)
        h = _ycoef_poly(self.curve)
        bb = self.b * other.b
        return EllFn(
            self.curve,
            self.a * other.a + bb * rhs,
            self.a * other.b + other.a * self.b - bb * h,
            self.d * other.d,
        )

    __rmul__ = __mul__

    def numerator_norm(self) -> Poly:
        """(A + B y)(A + B ybar) as a polynomial in x."""
        h = _ycoef_poly(self.curve)
        return self.a * self.a - self.a * self.b * h - self.b * self.b * _rhs_poly(self.curve)

    def inverse(self) -> "EllFn":
        if self.is_zero:
            raise DivisionByZeroFunction("inverse of the zero function")
        h = _ycoef_poly(self.curve)
        return EllFn(
            self.curve,
            self.d * (self.a - self.b * h),
            -(self.d * self.b),
            self.numerator_norm(),
        )

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZeroFunction("division by zero constant")
            return self * (1 / Fraction(other))
        if not isinstance(other, EllFn):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self.inverse() if n < 0 else self
        out = EllFn.const(self.curve, 1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = EllFn.const(self.curve, other)
        if not isinstance(other, EllFn):
            return NotImplemented
        return (
            self.curve == other.curve
            and self.a == other.a
            and self.b == other.b
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.curve, self.a, self.b, self.d))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"EllFn(a={self.a!r}, b={self.b!r}, d={self.d!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        num_parts = []
        if not self.a.is_zero:
            num_parts.append(str(self.a))
        if not self.b.is_zero:
            bs = str(self.b)
            if bs == "1":
                num_parts.append("y")
            elif bs == "-1":
                num_parts.append("-y")
            elif self.b.degree == 0:
                num_parts.append(f"{bs}*y")
            else:
                num_parts.append(f"({bs})*y")
        num = " + ".join(num_parts).replace("+ -", "- ")
        if self.d == Poly((1,)):
            return num
        return f"({num})/({self.d})"

    def is_constant(self) -> Fraction | None:
        """The constant value, or None when nonconstant."""
        if self.b.is_zero and self.a.degree <= 0 and self.d.degree == 0:
            return self.a(Fraction(0)) if not self.a.is_zero else Fraction(0)
        return None

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the numerator term dominating at infinity.

        Pole orders at infinity weight x as 2 and y as 3, so the A- and
        B-parts never tie; the denominator is monic by canonical form.
        """
        if self.is_zero:
            raise DivisionByZeroFunction("zero function has no leading coefficient")
        if self.b.is_zero:
            return self.a.lc
        if self.a.is_zero:
            return self.b.lc
        return self.a.lc if 2 * self.a.degree > 2 * self.b.degree + 3 else self.b.lc

    def monic(self) -> "EllFn":
        """The unique constant multiple with leading_coefficient 1."""
        return self * (1 / self.leading_coefficient())

    def evaluate(self, point: CurvePoint):
        """Exact value at a point: a Fraction, POLE, or INDETERMINATE.

        At an apparent 0/0 the numerator is multiplied by its y-conjugate,
        which turns point-supported common factors into polynomial ones that
        cancel against the denominator; a 0/0 surviving that retry comes back
        INDETERMINATE (callers should evaluate elsewhere).
        """
        self.curve._require(point)
        if point.is_infinity:
            if self.is_zero:
                return Fraction(0)
            weights = []
            if not self.a.is_zero:
                weights.append(2 * self.a.degree)
            if not self.b.is_zero:
                weights.append(2 * self.b.degree + 3)
            wnum = max(weights)
            wden = 2 * self.d.degree
            if wnum < wden:
                return Fraction(0)
            if wnum > wden:
                return POLE
            return self.a.lc / self.d.lc
        xv, yv = point.x, point.y
        num = self.a(xv) + self.b(xv) * yv
        den = self.d(xv)
        if den != 0:
            return num / den
        if num != 0:
            return POLE
        norm = self.numerator_norm()
        g = poly_gcd(norm, self.d)
        n1, d1 = norm // g, self.d // g
        h = _ycoef_poly(self.curve)
        conj = self.a(xv) - self.b(xv) * h(xv) - self.b(xv) * yv
        den2 = d1(xv) * conj
        num2 = n1(xv)
        if den2 != 0:
            return num2 / den2
        if num2 != 0:
            return POLE
        return INDETERMINATE

    def translate(self, q: CurvePoint) -> "EllFn":
        """Pullback under the translation P -> P - q.

        P - q is P + b with b = -q, by the chord-tangent law (Silverman,
        AEC, III.2.3) in EllFn arithmetic: with lam = (y - y_b) / (x - x_b),

            x' = lam (lam + a1) - x - a2 - x_b,
            y' = lam (x - x') - y - a1 x' - a3,

        and the pullback is (A(x') + B(x') y') / D(x'), each polynomial
        evaluated by Horner's rule.
        """
        c = self.curve
        c._require(q)
        if q.is_infinity:
            return self
        b = c.negate(q)
        x, y = EllFn.coordinate_x(c), EllFn.coordinate_y(c)
        lam = (y - b.y) / (x - b.x)
        xs = lam * (lam + c.a1) - x - (c.a2 + b.x)
        ys = lam * (x - xs) - y - (c.a1 * xs + c.a3)

        def at_xs(poly):
            out = EllFn.const(c, 0)
            for coeff in reversed(poly.coeffs):
                out = out * xs + coeff
            return out

        return (at_xs(self.a) + at_xs(self.b) * ys) / at_xs(self.d)
