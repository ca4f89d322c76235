"""Rational torsion subgroups, with no factoring.

The search runs on a short integral model y^2 = x^3 + a*x + b.  For an odd
prime p of good reduction, E(Q)_tors injects into the reduction Ē(F_p)
(Silverman, AEC, VII.3.1), so its order divides B, the gcd of #Ē(F_p) over
the odd good primes below 400, counted by a table of square roots mod p;
the gcd stops at 1, or once six primes in a row leave it unchanged.  Every
torsion point there is integral (Nagell-Lutz), so for each prime l | B the
x of a point of order l^k is an integer root (local.integer_roots) of an
integer polynomial, and its y is the square root of the cubic:

- order 2: the cubic itself; order 4: x = e +- s with s^2 = 3e^2 + a, over
  the points (e, 0); order 2n from order n >= 4: the halving quartic of
  the duplication formula, while 2n | B;
- order 3: psi_3; order 9 from order 3: the numerator of x(3P) - x(Q);
- order 5 and 7: psi_5 and psi_7 (no larger prime occurs, by Mazur).

Each torsion point is a sum of its 2-primary and odd parts, with the
product of their orders.  The points are keyed by their integer (x, y) on
the short model, mapped back to the original model once each, and
assembled into a group presentation in the order of those keys: the map
back, x = u^2 x' + r and y = u^3 y' + s u^2 x' + t with u > 0, sorts the
points by (x, y) as their keys (x', y') are sorted.
"""

from __future__ import annotations

from math import gcd, isqrt

from .curve import INFINITY, CurvePoint, WeierstrassCurve, to_short_integral
from .exact import _Value
from .local import integer_roots

# the odd primes below 400, where the reduction bound looks for good primes
_BOUND_PRIMES = [p for p in range(3, 400, 2) if all(p % d for d in range(3, isqrt(p) + 1, 2))]


class TorsionGroup(_Value):
    """invariants: () trivial, (n,) cyclic, or (2, 2n); generators carry orders."""

    __slots__ = _fields = ("invariants", "generators", "elements")

    def __init__(
        self,
        invariants: tuple[int, ...],
        generators: tuple[tuple[CurvePoint, int], ...],
        elements: tuple[CurvePoint, ...],
    ):
        self._set(invariants, generators, elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def describe(self) -> str:
        if not self.invariants:
            return "trivial"
        return " x ".join(f"Z/{n}" for n in sorted(self.invariants, reverse=True))


def _order_bound(a: int, b: int) -> int:
    """A multiple of |E(Q)_tors| for y^2 = x^3 + a*x + b: the gcd of
    #Ē(F_p) = 1 + sum over x of #{y : y^2 = x^3 + a*x + b mod p}."""
    disc = 4 * a * a * a + 27 * b * b
    bound = unchanged = 0
    for p in _BOUND_PRIMES:
        if disc % p == 0:
            continue
        roots = [1] + [0] * (p - 1)
        for y in range(1, p // 2 + 1):
            roots[y * y % p] = 2
        ap, bp = a % p, b % p
        count = 1 + sum([roots[(x * x * x + ap * x + bp) % p] for x in range(p)])
        unchanged = unchanged + 1 if bound == gcd(bound, count) else 0
        bound = gcd(bound, count)
        if bound == 1 or unchanged == 6:
            break
    return bound


def _mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        for j, d in enumerate(g, i):
            out[j] += c * d
    return out


def _combine(f: list[int], s: int, g: list[int], t: int) -> list[int]:
    """s*f + t*g, f and g of equal length."""
    return [s * c + t * d for c, d in zip(f, g)]


def _points(a: int, b: int, xs, order: int) -> dict[tuple[int, int], int]:
    """{(x, +-y): order} over the integers x in xs at which x^3 + a*x + b is
    a square y^2."""
    out = {}
    for x in xs:
        v = x * x * x + a * x + b
        y = isqrt(v) if v >= 0 else -1
        if y * y == v:
            out[x, y] = out[x, -y] = order
    return out


def _two_primary(a: int, b: int, bound: int) -> dict[tuple[int, int], int]:
    """The points of 2-power order > 1 with their orders."""
    out: dict[tuple[int, int], int] = {}
    level = _points(a, b, integer_roots([b, a, 0, 1]), 2) if bound % 2 == 0 else {}
    n = 2
    while level:
        out.update(level)
        n *= 2
        if bound % n:
            break
        xs: set[int] = set()
        for e in {x for x, _ in level}:
            if n == 4:
                s2 = 3 * e * e + a
                s = isqrt(s2) if s2 >= 0 else -1
                if s * s == s2:
                    xs.update((e + s, e - s))
            else:
                xs.update(integer_roots([a * a - 4 * b * e, -8 * b - 4 * a * e, -2 * a, -4 * e, 1]))
        level = _points(a, b, xs, n)
    return out


def _odd_parts(a: int, b: int, bound: int) -> list[dict[tuple[int, int], int]]:
    """For each odd prime l | B with l <= 7, the points of l-power order
    > 1 with their orders."""
    f = [b, a, 0, 1]
    psi3 = [-a * a, 12 * b, 6 * a, 0, 3]
    g4 = [-8 * b * b - a * a * a, -4 * a * b, -5 * a * a, 20 * b, 5 * a, 0, 1]
    parts = []
    if bound % 3 == 0:
        part = _points(a, b, integer_roots(psi3), 3)
        if bound % 9 == 0 and part:
            # x(3P) = x - 8 f g4 / psi_3^2
            psi3_sq, fg4 = _mul(psi3, psi3), _mul(f, g4)
            for xq in {x for x, _ in part}:
                third = _combine(_mul([-xq, 1], psi3_sq), 1, fg4, -8)
                part.update(_points(a, b, integer_roots(third), 9))
        parts.append(part)
    if bound % 5 == 0 or bound % 7 == 0:
        f2g4, psi3_cube = _mul(_mul(f, f), g4), _mul(_mul(psi3, psi3), psi3)
        psi5 = _combine(f2g4, 32, psi3_cube, -1)
        if bound % 5 == 0:
            parts.append(_points(a, b, integer_roots(psi5), 5))
        if bound % 7 == 0:
            psi7 = _combine(_mul(psi5, psi3_cube), 1, _mul(f2g4, _mul(g4, g4)), -128)
            parts.append(_points(a, b, integer_roots(psi7), 7))
    return parts


def _direct_sum(curve: WeierstrassCurve, left: dict, right: dict) -> dict[tuple[int, int], int]:
    """{point: order} of the group spanned by two finite sets of points of
    coprime orders, each closed under addition and given without O."""
    out = {**left, **right}
    for p, n in left.items():
        for q, k in right.items():
            X, _, Y, _ = curve.add(_point(p), _point(q)).integers
            out[X, Y] = n * k
    return out


def _point(xy: tuple[int, int]) -> CurvePoint:
    return CurvePoint.from_integers(xy[0], 1, xy[1], 1)


def torsion_subgroup(curve: WeierstrassCurve) -> TorsionGroup:
    short, phi = to_short_integral(curve)
    # on an integral model _scaled holds the coefficients
    scale, _, _, _, a, b = short._scaled
    if scale != 1:
        raise ArithmeticError(f"the short model {short.equation()} is not integral")
    bound = _order_bound(a, b)
    # orders on the short model, which the isomorphism phi keeps
    orders = _two_primary(a, b, bound)
    for part in _odd_parts(a, b, bound):
        orders = _direct_sum(short, orders, part)
    rows = [(xy, phi.pull_point(_point(xy)), n) for xy, n in orders.items()]
    return _presentation(curve, rows)


def _generator(rows, order: int) -> CurvePoint:
    # deterministic pick: smallest x, then the larger of the two y values
    return min(
        (row for row in rows if row[2] == order), key=lambda row: (row[0][0], -row[0][1])
    )[1]


def _presentation(curve: WeierstrassCurve, rows) -> TorsionGroup:
    """The group of O and the affine torsion points in rows, each given as
    (key, point, order), where sorting the keys (kx, ky) sorts the points
    by (x, y); the elements come in that order, after O."""
    rows = sorted(rows, key=lambda row: row[0])
    elements = (INFINITY, *(point for _, point, _ in rows))
    n = len(elements)
    if n == 1:
        return TorsionGroup((), (), elements)
    max_order = max(order for _, _, order in rows)
    g1 = _generator(rows, max_order)
    if max_order == n:
        if n not in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12):
            raise ArithmeticError(f"cyclic torsion of order {n} is impossible over Q")
        return TorsionGroup((n,), ((g1, n),), elements)
    if n != 2 * max_order or max_order not in (2, 4, 6, 8):
        raise ArithmeticError(f"torsion of order {n} with exponent {max_order} is impossible over Q")
    # the only point of order 2 in <g1>
    half = curve.multiply(max_order // 2, g1)
    g2 = _generator([row for row in rows if row[1] != half], 2)
    return TorsionGroup((2, max_order), ((g1, max_order), (g2, 2)), elements)
