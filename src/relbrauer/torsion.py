"""Rational torsion subgroups.

Candidates come from the integrality theorem on a short integral model:
a torsion point there has integer coordinates with y = 0 or y^2 dividing the
discriminant.  Survivors of an order check (<= 12, Mazur's bound) are
mapped back to the original model and assembled into a group presentation.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .curve import INFINITY, ORDER_BOUND, CurvePoint, WeierstrassCurve, to_short_integral
from .exact import _Value, divisors, factor


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


def _integer_roots_depressed_cubic(a4: int, c: int) -> set[int]:
    """Integer roots of x^3 + a4*x + c."""
    roots: set[int] = set()
    if c == 0:
        roots.add(0)
        if a4 <= 0:
            s = isqrt(-a4)
            if s * s == -a4:
                roots.update((s, -s))
        return roots
    for d in divisors(factor(c)[1]):
        for x in (d, -d):
            if x**3 + a4 * x + c == 0:
                roots.add(x)
    return roots


def _square_divisor_roots(disc: int) -> set[int]:
    """All y >= 0 with y^2 dividing |disc|."""
    ys = {0, 1}
    base = [(p, e // 2) for p, e in factor(disc)[1].items() if e >= 2]
    stack = [(0, 1)]
    while stack:
        i, val = stack.pop()
        if i == len(base):
            ys.add(val)
            continue
        p, half = base[i]
        v = 1
        for _ in range(half + 1):
            stack.append((i + 1, val * v))
            v *= p
    return ys


def torsion_subgroup(curve: WeierstrassCurve) -> TorsionGroup:
    short, phi = to_short_integral(curve)
    a4 = int(short.a4)
    a6 = int(short.a6)
    disc = short.discriminant()
    assert disc.denominator == 1
    found: set[CurvePoint] = set()
    for y in _square_divisor_roots(int(disc)):
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


def _generator_key(p: CurvePoint):
    # deterministic pick: smallest x, then the larger of the two y values
    return (p.x, -p.y)


def _presentation(
    curve: WeierstrassCurve,
    elements: tuple[CurvePoint, ...],
    orders: dict[CurvePoint, int],
) -> TorsionGroup:
    n = len(elements)
    if n == 1:
        return TorsionGroup((), (), elements)
    max_order = max(orders.values())
    top = sorted((p for p in elements if orders[p] == max_order), key=_generator_key)
    g1 = top[0]
    if max_order == n:
        if n not in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12):
            raise ArithmeticError(f"cyclic torsion of order {n} is impossible over Q")
        return TorsionGroup((n,), ((g1, n),), elements)
    if n != 2 * max_order or max_order not in (2, 4, 6, 8):
        raise ArithmeticError(f"torsion of order {n} with exponent {max_order} is impossible over Q")
    cyclic_part = set()
    q = INFINITY
    for _ in range(max_order):
        cyclic_part.add(q)
        q = curve.add(q, g1)
    complement = sorted(
        (p for p in elements if orders[p] == 2 and p not in cyclic_part),
        key=_generator_key,
    )
    g2 = complement[0]
    return TorsionGroup((2, max_order), ((g1, max_order), (g2, 2)), elements)
