"""Rational torsion subgroups.

Candidates come from the integrality theorem (Nagell-Lutz) on a short
integral model: a torsion point there has integer coordinates with y = 0 or
y^2 dividing the discriminant.  A y whose square is no value of the cubic
modulo some small prime is dropped before a6 - y^2 is factored.  Every
multiple of a torsion point is integral too, so a candidate's multiples are
added only until one has a denominator or the order exceeds 12 (Mazur's
bound).  The points found, with the orders read off their multiples, are
mapped back to the original model and assembled into a group presentation.
"""

from __future__ import annotations

from math import gcd, isqrt

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


# moduli of the sieve on y; on the curves in the tests, 2 and 3 drop no y
# that these keep
_SIEVE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def _sieve(ys, a4: int, a6: int) -> list[int]:
    """The y in ys such that y^2 = x^3 + a4*x + a6 has a root x modulo each
    sieve prime; the others cannot lie on an integral point."""
    ys = list(ys)
    for q in _SIEVE_PRIMES:
        values = {(x * x * x + a4 * x + a6) % q for x in range(q)}
        allowed = {y for y in range(q) if y * y % q in values}
        if len(allowed) < q:
            ys = [y for y in ys if y % q in allowed]
            if not ys:
                break
    return ys


def _multiples_if_torsion(short: WeierstrassCurve, p: CurvePoint) -> list[CurvePoint] | None:
    """[p, 2p, ..., (n-1)p] when p has order n <= ORDER_BOUND on the short
    integral model, else None.

    Every multiple of a torsion point there is integral (Nagell-Lutz), so
    the first multiple with a denominator proves infinite order.
    """
    multiples = [p]
    q = short.add(p, p)
    while not q.is_infinity:
        if q.x.denominator != 1 or len(multiples) == ORDER_BOUND - 1:
            return None
        multiples.append(q)
        q = short.add(q, p)
    return multiples


def torsion_subgroup(curve: WeierstrassCurve) -> TorsionGroup:
    short, phi = to_short_integral(curve)
    # on an integral model _scaled holds the coefficients and _disc is the
    # integer discriminant
    scale, _, _, _, a4, a6 = short._scaled
    if scale != 1:
        raise ArithmeticError(f"the short model {short.equation()} is not integral")
    # orders on the short model, which the isomorphism phi keeps
    orders: dict[CurvePoint, int] = {}
    for y in _sieve(_square_divisor_roots(short._disc), a4, a6):
        for x in _integer_roots_depressed_cubic(a4, a6 - y * y):
            p = CurvePoint.affine(x, y)
            if p in orders:
                continue
            multiples = _multiples_if_torsion(short, p)
            if multiples is not None:
                # the multiples of p include -p; kp has order n / gcd(k, n)
                n = len(multiples) + 1
                for k, q in enumerate(multiples, 1):
                    orders[q] = n // gcd(k, n)
    pulled = {phi.pull_point(p): n for p, n in orders.items()}
    elements = (INFINITY, *sorted(pulled, key=lambda p: (p.x, p.y)))
    pulled[INFINITY] = 1
    return _presentation(curve, elements, pulled)


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
    # the only point of order 2 in <g1>
    half = curve.multiply(max_order // 2, g1)
    complement = sorted(
        (p for p in elements if orders[p] == 2 and p != half),
        key=_generator_key,
    )
    g2 = complement[0]
    return TorsionGroup((2, max_order), ((g1, max_order), (g2, 2)), elements)
