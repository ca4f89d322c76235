"""Slow reference checks that only the tests use.

Each is an independent route to a fact the pipeline computes another way:
zeros and poles of a function by evaluation, equality of quaternion
classes by Hilbert symbols, the pairing scalar as the norm of a function
and by its closed forms in Fraction arithmetic, the group law, the
invariants, the short integral model and the pull back of a point in
Fraction arithmetic, the rational torsion subgroup by the Nagell-Lutz
search over the y with y^2 dividing the discriminant, the cyclotomic
descriptor by a breadth-first closure with a closure check and a gcd per
member and by a walk of H by cosets, and m-th powers of rationals by
integer Newton roots.  seeded_models gives the curves and points the
Fraction oracles are compared on.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

from relbrauer import (
    INDETERMINATE,
    POLE,
    DivisionByZeroFunction,
    NonConstantCocycleValue,
    cocycle_function,
    quaternion_is_split,
)
from relbrauer.brauer import _unit_generators
from relbrauer.curve import (
    INFINITY,
    ORDER_BOUND,
    CurvePoint,
    ModelMap,
    WeierstrassCurve,
    to_short_integral,
)
from relbrauer.exact import factor
from relbrauer.torsion import _presentation


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


def divisors(factorization):
    """All positive divisors of the factored integer, ascending."""
    divs = [1]
    for p, e in factorization.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _integer_roots_depressed_cubic(a4, c):
    """Integer roots of x^3 + a4*x + c, by the divisors of c."""
    roots = set()
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


def _square_divisor_roots(disc):
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


# moduli of the sieve on y
_SIEVE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def _sieve(ys, a4, a6):
    """The y in ys such that y^2 = x^3 + a4*x + a6 has a root x modulo each
    sieve prime; the others cannot lie on an integral point."""
    ys = list(ys)
    for q in _SIEVE_PRIMES:
        values = {(x * x * x + a4 * x + a6) % q for x in range(q)}
        ys = [y for y in ys if y * y % q in values]
    return ys


def torsion_subgroup_by_full_search(curve):
    """The rational torsion subgroup by the Nagell-Lutz search.

    On the short integral model, factor a6 - y^2 for every y with y = 0 or
    y^2 dividing the discriminant that a sieve modulo small primes keeps,
    try every divisor as x, and keep the points whose order there is at
    most 12; then read every order again on the original model, and sort
    the points by their Fraction (x, y) there.
    """
    short, phi = to_short_integral(curve)
    a4 = int(short.a4)
    a6 = int(short.a6)
    found = set()
    for y in _sieve(_square_divisor_roots(int(short.discriminant())), a4, a6):
        for x in _integer_roots_depressed_cubic(a4, a6 - y * y):
            p = CurvePoint.affine(x, y)
            if short.point_order(p, ORDER_BOUND) is not None:
                found.add(p)
                found.add(short.negate(p))
    pulled = [phi.pull_point(p) for p in found]
    rows = [((p.x, p.y), p, curve.point_order(p, ORDER_BOUND)) for p in pulled]
    return _presentation(curve, rows)


TORSION_CURVES = [
    (0, -1, 1, -10, -20),  # E1, Z/5
    (1, 1, 1, -10, -10),  # E2, Z/4 x Z/2
    (1, -1, 1, -3, 3),  # 26b1, Z/7
    (1, -1, 1, -14, 29),  # 54b3, Z/9
    (1, -1, 1, -122, 1721),  # 90c3, Z/12
    (0, 0, 0, -1, 0),  # y^2 = x^3 - x, Z/2 x Z/2
]


def seeded_models():
    """Each torsion curve on its own model, then 40 seeded models with
    fractional a1 ... a6, each with its torsion points and a few multiples of
    a point of infinite order where the curve has one at hand."""
    from relbrauer import torsion_subgroup

    rng = random.Random(10)

    def rat():
        return Fraction(rng.randint(-30, 30), rng.randint(2, 9))

    bases = []
    for coeffs in TORSION_CURVES:
        base = WeierstrassCurve(*coeffs)
        bases.append((base, list(torsion_subgroup(base).elements)))
    rank_one = WeierstrassCurve(0, 0, 0, -2, 2)
    p = CurvePoint(Fraction(1), Fraction(1))
    bases.append((rank_one, [INFINITY, p, *(rank_one.multiply(n, p) for n in (2, 3, -2))]))
    yield from bases
    for _ in range(40):
        base, points = rng.choice(bases)
        phi = ModelMap(rat() or Fraction(1, 2), rat(), rat(), rat())
        yield phi.transform_curve(base), [phi.push_point(q) for q in points]


def b_invariants_by_fractions(curve):
    """b2, b4, b6, b8 (Silverman, AEC, III.1) in Fraction arithmetic."""
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def discriminant_by_fractions(curve):
    b2, b4, b6, b8 = b_invariants_by_fractions(curve)
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _prime_exponents(n):
    """{p: v_p(n)} for a positive integer n, by trial division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def to_short_integral_by_chain(c):
    """The short integral model and map by three admissible changes of
    variables in Fraction arithmetic: complete the square, then the cube,
    then scale by the least integer that clears the denominators of a4 and
    a6 prime by prime."""
    m1 = ModelMap(1, 0, -c.a1 / 2, -c.a3 / 2)
    c1 = m1.transform_curve(c)
    m2 = ModelMap(1, -c1.a2 / 3, 0, 0)
    c2 = m2.transform_curve(c1)
    v4 = _prime_exponents(c2.a4.denominator)
    v6 = _prime_exponents(c2.a6.denominator)
    scale = 1
    for p in v4.keys() | v6.keys():
        scale *= p ** max(-(-v4.get(p, 0) // 4), -(-v6.get(p, 0) // 6))
    m3 = ModelMap(Fraction(1, scale), 0, 0, 0)
    return m3.transform_curve(c2), m1.then(m2).then(m3)


def _fy(curve, q):
    return 2 * q.y + curve.a1 * q.x + curve.a3


def _fx(curve, q):
    return curve.a1 * q.y - 3 * q.x * q.x - 2 * curve.a2 * q.x - curve.a4


def _lc_vertical(curve, q, a):
    """(lc_q, ord_q) of x - a at the affine point q."""
    if q.x != a:
        return q.x - a, 0
    fy = _fy(curve, q)
    return (fy, 1) if fy else (-_fx(curve, q), 2)


def _lc_line(curve, q, lam, nu, roots):
    """(lc_q, ord_q) of L = y - lam*x - nu at the affine point q, where L
    meets the curve at the x-coordinates roots."""
    value = q.y - lam * q.x - nu
    if value:
        return value, 0
    fy = _fy(curve, q)
    if not fy:
        return -_fx(curve, q), 1
    lc, e = 1 / fy, 0
    for xi in roots:
        if xi == q.x:
            lc, e = lc * fy, e + 1
        else:
            lc *= q.x - xi
    return lc, e


def pairing_scalar_by_fractions(cocycle, p):
    """The scalar b of (cocycle, p) as pairing_scalar defines it, the product
    of the closed-form leading coefficients of f_1 over one period of <t>,
    raised to m/n, with every closed form in Fraction arithmetic; the same
    checks raise NonConstantCocycleValue."""
    curve = cocycle.curve
    curve._require(p)
    t = cocycle.t
    if t.is_infinity or p.is_infinity:
        return Fraction(1)
    a1, a3 = curve.a1, curve.a3
    total = curve.add(t, p)
    vertical = total.is_infinity
    if vertical:
        if p.x != t.x or p.y + t.y + a1 * t.x + a3 != 0:
            raise NonConstantCocycleValue("t + p = O but p is not -t")
        b, order = Fraction(1), 2
    else:
        lam = chord_slope_by_fractions(curve, t, p)
        x3 = total.x
        if (
            lam is None
            or -total.y - a1 * x3 - a3 != t.y + lam * (x3 - t.x)
            or t.x + p.x + x3 != lam * lam + a1 * lam - curve.a2
        ):
            raise NonConstantCocycleValue("the pairing line does not meet E at t, p, -(t+p)")
        nu = t.y - lam * t.x
        roots = (t.x, p.x, x3)
        b, order = Fraction(-1), 1
    cycle = cocycle._cycle
    for q in cycle[1:]:
        if vertical:
            c, e = _lc_vertical(curve, q, t.x)
            b /= c
            order -= e
        else:
            c, e = _lc_vertical(curve, q, x3)
            d, f = _lc_line(curve, q, lam, nu, roots)
            b *= c / d
            order += e - f
    if order:
        raise NonConstantCocycleValue("the orders of the pairing function on <t> do not sum to 0")
    return b ** (cocycle.m // len(cycle))


def pull_point_by_fractions(phi, p):
    """phi.pull_point(p): x = u^2 x' + r, y = u^3 y' + s u^2 x' + t, in
    Fraction arithmetic."""
    if p.is_infinity:
        return INFINITY
    x = phi.u**2 * p.x + phi.r
    y = phi.u**3 * p.y + phi.s * phi.u**2 * p.x + phi.t
    return CurvePoint(x, y)


def subgroup_by_cosets(gens, n):
    """The subgroup of (Z/n)* generated by the units gens, walked by cosets.

    H is abelian, so adjoining g to the span S adds the cosets g S, g^2 S,
    ..., g^(r-1) S, where r is the least exponent with g^r in S; the powers
    of g come from one loop and each element is made once.
    """
    span = {1}
    for g in gens:
        if g in span:
            continue
        powers = []
        x = g
        while x not in span:
            powers.append(x)
            x = x * g % n
        if len(span) == 1:
            new = powers  # the cosets of {1} are the powers themselves
        else:
            new = [a * x % n for x in powers for a in span]
        span.update(new)
    return span


def _check_closed(members, member_set, n):
    """Raise unless the sorted residues are closed under multiplication mod n.

    Each member outside the span so far is a generator, and the span grows
    by multiplication with it, in at most 2|H| products; the span ends up
    equal to the members exactly when they are closed.
    """
    in_span = {1}
    span = [1]
    for g in members:
        if g in in_span:
            continue
        # the loop also visits the products it appends
        for a in span:
            h = a * g % n
            if h not in member_set:
                raise ValueError("residue list is not closed under multiplication")
            if h not in in_span:
                in_span.add(h)
                span.append(h)


def cyclotomic_fields(conductor, subgroup):
    """What Cyclotomic holds for H listed in full as subgroup, as a dict of
    subgroup (H, ascending), degree, sigma and primes, or a ValueError: every
    check runs on the members one at a time (a gcd each, the closure by
    _check_closed), then cyclicity is read off the CRT unit generators."""
    n = conductor
    if not isinstance(n, int) or n < 3:
        raise ValueError("conductor must be an integer >= 3")
    members = sorted({h % n for h in subgroup})
    if not members:
        raise ValueError("subgroup is empty")
    for h in members:
        if gcd(h, n) != 1:
            raise ValueError(f"subgroup element {h} is not coprime to {n}")
    if 1 not in members:
        raise ValueError("subgroup does not contain 1")
    member_set = set(members)
    _check_closed(members, member_set, n)
    # sigma depends on the order of the CRT generators, so they come from
    # the descriptor's _unit_generators
    _, exps = factor(n)
    phi, sigma, order = 1, 1, 1
    for g, g_order, g_primes, *_ in _unit_generators(n, exps):
        phi *= g_order
        e = g_order
        for q in g_primes:
            while e % q == 0 and pow(g, e // q, n) in member_set:
                e //= q
        u, v = order, e // gcd(order, e)
        while (h := gcd(u, v)) != 1:
            u, v = u // h, v * h
        sigma = pow(sigma, order // u, n) * pow(g, e // v, n) % n
        order = u * v
    if order != phi // len(members):
        raise ValueError("the quotient by the subgroup is not cyclic")
    return {"subgroup": tuple(members), "degree": order, "sigma": sigma,
            "primes": tuple(sorted(exps))}


def cyclotomic_fields_from_generators(conductor, generators):
    """What Cyclotomic(conductor, generators) holds or raises: H by a
    breadth-first closure of the generators, then every check of
    cyclotomic_fields."""
    if not isinstance(conductor, int) or conductor < 3:
        raise ValueError("conductor must be an integer >= 3")
    gens = [g % conductor for g in generators]
    for g in gens:
        if gcd(g, conductor) != 1:
            raise ValueError(f"generator {g} is not coprime to {conductor}")
    closure = {1}
    frontier = [1]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = a * g % conductor
            if b not in closure:
                closure.add(b)
                frontier.append(b)
    return cyclotomic_fields(conductor, tuple(sorted(closure)))


def _is_integer_mth_power(n, m):
    """Whether n >= 0 is the m-th power of an integer (Newton from above)."""
    if n < 2:
        return True
    x = 1 << -(-n.bit_length() // m)
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x**m == n
        x = y


def is_mth_power(r, m):
    """Whether the nonzero rational r is the m-th power of a rational,
    without factoring: |numerator| and denominator must be integer m-th
    powers, and for even m, r must be positive."""
    r = Fraction(r)
    if m % 2 == 0 and r < 0:
        return False
    return _is_integer_mth_power(abs(r.numerator), m) and _is_integer_mth_power(r.denominator, m)
