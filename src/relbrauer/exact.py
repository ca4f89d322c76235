"""Exact arithmetic substrate.

Arbitrary-precision rationals, dense univariate polynomials over them,
desk-scale integer factoring, and m-th-power-free normalization of rationals.

Rationals are stdlib fractions.Fraction throughout the package; Fraction
already enforces the canonical form (reduced, positive denominator, a unique
zero), so no wrapper type is introduced.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

Rat = Fraction

TRIAL_DIVISION_BOUND = 10**6
RHO_ITERATION_CAP = 10**6
# trial division runs this far before rho; the rest of the sweep is a backstop
_SMALL_PRIME_BOUND = 10**3

# Deterministic Miller-Rabin witness set below ~3.3e24; probabilistic above.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FactoringLimitExceeded(Exception):
    """A composite cofactor survived trial division and the rho iteration cap."""


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho_brent(n: int, cap: int, rng: random.Random) -> int | None:
    """A nontrivial factor of odd composite n, or None once cap squarings pass."""
    if n % 2 == 0:
        return 2
    spent = 0
    while spent < cap:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            spent += r
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                spent += batch
                g = gcd(q, n)
                k += batch
            r *= 2
            if spent >= cap and g == 1:
                return None
        if g == n:
            # the batch overshot a factor; replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
                spent += 1
        if 1 < g < n:
            return g
    return None


def _split_with_rho(m: int, cap: int, out: dict[int, int], n: int) -> None:
    rng = random.Random(m)
    stack = [m]
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_probable_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        d = _pollard_rho_brent(v, cap, rng)
        if d is None:
            raise FactoringLimitExceeded(
                f"factoring {n}: composite cofactor {v} resisted {cap} rho iterations"
            )
        stack.append(d)
        stack.append(v // d)


def _trial_divide(
    m: int, d: int, step: int, bound: int, out: dict[int, int]
) -> tuple[int, int, int]:
    """Divide the candidates d, d + step, ... (6k +- 1) up to bound out of m.

    Stops once d * d > m, or once the cofactor is 1 or probably prime (a
    prime cofactor goes into out and 1 is returned).  Returns the cofactor
    and the next (d, step), so a later call resumes where this one stopped.
    """
    while d <= bound and d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out[d] = e
            if m == 1:
                break
            if is_probable_prime(m):
                out[m] = out.get(m, 0) + 1
                return 1, d, step
        d += step
        step = 6 - step
    return m, d, step


def factor(
    n: int, *, trial_bound: int | None = None, rho_cap: int | None = None
) -> tuple[int, dict[int, int]]:
    """Factor a nonzero integer as (sign, {prime: exponent}).

    sign * prod(p**e) == n.  After 2 and 3, trial division runs over the
    primes up to 10**3 and hands a composite cofactor to Pollard rho,
    capped at rho_cap iterations (default 10**6) per split.  Only if rho
    gives up does the full sweep run as a backstop: trial division resumes
    up to trial_bound (default 10**6), exiting early once the cofactor is 1
    or probably prime, and a composite survivor the sweep shrank goes to rho
    once more.  The worst case is two capped rho runs and one sweep.  After
    a rho failure the result is what the full sweep followed by rho gives:
    the factorization, or FactoringLimitExceeded naming n and the cofactor
    that resisted.
    """
    if n == 0:
        raise ValueError("0 has no factorization")
    bound = TRIAL_DIVISION_BOUND if trial_bound is None else trial_bound
    cap = RHO_ITERATION_CAP if rho_cap is None else rho_cap
    sign = -1 if n < 0 else 1
    m = abs(n)
    out: dict[int, int] = {}
    if m == 1:
        return sign, out
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m == 1:
        return sign, out
    if is_probable_prime(m):
        out[m] = out.get(m, 0) + 1
        return sign, out
    m, d, step = _trial_divide(m, 5, 2, min(bound, _SMALL_PRIME_BOUND), out)
    if m > 1 and d * d <= m and d <= bound:
        # a composite cofactor with the sweep unfinished: try rho first
        found = dict(out)
        try:
            _split_with_rho(m, cap, found, n)
        except FactoringLimitExceeded:
            rest = m
            m, d, step = _trial_divide(m, d, step, bound, out)
            if m == rest:
                raise  # rho would rerun the same seeded search on the same m
        else:
            return sign, found
    if m > 1:
        if d * d > m:
            # trial division certified m prime
            out[m] = out.get(m, 0) + 1
        else:
            _split_with_rho(m, cap, out, n)
    return sign, out


def divisors(factorization: dict[int, int]) -> list[int]:
    """All positive divisors of the factored integer, ascending."""
    divs = [1]
    for p, e in factorization.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def mth_power_free_part(r: Rat, m: int) -> Rat:
    """Strip m-th powers from a nonzero rational.

    The result s has every prime exponent in [0, m) and r/s is an exact
    rational m-th power.  For even m, s keeps the sign of r; for odd m the
    sign moves into the m-th power and s is positive.
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("0 has no m-th-power-free part")
    if m < 1:
        raise ValueError("m must be a positive integer")
    exps: dict[int, int] = {}
    num = abs(r.numerator)
    if num != 1:
        for p, e in factor(num)[1].items():
            exps[p] = e
    if r.denominator != 1:
        for p, e in factor(r.denominator)[1].items():
            exps[p] = exps.get(p, 0) - e
    s = 1
    for p, e in exps.items():
        s *= p ** (e % m)
    if m % 2 == 0 and r < 0:
        s = -s
    return Fraction(s)


def _as_fraction_tuple(coeffs) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class Poly:
    """Dense univariate polynomial over Fraction, coefficients lowest first.

    Trailing zeros are stripped on construction, so representations are
    unique; the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _as_fraction_tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        c = self.lc
        if c == 1:
            return self
        return Poly(v / c for v in self.coeffs)

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = other.degree
        lead = other.lc
        if self.degree < dq:
            return Poly(), self
        quot = [Fraction(0)] * (self.degree - dq + 1)
        for k in range(self.degree - dq, -1, -1):
            c = rem[k + dq] / lead
            if c:
                quot[k] = c
                for i, b in enumerate(other.coeffs):
                    rem[k + i] -= c * b
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                xs = "x" if k == 1 else f"x^{k}"
                body = xs if abs(c) == 1 else f"{abs(c)}*{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; poly_gcd(0, 0) == 0.

    Remainders are re-scaled monic each round to keep coefficients small.
    """
    a, b = f, g
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()
