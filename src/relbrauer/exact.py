"""Exact arithmetic substrate.

Arbitrary-precision rationals, dense univariate polynomials over them,
desk-scale integer factoring, and m-th-power-free normalization of rationals.

Rationals are stdlib fractions.Fraction throughout the package; Fraction
already enforces the canonical form (reduced, positive denominator, a unique
zero), so no wrapper type is introduced.

_Value, the base of the package's immutable value classes, lives here
because every other module imports this one.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import gcd, isqrt
from operator import attrgetter

# trial division runs this far, then rho takes the cofactor: rho finds a
# prime p in about sqrt(p) squarings, far below its cap for any p <= 10**6
TRIAL_DIVISION_BOUND = 10**3
RHO_ITERATION_CAP = 10**6

# Miller-Rabin to the first 13 prime bases is deterministic below psi_13 =
# 3317044064679887385961981 = 1287836182261 * 2575672364521, which passes
# all 13; from psi_13 on, a strong Lucas test follows them (Baillie-PSW).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k for k = 1 ... 13, the least strong pseudoprime to the first k prime
# bases: those k bases decide every n < psi_k (OEIS A014233; Jaeschke 1993;
# Sorenson and Webster, Math. Comp. 86, 2017).  psi_12 =
# 399165290221 * 798330580441 passes the bases 2 ... 37, and 41 splits it.
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
        341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961981)


class _Value:
    """Base of the package's immutable value classes.

    A subclass declares its __slots__, lists the compared ones in _fields,
    and fills every slot in __init__, through _set or object.__setattr__.
    Two values are equal when they share a class and their compared
    fields; the hash is that of the tuple of those fields, and the repr
    reads Name(field=value, ...).  Slots outside _fields take no part in
    any of the three.  These are the methods @dataclass(frozen=True)
    generated, written once here so that importing the package generates
    no code.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        # _values(obj) is the tuple of compared fields, also for one field
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))
        # every slot along the MRO, so a subclass with __slots__ = () is filled too
        cls._slots = tuple(
            name for c in reversed(cls.__mro__) for name in vars(c).get("__slots__", ())
        )

    def _set(self, *values) -> None:
        """Fill the slots with values, in declaration order."""
        for name, value in zip(self._slots, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __setstate__(self, state):
        # copy and pickle hand back (None, {slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FactoringLimitExceeded(Exception):
    """A composite cofactor survived trial division and the rho iteration cap."""


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a|n), for n odd and positive."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Whether odd n > 13, not a square, is a strong Lucas probable prime for
    Selfridge's parameters: D the first of 5, -7, 9, -11, ... with
    (D|n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 = d 2^s, that is
    U_d = 0 or V_(d 2^k) = 0 mod n for some 0 <= k < s (Baillie and
    Wagstaff, Math. Comp. 35, 1980)."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            # D shares a factor with n > |D|
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # U_k, V_k and Q^k mod n from k = 1, up the bits of d: k -> 2k, then
    # k -> k + 1 on a set bit, where halving mod odd n adds n to an odd value
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin after trial division by its 13 bases, to the first k
    bases for psi_(k-1) <= n < psi_k (psi_0 = 0) and to all 13 from psi_12
    on, which is exact below psi_13; from psi_13 on, the strong Lucas test
    of _strong_lucas follows, and the two together are Baillie-PSW, with
    no known composite that passes."""
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
    for a in _MR_WITNESSES[: bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < _PSI[12]:
        return True
    root = isqrt(n)
    return root * root != n and _strong_lucas(n)


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


def _integer_root(v: int, k: int) -> int:
    """The integer part of the k-th root of v >= 1, exactly and with no float.

    isqrt for k = 2; otherwise Newton's step on integers from 2^ceil(bits/k),
    which lies above the root, so the iterates fall to the root and stop.
    """
    if k == 2:
        return isqrt(v)
    x = 1 << -(-v.bit_length() // k)
    while True:
        y = ((k - 1) * x + v // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(v: int, floor: int) -> tuple[int, int]:
    """(r, k) with v == r**k for the least prime k that has one, else (v, 1).

    Every prime of v lies at or above floor, so v can be a k-th power only
    when floor**k <= v, and only those prime k are tried.
    """
    k, least = 2, floor * floor
    while least <= v:
        if is_probable_prime(k):
            r = _integer_root(v, k)
            if r**k == v:
                return r, k
        k += 1
        least *= floor
    return v, 1


def _split_with_rho(m: int, floor: int, cap: int, out: dict[int, int], n: int) -> None:
    """Add the primes of m, all at or above floor, to out, splitting by rho.

    A piece below floor**2 is prime with no test, since every prime in it
    is at least floor; a larger one goes to Miller-Rabin.  A composite that
    is a perfect k-th power r**k goes back as r with its exponent times k,
    so p**6 becomes p**3 and then p, and rho only meets composites that are
    not powers; its generator, seeded with m, is built on rho's first run.
    """
    certified, rng = floor * floor, None
    stack = [(m, 1)]
    while stack:
        v, e = stack.pop()
        if v < certified or is_probable_prime(v):
            out[v] = out.get(v, 0) + e
            continue
        r, k = _perfect_power(v, floor)
        if k > 1:
            stack.append((r, e * k))
            continue
        if rng is None:
            rng = random.Random(m)
        d = _pollard_rho_brent(v, cap, rng)
        if d is None:
            raise FactoringLimitExceeded(
                f"factoring {n}: composite cofactor {v} resisted {cap} rho iterations"
            )
        stack.append((d, e))
        stack.append((v // d, e))


@cache
def _trial_product(bound: int) -> int:
    """The product of the primes from 5 up to bound: the odd d prime to 3
    and to every prime below d."""
    q = 3
    for d in range(5, bound + 1, 2):
        if gcd(d, q) == 1:
            q *= d
    return q // 3


def factor(n: int) -> tuple[int, dict[int, int]]:
    """Factor a nonzero integer as (sign, {prime: exponent}), in one pass.

    sign * prod(p**e) == n.  After 2 and 3, one gcd g of the cofactor with
    the product of the primes from 5 up to TRIAL_DIVISION_BOUND (10**3)
    holds its primes up to the bound, and trial division walks the
    candidates 6k +- 1 only while g holds one; once d**2 > g, g is itself
    the last of them and is taken at once.  Every prime left is above the
    bound, and _split_with_rho takes the rest: a piece below (bound + 1)**2
    is prime with no test, a larger one gets Miller-Rabin, and a composite
    goes to Pollard rho, capped at RHO_ITERATION_CAP (10**6) iterations per
    split.  Before rho, a composite that is a perfect k-th power (k prime)
    is replaced by its integer k-th root with its exponent times k, so rho
    splits only composites that are not powers.  A refusal costs one capped
    rho run after the splits that succeeded: FactoringLimitExceeded names n
    and the cofactor that resisted; when that cofactor is a perfect power,
    the error names its root, the composite rho was given.
    """
    if n == 0:
        raise ValueError("0 has no factorization")
    sign = -1 if n < 0 else 1
    m = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    bound = TRIAL_DIVISION_BOUND
    g, d, step = gcd(m, _trial_product(bound)), 5, 2
    while g > 1:
        if d * d > g:
            d = g
        if g % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out[d] = e
            g //= d
        d += step
        step = 6 - step
    if m > 1:
        _split_with_rho(m, bound + 1, RHO_ITERATION_CAP, out, n)
    return sign, out


def split_prime_power(n: int, p: int) -> tuple[int, int]:
    """(v, n / p^v) for v = v_p(n), n nonzero and p >= 2.

    Divides by p, p^2, p^4, ... while they divide, then by the same powers
    back down, so v costs O(log v) big divisions instead of v.
    """
    if n == 0 or p < 2:
        raise ValueError("the p-adic valuation needs n nonzero and p >= 2")
    v, powers = 0, []
    q = p
    while n % q == 0:
        n //= q
        v += 1 << len(powers)
        powers.append(q)
        q *= q
    # v_p(n) is now below 2^len(powers): its bits, highest first
    for k in range(len(powers) - 1, -1, -1):
        if n % powers[k] == 0:
            n //= powers[k]
            v += 1 << k
    return v, n


def rational_exponents(r: Fraction) -> dict[int, int]:
    """{p: v_p(r)} over the primes dividing a nonzero rational r.

    Factors |numerator| and denominator once each, and neither when it is 1.
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("0 has no factorization")
    exps: dict[int, int] = {}
    num = abs(r.numerator)
    if num != 1:
        exps.update(factor(num)[1])
    if r.denominator != 1:
        for p, e in factor(r.denominator)[1].items():
            exps[p] = -e
    return exps


def mth_power_free_part(r: Fraction, m: int, exponents: dict[int, int] | None = None) -> Fraction:
    """Strip m-th powers from a nonzero rational.

    The result s has every prime exponent in [0, m) and r/s is an exact
    rational m-th power.  For even m, s keeps the sign of r; for odd m the
    sign moves into the m-th power and s is positive.  A caller that
    already holds rational_exponents(r) passes it as exponents, and r is
    not factored again.
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("0 has no m-th-power-free part")
    if m < 1:
        raise ValueError("m must be a positive integer")
    if exponents is None:
        exponents = rational_exponents(r)
    s = 1
    for p, e in exponents.items():
        s *= p ** (e % m)
    if m % 2 == 0 and r < 0:
        s = -s
    return Fraction(s)


class Poly:
    """Dense univariate polynomial over Q.

    `coeffs` is a tuple of Fractions, lowest degree first, with no trailing
    zero, so each polynomial has one representation; the zero polynomial
    has coeffs () and degree -1.  Arithmetic is schoolbook over Q, and
    division is long division.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        cs = self.coeffs
        if not cs or cs[-1] == 1:
            return self
        return Poly([c / cs[-1] for c in cs])

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
        return Poly([x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly((1,))
        # square-and-multiply from the low bit, without a product by 1 and
        # without squaring past the top bit
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __divmod__(self, other):
        """(quotient, remainder) by long division over Q."""
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        dq = len(b) - 1
        rem = list(self.coeffs)
        lead, lower = b[-1], b[:-1]
        quot = [0] * (len(rem) - dq)
        for k in range(len(quot) - 1, -1, -1):
            c = quot[k] = rem[k + dq] / lead
            for i, y in enumerate(lower, k):
                rem[i] -= c * y
        return Poly(quot), Poly(rem[:dq])

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
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; poly_gcd(0, 0) == 0.

    Remainders are re-scaled monic each round to keep coefficients small.
    """
    a, b = f, g
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()
