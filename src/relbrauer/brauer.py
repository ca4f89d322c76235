"""Brauer classes of cyclic algebras over Q and their local invariants.

A class is presented as (L/Q, sigma, b) for a cyclic extension L of degree m
and b in Q*.  For m = 2 with L = Q(sqrt(d)) the Hasse local-global principle
decides splitting completely through Hilbert symbols.  For general m the
module certifies nontriviality when some unramified prime violates the
local-norm valuation constraint, and otherwise reports the class undecided
with its order bounded by m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .curve import CurvePoint
from .exact import factor, is_mth_power, is_probable_prime, rational_exponents

INFINITE_PLACE = "infinity"


class RamifiedPrime(Exception):
    """Residue degrees are defined only at primes not dividing the conductor."""


def _jacobi(a: int, n: int) -> int:
    # n odd and positive
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


def kronecker_symbol(a: int, n: int) -> int:
    """The Kronecker symbol (a|n), the full extension of Jacobi's symbol."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 and a % 8 in (3, 5):
            result = -result
    j = _jacobi(a, n)
    return 0 if j == 0 else result * j


@dataclass(frozen=True)
class Quadratic:
    """The extension Q(sqrt(d)) for a squarefree integer d, degree 2.

    primes holds the primes dividing d, ascending; the squarefree check
    factors d once and the Hilbert-symbol sweeps reuse it.
    """

    d: int
    primes: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.d, int):
            raise ValueError("quadratic descriptor takes an integer")
        if self.d in (0, 1):
            raise ValueError(f"d = {self.d} does not define a quadratic field")
        _, exps = factor(self.d)
        if any(e > 1 for e in exps.values()):
            raise ValueError(f"d = {self.d} is not squarefree")
        object.__setattr__(self, "primes", tuple(sorted(exps)))

    @property
    def degree(self) -> int:
        return 2

    def as_cyclotomic(self) -> "Cyclotomic":
        """The same field as a conductor-and-subgroup descriptor.

        The subgroup is the kernel of the Kronecker character attached to
        the field discriminant, so its fixed field is exactly Q(sqrt(d)).
        """
        disc = self.d if self.d % 4 == 1 else 4 * self.d
        n = abs(disc)
        kernel = tuple(
            a for a in range(1, n)
            if gcd(a, n) == 1 and kronecker_symbol(disc, a) == 1
        )
        return Cyclotomic(n, kernel)

    def literal(self) -> str:
        return f"quad:{self.d}"

    def __str__(self):
        return f"Q(sqrt({self.d}))"


def _check_closed(members: list[int], member_set: set[int], n: int) -> None:
    """Raise unless the sorted residues are closed under multiplication mod n.

    Closure is checked against a greedy generating set: each member outside
    the span so far is a generator, and the span grows by multiplication
    with it.  Every generator at least doubles the span, so this takes at
    most 2|H| products; the span ends up equal to the members exactly when
    they are closed.
    """
    in_span = bytearray(n)
    in_span[1] = 1
    span = [1]
    for g in members:
        if in_span[g]:
            continue
        # the loop also visits the products it appends, so the span ends up
        # closed under multiplication by g
        for a in span:
            h = a * g % n
            if h not in member_set:
                raise ValueError("residue list is not closed under multiplication")
            if not in_span[h]:
                in_span[h] = 1
                span.append(h)


@dataclass(frozen=True)
class Cyclotomic:
    """A cyclic subfield of Q(zeta_N): the fixed field of a subgroup H.

    H is a subgroup of (Z/N)* with cyclic quotient; the field degree is
    phi(N) / |H|.  Splitting of an unramified prime p is read off from the
    order of p*H in the quotient.

    Validation checks closure with at most 2|H| products, then lists the
    units mod N and looks for one whose coset has order phi(N) / |H|; that
    search costs O(N) for a quadratic field and at most O(N * degree).
    """

    conductor: int
    subgroup: tuple[int, ...]
    degree: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.conductor
        if not isinstance(n, int) or n < 3:
            raise ValueError("conductor must be an integer >= 3")
        members = sorted({h % n for h in self.subgroup})
        if not members:
            raise ValueError("subgroup is empty")
        for h in members:
            if gcd(h, n) != 1:
                raise ValueError(f"subgroup element {h} is not coprime to {n}")
        if 1 not in members:
            raise ValueError("subgroup does not contain 1")
        member_set = set(members)
        _check_closed(members, member_set, n)
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        m = len(units) // len(members)
        if not any(self._coset_order(a, member_set, m) == m for a in units):
            raise ValueError("the quotient by the subgroup is not cyclic")
        object.__setattr__(self, "subgroup", tuple(members))
        object.__setattr__(self, "degree", m)

    def _coset_order(self, a: int, member_set: set[int], bound: int) -> int:
        n = self.conductor
        y = a % n
        order = 1
        while y not in member_set:
            y = y * a % n
            order += 1
            if order > bound:
                break
        return order

    @classmethod
    def from_generators(cls, conductor: int, generators) -> "Cyclotomic":
        """Descriptor with H the subgroup generated by the given residues."""
        if not isinstance(conductor, int) or conductor < 3:
            raise ValueError("conductor must be an integer >= 3")
        closure = {1}
        frontier = [1]
        gens = [g % conductor for g in generators]
        for g in gens:
            if gcd(g, conductor) != 1:
                raise ValueError(f"generator {g} is not coprime to {conductor}")
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = a * g % conductor
                if b not in closure:
                    closure.add(b)
                    frontier.append(b)
        return cls(conductor, tuple(sorted(closure)))

    def literal(self) -> str:
        return f"cyclo:{self.conductor}:" + ",".join(str(h) for h in self.subgroup)

    def __str__(self):
        return f"degree-{self.degree} subfield of Q(zeta_{self.conductor})"


def residue_degree(ext: Cyclotomic, p: int) -> int:
    """Order of p modulo the subgroup: the residue degree of p in the field."""
    if not isinstance(p, int) or p < 2 or not is_probable_prime(p):
        raise ValueError(f"{p} is not a prime")
    n = ext.conductor
    if n % p == 0:
        raise RamifiedPrime(f"{p} divides the conductor {n}")
    members = set(ext.subgroup)
    y = p % n
    order = 1
    while y not in members:
        y = y * p % n
        order += 1
    return order


def _valuation_and_unit(r: Fraction, p: int) -> tuple[int, int, int]:
    # returns (v_p(r), unit numerator, unit denominator)
    num, den = r.numerator, r.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def _legendre_unit(num: int, den: int, p: int) -> int:
    # Legendre symbol of the unit num/den at an odd prime p; (1/den) = (den)
    t = pow(num * den % p, (p - 1) // 2, p)
    return -1 if t == p - 1 else 1


def hilbert_symbol(a, b, place) -> int:
    """Local Hilbert symbol (a,b) at a prime or at INFINITE_PLACE.

    +1 iff a*x^2 + b*y^2 = z^2 has a nontrivial solution over the completion.
    Odd primes use the tame formula with Legendre symbols of the unit parts;
    p = 2 uses the mod-8 characters; the real place is -1 iff both arguments
    are negative.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbols require nonzero arguments")
    if place == INFINITE_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = place
    if not isinstance(p, int) or p < 2 or not is_probable_prime(p):
        raise ValueError(f"{place!r} is not a prime or {INFINITE_PLACE!r}")
    alpha, a_num, a_den = _valuation_and_unit(a, p)
    beta, b_num, b_den = _valuation_and_unit(b, p)
    if p != 2:
        epsilon = (p - 1) // 2
        sign = 1
        if alpha * beta * epsilon % 2:
            sign = -sign
        if beta % 2 and _legendre_unit(a_num, a_den, p) == -1:
            sign = -sign
        if alpha % 2 and _legendre_unit(b_num, b_den, p) == -1:
            sign = -sign
        return sign
    # p = 2: unit residues mod 8 (odd d has d^-1 = d mod 8)
    u = a_num * a_den % 8
    v = b_num * b_den % 8
    exponent = (u % 4 == 3) * (v % 4 == 3) + alpha * (v in (3, 5)) + beta * (u in (3, 5))
    return -1 if exponent % 2 else 1


def _odd_prime_support(r: Fraction) -> set[int]:
    return set(rational_exponents(r)) - {2}


def _least_failing_prime(a: Fraction, b: Fraction, odd_primes: set[int]) -> int | None:
    # (a,b) can fail only at 2 and the odd primes dividing a or b
    for p in [2] + sorted(odd_primes):
        if hilbert_symbol(a, b, p) == -1:
            return p
    return None


def quaternion_witness(a, b) -> int | None:
    """Least finite prime where (a,b) fails locally, or None."""
    a, b = Fraction(a), Fraction(b)
    return _least_failing_prime(a, b, _odd_prime_support(a) | _odd_prime_support(b))


def quaternion_is_split(a, b) -> bool:
    """Whether the quaternion algebra (a,b) over Q is the matrix algebra.

    The sweep covers the real place, 2, and the odd primes dividing either
    argument; the symbol is +1 everywhere else.
    """
    if hilbert_symbol(a, b, INFINITE_PLACE) == -1:
        return False
    return quaternion_witness(a, b) is None


@dataclass(frozen=True)
class CyclicAlgebraClass:
    """A cyclic algebra (L/Q, sigma, b) presented by descriptor and scalar.

    b_raw is the scalar produced by the reduction pipeline; b_normalized is
    its m-th-power-free representative, the invariant of the class under
    rescaling of the underlying functions.

    primes holds the primes dividing b_raw, ascending; the status sweeps
    reuse them.  A caller that has factored b_raw passes them, and they are
    checked by division; otherwise b_raw is factored here.
    """

    m: int
    ext: Quadratic | Cyclotomic
    b_raw: Fraction
    b_normalized: Fraction
    primes: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "b_raw", Fraction(self.b_raw))
        object.__setattr__(self, "b_normalized", Fraction(self.b_normalized))
        if self.b_raw == 0:
            raise ValueError("the algebra scalar must be nonzero")
        if self.m != self.ext.degree:
            raise ValueError(f"m = {self.m} does not match extension degree {self.ext.degree}")
        if not is_mth_power(self.b_raw / self.b_normalized, self.m):
            raise ValueError("b_raw / b_normalized is not an m-th power")
        if self.primes is None:
            primes = tuple(sorted(rational_exponents(self.b_raw)))
        else:
            primes = tuple(sorted(set(self.primes)))
            rest = abs(self.b_raw.numerator) * self.b_raw.denominator
            for p in primes:
                if p < 2:
                    raise ValueError(f"{p} is not a prime")
                while rest % p == 0:
                    rest //= p
            if rest != 1:
                raise ValueError("primes do not cover the numerator and denominator of b_raw")
        object.__setattr__(self, "primes", primes)


TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ClassStatus:
    """Decision state of a class: split, certified nonsplit, or open.

    An undetermined class still has order dividing m; deciding it would
    need ramified local norm groups, which are out of scope.
    """

    kind: str
    witness: int | None = None

    def __post_init__(self):
        if self.kind not in (TRIVIAL, NONTRIVIAL, UNDETERMINED):
            raise ValueError(f"unknown status kind {self.kind!r}")
        if (self.witness is not None) != (self.kind == NONTRIVIAL):
            raise ValueError("a witness accompanies exactly the nontrivial status")

    @classmethod
    def trivial(cls) -> "ClassStatus":
        return cls(TRIVIAL)

    @classmethod
    def nontrivial(cls, witness: int) -> "ClassStatus":
        return cls(NONTRIVIAL, witness)

    @classmethod
    def undetermined(cls) -> "ClassStatus":
        return cls(UNDETERMINED)

    def __str__(self):
        if self.kind == NONTRIVIAL:
            return f"nontrivial (witness prime {self.witness})"
        return self.kind


def unramified_obstruction(alg: CyclicAlgebraClass) -> int | None:
    """Least unramified prime certifying the class nontrivial, if any.

    At a prime p not dividing the conductor, local norms from L have
    valuation divisible by the residue degree of p; a scalar violating that
    cannot be a norm, so the class does not split.  Absence of a witness
    decides nothing.
    """
    ext = alg.ext
    cyc = ext.as_cyclotomic() if isinstance(ext, Quadratic) else ext
    n = cyc.conductor
    for p in sorted(set(alg.primes) | {2}):
        if n % p == 0:
            continue
        v, _, _ = _valuation_and_unit(alg.b_raw, p)
        if v % residue_degree(cyc, p):
            return p
    return None


def class_status(alg: CyclicAlgebraClass) -> ClassStatus:
    """Decide or bound an algebra class.

    m-th-power scalars are trivial outright; quadratic descriptors get the
    complete Hasse decision; everything else is certified nontrivial by an
    unramified obstruction or left undetermined.
    """
    if alg.b_normalized == 1:
        return ClassStatus.trivial()
    if isinstance(alg.ext, Quadratic):
        # reciprocity: a real-place failure forces a finite one, so the
        # class splits iff no finite prime fails
        odd_primes = set(alg.ext.primes + alg.primes) - {2}
        witness = _least_failing_prime(Fraction(alg.ext.d), alg.b_raw, odd_primes)
        if witness is None:
            return ClassStatus.trivial()
        return ClassStatus.nontrivial(witness)
    witness = unramified_obstruction(alg)
    if witness is not None:
        return ClassStatus.nontrivial(witness)
    return ClassStatus.undetermined()


def _require_same_quadratic(algs) -> Quadratic:
    exts = {alg.ext for alg in algs}
    if len(exts) != 1:
        raise ValueError("classes live over different extensions")
    ext = exts.pop()
    if not isinstance(ext, Quadratic):
        raise ValueError("quaternion arithmetic needs a quadratic descriptor")
    return ext


def quaternion_class_equal(alg1: CyclicAlgebraClass, alg2: CyclicAlgebraClass) -> bool:
    """Whether two m = 2 classes over the same Q(sqrt(d)) coincide in Br(Q)."""
    d = _require_same_quadratic((alg1, alg2)).d
    # quaternion classes are 2-torsion: equality iff the product splits
    return quaternion_is_split(d, alg1.b_raw * alg2.b_raw)


def quaternion_group_invariants(algs) -> tuple[int, ...]:
    """Abelian invariants of the subgroup of Br(Q) the classes generate.

    Each class is encoded as its vector of local symbols over the places
    where any of them can ramify; the span has F_2-rank r, so the group is
    (Z/2)^r, returned as r copies of 2.
    """
    algs = list(algs)
    if not algs:
        return ()
    ext = _require_same_quadratic(algs)
    d = ext.d
    support = set(ext.primes).union(*(alg.primes for alg in algs)) - {2}
    places = [INFINITE_PLACE, 2] + sorted(support)
    pivots: dict[int, int] = {}
    for alg in algs:
        mask = 0
        for bit, place in enumerate(places):
            if hilbert_symbol(d, alg.b_raw, place) == -1:
                mask |= 1 << bit
        while mask:
            top = mask.bit_length() - 1
            if top in pivots:
                mask ^= pivots[top]
            else:
                pivots[top] = mask
                break
    return (2,) * len(pivots)


@dataclass(frozen=True)
class BrauerEntry:
    """One generator's image: the point, its order, the class, the verdict."""

    point: CurvePoint
    order: int | None
    algebra: CyclicAlgebraClass
    status: ClassStatus


@dataclass(frozen=True)
class BrauerPresentation:
    """Generators of the relative Brauer group with per-class decisions.

    group_invariants is the exact abelian structure when every class is
    decided (the quadratic m = 2 case) and None otherwise; in either case
    each listed class has order dividing order_bound.
    """

    entries: tuple[BrauerEntry, ...]
    group_invariants: tuple[int, ...] | None
    order_bound: int
