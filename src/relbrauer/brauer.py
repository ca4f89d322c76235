"""Brauer classes of cyclic algebras over Q and their local invariants.

A class is presented as (L/Q, sigma, b) for a cyclic extension L of degree m
and b in Q*.  Both extension descriptors present L as the fixed field of a
subgroup H of G = (Z/N)*, with G/H cyclic of order m and generated by sigma.
Over Q a class is fixed by its local invariants, and for abelian L these are
local Artin symbols: at a prime p, with N = p^k N' and b = p^v u, the symbol
a_p is the residue mod N with a_p = u^-1 (mod p^k) and a_p = p^v (mod N');
at the real place a_oo = -1 when b < 0.  The invariant at v is the k in Z/m
with a_v in sigma^k H.  One vector of these invariants decides every class
(trivial iff all vanish) and gives the group the classes generate.  By
reciprocity the a_v multiply to 1 mod N and the invariants sum to 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .curve import CurvePoint
from .exact import (
    _jacobi,
    _Value,
    factor,
    is_probable_prime,
    mth_power_free_part,
    rational_exponents,
    split_prime_power,
)

INFINITE_PLACE = "infinity"

# Cyclotomic factors N and each p - 1 and builds baby-step tables of
# isqrt(q^e - 1) + 1 entries for prime powers q^e dividing phi(N), each below
# 5 * 10^6 at this bound, so its conductor is bounded; Quadratic takes any d
CONDUCTOR_BOUND = 10**7


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


class Quadratic(_Value):
    """The extension Q(sqrt(d)) for a squarefree integer d, degree 2.

    As G/H: N = |disc| for the field discriminant disc (d or 4d), and H is
    the kernel of the Kronecker character (disc|.).  primes holds the primes
    dividing d, ascending; with 2 they cover N.  The squarefree check factors
    d once and the status reuses it; primes is not compared.
    """

    __slots__ = ("d", "primes")
    _fields = ("d",)

    def __init__(self, d: int):
        object.__setattr__(self, "d", d)
        self.__post_init__()

    # bench/tracer.py wraps this by name
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

    @property
    def disc(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d

    @property
    def conductor(self) -> int:
        return abs(self.disc)

    def coset_index(self, a: int) -> int:
        """The k in Z/2 with the unit a mod N in sigma^k H."""
        return 0 if kronecker_symbol(self.disc, a) == 1 else 1

    def literal(self) -> str:
        return f"quad:{self.d}"


def _unit_generators(n: int, exps: dict[int, int]) -> list[tuple]:
    """Generators g_i of the cyclic factors of G = (Z/n)* = prod (Z/p^k)*,
    each with its order, the primes of that order, the modulus its logs are
    taken in and whether a unit is folded first.

    The primes are taken ascending, so the order depends on n alone.  An
    odd p^k gives one primitive root; 2^k gives -1 (k >= 2) and 5
    (k >= 3).  Each is lifted by CRT to 1 modulo the other prime powers.
    The log to base -1 is read mod 4; the log to base 5 is that of +-x,
    whichever is 1 mod 4 (the fold).
    """
    gens = []
    for p, k in sorted(exps.items()):
        pk = p**k
        if p == 2:
            local = [(pk - 1, 2, (2,), 4, False)] if k >= 2 else []
            if k >= 3:
                local.append((5, pk // 4, (2,), pk, True))
        else:
            qs = tuple(factor(p - 1)[1])
            g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))
            if k > 1 and pow(g, p - 1, p * p) == 1:
                g += p
            local = [(g, pk // p * (p - 1), qs + ((p,) if k > 1 else ()), pk, False)]
        rest = n // pk
        for g, order, primes, modulus, fold in local:
            lift = 1 + rest * ((g - 1) * pow(rest, -1, pk) % pk)
            gens.append((lift, order, primes, modulus, fold))
    return gens


def _order(h: int, order: int, primes, n: int) -> int:
    """The order of the unit h mod n in a cyclic group of the given order,
    whose primes are listed: strip each prime while the power stays 1."""
    for q in primes:
        while order % q == 0 and pow(h, order // q, n) == 1:
            order //= q
    return order


def _log_steps(coordinate: tuple, d: int, tables: dict) -> tuple:
    """Pohlig-Hellman for log_g x mod d, for (g, order, primes, modulus,
    fold) one coordinate of _unit_generators and d | order.

    For each prime power q^e of d: the power order/q^e that sends x into
    the subgroup of order q^e, that subgroup's baby-step table, and the CRT
    weight of q^e mod d.  tables keeps g's tables across calls, by q^e: for
    gamma = g^(order/q^e) it maps gamma^j to j for j < s =
    isqrt(q^e - 1) + 1, with gamma^-s as the giant step, so a log there
    takes at most s giant steps.
    """
    g, order, primes, modulus, fold = coordinate
    steps = []
    for q in primes:
        if d % q:
            continue
        qe = q
        while d % (qe * q) == 0:
            qe *= q
        if qe not in tables:
            gamma, s = pow(g, order // qe, modulus), isqrt(qe - 1) + 1
            baby, y = {}, 1
            for j in range(s):
                baby[y] = j
                y = y * gamma % modulus
            tables[qe] = (baby, pow(y, -1, modulus), s)
        rest = d // qe
        steps.append((order // qe, tables[qe], rest * pow(rest, -1, qe)))
    return modulus, fold, d, steps


def _dlog(x: int, log_steps: tuple) -> int:
    """log_g x mod d for a unit x, by the steps _log_steps made for d."""
    modulus, fold, d, steps = log_steps
    x %= modulus
    if fold and x % 4 == 3:
        x = modulus - x
    log = 0
    for power, (baby, giant, s), weight in steps:
        h = pow(x, power, modulus)
        for t in range(0, s * s, s):
            if h in baby:
                break
            h = h * giant % modulus
        log += (t + baby[h]) * weight
    return log % d


def _hermite_rows(vectors, orders) -> list[list[int]]:
    """The Hermite normal form of the lattice spanned by the vectors and the
    o_i e_i: upper triangular rows with positive pivots h_i, each entry
    above a pivot in [0, h_i).  Column c starts from the row o_c e_c and
    clears every other row there by Euclid's algorithm; entries are kept
    mod o_j, which the rows o_j e_j still to come allow."""
    rows = [[x % o for x, o in zip(v, orders)] for v in vectors]
    hnf = []
    for c, o in enumerate(orders):
        pivot = [0] * len(orders)
        pivot[c] = o
        rest = []
        for row in rows:
            while row[c]:
                q = pivot[c] // row[c]
                pivot, row = row, [(x - q * y) % o_j for x, y, o_j in zip(pivot, row, orders)]
            rest.append(row)
        hnf.append(pivot)
        rows = rest
    for i, row in enumerate(hnf):
        for k in range(i):
            q = hnf[k][i] // row[i]
            if q:
                hnf[k] = [x - q * y for x, y in zip(hnf[k], row)]
    return hnf


class Cyclotomic(_Value):
    """A cyclic subfield of Q(zeta_N): the fixed field of a subgroup H.

    H is a subgroup of G = (Z/N)* with cyclic quotient; the field degree is
    m = |G/H|.  Cyclotomic(N, generators) takes any units mod N that
    generate H; no element of H is listed, and N above CONDUCTOR_BOUND is
    refused first.  G is the product of the cyclic groups <g_i> of its CRT
    generators (_unit_generators), and each generator of H is written as
    its vector of discrete logs: Pohlig-Hellman over the prime powers of
    the orders o_i, with baby-step tables built here once.  Those vectors
    and the o_i e_i span the relation lattice L, with G/H = Z^n / L.  Its
    Hermite normal form gives m as the product of the pivots, and the
    canonical generators: each row mapped to prod g_i^row_i mod N, 1
    dropped, ascending.  generators holds them, so every generating set of
    H gives one value, and the repr is a constructor call for it.  Row and
    column operations mod m (_diagonal_form) then decide whether G/H is
    cyclic and give a character chi: G -> Z/m with kernel H.  sigma is
    built from the coset orders m / gcd(chi(g_i), m), and coset_index(a) =
    chi(a) / chi(sigma) needs log_i(a) only modulo the coset order of g_i.
    For cyclic G = <g> all of this is m = |G| / |H|, from the orders of
    H's generators, with no log: the Hermite form is (m), g^m generates H,
    chi = log_g mod m and sigma = g.  primes holds the primes of N,
    factored once.  Only conductor and generators are compared.
    """

    __slots__ = ("conductor", "generators", "degree", "primes", "sigma", "_chi")
    _fields = ("conductor", "generators")

    def __init__(self, conductor: int, generators):
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "generators", generators)
        self.__post_init__()

    # bench/tracer.py wraps this by name
    def __post_init__(self):
        n = self.conductor
        if not isinstance(n, int) or n < 3:
            raise ValueError("conductor must be an integer >= 3")
        if n > CONDUCTOR_BOUND:
            raise ValueError(f"conductor {n} exceeds the cyclo bound {CONDUCTOR_BOUND}")
        gens = [g % n for g in self.generators]
        for g in gens:
            if gcd(g, n) != 1:
                raise ValueError(f"generator {g} is not coprime to {n}")
        _, exps = factor(n)
        coords = _unit_generators(n, exps)
        tables = [{} for _ in coords]
        if len(coords) == 1:
            # G = <g> is cyclic, so L = mZ with m = o / |H|, |H| is the lcm
            # of the orders of H's generators, chi = log_g mod m, and sigma
            # = g, which is what the rule below gives for one generator
            ((g, o, primes, _, _),) = coords
            m = o // lcm(*(_order(h, o, primes, n) for h in gens))
            canonical, sigma, weights = {pow(g, m, n)}, g, [1]
        else:
            steps = [_log_steps(c, c[1], t) for c, t in zip(coords, tables)]
            logs = [[_dlog(h, st) for st in steps] for h in gens]
            hnf = _hermite_rows(logs, [c[1] for c in coords])
            m = prod(row[i] for i, row in enumerate(hnf))
            canonical = {prod(pow(c[0], e, n) for c, e in zip(coords, row)) % n for row in hnf}
            transform = [[int(i == j) for j in range(len(coords))] for i in range(len(coords))]
            # G/H is the sum of the Z/gcd(d_j, m) over the diagonal d_j
            factors = [gcd(d, m) for d in _diagonal_form(hnf, m, transform)]
            if lcm(*factors) != m:
                raise ValueError("the quotient by the subgroup is not cyclic")
            chi = [sum(v * (m // f) for v, f in zip(row, factors)) % m for row in transform]
            sigma, order, chi_sigma = 1, 1, 0  # sigma's coset has order `order`
            for (g, *_), c in zip(coords, chi):
                e = m // gcd(c, m)
                # split lcm(order, e) = u * v with u | order, v | e coprime;
                # then sigma^(order/u) * g^(e/v) has coset order u * v
                u, v = order, e // gcd(order, e)
                while (h := gcd(u, v)) != 1:
                    u, v = u // h, v * h
                sigma = pow(sigma, order // u, n) * pow(g, e // v, n) % n
                chi_sigma = (chi_sigma * (order // u) + c * (e // v)) % m
                order = u * v
            scale = pow(chi_sigma, -1, m)
            weights = [c * scale % m for c in chi]
        # coset_index(a) is the sum of w_i log_i(a) for the weights
        # w_i = chi(g_i) / chi(sigma); log_i(a) enters only mod
        # m / gcd(w_i, m), the coset order of g_i
        plan = []
        for coordinate, table, w in zip(coords, tables, weights):
            if w % m:
                plan.append((w, _log_steps(coordinate, m // gcd(w, m), table)))
        self._set(n, tuple(sorted(canonical - {1})), m, tuple(sorted(exps)), sigma, tuple(plan))

    # bench/tracer.py wraps this by name
    @classmethod
    def from_generators(cls, conductor: int, generators) -> "Cyclotomic":
        """Descriptor with H the subgroup generated by the given residues,
        which must be units mod N; the same as Cyclotomic(N, generators)."""
        return cls(conductor, generators)

    def coset_index(self, a: int) -> int:
        """The k in Z/degree with the unit a mod N in sigma^k H."""
        n = self.conductor
        if gcd(a, n) != 1:
            raise ValueError(f"{a} is not a unit modulo {n}")
        k = 0
        for w, steps in self._chi:
            k += w * _dlog(a, steps)
        return k % self.degree

    def literal(self) -> str:
        return f"cyclo:{self.conductor}:" + (",".join(map(str, self.generators)) or "1")


def _valuation_and_unit(r: Fraction, p: int) -> tuple[int, int, int]:
    # returns (v_p(r), unit numerator, unit denominator)
    v, num = split_prime_power(r.numerator, p)
    w, den = split_prime_power(r.denominator, p)
    return v - w, num, den


def hilbert_symbol(a, b, place) -> int:
    """Local Hilbert symbol (a,b) at a prime or at INFINITE_PLACE.

    +1 iff a*x^2 + b*y^2 = z^2 has a nontrivial solution over the completion.
    Odd primes use the tame formula with Legendre symbols of the unit parts;
    p = 2 uses the mod-8 characters; the real place is -1 iff both arguments
    are negative.  The decision path uses local Artin symbols; this is their
    independent check on quadratic fields.
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
        if beta % 2 and _jacobi(a_num * a_den, p) == -1:
            sign = -sign
        if alpha % 2 and _jacobi(b_num * b_den, p) == -1:
            sign = -sign
        return sign
    # p = 2: unit residues mod 8 (odd d has d^-1 = d mod 8)
    u = a_num * a_den % 8
    v = b_num * b_den % 8
    exponent = (u % 4 == 3) * (v % 4 == 3) + alpha * (v in (3, 5)) + beta * (u in (3, 5))
    return -1 if exponent % 2 else 1


def _odd_prime_support(r: Fraction) -> set[int]:
    return set(rational_exponents(r)) - {2}


def quaternion_witness(a, b) -> int | None:
    """Least finite prime where (a,b) fails locally, or None."""
    a, b = Fraction(a), Fraction(b)
    # (a,b) can fail only at 2 and the odd primes dividing a or b
    for p in [2] + sorted(_odd_prime_support(a) | _odd_prime_support(b)):
        if hilbert_symbol(a, b, p) == -1:
            return p
    return None


def quaternion_is_split(a, b) -> bool:
    """Whether the quaternion algebra (a,b) over Q is the matrix algebra.

    The sweep covers the real place, 2, and the odd primes dividing either
    argument; the symbol is +1 everywhere else.
    """
    if hilbert_symbol(a, b, INFINITE_PLACE) == -1:
        return False
    return quaternion_witness(a, b) is None


class CyclicAlgebraClass(_Value):
    """A cyclic algebra (L/Q, sigma, b) presented by descriptor and scalar.

    b_raw is the scalar produced by the reduction pipeline.  The class
    depends only on b_raw modulo m-th powers, and b_normalized, its
    m-th-power-free representative, is derived here from b_raw's prime
    exponents: a caller that has factored b_raw passes {p: v_p(b_raw)} as
    exponents, whose entries must multiply back to b_raw's |numerator|
    and denominator; otherwise b_raw is factored here.  The keys must be
    primes, and the caller answers for that: a key below 2 is refused,
    but a composite key is not detected, since a primality test would
    cost one per prime of b on every pairing (brauer_pairing passes the
    primes factor returns).  primes holds the primes dividing b_raw,
    ascending, and the local symbols reuse them.  _invariants holds the
    class's own places, class_places(ext, primes), and its local
    invariants there, computed here: class_status and
    quaternion_group_invariants read them.  None of b_normalized, primes
    and _invariants is compared.
    """

    __slots__ = ("m", "ext", "b_raw", "b_normalized", "primes", "_invariants")
    _fields = __slots__[:3]

    def __init__(
        self,
        m: int,
        ext: Quadratic | Cyclotomic,
        b_raw: Fraction,
        exponents: dict[int, int] | None = None,
    ):
        b_raw = Fraction(b_raw)
        if b_raw == 0:
            raise ValueError("the algebra scalar must be nonzero")
        if m != ext.degree:
            raise ValueError(f"m = {m} does not match extension degree {ext.degree}")
        if exponents is None:
            exponents = rational_exponents(b_raw)
        else:
            num = den = 1
            for p, e in exponents.items():
                if p < 2:
                    raise ValueError(f"{p} is not a prime")
                if e > 0:
                    num *= p**e
                else:
                    den *= p**-e
            if num != abs(b_raw.numerator) or den != b_raw.denominator:
                raise ValueError("exponents do not multiply back to b_raw")
        b_normalized = mth_power_free_part(b_raw, m, exponents)
        self._set(m, ext, b_raw, b_normalized, tuple(sorted(exponents)))
        places = class_places(ext, self.primes)
        object.__setattr__(self, "_invariants", (places, local_invariants(self, places)))


def class_places(ext, b_primes) -> list:
    """The real place, then 2 and the primes of N and of b, ascending: the
    only places where a local symbol can be nontrivial."""
    return [INFINITE_PLACE] + sorted({2}.union(ext.primes, b_primes))


def local_symbols(alg: CyclicAlgebraClass, places) -> list[int]:
    """The local Artin symbols a_v of b = alg.b_raw in (Z/N)*, as residues.

    At a prime p, with N = p^k N' and b = p^v u, a_p = u^-1 (mod p^k) and
    a_p = p^v (mod N'); for p not dividing N that is the Frobenius power
    p^v.  At the real place a_oo is -1 when b < 0 and 1 otherwise.
    """
    n, b = alg.ext.conductor, alg.b_raw
    symbols = []
    for place in places:
        if place == INFINITE_PLACE:
            symbols.append(n - 1 if b < 0 else 1)
            continue
        p, pk = place, 1
        while n % (pk * p) == 0:
            pk *= p
        rest = n // pk
        v, num, den = _valuation_and_unit(b, p)
        # u^-1 = den/num mod p^k and p^v mod N', joined by CRT
        x, y = den * pow(num, -1, pk) % pk, pow(p, v, rest)
        symbols.append((x + pk * (y - x) * pow(pk, -1, rest)) % n)
    return symbols


def local_invariants(alg: CyclicAlgebraClass, places) -> list[int]:
    """The local invariants of the class in Z/m: inv_v = k with a_v in sigma^k H."""
    return [alg.ext.coset_index(a) for a in local_symbols(alg, places)]


TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"


class ClassStatus(_Value):
    """Decision of a class: split, or nonsplit with a witness prime.

    Every class over Q is decided by its local invariants; the witness is a
    finite prime where the local invariant does not vanish.
    """

    __slots__ = _fields = ("kind", "witness")

    def __init__(self, kind: str, witness: int | None = None):
        if kind not in (TRIVIAL, NONTRIVIAL):
            raise ValueError(f"unknown status kind {kind!r}")
        if (witness is not None) != (kind == NONTRIVIAL):
            raise ValueError("a witness accompanies exactly the nontrivial status")
        self._set(kind, witness)

    @classmethod
    def trivial(cls) -> "ClassStatus":
        return cls(TRIVIAL)

    @classmethod
    def nontrivial(cls, witness: int) -> "ClassStatus":
        return cls(NONTRIVIAL, witness)


def class_status(alg: CyclicAlgebraClass) -> ClassStatus:
    """Decide a class from its local invariants: trivial iff all vanish.

    A failure at the real place forces a finite one by reciprocity, so a
    nontrivial class always has a finite witness.  The witness rule:
    - Quadratic: the least failing finite prime;
    - Cyclotomic: the least failing prime not dividing N if there is one,
      otherwise the least failing prime dividing N.
    """
    places, invariants = alg._invariants
    failing = [
        place for place, k in zip(places, invariants) if k and place != INFINITE_PLACE
    ]
    if not failing:
        return ClassStatus.trivial()
    ext = alg.ext
    if isinstance(ext, Cyclotomic):
        failing = [p for p in failing if ext.conductor % p] or failing
    return ClassStatus.nontrivial(failing[0])


def _diagonal_form(rows, m: int, carried=()) -> list[int]:
    """Diagonalize the rows mod m by row and column operations invertible
    over Z, pivoting on a least entry until its row and column are clear,
    and return the pivot d_j of each column (0 where none is left).

    The carried rows take every column operation too, so an identity
    carried along ends as the column transform V mod m: x -> x V maps the
    span of the rows mod m onto the span of the d_j e_j.
    """
    rows = [[x % m for x in row] for row in rows]
    carried = list(carried)
    pivots = [0] * len(rows[0])
    while True:
        entries = [(x, i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
        if not entries:
            return pivots
        pivot, i, j = min(entries)
        clear = True
        for r, row in enumerate(rows):
            if r != i and row[j]:
                q = row[j] // pivot
                rows[r] = [(x - q * y) % m for x, y in zip(row, rows[i])]
                clear = clear and not rows[r][j]
        for c, x in enumerate(rows[i]):
            if c != j and x:
                q = x // pivot
                for row in rows + carried:
                    row[c] = (row[c] - q * row[j]) % m
                clear = clear and not rows[i][c]
        # an entry left over is below the pivot, so the next one is smaller
        if clear:
            pivots[j] = pivot
            del rows[i]


def _span_invariants(rows, m: int) -> tuple[int, ...]:
    """Invariant factors of the subgroup of (Z/m)^n spanned by the rows.

    A pivot d of the diagonal form spans a cyclic group of order
    m / gcd(d, m); gcd/lcm exchanges put those orders into invariant-factor
    form, each dividing the next.
    """
    orders = [m // gcd(d, m) for d in _diagonal_form(rows, m) if d]
    for a in range(len(orders)):
        for b in range(a + 1, len(orders)):
            g = gcd(orders[a], orders[b])
            orders[a], orders[b] = g, orders[a] * orders[b] // g
    return tuple(o for o in orders if o > 1)


def quaternion_group_invariants(algs) -> tuple[int, ...]:
    """Abelian invariants of the subgroup of Br(Q) the classes generate.

    This is the one invariants routine for every m; the name dates from the
    quaternion (m = 2) case.  Each class is encoded as its vector of local
    invariants in Z/m over the places where any of them can ramify; a class
    is fixed by that vector, so the group is the span of the vectors in
    (Z/m)^places.  For m = 2 that is (Z/2)^r, r copies of 2.  A place
    outside a class's own places is a prime p that divides neither N nor
    b, where the symbol is p^0 = 1 and the invariant 0, so each class's
    own invariants, which its constructor has computed, are padded with
    zeros.
    """
    algs = list(algs)
    if not algs:
        return ()
    exts = {alg.ext for alg in algs}
    if len(exts) != 1:
        raise ValueError("classes live over different extensions")
    ext = exts.pop()
    places = class_places(ext, set().union(*(alg.primes for alg in algs)))
    rows = []
    for alg in algs:
        own = dict(zip(*alg._invariants))
        rows.append([own.get(place, 0) for place in places])
    return _span_invariants(rows, ext.degree)


class BrauerEntry(_Value):
    """One generator's image: the point, its order, the class, the verdict."""

    __slots__ = _fields = ("point", "order", "algebra", "status")

    def __init__(
        self,
        point: CurvePoint,
        order: int | None,
        algebra: CyclicAlgebraClass,
        status: ClassStatus,
    ):
        self._set(point, order, algebra, status)


class BrauerPresentation(_Value):
    """Generators of the relative Brauer group with per-class decisions.

    group_invariants is the exact abelian structure of the subgroup of
    Br(Q) the classes generate, for every m; each class has order dividing
    order_bound = m.
    """

    __slots__ = _fields = ("entries", "group_invariants", "order_bound")

    def __init__(
        self,
        entries: tuple[BrauerEntry, ...],
        group_invariants: tuple[int, ...],
        order_bound: int,
    ):
        self._set(entries, group_invariants, order_bound)
