"""Field descriptors, local symbols, and cyclic algebra class decisions."""

import json
import random
import time
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from relbrauer.brauer import (
    INFINITE_PLACE,
    ClassStatus,
    CyclicAlgebraClass,
    Cyclotomic,
    Quadratic,
    _span_invariants,
    class_places,
    class_status,
    hilbert_symbol,
    kronecker_symbol,
    local_invariants,
    local_symbols,
    quaternion_group_invariants,
    quaternion_is_split,
    quaternion_witness,
)
from relbrauer.cli import parse_extension
from relbrauer.exact import factor, rational_exponents

from oracles import (
    cyclotomic_fields_from_generators,
    is_mth_power,
    quaternion_class_equal,
    subgroup_by_cosets,
)


def test_kronecker_symbol_known_values():
    assert kronecker_symbol(-4, 3) == -1
    assert kronecker_symbol(12, 11) == 1
    assert kronecker_symbol(2, 15) == 1
    assert kronecker_symbol(5, 5) == 0
    assert kronecker_symbol(1, 1) == 1
    assert kronecker_symbol(7, 2) == 1  # 7 = -1 mod 8
    assert kronecker_symbol(3, 2) == -1


def test_kronecker_matches_legendre():
    rng = random.Random(31)
    for p in (3, 5, 7, 11, 13, 103):
        for _ in range(12):
            a = rng.randrange(1, 200)
            legendre = pow(a, (p - 1) // 2, p)
            expected = 0 if legendre == 0 else (1 if legendre == 1 else -1)
            assert kronecker_symbol(a, p) == expected


def test_kronecker_multiplicative():
    rng = random.Random(32)
    for _ in range(30):
        a, b = rng.randrange(-60, 60), rng.randrange(-60, 60)
        n = rng.randrange(1, 60)
        if a * b == 0:
            continue
        assert kronecker_symbol(a * b, n) == kronecker_symbol(a, n) * kronecker_symbol(b, n)


def test_kronecker_matches_sympy_jacobi():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(33)
    for _ in range(400):
        n = 2 * rng.randrange(0, 5000) + 1
        a = rng.randrange(-10**6, 10**6)
        assert kronecker_symbol(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_quadratic_descriptor():
    assert Quadratic(-1).degree == 2
    assert Quadratic(-1).literal() == "quad:-1"
    for bad in (0, 1, 12, 9):
        with pytest.raises(ValueError):
            Quadratic(bad)
    assert Quadratic(-30).primes == (2, 3, 5)
    assert Quadratic(-1).primes == ()
    assert "primes" not in repr(Quadratic(-30))


@pytest.mark.parametrize(
    "d,conductor,subgroup",
    [(-1, 4, (1,)), (3, 12, (1, 11)), (5, 5, (1, 4)), (-3, 3, (1,))],
)
def test_quadratic_as_cyclotomic(d, conductor, subgroup):
    # Q(sqrt(d)) is the fixed field of H = ker(kronecker(disc, .)) in (Z/N)*
    ext = Quadratic(d)
    assert ext.conductor == conductor
    units = [a for a in range(1, conductor) if gcd(a, conductor) == 1]
    assert tuple(a for a in units if ext.coset_index(a) == 0) == subgroup
    assert {ext.coset_index(a) for a in units} == {0, 1}


def test_cyclotomic_descriptor():
    ext = Cyclotomic.from_generators(11, (10,))
    assert ext.generators == (10,)
    assert ext.degree == 5
    assert ext.literal() == "cyclo:11:10"
    # H = <7> in (Z/16)* = <-1> x <5>: 7 = -5^2, and 5^4 = 1 is dropped
    assert Cyclotomic(16, (7,)).literal() == "cyclo:16:7"
    # H trivial: every row of the Hermite form maps to 1
    assert Cyclotomic(5, (1,)).generators == ()
    assert Cyclotomic(5, (1,)).literal() == "cyclo:5:1"
    assert Cyclotomic.from_generators(5, (1,)).degree == 4
    assert Cyclotomic.from_generators(16, (15,)).degree == 4
    assert Cyclotomic.from_generators(7, (6,)).degree == 3


def test_literal_does_not_depend_on_the_order_of_the_primes(monkeypatch):
    # the CRT generators are taken over the primes of N ascending, so the
    # canonical generators are a function of N and H alone
    import relbrauer.brauer as brauer_mod

    n = 4 * 1009 * 1013
    gens = (3, pow(5, 7, n), n - 1)
    ext = Cyclotomic(n, gens)
    real_factor = brauer_mod.factor

    def reversed_factor(k):
        sign, exps = real_factor(k)
        return sign, dict(reversed(list(exps.items())))

    monkeypatch.setattr(brauer_mod, "factor", reversed_factor)
    again = Cyclotomic(n, gens)
    assert again == ext and (again.literal(), again.sigma) == (ext.literal(), ext.sigma)


def test_sigma_where_rho_lists_the_primes_of_n_out_of_order():
    # factor() lists 1019 before 1009, as Pollard rho split them.  Walking
    # the CRT generators in that order, the sigma rule gave 937482; over the
    # primes ascending it gives 720437.  Both generate G/H, so each
    # invariant is the one for 937482 times coset_index(937482) = 11 mod 18
    n = 1028171
    assert list(factor(n)[1]) == [1019, 1009]
    ext = Cyclotomic(n, (481188, 264314))
    assert (ext.degree, ext.sigma) == (18, 720437)
    assert ext.coset_index(937482) == 11
    for_937482 = [11, 6, 14, 7, 5]
    assert [ext.coset_index(a) for a in (2, 3, 5, 7, 11)] == [11 * k % 18 for k in for_937482]


def test_cyclotomic_validation():
    with pytest.raises(ValueError):
        Cyclotomic(2, (1,))
    with pytest.raises(ValueError):
        Cyclotomic(8, (2,))  # not coprime to the conductor
    with pytest.raises(ValueError):
        Cyclotomic(16, (1,))  # quotient (Z/16)* is not cyclic
    # the residues generate H, so they need not be closed or contain 1;
    # H = G prints as the primitive root 2
    assert Cyclotomic(11, (2, 10)).generators == (2,)
    assert Cyclotomic(11, (2, 10)).degree == 1
    assert Cyclotomic(7, (2,)) == Cyclotomic(7, (1, 2, 4)) == Cyclotomic(7, (4,))


def _closed_by_all_pairs(n, residues):
    members = set(residues)
    return all(a * b % n in members for a in members for b in members)


def _span(n, gens):
    span = {1}
    while True:
        grown = span | {a * g % n for a in span for g in gens}
        if grown == span:
            return span
        span = grown


def test_closure_check_matches_all_pairs():
    # a residue list holding 1 is its own span exactly when it is closed
    rng = random.Random(34)
    closed = 0
    for _ in range(200):
        n = rng.randrange(3, 41)
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        kind = rng.randrange(3)
        if kind == 2:
            residues = {1} | set(rng.sample(units, rng.randrange(len(units) + 1)))
        else:
            residues = _span(n, rng.sample(units, 2))
            if kind == 1:
                residues ^= {rng.choice(units[1:])}
                residues.add(1)
        span = subgroup_by_cosets(sorted(residues), n)
        assert span == _span(n, residues) >= residues, (n, sorted(residues))
        assert (span == residues) is _closed_by_all_pairs(n, residues), (n, sorted(residues))
        closed += span == residues
    assert 40 < closed < 160


def test_descriptor_validation_is_bounded():
    start = time.perf_counter()
    assert Cyclotomic.from_generators(10007, (25,)).degree == 2
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("literal", ["cyclo:10000:1", "cyclo:40000:1"])
def test_large_noncyclic_conductor_refused_fast(literal):
    # (Z/16)* and (Z/64)* are not cyclic; no list of the phi(N) units is made
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not cyclic"):
        parse_extension(literal)
    assert time.perf_counter() - start < 0.5


def _fields(make, kernel=True):
    """The descriptor's kernel {a : coset_index(a) = 0}, degree, sigma and
    primes, or the text of the ValueError it raises; the oracle's dict is
    passed through.  With kernel=False the span of the canonical generators
    stands in for the kernel, which saves a coset_index call per unit."""
    try:
        ext = make()
    except ValueError as exc:
        return str(exc)
    if isinstance(ext, dict):
        return ext
    n = ext.conductor
    if kernel:
        held = tuple(a for a in range(1, n) if gcd(a, n) == 1 and ext.coset_index(a) == 0)
    else:
        held = tuple(sorted(subgroup_by_cosets(ext.generators, n)))
    return {"subgroup": held, "degree": ext.degree, "sigma": ext.sigma, "primes": ext.primes}


def _check_literal(ext, subgroup):
    """The canonical generators: ascending, none equal to 1, spanning H;
    the literal prints them (1 when there are none) and parses back to an
    equal descriptor."""
    n, gens = ext.conductor, ext.generators
    assert list(gens) == sorted(set(gens)) and all(1 < h < n for h in gens), ext
    assert subgroup_by_cosets(gens, n) == set(subgroup), ext
    assert ext.literal() == f"cyclo:{n}:" + (",".join(map(str, gens)) or "1")
    again = parse_extension(ext.literal())
    assert again == ext and hash(again) == hash(ext) and again.literal() == ext.literal()


def _seeded_descriptor_inputs(rng):
    """(N, generators): prime N, 2^k, odd prime powers, 2^a 3^b and other
    composite N, each with 0-3 generators, some redundant or = 1 mod N."""
    primes = [p for p in range(3, 5000) if all(p % q for q in range(2, int(p**0.5) + 1))]
    conductors = rng.sample(primes, 20)
    conductors += [2**k for k in range(2, 13)]
    conductors += [p**k for p in (3, 5, 7, 11, 13) for k in (2, 3) if p**k < 5000]
    conductors += [2**a * 3**b for a in range(0, 5) for b in range(0, 5) if 3 <= 2**a * 3**b]
    conductors += rng.sample(range(3, 5000), 20)
    for n in conductors:
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        for count in range(4):
            gens = rng.sample(units, min(count, len(units)))
            yield n, gens
        # redundant generators: a product and a power of the others, 1 and
        # its lifts, residues outside [0, N)
        g, h = rng.choice(units), rng.choice(units)
        yield n, [g, h, g * h % n, pow(g, 3, n)]
        yield n, [1, 1 + n, g]
        yield n, [g - n, h + 2 * n]


def test_descriptor_matches_reference_on_seeded_inputs():
    rng = random.Random(1301)
    pick = random.Random(1302)  # leaves rng's stream, and so the inputs, as they were
    cyclic = noncyclic = 0
    for n, gens in _seeded_descriptor_inputs(rng):
        expected = _fields(lambda: cyclotomic_fields_from_generators(n, gens))
        assert _fields(lambda: Cyclotomic.from_generators(n, gens)) == expected, (n, gens)
        if isinstance(expected, str):
            noncyclic += 1
            continue
        cyclic += 1
        ext = Cyclotomic.from_generators(n, gens)
        _check_literal(ext, expected["subgroup"])
        members = list(expected["subgroup"])
        # other generating sets of the same H give the same value: the
        # canonical generators reversed, lifted with 1, as products of
        # neighbours, and with redundant members
        gens_h = list(ext.generators)
        same = [gens_h[::-1], [h + n for h in gens_h] + [1]]
        same.append(gens_h[:1] + [a * b % n for a, b in zip(gens_h, gens_h[1:])])
        same.append(pick.sample(members, min(3, len(members))) + gens_h)
        for residues in same:
            other = Cyclotomic(n, residues)
            assert other == ext and other.literal() == ext.literal(), (n, residues)
        if len(members) > 500:
            continue  # the conductor pool test takes the large lists
        rng.shuffle(members)
        # all of H, with lifts; then with a member dropped, a member added,
        # and a non-unit added
        lists = [members, [h + n for h in members[:3]] + members]
        if len(members) > 1:
            lists.append(members[1:])
        lists.append(members + [rng.randrange(1, n)])
        lists.append(members + [n // min(expected["primes"])])
        for residues in lists:
            assert _fields(lambda: Cyclotomic(n, residues), kernel=False) == _fields(
                lambda: cyclotomic_fields_from_generators(n, residues)
            ), (n, residues)
    assert cyclic > 300 and noncyclic > 100


def test_descriptor_matches_reference_on_conductor_pool():
    # the distinct extension literals of the benchmark's decide_m2 conductor jobs
    path = Path(__file__).resolve().parents[1] / "bench" / "reference" / "decide_m2.json"
    jobs = json.loads(path.read_text())["conductor"]
    literals = sorted({job["argv"][job["argv"].index("--ext") + 1] for job in jobs})
    assert len(literals) == 49
    for literal in literals:
        _, n, gens = literal.split(":")
        n, gens = int(n), [int(g) for g in gens.split(",")]
        expected = cyclotomic_fields_from_generators(n, gens)
        ext = parse_extension(literal)
        assert _fields(lambda: ext) == expected, literal
        _check_literal(ext, expected["subgroup"])
        assert Cyclotomic(n, expected["subgroup"]) == ext, literal


@pytest.mark.parametrize(
    "conductor, residues, message",
    [
        (2, (), "conductor must be an integer >= 3"),
        (2, (4,), "conductor must be an integer >= 3"),
        (10, (5, 4, 3), "generator 5 is not coprime to 10"),
        (10, (3, 5), "generator 5 is not coprime to 10"),
        (7, (1, 14), "generator 0 is not coprime to 7"),
        (16, (1, 2), "generator 2 is not coprime to 16"),
        (8, (), "the quotient by the subgroup is not cyclic"),
        (16, (1,), "the quotient by the subgroup is not cyclic"),
    ],
)
def test_explicit_list_errors_keep_their_order(conductor, residues, message):
    # the residues generate H; where an input fails more than one check,
    # the first wins: the conductor, the residues mod N in the order given,
    # then cyclicity
    for make in (Cyclotomic, cyclotomic_fields_from_generators):
        with pytest.raises(ValueError) as info:
            make(conductor, residues)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "conductor, generators, degree, literal",
    [
        # 484 = 22^2 for the primitive root 22: |H| = 4,999,995
        (9999991, (484,), 2, "cyclo:9999991:484"),
        # H = <-1 mod 2^7, an element of order 4 mod 5^7>, |H| = 8
        (10**7, (4218751, 2077057), 500000, "cyclo:10000000:2077057,4218751"),
    ],
    ids=["9999991", "10000000"],
)
def test_descriptor_at_the_bound_is_built_within_budget(conductor, generators, degree, literal):
    # no element of H is listed, so |H| and m do not enter the cost
    start = time.perf_counter()
    ext = Cyclotomic(conductor, generators)
    assert time.perf_counter() - start < 0.5
    assert (ext.degree, ext.literal()) == (degree, literal)


def test_residue_degree():
    # at p not dividing N the symbol of b = p is the Frobenius p mod N, so the
    # residue degree of p is the order of the local invariant of (L, sigma, p)
    def residue_degree(ext, p):
        alg = CyclicAlgebraClass(ext.degree, ext, F(p))
        (inv,) = local_invariants(alg, [p])
        return ext.degree // gcd(inv, ext.degree)

    half_eleventh = Cyclotomic(11, (1, 10))
    assert residue_degree(half_eleventh, 2) == 5
    assert residue_degree(half_eleventh, 3) == 5
    # 11 ramifies: it is no unit mod N and has no Frobenius coset
    with pytest.raises(ValueError):
        half_eleventh.coset_index(11)
    fifth = Cyclotomic(5, (1,))
    assert residue_degree(fifth, 2) == 4
    assert residue_degree(fifth, 11) == 1
    assert residue_degree(fifth, 19) == 2
    with pytest.raises(ValueError):
        fifth.coset_index(10)


def _coset_order(n, members, a):
    y, order = a % n, 1
    while y not in members:
        y, order = y * a % n, order + 1
    return order


def _unit_list_cyclic_degree(n, members):
    # the old search: list the units and look for a coset of order |G|/|H|
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    m = len(units) // len(members)
    return m if any(_coset_order(n, members, a) == m for a in units) else None


def test_crt_cyclicity_matches_unit_list_search():
    rng = random.Random(36)
    kinds = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randrange(3, 201)
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        gens = rng.sample(units, rng.randrange(0, 3))
        members = _span(n, gens)
        expected = _unit_list_cyclic_degree(n, members)
        try:
            ext = Cyclotomic.from_generators(n, gens)
        except ValueError as exc:
            assert str(exc) == "the quotient by the subgroup is not cyclic"
            assert expected is None, (n, gens)
            kinds[False] += 1
            continue
        assert ext.degree == expected, (n, gens)
        assert ext.primes == tuple(
            p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))
        )
        # sigma's coset generates G/H
        assert _coset_order(n, members, ext.sigma) == ext.degree
        kinds[True] += 1
    assert kinds[True] > 100 and kinds[False] > 30


def test_hilbert_symbol_known_values():
    assert hilbert_symbol(-1, -1, INFINITE_PLACE) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, 3, 3) == -1
    assert hilbert_symbol(3, 3, 3) == -1
    assert hilbert_symbol(5, 5, 5) == 1
    assert hilbert_symbol(2, 7, 7) == 1
    assert hilbert_symbol(3, 7, 7) == -1
    assert hilbert_symbol(-1, 3, INFINITE_PLACE) == 1


def test_hilbert_symbol_validation():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)
    with pytest.raises(ValueError):
        hilbert_symbol(3, 5, 6)


def test_hilbert_symbol_is_symmetric_and_bimultiplicative():
    rng = random.Random(77)
    for _ in range(40):
        a = F(rng.randrange(1, 300) * rng.choice((1, -1)), rng.randrange(1, 40))
        b = F(rng.randrange(1, 300) * rng.choice((1, -1)), rng.randrange(1, 40))
        c = F(rng.randrange(1, 300) * rng.choice((1, -1)))
        for place in (INFINITE_PLACE, 2, 3, 5, 7, 11):
            assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
            assert hilbert_symbol(a * c, b, place) == hilbert_symbol(
                a, b, place
            ) * hilbert_symbol(c, b, place)


def test_quaternion_witness():
    assert quaternion_witness(F(-1), F(-1)) == 2
    assert quaternion_witness(F(-1), F(3)) == 2
    assert quaternion_witness(F(2), F(3)) == 2
    assert quaternion_witness(F(-1), F(-3)) == 3
    assert quaternion_witness(F(2), F(7)) is None
    assert quaternion_witness(F(4), F(3)) is None  # 4 is a square
    assert quaternion_witness(F(3), F(-3)) is None


def test_split_iff_no_witness():
    rng = random.Random(6)
    for _ in range(50):
        a = F(rng.randrange(1, 120) * rng.choice((1, -1)), rng.randrange(1, 30))
        b = F(rng.randrange(1, 120) * rng.choice((1, -1)), rng.randrange(1, 30))
        assert quaternion_is_split(a, b) is (quaternion_witness(a, b) is None)


def test_cyclic_algebra_class_validation():
    ext = Quadratic(-1)
    with pytest.raises(ValueError):
        CyclicAlgebraClass(2, ext, F(0))
    with pytest.raises(ValueError):
        CyclicAlgebraClass(3, ext, F(2))  # degree mismatch
    alg = CyclicAlgebraClass(2, ext, F(12))
    assert (alg.b_normalized, alg.primes) == (3, (2, 3))
    assert alg == CyclicAlgebraClass(2, ext, F(12), {3: 1, 2: 2})
    assert alg != CyclicAlgebraClass(2, ext, F(3))  # same class, another b_raw
    assert CyclicAlgebraClass(2, ext, F(-1, 4)).primes == (2,)
    assert CyclicAlgebraClass(2, ext, F(-1, 4)).b_normalized == -1
    with pytest.raises(ValueError, match="do not multiply back"):
        CyclicAlgebraClass(2, ext, F(12), {3: 1})  # 2 divides b_raw
    with pytest.raises(ValueError, match="do not multiply back"):
        CyclicAlgebraClass(2, ext, F(12), {2: -2, 3: 1})  # 4 is in the numerator
    with pytest.raises(ValueError, match="1 is not a prime"):
        CyclicAlgebraClass(2, ext, F(12), {1: 5, 2: 2, 3: 1})


def test_class_mth_power_decision_matches_is_mth_power():
    # seeded b_raw and exponent dicts, good and bad: b_raw / b_normalized is
    # an m-th power (by integer roots), b_normalized is m-th-power free and
    # keeps the sign for even m, and a dict that does not give back b_raw
    # is refused
    rng = random.Random(1502)
    exts = {2: Quadratic(-1), 5: Cyclotomic.from_generators(11, (2**5,)),
            10: Cyclotomic.from_generators(11, (1,))}
    for m in (3, 4, 6, 12):
        exts[m] = Cyclotomic.from_generators(13, (pow(2, m, 13),))
    small = (2, 3, 5, 7, 11, 13)
    outcomes = set()
    for _ in range(1500):
        m = rng.choice(sorted(exts))
        exps = {q: rng.randrange(-3 * m, 3 * m) for q in rng.sample(small, rng.randrange(0, 4))}
        b_raw = F(rng.choice((1, -1)))
        for q, e in exps.items():
            b_raw *= F(q) ** e
        given, expected = dict(exps), None
        choice = rng.randrange(6)
        if choice == 1:
            given = None
        elif choice == 2 and exps:  # a prime dropped
            q = next(iter(exps))
            del given[q]
            expected = "do not multiply back" if exps[q] else None
        elif choice == 3:  # a key below 2
            given[rng.choice((1, 0, -3))] = 1
            expected = "is not a prime"
        elif choice == 4 and exps:  # an exponent changed
            q = rng.choice(list(exps))
            given[q] += rng.choice((1, -1)) * rng.randrange(1, m + 1)
            expected = "do not multiply back"
        elif choice == 5:  # a prime outside b_raw with exponent 0
            given[17] = 0
        if expected is not None:
            with pytest.raises(ValueError, match=expected):
                CyclicAlgebraClass(m, exts[m], b_raw, given)
            outcomes.add(expected)
            continue
        alg = CyclicAlgebraClass(m, exts[m], b_raw, given)
        b_norm = alg.b_normalized
        assert is_mth_power(b_raw / b_norm, m), (m, b_raw, given)
        assert all(0 < e < m for e in rational_exponents(b_norm).values()), (m, b_raw)
        assert b_norm > 0 or (m % 2 == 0 and b_raw < 0), (m, b_raw)
        if given is None:
            given = {q: e for q, e in exps.items() if e}
        assert alg.primes == tuple(sorted(given))
        outcomes.add(None)
    assert outcomes == {None, "do not multiply back", "is not a prime"}


def test_class_status_constructors():
    assert ClassStatus.trivial().kind == "trivial"
    assert ClassStatus.nontrivial(3).witness == 3
    assert ClassStatus.trivial().witness is None
    with pytest.raises(ValueError):
        ClassStatus("undetermined")
    assert str(ClassStatus.nontrivial(7)) == "nontrivial (witness prime 7)"
    assert str(ClassStatus.trivial()) == "trivial"
    with pytest.raises(ValueError):
        ClassStatus("nontrivial", None)
    with pytest.raises(ValueError):
        ClassStatus("trivial", 5)


def test_class_status_quadratic_is_decisive():
    split = CyclicAlgebraClass(2, Quadratic(-1), F(5))
    assert class_status(split).kind == "trivial"
    nonsplit = CyclicAlgebraClass(2, Quadratic(-1), F(3))
    st = class_status(nonsplit)
    assert st.kind == "nontrivial"
    assert st.witness == 2


def test_class_status_quadratic_sweeps_once(monkeypatch):
    import relbrauer.brauer as brauer_mod

    rng = random.Random(35)
    real_factor = brauer_mod.factor
    factored = []

    def recording_factor(n, **kwargs):
        factored.append(abs(n))
        return real_factor(n, **kwargs)

    cases = 0
    while cases < 60:
        d = rng.randrange(-300, 300)
        if d in (0, 1) or any(d % (k * k) == 0 for k in range(2, 18)):
            continue
        b = F(rng.randrange(1, 500) * rng.choice((1, -1)), rng.randrange(1, 40))
        alg = CyclicAlgebraClass(2, Quadratic(d), b)
        if quaternion_is_split(d, b):
            expected = ClassStatus.trivial()
        else:
            expected = ClassStatus.nontrivial(quaternion_witness(d, b))
        factored.clear()
        monkeypatch.setattr(brauer_mod, "factor", recording_factor)
        status = class_status(alg)
        monkeypatch.setattr(brauer_mod, "factor", real_factor)
        assert status == expected, (d, b)
        assert abs(d) not in factored or abs(d) in (b.numerator, b.denominator)
        cases += 1


def test_class_status_unit_is_trivial():
    ext = Cyclotomic(5, (1,))
    alg = CyclicAlgebraClass(4, ext, F(16))
    assert class_status(alg).kind == "trivial"


def test_class_status_unramified_obstruction():
    ext = Cyclotomic(5, (1,))
    # v_2(2) = 1 is not divisible by the residue degree 4
    alg = CyclicAlgebraClass(4, ext, F(2))
    st = class_status(alg)
    assert st.kind == "nontrivial" and st.witness == 2
    # 11 splits completely, and at the ramified 5 the symbol of 55 = 5 * 11
    # is 11^-1 = 1 mod 5: 55 is a local norm everywhere
    unseen = CyclicAlgebraClass(4, ext, F(55))
    assert class_status(unseen).kind == "trivial"
    # 5 = N(1 - zeta_5) is a global norm
    open_case = CyclicAlgebraClass(4, ext, F(5))
    assert class_status(open_case).kind == "trivial"


def test_class_status_witness_rule():
    # Cyclotomic: the least failing prime not dividing N comes first.  For
    # E1's class -1/11 over the quintic subfield of Q(zeta_25), both 5 and
    # 11 fail and the witness is 11.
    ext = Cyclotomic.from_generators(25, (7,))
    alg = CyclicAlgebraClass(5, ext, F(-1, 11))
    assert alg.b_normalized == 14641
    places = class_places(ext, alg.primes)
    assert places == [INFINITE_PLACE, 2, 5, 11]
    assert [k != 0 for k in local_invariants(alg, places)] == [False, False, True, True]
    assert class_status(alg) == ClassStatus.nontrivial(11)
    # with no unramified failure the least failing ramified prime is taken
    minus_one = CyclicAlgebraClass(4, Cyclotomic(5, (1,)), F(-1))
    assert class_status(minus_one) == ClassStatus.nontrivial(5)
    # Quadratic: the least failing prime, ramified or not (2 before 3 here)
    assert class_status(CyclicAlgebraClass(2, Quadratic(-1), F(3))).witness == 2


def _old_unramified_obstruction(alg):
    # the former certificate: an unramified p with v_p(b) not divisible by
    # the residue degree, the order of p modulo H
    n = alg.ext.conductor
    members = subgroup_by_cosets(alg.ext.generators, n)
    for p in sorted(set(alg.primes) | {2}):
        if n % p:
            v = 0
            num, den = alg.b_raw.numerator, alg.b_raw.denominator
            while num % p == 0:
                num, v = num // p, v + 1
            while den % p == 0:
                den, v = den // p, v - 1
            if v % _coset_order(n, members, p):
                return p
    return None


def _random_cyclotomic_fields(rng, count, degrees=range(2, 13), bound=200):
    fields = []
    while len(fields) < count:
        n = rng.randrange(3, bound)
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        try:
            ext = Cyclotomic.from_generators(n, rng.sample(units, rng.randrange(0, 3)))
        except ValueError:
            continue
        if ext.degree in degrees:
            fields.append(ext)
    return fields


def _random_scalar(rng):
    num = rng.choice((1, -1)) * rng.randrange(1, 5000)
    return F(num, rng.randrange(1, 300))


def test_cyclotomic_status_keeps_every_old_certificate():
    rng = random.Random(37)
    certified = 0
    for ext in _random_cyclotomic_fields(rng, 60):
        for _ in range(5):
            b = _random_scalar(rng)
            alg = CyclicAlgebraClass(ext.degree, ext, b)
            witness = _old_unramified_obstruction(alg)
            status = class_status(alg)
            if witness is not None:
                assert status == ClassStatus.nontrivial(witness), (ext, b)
                certified += 1
    assert certified > 50


def test_artin_symbols_equal_hilbert_symbols():
    rng = random.Random(38)
    cases = 0
    while cases < 150:
        d = rng.randrange(-500, 500)
        if d in (0, 1) or any(d % (k * k) == 0 for k in range(2, 23)):
            continue
        ext = Quadratic(d)
        b = _random_scalar(rng)
        alg = CyclicAlgebraClass(2, ext, b)
        places = class_places(ext, alg.primes)
        for place, k in zip(places, local_invariants(alg, places)):
            assert (-1) ** k == hilbert_symbol(d, b, place), (d, b, place)
        cases += 1


@pytest.mark.parametrize("m", range(2, 13))
def test_reciprocity(m):
    # the local symbols multiply to 1 mod N, and the invariants sum to 0 in Z/m
    rng = random.Random(100 + m)
    fields = _random_cyclotomic_fields(rng, 4, degrees=(m,), bound=300)
    if m == 2:
        fields += [Quadratic(d) for d in (-1, 2, -3, 5, 6, -15, 33)]
    for ext in fields:
        for _ in range(6):
            b = _random_scalar(rng)
            alg = CyclicAlgebraClass(m, ext, b)
            places = class_places(ext, alg.primes)
            product = 1
            for a in local_symbols(alg, places):
                product = product * a % ext.conductor
            assert product == 1, (ext, b)
            assert sum(local_invariants(alg, places)) % m == 0, (ext, b)


def _span_by_enumeration(rows, m):
    span = {tuple([0] * len(rows[0]))}
    frontier = list(span)
    while frontier:
        v = frontier.pop()
        for row in rows:
            w = tuple((x + y) % m for x, y in zip(v, row))
            if w not in span:
                span.add(w)
                frontier.append(w)
    return span


def test_span_invariants_match_enumeration():
    rng = random.Random(39)
    for _ in range(150):
        m = rng.randrange(2, 13)
        n = rng.randrange(1, 4)
        rows = [[rng.randrange(m) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
        invariants = _span_invariants(rows, m)
        assert all(b % a == 0 for a, b in zip(invariants, invariants[1:]))
        assert all(m % c == 0 and c > 1 for c in invariants)
        span = _span_by_enumeration(rows, m)
        # the number of elements killed by each d | m fixes a finite abelian group
        for d in range(1, m + 1):
            if m % d == 0:
                killed = sum(all(d * x % m == 0 for x in v) for v in span)
                expected = 1
                for c in invariants:
                    expected *= gcd(d, c)
                assert killed == expected, (rows, m, invariants)


def test_quaternion_class_equal():
    a1 = CyclicAlgebraClass(2, Quadratic(-1), F(3))
    a2 = CyclicAlgebraClass(2, Quadratic(-1), F(75))
    a3 = CyclicAlgebraClass(2, Quadratic(-1), F(5))
    assert quaternion_class_equal(a1, a2)
    assert not quaternion_class_equal(a1, a3)
    other_field = CyclicAlgebraClass(2, Quadratic(3), F(5))
    with pytest.raises(ValueError):
        quaternion_class_equal(a1, other_field)
    # equal classes have equal local invariants at every place
    places = class_places(a1.ext, set(a1.primes) | set(a2.primes) | set(a3.primes))
    assert local_invariants(a1, places) == local_invariants(a2, places)
    assert local_invariants(a1, places) != local_invariants(a3, places)


def test_quaternion_group_invariants():
    def alg(b):
        return CyclicAlgebraClass(2, Quadratic(-1), F(b))

    assert quaternion_group_invariants([]) == ()
    assert quaternion_group_invariants([alg(5)]) == ()  # (-1, 5) splits
    assert quaternion_group_invariants([alg(3)]) == (2,)
    assert quaternion_group_invariants([alg(3), alg(7), alg(21)]) == (2, 2)
    assert quaternion_group_invariants([alg(3), alg(75)]) == (2,)


def test_group_invariants_above_m_2():
    # quartic subfield of Q(zeta_13): invariants (2, 1, 1) and (2, 2, 0) at
    # the real place, 5 and 13 span Z/2 x Z/4
    ext = Cyclotomic.from_generators(13, (3,))

    def alg(b):
        return CyclicAlgebraClass(4, ext, b)

    first, second = alg(F(-1, 125)), alg(F(-16, 2025))
    assert quaternion_group_invariants([first, second]) == (2, 4)
    assert quaternion_group_invariants([first]) == (4,)
    assert quaternion_group_invariants([second]) == (2,)
    assert quaternion_group_invariants([alg(F(16))]) == ()
    with pytest.raises(ValueError):
        quaternion_group_invariants([first, CyclicAlgebraClass(2, Quadratic(-1), F(3))])


@pytest.mark.parametrize("m", range(2, 9))
def test_group_invariants_equal_those_over_the_union_of_places(m):
    # the group step pads each class's own invariants with zeros; recompute
    # every class over the union of the places instead, on fresh classes
    # and on classes whose own invariants class_status has already kept
    rng = random.Random(200 + m)
    fields = _random_cyclotomic_fields(rng, 4, degrees=(m,), bound=300)
    if m == 2:
        fields += [Quadratic(d) for d in (-1, 2, -3, 5, 6, -15, 33)]
    for ext in fields:
        for _ in range(4):
            scalars = [_random_scalar(rng) for _ in range(rng.randrange(1, 5))]
            algs = [CyclicAlgebraClass(m, ext, b) for b in scalars]
            places = class_places(ext, set().union(*(alg.primes for alg in algs)))
            expected = _span_invariants([local_invariants(alg, places) for alg in algs], m)
            assert quaternion_group_invariants(algs) == expected, (ext, scalars)
            again = [CyclicAlgebraClass(m, ext, b) for b in scalars]
            for alg in again:
                class_status(alg)
            assert quaternion_group_invariants(again) == expected, (ext, scalars)
