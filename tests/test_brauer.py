"""Field descriptors, local symbols, and cyclic algebra class decisions."""

import random
import time
from fractions import Fraction as F
from math import gcd

import pytest

from relbrauer.brauer import (
    INFINITE_PLACE,
    ClassStatus,
    CyclicAlgebraClass,
    Cyclotomic,
    Quadratic,
    RamifiedPrime,
    class_status,
    hilbert_symbol,
    kronecker_symbol,
    quaternion_class_equal,
    quaternion_group_invariants,
    quaternion_is_split,
    quaternion_witness,
    residue_degree,
    unramified_obstruction,
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
    ext = Quadratic(d).as_cyclotomic()
    assert ext.conductor == conductor
    assert ext.subgroup == subgroup
    assert ext.degree == 2


def test_cyclotomic_descriptor():
    ext = Cyclotomic.from_generators(11, (10,))
    assert ext.subgroup == (1, 10)
    assert ext.degree == 5
    assert ext.literal() == "cyclo:11:1,10"
    assert Cyclotomic.from_generators(5, (1,)).degree == 4
    assert Cyclotomic.from_generators(16, (15,)).degree == 4
    assert Cyclotomic.from_generators(7, (6,)).degree == 3


def test_cyclotomic_validation():
    with pytest.raises(ValueError):
        Cyclotomic(2, (1,))
    with pytest.raises(ValueError):
        Cyclotomic(8, (2,))  # not coprime to the conductor
    with pytest.raises(ValueError):
        Cyclotomic(16, (1,))  # quotient (Z/16)* is not cyclic
    with pytest.raises(ValueError):
        Cyclotomic(11, (2, 10))  # not closed under multiplication


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
        try:
            Cyclotomic(n, tuple(residues))
            rejected = False
        except ValueError as exc:
            rejected = str(exc) == "residue list is not closed under multiplication"
        assert rejected is not _closed_by_all_pairs(n, residues), (n, sorted(residues))
        closed += not rejected
    assert 40 < closed < 160


def test_descriptor_validation_is_bounded():
    start = time.perf_counter()
    assert Cyclotomic.from_generators(10007, (25,)).degree == 2
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    assert Quadratic(100003).as_cyclotomic().degree == 2
    assert time.perf_counter() - start < 5


def test_residue_degree():
    half_eleventh = Cyclotomic(11, (1, 10))
    assert residue_degree(half_eleventh, 2) == 5
    assert residue_degree(half_eleventh, 3) == 5
    with pytest.raises(RamifiedPrime):
        residue_degree(half_eleventh, 11)
    fifth = Cyclotomic(5, (1,))
    assert residue_degree(fifth, 2) == 4
    assert residue_degree(fifth, 11) == 1
    assert residue_degree(fifth, 19) == 2
    with pytest.raises(ValueError):
        residue_degree(fifth, 6)


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
        CyclicAlgebraClass(2, ext, F(0), F(0))
    with pytest.raises(ValueError):
        CyclicAlgebraClass(3, ext, F(2), F(2))  # degree mismatch
    with pytest.raises(ValueError):
        CyclicAlgebraClass(2, ext, F(2), F(3))  # 2/3 is not a square
    alg = CyclicAlgebraClass(2, ext, F(12), F(3))
    assert alg.b_normalized == 3
    assert alg.primes == (2, 3)
    assert alg == CyclicAlgebraClass(2, ext, F(12), F(3), (3, 2))
    assert CyclicAlgebraClass(2, ext, F(-1, 4), F(-1)).primes == (2,)
    with pytest.raises(ValueError):
        CyclicAlgebraClass(2, ext, F(12), F(3), (3,))  # 2 divides b_raw
    with pytest.raises(ValueError):
        CyclicAlgebraClass(2, ext, F(12), F(3), (1, 2, 3))


def test_class_status_constructors():
    assert ClassStatus.trivial().kind == "trivial"
    assert ClassStatus.nontrivial(3).witness == 3
    assert ClassStatus.undetermined().witness is None
    assert str(ClassStatus.nontrivial(7)) == "nontrivial (witness prime 7)"
    assert str(ClassStatus.trivial()) == "trivial"
    with pytest.raises(ValueError):
        ClassStatus("nontrivial", None)
    with pytest.raises(ValueError):
        ClassStatus("trivial", 5)


def test_class_status_quadratic_is_decisive():
    split = CyclicAlgebraClass(2, Quadratic(-1), F(5), F(5))
    assert class_status(split).kind == "trivial"
    nonsplit = CyclicAlgebraClass(2, Quadratic(-1), F(3), F(3))
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
        alg = CyclicAlgebraClass(2, Quadratic(d), b, b)
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
    alg = CyclicAlgebraClass(4, ext, F(16), F(1))
    assert class_status(alg).kind == "trivial"


def test_class_status_unramified_obstruction():
    ext = Cyclotomic(5, (1,))
    # v_2(2) = 1 is not divisible by the residue degree 4
    alg = CyclicAlgebraClass(4, ext, F(2), F(2))
    assert unramified_obstruction(alg) == 2
    st = class_status(alg)
    assert st.kind == "nontrivial" and st.witness == 2
    # 11 splits completely so v_11 = 1 is harmless, and 5 ramifies and is
    # skipped: nothing certifies 55
    unseen = CyclicAlgebraClass(4, ext, F(55), F(55))
    assert unramified_obstruction(unseen) is None
    assert class_status(unseen).kind == "undetermined"
    open_case = CyclicAlgebraClass(4, ext, F(5), F(5))
    assert unramified_obstruction(open_case) is None
    assert class_status(open_case).kind == "undetermined"


def test_quaternion_class_equal():
    a1 = CyclicAlgebraClass(2, Quadratic(-1), F(3), F(3))
    a2 = CyclicAlgebraClass(2, Quadratic(-1), F(75), F(3))
    a3 = CyclicAlgebraClass(2, Quadratic(-1), F(5), F(5))
    assert quaternion_class_equal(a1, a2)
    assert not quaternion_class_equal(a1, a3)
    other_field = CyclicAlgebraClass(2, Quadratic(3), F(5), F(5))
    with pytest.raises(ValueError):
        quaternion_class_equal(a1, other_field)


def test_quaternion_group_invariants():
    def alg(b):
        from relbrauer.exact import mth_power_free_part

        return CyclicAlgebraClass(2, Quadratic(-1), F(b), mth_power_free_part(F(b), 2))

    assert quaternion_group_invariants([]) == ()
    assert quaternion_group_invariants([alg(5)]) == ()  # (-1, 5) splits
    assert quaternion_group_invariants([alg(3)]) == (2,)
    assert quaternion_group_invariants([alg(3), alg(7), alg(21)]) == (2, 2)
    assert quaternion_group_invariants([alg(3), alg(75)]) == (2,)
