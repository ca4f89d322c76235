"""Integer factoring, power-free parts, and exact polynomial arithmetic."""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import pytest

from relbrauer.exact import (
    FactoringLimitExceeded,
    Poly,
    factor,
    is_probable_prime,
    mth_power_free_part,
    poly_gcd,
    split_prime_power,
)

from oracles import (
    _is_integer_mth_power,
    factor_by_trial_walk,
    is_mth_power,
    is_probable_prime_by_13_bases,
)

M61 = 2**61 - 1
M89 = 2**89 - 1
M127 = 2**127 - 1
# psi_k, the least strong pseudoprime to the first k prime bases, k = 1 ... 13
# (OEIS A014233; Jaeschke 1993; Sorenson and Webster, Math. Comp. 86, 2017)
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
PSI12 = PSI[11]
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
DECIDE_M2 = Path(__file__).resolve().parents[1] / "bench" / "reference" / "decide_m2.json"


def test_is_probable_prime_small():
    def sieve_prime(n):
        return n > 1 and all(n % d for d in range(2, n))

    for n in range(-2, 300):
        assert is_probable_prime(n) is sieve_prime(n), n


def test_is_probable_prime_known_hard_cases():
    assert is_probable_prime(M61)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(3215031751)  # strong pseudoprime to 2,3,5,7
    assert not is_probable_prime(M61 * M61)
    assert not is_probable_prime(PSI12)  # passes the bases 2 ... 37; 41 catches it
    assert is_probable_prime(M89) and is_probable_prime(M127)
    assert not is_probable_prime(M89 * M127)


def test_strong_lucas_matches_selfridge_pseudoprimes():
    # below 20,000 the odd non-squares above 13 that pass the strong Lucas
    # test with Selfridge's parameters are the primes and the strong Lucas
    # pseudoprimes 5459, 5777, 10877, 16109, 18971 (OEIS A217255)
    from relbrauer.exact import _strong_lucas

    pseudoprimes = {5459, 5777, 10877, 16109, 18971}
    for n in range(15, 20000, 2):
        if isqrt(n) ** 2 == n:
            continue
        prime = all(n % d for d in range(3, isqrt(n) + 1, 2))
        assert _strong_lucas(n) is (prime or n in pseudoprimes), n


def test_factor_basic():
    assert factor(-432) == (-1, {2: 4, 3: 3})
    assert factor(1) == (1, {})
    assert factor(-1) == (-1, {})
    assert factor(97) == (1, {97: 1})
    assert factor(PSI12) == (1, {399165290221: 1, 798330580441: 1})
    assert factor(PSI[12]) == (1, {1287836182261: 1, 2575672364521: 1})
    sign, expo = factor(2**10 * 3**5 * 11)
    assert sign == 1 and expo == {2: 10, 3: 5, 11: 1}


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_reconstructs(monkeypatch):
    rng = random.Random(20240817)
    for _ in range(40):
        n = rng.randrange(2, 10**6)
        sign, expo = factor(n)
        prod = sign
        for p, e in expo.items():
            assert is_probable_prime(p)
            prod *= p**e
        assert prod == n


def test_factor_beyond_trial_division_uses_rho():
    n = 1000003 * 1000033  # both prime, above the default trial bound
    assert factor(n) == (1, {1000003: 1, 1000033: 1})


def _limit(monkeypatch, trial_bound, rho_cap):
    import relbrauer.exact as exact

    monkeypatch.setattr(exact, "TRIAL_DIVISION_BOUND", trial_bound)
    monkeypatch.setattr(exact, "RHO_ITERATION_CAP", rho_cap)


def test_factor_limit_exceeded(monkeypatch):
    # M61 * M89 is no perfect power, and 50 rho iterations cannot split it
    _limit(monkeypatch, 10, 50)
    with pytest.raises(FactoringLimitExceeded):
        factor(M61 * M89)


def test_factor_splits_a_square_under_tight_caps(monkeypatch):
    # the power step takes the square root, so rho never sees M61**2
    _limit(monkeypatch, 10, 50)
    assert factor(M61**2) == (1, {M61: 2})


def test_factor_refuses_when_rho_gives_up_above_the_trial_bound(monkeypatch):
    # 1009 lies above the default trial bound and one rho iteration cannot
    # split the product, so factor refuses after that one rho run
    import relbrauer.exact as exact

    _limit(monkeypatch, exact.TRIAL_DIVISION_BOUND, 1)
    with pytest.raises(FactoringLimitExceeded) as excinfo:
        factor(1009 * 1000003)
    assert str(excinfo.value) == (
        "factoring 1009003027: composite cofactor 1009003027 resisted 1 rho iterations"
    )


def test_rho_finds_every_prime_the_trial_bound_leaves_out(monkeypatch):
    # rho finds a prime p in about sqrt(p) squarings: with p <= 10**6 it
    # splits p * q well within a cap far below RHO_ITERATION_CAP, so no
    # trial division beyond 10**3 is needed
    sympy = pytest.importorskip("sympy")
    _limit(monkeypatch, 10**3, 5 * 10**4)
    rng = random.Random(1901)
    for _ in range(40):
        p = sympy.prevprime(rng.choice((rng.randrange(1012, 10**6), 10**6 - rng.randrange(10**3))))
        q = sympy.randprime(2 ** rng.randrange(60, 120), 2**120)
        expected = {int(r): e for r, e in sympy.factorint(p * q).items()}
        assert factor(p * q) == (1, expected), (p, q)


def test_factor_does_not_rerun_rho_on_an_unchanged_cofactor(monkeypatch):
    import relbrauer.exact as exact

    calls = []
    real = exact._split_with_rho

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(exact, "_split_with_rho", counting)
    _limit(monkeypatch, 2000, 50)
    with pytest.raises(FactoringLimitExceeded):
        factor(M61 * M89)
    assert calls == [M61 * M89]


def test_factor_limit_names_the_input(monkeypatch):
    n = 7 * M61 * M89
    _limit(monkeypatch, 10, 50)
    with pytest.raises(FactoringLimitExceeded) as excinfo:
        factor(n)
    assert str(n) in str(excinfo.value)
    assert str(M61 * M89) in str(excinfo.value)


def test_factor_limit_names_the_root_of_a_power(monkeypatch):
    # the resisting cofactor (M61 * M89)**2 reaches rho as its square root
    n = 7 * (M61 * M89) ** 2
    _limit(monkeypatch, 10, 50)
    with pytest.raises(FactoringLimitExceeded) as excinfo:
        factor(n)
    message = str(excinfo.value)
    assert str(n) in message
    assert f"cofactor {M61 * M89} resisted" in message
    assert str((M61 * M89) ** 2) not in message


def test_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1801)
    cases = [rng.randrange(1, 10**18) for _ in range(120)]
    for _ in range(60):
        p, q = (sympy.nextprime(rng.randrange(10**3, 10**7)) for _ in range(2))
        cases.append(p * q * rng.choice((1, 2, 3, 35, 1009)))
    for _ in range(20):
        p = sympy.nextprime(rng.randrange(10**5, 2 * 10**6))
        cases.append(p * p * rng.choice((1, 7, 1013)))
    for n in cases:
        n *= rng.choice((1, -1))
        expected = {int(p): e for p, e in sympy.factorint(abs(n)).items()}
        assert factor(n) == (-1 if n < 0 else 1, expected), n


def test_integer_root_brackets_the_root():
    from relbrauer.exact import _integer_root

    rng = random.Random(1807)
    for _ in range(300):
        k = rng.randrange(2, 14)
        r = rng.choice((rng.randrange(2, 50), rng.randrange(2, 10**9), rng.randrange(2, 2**200)))
        for v in (r**k - 1, r**k, r**k + 1):
            root = _integer_root(v, k)
            assert root**k <= v < (root + 1) ** k, (v, k)
    assert _integer_root(1, 5) == 1 and _integer_root(M127**9, 9) == M127


def _record_rho_inputs(monkeypatch):
    """The list that every composite handed to rho is appended to."""
    import relbrauer.exact as exact

    real, received = exact._pollard_rho_brent, []

    def recording(n, cap, rng):
        received.append(n)
        return real(n, cap, rng)

    monkeypatch.setattr(exact, "_pollard_rho_brent", recording)
    return received


def _is_perfect_power(v):
    return any(_is_integer_mth_power(v, k) for k in range(2, v.bit_length()))


def test_factor_splits_perfect_powers(monkeypatch):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1808)
    p_small, q_small = (sympy.nextprime(rng.randrange(10**3, 10**5)) for _ in range(2))
    p_large, q_large = (sympy.nextprime(rng.randrange(10**6, 10**9)) for _ in range(2))
    cases = [p**k for p in (1009, p_small, p_large) for k in range(2, 13)]
    for p, q in ((p_small, q_small), (p_large, q_large), (p_small, q_large)):
        cases += [(p * q) ** k for k in (2, 3, 4, 6, 12)]
        cases += [p * p * q, q * q * p, 7 * p**4, 7 * q**4]
    received = _record_rho_inputs(monkeypatch)
    for n in cases:
        expected = {int(p): e for p, e in sympy.factorint(n).items()}
        assert factor(n) == (1, expected), n
    assert received and not any(_is_perfect_power(v) for v in received)


def test_factor_splits_powers_above_2_1024(monkeypatch):
    received = _record_rho_inputs(monkeypatch)
    for n, expected in ((M127**9, {M127: 9}), ((1000003 * M127) ** 8, {1000003: 8, M127: 8})):
        assert n.bit_length() > 1024
        assert factor(n) == (1, expected)
    assert received == [1000003 * M127]


def _factor_inputs(monkeypatch, pool_classes):
    """Every integer factor receives while main runs the decide_m2 pool
    jobs of the given classes."""
    import relbrauer.exact as exact
    from relbrauer.cli import main

    real, seen = exact.factor, []

    def recording(n):
        seen.append(n)
        return real(n)

    pools = json.loads(DECIDE_M2.read_text())
    with monkeypatch.context() as patch:
        # every module that bound the name, as bench/tracer.py does
        for name, module in list(sys.modules.items()):
            if name == "relbrauer" or name.startswith("relbrauer."):
                for key, value in list(vars(module).items()):
                    if value is real:
                        patch.setattr(module, key, recording)
        for cls in pool_classes:
            for entry in pools[cls]:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    main(entry["argv"])
    return seen


def test_factor_matches_sympy_on_the_decide_m2_pool(monkeypatch):
    sympy = pytest.importorskip("sympy")
    seen = _factor_inputs(monkeypatch, ("small_n", "large_n", "conductor"))
    assert len(seen) > 2000
    for n in set(seen):
        expected = {int(p): e for p, e in sympy.factorint(abs(n)).items()}
        assert factor(n) == (-1 if n < 0 else 1, expected), n


def test_rho_receives_no_perfect_power_on_the_large_n_squares(monkeypatch):
    squares = [n for n in _factor_inputs(monkeypatch, ("large_n",)) if n > 1 and isqrt(n) ** 2 == n]
    assert len(squares) == 129
    received = _record_rho_inputs(monkeypatch)
    for n in squares:
        _, expo = factor(n)
        assert all(e % 2 == 0 for e in expo.values()), n
    # each square root is a product of two primes above 10**6: one rho split
    assert len(received) == len(squares)
    assert not any(_is_perfect_power(v) for v in received)


def _same_factorization(n):
    """factor(n) equals the trial-walk oracle, dict order included."""
    got, expected = factor(n), factor_by_trial_walk(n)
    assert got == expected and list(got[1]) == list(expected[1]), n


def test_factor_matches_the_trial_walk_on_a_seeded_sample():
    rng = random.Random(2601)
    for _ in range(1500):
        n = rng.randrange(1, 2 ** rng.randrange(2, 71))
        _same_factorization(rng.choice((1, -1)) * n)


def test_factor_matches_the_trial_walk_on_structured_cases():
    above = [p for p in range(1001**2, 1001**2 + 400) if is_probable_prime_by_13_bases(p)]
    assert len(above) > 20
    cases = [997 * 1009, 1009 * 1013, 1009**2, 1009**3 * 1013, 997**2 * 1019971]
    cases += above + [above[0] * above[1], 5 * 997 * above[-1], 7**3 * above[0] ** 2]
    for n in cases:
        _same_factorization(n)
    assert factor(997**2 * 1019971) == (1, {997: 2, 1019971: 1})
    assert factor(1009**3 * 1013) == (1, {1009: 3, 1013: 1})


def test_factor_refuses_m61_m89_as_the_trial_walk_does(monkeypatch):
    _limit(monkeypatch, 10**3, 200)
    messages = []
    for route in (factor, factor_by_trial_walk):
        with pytest.raises(FactoringLimitExceeded) as excinfo:
            route(7 * M61 * M89)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1] == (
        f"factoring {7 * M61 * M89}: composite cofactor {M61 * M89} resisted 200 rho iterations"
    )


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**i, n) == n - 1 for i in range(r))


def _prime_below(n):
    n -= 1
    while not is_probable_prime_by_13_bases(n):
        n -= 1
    return n


@pytest.mark.parametrize("k", range(1, 14))
def test_is_probable_prime_at_each_psi(k):
    psi = PSI[k - 1]
    # psi_k is composite and passes the first k bases, so those do not decide it
    assert all(_strong_probable_prime(psi, a) for a in BASES[:k])
    assert not is_probable_prime(psi)
    if k == 13:
        # psi_13 passes all 13 bases, and base 43 would catch it; the strong
        # Lucas test that follows the bases from psi_13 on catches it
        assert is_probable_prime_by_13_bases(psi)
        assert not _strong_probable_prime(psi, 43)
    assert is_probable_prime(_prime_below(psi))


def test_is_probable_prime_on_pseudoprimes_to_base_2_and_carmichael_numbers():
    strong_to_2 = (2047, 3277, 4033, 4681, 8321)
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911)
    assert all(_strong_probable_prime(n, 2) for n in strong_to_2)
    for n in strong_to_2 + carmichael:
        assert not is_probable_prime(n), n


def test_is_probable_prime_agrees_with_13_bases_on_seeded_odd_n():
    rng = random.Random(2602)
    primes = 0
    for _ in range(10**5):
        n = rng.randrange(1, 2 ** rng.randrange(2, 65)) | 1
        answer = is_probable_prime(n)
        assert answer is is_probable_prime_by_13_bases(n), n
        primes += answer
    assert primes > 5000


def test_factor_spends_no_primality_test_that_earlier_work_decided(monkeypatch):
    import oracles
    import relbrauer.exact as exact

    calls = []

    def counting(test):
        def wrapper(n):
            calls.append(n)
            return test(n)

        return wrapper

    monkeypatch.setattr(exact, "is_probable_prime", counting(exact.is_probable_prime))
    monkeypatch.setattr(
        oracles, "is_probable_prime_by_13_bases", counting(is_probable_prime_by_13_bases)
    )
    counts = {}
    for n in (997 * 1009, 1000003 * 1019971):
        for route in (factor, factor_by_trial_walk):
            calls.clear()
            route(n)
            counts[route, n] = len(calls)
    # the gcd screen leaves 1009, below 1001**2, which needs no test
    assert counts[factor_by_trial_walk, 997 * 1009] == 2
    assert counts[factor, 997 * 1009] == 0
    # no test up front; 1000003 < 1001**2 < 1019971 after rho's split
    assert counts[factor_by_trial_walk, 1000003 * 1019971] == 7
    assert counts[factor, 1000003 * 1019971] < 7


def test_split_prime_power_matches_repeated_division():
    def by_division(n, p):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v, n

    rng = random.Random(1302)
    for _ in range(500):
        p = rng.choice((2, 3, 5, 11, 97, M61))
        n = rng.choice((1, -1)) * rng.randrange(1, 10**6) * p ** rng.randrange(0, 300)
        assert split_prime_power(n, p) == by_division(n, p), (n, p)
    assert split_prime_power(11**10000 * 7, 11) == (10000, 7)
    assert split_prime_power(-(2**64 - 1) * 2**63, 2) == (63, -(2**64 - 1))
    for n, p in ((0, 3), (5, 1), (5, 0)):
        with pytest.raises(ValueError):
            split_prime_power(n, p)


def test_mth_power_free_part_known_values():
    assert mth_power_free_part(F(405), 4) == 5
    assert mth_power_free_part(F(-81), 4) == -1
    assert mth_power_free_part(F(-1, 48), 2) == -3
    assert mth_power_free_part(F(1, 10125), 4) == 5
    assert mth_power_free_part(F(-1, 11), 5) == 14641
    assert mth_power_free_part(F(64), 2) == 1
    assert mth_power_free_part(F(-64), 3) == 1  # (-4)^3
    assert mth_power_free_part(F(-64), 2) == -1


def test_mth_power_free_part_contract():
    # result times an exact m-th power recovers the input's class
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randrange(2, 6)
        r = F(rng.randrange(1, 400), rng.randrange(1, 400)) * rng.choice((1, -1))
        part = mth_power_free_part(r, m)
        ratio = r / part
        assert mth_power_free_part(ratio, m) == 1
        _, expo = factor(part.numerator * part.denominator)
        assert all(0 < e < m for e in expo.values())
    with pytest.raises(ValueError):
        mth_power_free_part(F(0), 2)


def test_is_mth_power_matches_power_free_part():
    # mth_power_free_part(r, m) == 1 exactly when r is an m-th power, which
    # the oracle decides by integer roots, without factoring
    rng = random.Random(4111)
    for m in range(2, 13):
        cases = [F(2**m * 3), F(1, 2**m * 3), F(3**m + 1), F(5**m, 7**m), F(2**m)]
        for _ in range(40):
            root = F(rng.randrange(1, 60), rng.randrange(1, 60))
            near = rng.choice((1, 1, 2, 3, F(1, 2), F(4, 9), F(2**m * 3)))
            cases.append(root**m * near)
            cases.append(F(rng.randrange(1, 10**6), rng.randrange(1, 10**6)))
        for r in cases:
            for signed in (r, -r):
                expected = mth_power_free_part(signed, m) == 1
                assert is_mth_power(signed, m) is expected, (signed, m)
    assert mth_power_free_part(F(-27, 8), 3) == 1 and mth_power_free_part(F(-16), 4) == -1
    assert mth_power_free_part(F(-7), 1) == 1


def test_poly_construction_and_degree():
    assert Poly().is_zero
    assert Poly((0, 0)).is_zero
    assert Poly().degree == -1
    p = Poly((1, 0, F(2, 3)))
    assert p.degree == 2
    assert p.lc == F(2, 3)
    assert p(3) == 1 + 6
    with pytest.raises(ValueError):
        Poly().lc


def test_poly_arithmetic():
    x = Poly((0, 1))
    p = x**3 - 2 * x + 5
    q = x - 1
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.degree < q.degree
    assert (p - p).is_zero
    assert p * Poly() == Poly()
    assert (x + 1) * (x - 1) == x**2 - 1


@pytest.mark.parametrize("n,products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 4), (8, 3)])
def test_poly_pow_products(monkeypatch, n, products):
    # square-and-multiply: bit_length - 1 squarings and popcount - 1 products
    p = Poly((F(1, 2), -3, 1))
    expected = Poly((1,))
    for _ in range(n):
        expected = expected * p
    count = 0
    real_mul = Poly.__mul__

    def counting_mul(self, other):
        nonlocal count
        count += 1
        return real_mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    assert p**n == expected
    assert count == products


def test_poly_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly((1, 1)), Poly())


def test_poly_gcd():
    x = Poly((0, 1))
    assert poly_gcd(x**2 - 1, x**2 - 2 * x + 1) == x - 1
    assert poly_gcd(Poly(), Poly()) == Poly()
    assert poly_gcd(3 * x + 3, Poly()) == x + 1
    # gcd is monic even when inputs are not
    g = poly_gcd(6 * (x - 2) * (x + 1), 4 * (x - 2) * x)
    assert g == x - 2


def test_poly_gcd_random_divides(monkeypatch):
    rng = random.Random(99)
    for _ in range(25):
        a = Poly([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5))])
        b = Poly([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5))])
        g = poly_gcd(a, b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
            continue
        assert (a % g).is_zero and (b % g).is_zero


# -- Fraction-list reference for Poly -------------------------------------


def _ref(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _ref_neg(a):
    return tuple(-c for c in a)


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


def _ref_divmod(a, b):
    rem, dq = list(a), len(b) - 1
    if len(a) - 1 < dq:
        return (), a
    quot = [F(0)] * (len(a) - dq)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + dq] / b[-1]
        quot[k] = c
        for i, y in enumerate(b):
            rem[k + i] -= c * y
    return _ref(quot), _ref(rem)


def _ref_monic(a):
    return tuple(c / a[-1] for c in a) if a else a


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_monic(_ref_divmod(a, b)[1])
    return _ref_monic(a)


def _ref_call(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _check(p, ref):
    assert type(p.coeffs) is tuple and all(type(c) is F for c in p.coeffs)
    assert p.coeffs == ref
    assert p == Poly(ref) and hash(p) == hash(ref)
    assert repr(p) == f"Poly({list(ref)!r})"


def _random_coeffs(rng):
    big = rng.choice((1, 1, 7, 2**64 + 13, 10**30 + 57))
    coeffs = []
    for _ in range(rng.randrange(0, 7)):
        kind = rng.random()
        if kind < 0.2:
            coeffs.append(0)
        elif kind < 0.5:
            coeffs.append(rng.randrange(-40, 41))
        else:
            coeffs.append(F(rng.randrange(-40, 41), rng.randrange(1, 30) * big))
    return coeffs


def test_poly_matches_fraction_reference():
    rng = random.Random(31337)
    raw = [[], [0, 0], [5], [F(-3, 4)], [0, F(1, 10**40 + 3)], [F(2, 3), 0, -4]]
    raw += [_random_coeffs(rng) for _ in range(300)]
    for i, cs in enumerate(raw):
        a, ra = Poly(cs), _ref(cs)
        b_cs = raw[(7 * i + 3) % len(raw)]
        b, rb = Poly(b_cs), _ref(b_cs)
        _check(a, ra)
        _check(a + b, _ref_add(ra, rb))
        _check(a - b, _ref_add(ra, _ref_neg(rb)))
        _check(-a, _ref_neg(ra))
        _check(a * b, _ref_mul(ra, rb))
        scalar = F(rng.randrange(-9, 10), rng.randrange(1, 9))
        _check(a * scalar, _ref_mul(ra, _ref([scalar])))
        _check(3 - a, _ref_add(_ref([3]), _ref_neg(ra)))
        power = (F(1),)
        for _ in range(i % 4):
            power = _ref_mul(power, ra)
        _check(a ** (i % 4), power)
        _check(a.monic(), _ref_monic(ra))
        x = F(rng.randrange(-20, 21), rng.randrange(1, 12))
        assert a(x) == _ref_call(ra, x) and type(a(x)) is F
        assert a(-2) == _ref_call(ra, F(-2)) and type(a(-2)) is F
        assert a.degree == len(ra) - 1
        if ra:
            assert a.lc == ra[-1]
        if rb:
            rq, rr = _ref_divmod(ra, rb)
            q, r = divmod(a, b)
            _check(q, rq)
            _check(r, rr)
            _check(a // b, rq)
            _check(a % b, rr)
        else:
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
        _check(poly_gcd(a, b), _ref_gcd(ra, rb))
        assert (a == b) is (ra == rb)
