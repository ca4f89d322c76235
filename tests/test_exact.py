"""Integer factoring, power-free parts, and exact polynomial arithmetic."""

import random
from fractions import Fraction as F

import pytest

from relbrauer.exact import (
    FactoringLimitExceeded,
    Poly,
    divisors,
    factor,
    is_probable_prime,
    mth_power_free_part,
    poly_gcd,
)

M61 = 2**61 - 1


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


def test_factor_basic():
    assert factor(-432) == (-1, {2: 4, 3: 3})
    assert factor(1) == (1, {})
    assert factor(-1) == (-1, {})
    assert factor(97) == (1, {97: 1})
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


def test_factor_limit_exceeded():
    with pytest.raises(FactoringLimitExceeded):
        factor(M61 * M61, trial_bound=10, rho_cap=50)


def test_factor_backstop_sweep_runs_when_rho_gives_up():
    # 1009 lies above the small-prime stage and one rho iteration cannot
    # split the product, so only the fallback trial division finds it
    assert factor(1009 * 1000003, rho_cap=1) == (1, {1009: 1, 1000003: 1})


def test_factor_does_not_rerun_rho_on_an_unchanged_cofactor(monkeypatch):
    import relbrauer.exact as exact

    calls = []
    real = exact._split_with_rho

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(exact, "_split_with_rho", counting)
    with pytest.raises(FactoringLimitExceeded):
        factor(M61 * M61, trial_bound=2000, rho_cap=50)
    assert calls == [M61 * M61]


def test_factor_limit_names_the_input():
    n = 7 * M61 * M61
    with pytest.raises(FactoringLimitExceeded) as excinfo:
        factor(n, trial_bound=10, rho_cap=50)
    assert str(n) in str(excinfo.value)
    assert str(M61 * M61) in str(excinfo.value)


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


def test_divisors():
    assert divisors(factor(12)[1]) == [1, 2, 3, 4, 6, 12]
    assert divisors({}) == [1]


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
