"""Integer roots by Hensel lifting against brute force."""

import random

import pytest

from relbrauer.local import integer_roots


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        for j, d in enumerate(g, i):
            out[j] += c * d
    return out


def _value(f, x):
    return sum(c * x**i for i, c in enumerate(f))


# every real root of a polynomial that _seeded_polynomial builds lies in
# [-WINDOW, WINDOW], so a scan of the window finds every integer root
WINDOW = 60


def _seeded_polynomial(rng, bits):
    """A squarefree integer polynomial of degree 1 to 24 with its real roots
    in the window: distinct integer roots, 0 and negatives among them, a
    non-integral rational root e/d, a pair +-sqrt(s), and a factor
    h^2 + c with c > 0, which has no real root and carries coefficients of
    the given bit size."""
    f = [rng.choice((1, -1)) * rng.randint(1, 1 << 8)]
    if rng.random() < 0.3:
        # a leading coefficient the first primes divide, which the search
        # for q skips
        f[0] *= 2 * 3 * 5 * 7 * 11 * 13
    for r in rng.sample(range(-50, 51), rng.randint(0, 6)):
        f = _times(f, [-r, 1])
    if rng.random() < 0.5:
        d = rng.randint(2, 9)
        f = _times(f, [-rng.choice([e for e in range(-50, 51) if e % d]), d])
    if rng.random() < 0.5:
        f = _times(f, [-rng.choice((2, 3, 5, 7, 11, 13, 43, 47)), 0, 1])
    room = (24 - (len(f) - 1)) // 2
    if room and (rng.random() < 0.7 or len(f) == 1):
        h = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(rng.randint(0, room))]
        h.append(rng.choice((1, -1)) * rng.randint(1, 1 << bits))
        g = _times(h, h)
        g[0] += rng.randint(1, 1 << bits)
        f = _times(f, g)
    if len(f) == 1:
        f = _times(f, [rng.randint(-50, 50), 1])
    return f


def _brute_force(f):
    return [x for x in range(-WINDOW, WINDOW + 1) if _value(f, x) == 0]


@pytest.mark.parametrize("bits", [4, 64, 200])
def test_integer_roots_match_brute_force(bits):
    rng = random.Random(2300 + bits)
    degrees, with_zero, with_negative = set(), 0, 0
    for _ in range(150):
        f = _seeded_polynomial(rng, bits)
        expected = _brute_force(f)
        assert integer_roots(f) == expected, f
        degrees.add(len(f) - 1)
        with_zero += 0 in expected
        with_negative += any(x < 0 for x in expected)
    assert min(degrees) == 1 and max(degrees) == 24
    assert with_zero and with_negative


def test_integer_roots_edge_cases():
    assert integer_roots([-6, 11, -6, 1]) == [1, 2, 3]
    # a zero root, split off before the search
    assert integer_roots([0, -1, 0, 1]) == [-1, 0, 1]
    assert integer_roots([0, 5]) == [0]
    assert integer_roots([7]) == []
    assert integer_roots([2, 0, 1]) == []
    # a non-integral rational root is lifted and then rejected
    assert integer_roots([-1, 2]) == []
    assert integer_roots([-4, 2]) == [2]
    # trailing zeros are no part of the degree
    assert integer_roots([-2, 1, 0, 0]) == [2]
    # the leading coefficient kills every prime up to 13
    assert integer_roots(_times([30030], [6, 1])) == [-6]
    with pytest.raises(ValueError):
        integer_roots([0, 0])


def test_search_for_q_does_not_stop_at_a_fixed_list():
    # the roots 0..40 collide modulo every prime below 41, so the first
    # prime at which each root is simple is 41
    f = [1]
    for r in range(41):
        f = _times(f, [-r, 1])
    assert integer_roots(f) == list(range(41))


def test_repeated_root_is_refused():
    with pytest.raises(ValueError, match="repeated root"):
        integer_roots(_times(_times([-1, 1], [-1, 1]), [2, 1]))
