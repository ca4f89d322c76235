"""Local (p-adic) routines.

integer_roots finds the integer roots of an integer polynomial with no
factoring: the roots modulo a prime q at which each of them is simple,
lifted q-adically by Newton's iteration past a bound on the roots, then
checked exactly (Cohen, A Course in Computational Algebraic Number Theory,
3.5).
"""

from __future__ import annotations

from math import isqrt


def _value(f: list[int], x: int, m: int) -> int:
    """f(x) mod m, by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def integer_roots(f: list[int]) -> list[int]:
    """The integer roots of f = f[0] + f[1]*x + ... + f[n]*x^n, ascending.

    f has integer coefficients and no repeated root.  Each integer root x
    lies within M = min(|f(0)|, Cauchy's bound) once x = 0 is split off, and
    reduces to a root of f mod q, for the first prime q not dividing f[n]
    at which every root of f mod q is simple.  Newton's iteration lifts
    that root uniquely to q^k > 2M, where x is the residue of least
    absolute value, so each lift is a candidate that f(x) == 0 confirms.
    Every prime rejected on the way divides the discriminant of f, so once
    their product passes Hadamard's bound on the discriminant, f has a
    repeated root and ValueError is raised; nothing stops the search at a
    fixed list of primes.
    """
    f = list(f)
    while f and not f[-1]:
        f.pop()
    if not f:
        raise ValueError("the zero polynomial has every integer as a root")
    roots = []
    if not f[0]:
        roots.append(0)
        while not f[0]:
            del f[0]
    n = len(f) - 1
    if n == 0:
        return roots
    lead, top = f[-1], max(map(abs, f))
    bound = min(abs(f[0]), 1 + top // abs(lead))
    df = [i * c for i, c in enumerate(f)][1:]
    # log2 of Hadamard's bound on |disc f|, rounded up
    budget = (2 * n - 1) * (top.bit_length() + n.bit_length() + 1)
    q = 1
    while True:
        q += 1
        if lead % q == 0 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
            continue
        fq = [c % q for c in f]
        residues = [r for r in range(q) if _value(fq, r, q) == 0]
        if all(_value(df, r, q) for r in residues):
            break
        budget -= q.bit_length() - 1
        if budget < 0:
            raise ValueError("the polynomial has a repeated root")
    for r in residues:
        m = q
        while m <= 2 * bound:
            m *= m
            # f(r) and f'(r) mod m in one pass of Horner's rule
            v = d = 0
            for c in reversed(f):
                d = (d * r + v) % m
                v = (v * r + c) % m
            r = (r - v * pow(d, -1, m)) % m
        x = r if 2 * r <= m else r - m
        if sum(c * x**i for i, c in enumerate(f)) == 0:
            roots.append(x)
    return sorted(roots)
