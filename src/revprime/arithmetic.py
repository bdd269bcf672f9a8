"""Exact multiplicative number theory: Mobius, totient, Ramanujan sums, and
the singular-series products attached to a reversal base.

All singular series values are exact `fractions.Fraction`s; conversion to
float happens once, in the caller that multiplies by a combinatorial factor.
The products run over the distinct primes dividing b^3 - b, so every value
here is a finite rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .digits import Base

# zeta(2) = pi^2/6 in double precision; used once per prediction.
ZETA2 = math.pi**2 / 6

MAX_SERIES_K = 64


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (arguments here are small:
    divisors of b^3 - b or moduli up to ~10^6)."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def distinct_primes(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorize(n)))


@lru_cache(maxsize=65536)
def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=65536)
def totient(n: int) -> int:
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result


def ramanujan_sum(q: int, a: int) -> int:
    """c_q(a) = sum over r mod q, gcd(r,q)=1, of e(ra/q), via the closed
    form mu(q/g) * phi(q) / phi(q/g) with g = gcd(a, q)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    g = math.gcd(a, q)
    qg = q // g
    mu = mobius(qg)
    if mu == 0:
        return 0
    return mu * totient(q) // totient(qg)


def admissible_exp_sum(q: int, a: int, base: Base) -> int:
    """Closed form of sum over r mod q of e(ra/q) restricted to residues r
    with gcd(r, q, b^3 - b) = 1: equals mu(q) when q | b^3 - b, else 0.

    Requires gcd(a, q) = 1; the value is independent of a, but a is taken
    (and validated) so brute-force checks can exercise the full statement.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd(a, q) must be 1, got gcd({a}, {q}) = {math.gcd(a, q)}")
    return mobius(q) if base.modulus % q == 0 else 0


def singular_series_k(N: int, k: int, base: Base) -> Fraction:
    """Arithmetic density factor for sums of k reversed primes hitting N:

        prod_{p | b^3-b, p | N} (1 - (-1/(p-1))^(k-1))
      * prod_{p | b^3-b, p ndiv N} (1 - (-1/(p-1))^k)

    Positive iff k and N have the same parity (the p = 2 factor vanishes
    otherwise).  k = 2 and k = 3 are the binary and ternary series.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 2 <= k <= MAX_SERIES_K:
        raise ValueError(f"k must be in [2, {MAX_SERIES_K}]")
    return _series_k(base.b, k, N % _radical(base.modulus))


@lru_cache(maxsize=1024)
def _radical(m: int) -> int:
    """The product of the distinct primes dividing m."""
    return math.prod(distinct_primes(m))


@lru_cache(maxsize=65536)
def _series_k(b: int, k: int, residue: int) -> Fraction:
    """singular_series_k at any N = residue mod rad(b^3 - b): each factor
    asks only whether a prime p | b^3 - b divides N."""
    value = Fraction(1)
    for p in distinct_primes(b**3 - b):
        e = k - 1 if residue % p == 0 else k
        value *= 1 - Fraction(-1, p - 1) ** e
    return value


def singular_series_binary(N: int, base: Base) -> Fraction:
    """k = 2 series: prod_{p|m, p|N}(1 + 1/(p-1)) * prod_{p|m, p!|N}(1 - 1/(p-1)^2)."""
    return singular_series_k(N, 2, base)


def singular_series_ternary(N: int, base: Base) -> Fraction:
    """k = 3 series: prod_{p|m, p|N}(1 - 1/(p-1)^2) * prod_{p|m, p!|N}(1 + 1/(p-1)^3)."""
    return singular_series_k(N, 3, base)


def singular_series_ternary_divisor_sum(N: int, base: Base) -> Fraction:
    """The ternary series as the finite divisor sum

        sum_{q | b^3-b} mu(q)/phi(q)^3 * c_q(N),

    which must equal singular_series_ternary(N) exactly (the sum collapses
    to the Euler product over the squarefree divisors).  With D the product
    of (p - 1)^3 over the primes p | b^3 - b, each term is the integer
    mu(q) D/phi(q)^3 times the integer c_q(N), over D.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    D, terms = _ternary_divisor_terms(base.b)
    return Fraction(sum(unit * ramanujan_sum(q, N) for q, unit in terms), D)


@lru_cache(maxsize=1024)
def _ternary_divisor_terms(b: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(D, ((q, mu(q) D/phi(q)^3) for each squarefree q | b^3 - b)), with D
    the product of (p - 1)^3 over the primes p | b^3 - b."""
    primes = distinct_primes(b**3 - b)
    D = math.prod((p - 1) ** 3 for p in primes)
    terms = []
    for r in range(len(primes) + 1):
        for subset in combinations(primes, r):
            q = math.prod(subset)
            terms.append((q, mobius(q) * (D // totient(q) ** 3)))
    return D, tuple(terms)


def singular_series_squarefree(N: int, base: Base) -> Fraction:
    """Density factor for N = (reversed prime) + (squarefree):

        prod_{p | b^3-b} (1 + 1/(p^2-1))
      * prod_{p | b^3-b, p ndiv N} (1 - 1/(p^2-p)).

    Derived from sum_d mu(d)/d^2 * (d^2,m)/phi((d^2,m)) restricted to
    admissible d, with the zeta(2)^-1 factor pulled out.  Nonzero for every
    N (all factors are positive).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    value = Fraction(1)
    for p in distinct_primes(base.modulus):
        value *= 1 + Fraction(1, p * p - 1)
        if N % p != 0:
            value *= 1 - Fraction(1, p * p - p)
    return value
