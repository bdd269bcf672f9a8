import cmath
import math
from fractions import Fraction

import pytest

from revprime.arithmetic import (
    admissible_exp_sum,
    distinct_primes,
    factorize,
    mobius,
    ramanujan_sum,
    singular_series_binary,
    singular_series_k,
    singular_series_squarefree,
    singular_series_ternary,
    singular_series_ternary_divisor_sum,
    totient,
)
from revprime.digits import Base


def test_factorize():
    assert factorize(990) == {2: 1, 3: 2, 5: 1, 11: 1}
    assert factorize(1) == {}
    assert distinct_primes(990) == (2, 3, 5, 11)


def test_mobius_totient_basics():
    assert mobius(1) == 1 and totient(1) == 1
    assert mobius(12) == 0
    assert totient(990) == 240
    assert [mobius(n) for n in (2, 3, 5, 6, 30)] == [-1, -1, -1, 1, -1]


def test_ramanujan_examples():
    assert ramanujan_sum(5, 1) == -1  # mu(5)
    assert ramanujan_sum(1, 0) == 1
    assert ramanujan_sum(4, 2) == -2


def test_ramanujan_vs_direct_summation():
    for q in range(1, 301):
        coprime = [r for r in range(q) if math.gcd(r, q) == 1]
        for a in range(q):
            direct = sum(cmath.exp(2j * cmath.pi * r * a / q) for r in coprime)
            assert abs(direct.imag) < 1e-6
            assert abs(direct.real - ramanujan_sum(q, a)) < 1e-6, (q, a)


def test_ramanujan_prime_case():
    for p in (2, 3, 5, 7, 11, 13, 97):
        for N in (p, 2 * p, p + 1, 1):
            expected = p - 1 if N % p == 0 else -1
            assert ramanujan_sum(p, N) == expected


def test_admissible_exp_sum_cases(b10):
    assert admissible_exp_sum(3, 1, b10) == -1  # 3 | 990
    assert admissible_exp_sum(7, 1, b10) == 0  # 7 does not divide 990
    assert admissible_exp_sum(1, 1, b10) == 1
    with pytest.raises(ValueError):
        admissible_exp_sum(6, 2, b10)


@pytest.mark.parametrize("b", [2, 3, 6, 10, 12])
def test_admissible_exp_sum_brute(b):
    base = Base(b)
    for q in range(1, 121):
        rho = [1 if math.gcd(r, q, base.modulus) == 1 else 0 for r in range(q)]
        expected = mobius(q) if base.modulus % q == 0 else 0
        for a in range(q):
            if math.gcd(a, q) != 1:
                continue
            direct = sum(rho[r] * cmath.exp(2j * cmath.pi * r * a / q) for r in range(q))
            assert abs(direct - expected) <= 1e-9 * q, (b, q, a)
            assert admissible_exp_sum(q, a, base) == expected


def test_ternary_series_examples(b10):
    assert singular_series_ternary(15, b10) == Fraction(9009, 6400)
    assert singular_series_ternary(14, b10) == 0  # even N kills the p = 2 factor
    assert singular_series_binary(15, b10) == 0  # odd N kills it for k = 2
    assert singular_series_binary(14, b10) > 0


def test_divisor_sum_form(b10):
    assert singular_series_ternary_divisor_sum(15, b10) == Fraction(9009, 6400)
    assert singular_series_ternary_divisor_sum(1, Base(2)) == Fraction(9, 4)


@pytest.mark.parametrize("b", [2, 3, 6, 10, 12])
def test_divisor_sum_equals_product(b):
    base = Base(b)
    for N in range(1, 301):
        assert singular_series_ternary_divisor_sum(N, base) == singular_series_ternary(N, base)


@pytest.mark.parametrize("b", [2, 3, 10, 30])
def test_integer_divisor_sum_equals_product_to_3000(b):
    # the divisor sum adds the integers mu(q) D/phi(q)^3 c_q(N) over one D,
    # and must give the Euler product's Fraction for every N
    base = Base(b)
    for N in range(1, 3001):
        got = singular_series_ternary_divisor_sum(N, base)
        assert isinstance(got, Fraction)
        assert got == singular_series_ternary(N, base), (b, N)


@pytest.mark.parametrize("b", [2, 3, 6, 10])
def test_parity_law(b):
    base = Base(b)
    for k in range(2, 7):
        for N in range(1, 501):
            positive = singular_series_k(N, k, base) > 0
            assert positive == ((k - N) % 2 == 0), (b, k, N)


def test_ternary_above_twin_prime_constant(b10):
    bound = Fraction(66016, 100000)
    for N in range(1, 10**4, 2):
        assert singular_series_ternary(N, b10) > bound


def test_squarefree_series_never_zero(b10):
    for N in range(1, 10**4 + 1):
        assert singular_series_squarefree(N, b10) > 0


def test_series_k_cap(b10):
    with pytest.raises(ValueError):
        singular_series_k(10, 65, b10)
    with pytest.raises(ValueError):
        singular_series_k(10, 1, b10)


@pytest.mark.parametrize("b", [2, 3, 6, 10, 12, 30])
def test_series_k_matches_the_product_at_every_n(b):
    # the memoised value (keyed by N mod rad(b^3 - b)) against the Euler
    # product written out with N itself, past several periods of the radical
    base = Base(b)
    # b^3 - b = (b - 1) b (b + 1): its prime factors are at most b + 1
    primes = [p for p in range(2, b + 2) if base.modulus % p == 0 and all(p % d for d in range(2, p))]
    for k in (2, 3, 4, 7):
        for N in list(range(1, 400)) + [10**12 + 1, 2 * 3 * 5 * 7 * 11 * 13 * 10**6]:
            want = Fraction(1)
            for p in primes:
                want *= 1 - Fraction(-1, p - 1) ** (k - 1 if N % p == 0 else k)
            assert singular_series_k(N, k, base) == want, (b, k, N)
