import math
import random

import numpy as np
import pytest

from revprime import digits
from revprime.digits import (
    Base,
    coprime_leading_intervals,
    count_coprime_leading,
    digits_of,
    residue_admissible,
    reverse,
    reverse_block,
)
from revprime.sieve import weighted_indicator


def test_base_validation():
    assert Base(10).modulus == 990
    assert Base(2).modulus == 6
    with pytest.raises(ValueError):
        Base(1)


def test_reverse_examples(b10):
    assert reverse(23, b10) == 32
    assert reverse(7, b10) == 7
    assert reverse(1867, b10) == 7681
    assert reverse(145, b10) == 541
    with pytest.raises(ValueError):
        reverse(0, b10)


def test_reverse_drops_trailing_zeros(b10):
    # 500 reverses to the shorter integer 5; the involution breaks there
    assert reverse(500, b10) == 5
    assert reverse(reverse(500, b10), b10) == 5


@pytest.mark.parametrize("b", [2, 3, 6, 10, 16])
def test_involution_and_congruence_exhaustive(b):
    base = Base(b)
    mod = b * b - 1
    limit = 10**6
    L = 1
    while b ** (L - 1) <= limit:
        lo, hi = b ** (L - 1), min(b**L - 1, limit)
        n = np.arange(lo, hi + 1, dtype=np.int64)
        rev = reverse_block(n, L, base)
        # rev(n) = b^(L-1) * n mod b^2 - 1
        assert not np.any((rev - (b ** (L - 1) % mod) * n) % mod)
        keep = n % b != 0
        assert np.array_equal(reverse_block(rev[keep], L, base), n[keep])
        L += 1


def _divmod_reverse(n, length, b):
    """Reverse of n zero-padded to `length` base-b digits, one divmod a digit."""
    rev = 0
    for _ in range(length):
        n, d = divmod(n, b)
        rev = rev * b + d
    return rev


@pytest.mark.parametrize(
    "b", [*range(2, 37), 64, 127, 128, 129, 4096, 4099, 16384, 65537]
)
def test_reverse_block_matches_scalar_oracle(b):
    # every length whose values fit int64, so every remainder of the length
    # mod the kernel's digits per step k, the largest with b^k <= 2^14: the
    # bases 11 | 12, 25 | 26 and 128 | 129 sit on the edges of k = 4, 3, 2,
    # and 129 and above take one digit a step.  The input is never written
    # and never returned, and the per-base table of reverses, shared by
    # every call, is read-only and never returned either.
    _, table = digits._reversal_table(Base(b))
    assert table is None or not table.flags.writeable
    rng = random.Random(b)
    L = 1
    while b**L <= 1 << 63:
        lo, hi = b ** (L - 1), b**L - 1
        vals = {0, 1, lo, hi} | {rng.randrange(lo, hi + 1) for _ in range(40)}
        vals |= {v - v % b ** rng.randint(1, L) for v in list(vals)}  # trailing zeros
        vals = sorted(vals)
        values = np.array(vals, dtype=np.int64)
        got = reverse_block(values, L, Base(b))
        assert got.dtype == np.int64
        assert values.tolist() == vals and not np.shares_memory(got, values), (b, L)
        assert table is None or not np.shares_memory(got, table), (b, L)
        assert got.tolist() == [_divmod_reverse(v, L, b) for v in vals], (b, L)
        L += 1
    assert L - 1 >= (12 if b <= 36 else 3)  # the longest length tested


@pytest.mark.parametrize("b", [2, 3, 6, 10])
def test_shared_factor_equivalence(b):
    base = Base(b)
    mod = b * b - 1
    limit = 10**5
    L = 1
    while b ** (L - 1) <= limit:
        lo, hi = b ** (L - 1), min(b**L - 1, limit)
        n = np.arange(lo, hi + 1, dtype=np.int64)
        rev = reverse_block(n, L, base)
        assert np.array_equal(np.gcd(n, mod) > 1, np.gcd(rev, mod) > 1)
        L += 1


def test_count_coprime_leading_examples(b10):
    assert count_coprime_leading(9, b10) == 4
    assert count_coprime_leading(0, b10) == 0
    # block identity: the length-L slab holds phi(b)/b * b^L members
    for L in (2, 3, 5):
        full = count_coprime_leading(10**L, b10) - count_coprime_leading(10 ** (L - 1), b10)
        assert full == 4 * 10 ** (L - 1)


@pytest.mark.parametrize("b", list(range(2, 13)) + [16, 30, 210])
def test_count_coprime_leading_vs_enumeration(b):
    base = Base(b)
    limit = 10**5
    # independent oracle: leading digit by repeated division, cumulative count
    lead = np.arange(limit + 1, dtype=np.int64)
    while (lead >= b).any():
        lead = np.where(lead >= b, lead // b, lead)
    in_b = (lead > 0) & (np.gcd(lead, b) == 1)
    cumulative = np.cumsum(in_b)
    powers = [p + d for L in range(1, 18) if (p := b**L) < limit for d in (-1, 0, 1)]
    for x in list(range(0, 300)) + list(range(300, limit + 1, 997)) + powers + [limit]:
        assert count_coprime_leading(x, base) == cumulative[x], x
        runs = coprime_leading_intervals(x, base)
        # sorted, disjoint and merged: each run ends at least two before the next starts
        assert all(lo <= hi for lo, hi in runs)
        assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(runs, runs[1:]))
        assert not runs or (runs[0][0] >= 1 and runs[-1][1] <= x)
    mask = np.zeros(limit + 1, dtype=bool)
    for lo, hi in coprime_leading_intervals(limit, base):
        mask[lo : hi + 1] = True
    assert np.array_equal(mask, in_b)
    assert np.array_equal(weighted_indicator(limit, "B_set", base=base).weights, in_b.astype(np.float64))


def test_coprime_leading_indicator_brute(b10):
    ind = weighted_indicator(500, "B_set", base=b10).weights
    for n in range(1, 501):
        lead = int(str(n)[0])
        assert ind[n] == (1.0 if math.gcd(lead, 10) == 1 else 0.0)


def test_residue_admissible(b10):
    assert residue_admissible(5, 1, b10) == 1
    assert residue_admissible(3, 6, b10) == 0
    assert residue_admissible(7, 6, b10) == 1
    assert residue_admissible(0, 2, b10) == 0
    with pytest.raises(ValueError):
        residue_admissible(1, 0, b10)


@pytest.mark.parametrize("q", [7, 13, 17, 49, 91])
def test_admissible_when_modulus_coprime(q, b10):
    # gcd(q, 990) = 1 makes every residue admissible
    assert math.gcd(q, b10.modulus) == 1
    assert all(residue_admissible(a, q, b10) == 1 for a in range(q))


def test_digits_little_endian(b10):
    assert digits_of(1867, b10) == [7, 6, 8, 1]
    assert digits_of(0, b10) == [0]
