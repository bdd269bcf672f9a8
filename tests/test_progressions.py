import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from revprime.arithmetic import totient
from revprime.digits import Base, count_coprime_leading
from revprime.errors import ModulusRangeWarning
from revprime.progressions import (
    _class_counts,
    weighted_count_by_length,
    weighted_count_up_to,
    weighted_count_window,
    weighted_counts_up_to,
)
from revprime.sieve import get_prime_table, reversed_prime_arrays


def rev_int(n, b=10):
    r = 0
    while n:
        r = r * b + n % b
        n //= b
    return r


def test_vanishing_class(b10):
    # gcd(0, 2, 990) = 2: no reversed prime coprime to 990 is even
    res = weighted_count_by_length(3, 0, 2, b10)
    assert res.observed == 0.0 and res.main_term == 0.0 and math.isnan(res.ratio)
    assert res.raw_count == 0
    res = weighted_count_up_to(10**4, 0, 2, b10)
    assert res.observed == 0.0 and math.isnan(res.ratio)


def test_vanishing_exhaustive_small_moduli(b10):
    x = 10**5
    for q in range(1, 31):
        for a in range(q):
            if math.gcd(a, q, 990) == 1:
                continue
            res = weighted_count_up_to(x, a, q, b10)
            assert res.observed == 0.0 and res.raw_count == 0, (q, a)


def test_by_length_brute_force(b10):
    table = get_prime_table(10**4)
    expected = sum(
        math.log(p)
        for p in (int(v) for v in table.primes(9999))
        if 100 <= p < 1000 and p % 10 and math.gcd(rev_int(p), 990) == 1
    )
    res = weighted_count_by_length(3, 0, 1, b10)
    assert abs(res.observed - expected) < 1e-9


def test_by_length_ratio_within_quarter(b10):
    res = weighted_count_by_length(4, 1, 3, b10)
    assert abs(res.ratio - 1.0) < 0.25


def test_up_to_brute_force(b10):
    table = get_prime_table(10**3)
    expected = 0.0
    for n in range(1, 101):
        if n % 10 == 0 or math.gcd(n, 990) != 1:
            continue
        p = rev_int(n)
        if table.is_prime(p):
            expected += math.log(p)
    res = weighted_count_up_to(100, 0, 1, b10)
    assert abs(res.observed - expected) < 1e-12


def test_residue_completeness(b10):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModulusRangeWarning)
        for x in (10**3, 10**5):
            total = weighted_count_up_to(x, 0, 1, b10)
            for q in (2, 3, 7, 9, 11, 30):
                parts = [weighted_count_up_to(x, a, q, b10) for a in range(q)]
                assert sum(p.raw_count for p in parts) == total.raw_count
                weighted = sum(p.observed for p in parts)
                assert abs(weighted - total.observed) <= 1e-10 * max(1.0, total.observed)


def test_window_single_point(b10):
    # window of width one at r = 71: 71 = rev(17), coprime to 990
    res = weighted_count_window(2, 2, 71, 0, 1, b10)
    assert res.raw_count == 1
    assert abs(res.observed - math.log(17)) < 1e-12


def test_window_blocked_leading_digit(b10):
    # rev(r) shares a factor with 10: the main term is zero and the count
    # can only hold stray contributions (bounded by L log b, here none)
    res = weighted_count_window(3, 1, 2, 0, 1, b10)
    assert res.main_term == 0.0
    assert res.observed <= 3 * math.log(10)


def test_window_brute_force(b10):
    arr = reversed_prime_arrays(999, b10, require_coprime=True)
    inside = (arr.n >= 300) & (arr.n < 400)
    res = weighted_count_window(3, 1, 3, 0, 1, b10)
    assert res.raw_count == int(inside.sum())
    assert abs(res.observed - float(arr.weight[inside].sum())) < 1e-12


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_window_past_int64_modulus():
    # b^3 - b >= 2^63: the prime-side cross-check tests gcd(n, b^3 - b) = 1
    # against b - 1, b and b + 1 in int64.  With L = 1 the window at r is
    # the single n = r, a reversed prime iff r is a prime.  b = 3^2 43 5419
    # and b + 1 = 2 17 61681, so several of these r share a factor with it.
    base = Base(2**21 + 1)
    assert base.modulus >= 1 << 63
    rs = (2, 3, 5, 7, 17, 43, 97, 5419, 61681, 1000003, 2**21 - 1, 2**21 - 9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModulusRangeWarning)
        for r in rs:
            member = _is_prime(r) and math.gcd(r, base.modulus) == 1
            for a, q in ((0, 1), (1, 2), (r % 7, 7), (3, 7), (r % 30, 30)):
                res = weighted_count_window(1, 1, r, a, q, base)
                hit = member and r % q == a % q
                assert res.raw_count == int(hit), (r, a, q)
                assert res.observed == (math.log(r) if hit else 0.0), (r, a, q)
    assert any(_is_prime(r) and math.gcd(r, base.modulus) > 1 for r in rs)


def test_window_domain_errors(b10):
    with pytest.raises(ValueError):
        weighted_count_window(3, 1, 10, 0, 1, b10)  # r has two digits
    with pytest.raises(ValueError):
        weighted_count_window(3, 4, 1000, 0, 1, b10)  # eta > L


def _windows_partition_the_block(L, a, q, base, etas=(1, 2)):
    """The windows over all r with eta leading digits partition the L-digit
    block: their observed counts must sum to the full-length count."""
    whole = weighted_count_by_length(L, a, q, base)
    b = base.b
    for eta in etas:
        if eta > L:
            continue
        total, raw = 0.0, 0
        for r in range(b ** (eta - 1), b**eta):
            part = weighted_count_window(L, eta, r, a, q, base)
            total += part.observed
            raw += part.raw_count
        if raw != whole.raw_count:
            return False
        if abs(total - whole.observed) > 1e-9 * max(1.0, whole.observed):
            return False
    return True


def test_window_partition(b10, small_bases):
    assert _windows_partition_the_block(3, 0, 1, b10)
    assert _windows_partition_the_block(4, 2, 5, b10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModulusRangeWarning)
        assert _windows_partition_the_block(3, 1, 4, Base(6))


def test_equidistribution_trend_with_floor(b10, fixtures):
    # |ratio - 1| shrinks with x up to a 1.5x slack; steps where both ends
    # are below the recorded noise floor carry no signal and are exempt
    floor = fixtures["theta_trend_floor.b10"]
    devs = [
        abs(weighted_count_up_to(x, 1, 3, b10).ratio - 1.0)
        for x in (10**4, 10**5, 10**6, 10**7)
    ]
    for before, after in zip(devs, devs[1:]):
        assert after <= 1.5 * before or max(before, after) <= floor, devs


def test_modulus_guard_warns(b10):
    with pytest.warns(ModulusRangeWarning):
        weighted_count_by_length(2, 1, 30, b10)


@pytest.mark.parametrize(
    "b, xs",
    [
        (2, [1, 2, 3, 1023, 1024, 5000]),
        (10, [7, 9, 999, 1000, 10**4, 10**5]),
        (30, [7, 29, 899, 900, 20000]),
    ],
)
def test_batch_matches_masked_sums(b, xs):
    # x < b, x = b^L - 1 and x = b^L; a >= q and a < 0; q from 1 to past
    # the number of reversed primes, where most classes hold one or none
    base = Base(b)
    qs = [1, 2, 3, 7, 30, 97, 1000, 10007]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModulusRangeWarning)
        counts = weighted_counts_up_to(xs, qs, base)
    assert set(counts) == {(x, q) for x in xs for q in qs}
    for x in xs:
        arr = reversed_prime_arrays(x, base, require_coprime=True)
        n, w = arr.n, arr.weight
        for q in qs:
            cell = counts[x, q]
            residues = sorted(set((n % q).tolist()) | set(range(min(q, 40))))
            for a in residues + [q + 1, 2 * q + 3, -1]:
                mask = n % q == a % q
                res = cell.result(a)
                assert res.observed == float(w[mask].sum()), (x, q, a)
                assert res.raw_count == int(mask.sum()), (x, q, a)
                g = math.gcd(q, base.modulus)
                main = Fraction(g, totient(g)) / q * count_coprime_leading(x, base)
                assert res.main_term == float(main if math.gcd(a, g) == 1 else 0)


def test_class_counts_match_masked_sums_bit_for_bit(b10):
    # the residue key is n - n // q * q in the narrowest unsigned type that
    # holds q - 1 (8, 16, 32 and 64 bits on either side of each edge; n
    # passes 2^16) and the classes start where the sorted key changes.  The
    # non-empty classes of both spans are checked, and the counts of up to
    # 400 of them (every one for q <= 257) against the masked sum, bit for bit
    spans = [(1, 200000), (12345, 177777)]
    qs = [1, 2, 10, 255, 256, 257, 65536, 65537, 2**32, 2**63 - 1]
    counts = _class_counts(spans, qs, b10)
    arr = reversed_prime_arrays(200000, b10, require_coprime=True)
    n, w = arr.n, arr.weight
    for lo, hi in spans:
        span = (n >= lo) & (n <= hi)
        for q in qs:
            cell = counts[(lo, hi), q]
            present = sorted(set((n[span] % q).tolist()))
            assert cell.residues.dtype == np.int64 and cell.residues.tolist() == present
            for a in present[:: -(-len(present) // 400)] + [q - 1, 3]:
                mask = (n % q == a % q) & span
                res = cell.result(a)
                assert res.observed == w[mask].sum(), (lo, hi, q, a)
                assert res.raw_count == int(mask.sum()), (lo, hi, q, a)


@pytest.mark.parametrize(
    "b, L, windows",
    [
        (2, 11, [(1, 1), (2, 2), (2, 3), (3, 5)]),
        (10, 4, [(1, 7), (1, 5), (2, 20), (2, 71), (3, 999)]),
        (30, 3, [(1, 7), (1, 6), (2, 31), (2, 899)]),
    ],
)
def test_length_and_window_match_masked_sums(b, L, windows):
    # windows (eta, r) over the L-digit block; in bases 10 and 30 some lead
    # with a digit that shares a factor with b, so their main term is 0
    base = Base(b)
    arr = reversed_prime_arrays(b**L - 1, base, require_coprime=True)
    n, w = arr.n, arr.weight
    coprime_leads = sum(math.gcd(d, b) == 1 for d in range(1, b))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModulusRangeWarning)
        for q in (1, 2, 3, 7, 30, 97, 1000):
            g = math.gcd(q, base.modulus)
            for a in (0, 1, 5, q + 1, 2 * q + 3, -1, -q - 2):
                sel = n % q == a % q
                rho = Fraction(g, totient(g)) / q if math.gcd(a, g) == 1 else 0
                res = weighted_count_by_length(L, a, q, base)
                inside = sel & (n >= b ** (L - 1))
                assert res.observed == float(w[inside].sum()), (q, a)
                assert res.raw_count == int(inside.sum()), (q, a)
                assert res.main_term == float(rho * coprime_leads * b ** (L - 1))
                for eta, r in windows:
                    width = b ** (L - eta)
                    res = weighted_count_window(L, eta, r, a, q, base)
                    inside = sel & (n >= r * width) & (n < (r + 1) * width)
                    assert res.observed == float(w[inside].sum()), (eta, r, q, a)
                    assert res.raw_count == int(inside.sum()), (eta, r, q, a)
                    lead = r // b ** (eta - 1)
                    expected = rho * width if math.gcd(lead, b) == 1 else 0
                    assert res.main_term == float(expected), (eta, r, q, a)


def test_batch_warns_once_per_offending_cell(b10):
    # q^4 > b^L: q = 30 at x = 1e3 (L = 4) and x = 1e4 (L = 5); q = 7 is fine
    with pytest.warns(ModulusRangeWarning) as record:
        weighted_counts_up_to([10**3, 10**4], [7, 30], b10)
    assert len([w for w in record if w.category is ModulusRangeWarning]) == 2
    with pytest.warns(ModulusRangeWarning):
        weighted_count_up_to(10**3, 1, 30, b10)


def test_batch_domain_errors(b10):
    for xs, qs in (([0, 10], [1]), ([10], [0]), ([], [1]), ([10], []), ([10], [7, 1 << 63])):
        with pytest.raises(ValueError):
            weighted_counts_up_to(xs, qs, b10)


def test_modulus_past_int64_is_a_value_error(b10):
    # n % q is taken in int64: q >= 2^63 would raise OverflowError
    with pytest.raises(ValueError, match="2\\^63"):
        weighted_count_by_length(3, 0, 1 << 63, b10)
    with pytest.raises(ValueError, match="2\\^63"):
        weighted_count_window(3, 1, 3, 0, 10**19, b10)


def test_blocks_whose_sources_pass_the_ceiling_are_refused_before_a_sieve(b10, monkeypatch, fresh_session):
    # L-digit sources need a sieve to b^L - 1: at 10 digits in base 10 and
    # 32 in base 2 that reaches 2^31.  The refusal compares digit counts, so
    # a huge L never builds b^L; the largest cutoff below 2^31 is refused
    # by its sources' bound, not by its own size
    from revprime import sieve
    from revprime.errors import ResourceLimitError

    def refuse(limit, *, extend=None):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(sieve, "sieve_primes", refuse)
    for L, base in ((10, b10), (10**400, b10), (32, Base(2))):
        with pytest.raises(ResourceLimitError, match="ceiling"):
            weighted_count_by_length(L, 0, 1, base)
        with pytest.raises(ResourceLimitError, match="ceiling"):
            weighted_count_window(L, 1, 1, 0, 1, base)
    for x in (10**9 + 1, 2**31 - 1):
        with pytest.raises(ResourceLimitError, match="sieve to 9999999999"):
            reversed_prime_arrays(x, b10)
    with pytest.raises(AssertionError, match=f"sieved to {10**9 - 1}"):
        reversed_prime_arrays(10**9, b10)  # 10^9 = b^9 needs no 10-digit block
