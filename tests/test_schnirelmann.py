from fractions import Fraction
from itertools import combinations_with_replacement

import tracemalloc

import pytest

import revprime.schnirelmann as schnirelmann
from revprime.digits import Base
from revprime.schnirelmann import (
    min_k_representation,
    primorial,
    scan_min_k,
    verify_gap,
)
from revprime.sieve import reversed_prime_arrays


def test_primorials():
    assert primorial(1) == 2
    assert primorial(2) == 6
    assert primorial(3) == 30
    assert primorial(4) == 210
    with pytest.raises(ValueError):
        primorial(0)
    with pytest.raises(ValueError):
        primorial(10)


def test_gap_base6_two_digits():
    report = verify_gap(2, 2)
    assert (report.lo, report.hi) == (12, 24)
    assert report.reversed_prime_count == 0
    assert report.forced_k == Fraction(4, 2)


def test_gap_base6_three_digits():
    report = verify_gap(2, 3)
    assert (report.lo, report.hi) == (72, 144)
    assert report.reversed_prime_count == 0


def test_gap_base30():
    report = verify_gap(3, 2)
    assert report.reversed_prime_count == 0
    assert report.forced_k == Fraction(6, 2)


def test_gap_base2_degenerate():
    # base 2 has consecutive "forbidden" digits collapsing to nothing:
    # 11 = rev(13) sits inside [8, 12], so no vanishing claim holds
    report = verify_gap(1, 3)
    assert (report.lo, report.hi) == (8, 12)
    assert report.reversed_prime_count == 1


def test_gap_against_enumeration():
    # cross-check: enumerate the 2-digit base-6 reversed primes directly
    base = Base(6)
    arr = reversed_prime_arrays(35, base)
    two_digit = sorted(int(n) for n in arr.n if 6 <= n < 36)
    assert two_digit == [7, 8, 9, 11, 31, 32, 33, 34]
    assert not any(12 <= n <= 24 for n in two_digit)


def test_min_k_single(b10):
    res = min_k_representation(32, b10, 4)
    assert res.k == 1 and res.single and res.witness == [32]


def test_min_k_600(b10, fixtures):
    assert min_k_representation(600, b10, 2).k is None
    res = min_k_representation(600, b10, 4)
    assert res.k == int(fixtures["min_k.b10.n600"]) == 3
    assert sum(res.witness) == 600 and len(res.witness) == 3


def test_witnesses_reverify(b10):
    pool = set(int(n) for n in reversed_prime_arrays(500, b10).n)
    for N in range(40, 120):
        res = min_k_representation(N, b10, 4)
        if res.k is None:
            continue
        assert len(res.witness) == res.k
        assert sum(res.witness) == N
        assert all(w in pool for w in res.witness)


def test_scan_partition(b10):
    res = scan_min_k(100, 250, b10, 4)
    assert res.total == 151
    assert sum(res.counts.values()) + len(res.failures) == 151


def test_scan_prime_base_mostly_two():
    # prime base: binary sums conjectured to dominate even targets
    res = scan_min_k(100, 200, Base(3), 4)
    assert res.total == 101
    assert not res.failures
    evens = res.counts.get(2, 0)
    assert evens > 0


def test_scan_odd_window_small_k(b10):
    # odd targets in base 10 stay within three summands on sampled windows
    res = scan_min_k(1001, 1101, b10, 4)
    odd_ks = [k for k in res.counts if k is not None]
    assert not res.failures
    assert max(odd_ks) <= 3


def test_scan_reproducible(b10):
    a = scan_min_k(300, 360, b10, 3)
    b = scan_min_k(300, 360, b10, 3)
    assert a.counts == b.counts and a.failures == b.failures


def test_scan_validation(b10):
    with pytest.raises(ValueError):
        scan_min_k(10, 5, b10, 3)
    with pytest.raises(ValueError):
        min_k_representation(100, b10, 9)


def test_scan_base30_pinned():
    res = scan_min_k(2, 4000, Base(30), 4)
    assert res.counts == {1: 500, 2: 2906, 3: 552, 4: 41}
    assert res.failures == []


def test_scan_base6_pinned():
    res = scan_min_k(2, 3000, Base(6), 8)
    assert res.counts == {1: 595, 2: 2130, 3: 274}
    assert res.failures == []


def test_min_k_base30_pinned():
    res = min_k_representation(4001, Base(30), 6)
    assert res.k == 3
    assert res.witness == [407, 1797, 1797]


def test_min_k_builds_only_the_layers_below_n(monkeypatch):
    # the layer that holds N is never built: k <= 2 costs no convolution,
    # k = 3 one (the sums of two)
    built = []
    step = schnirelmann.reach_step
    monkeypatch.setattr(
        schnirelmann, "reach_step", lambda *a, **kw: built.append(1) or step(*a, **kw)
    )
    tracemalloc.start()
    try:
        res = min_k_representation(10**7, Base(10), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.k, res.witness) == (2, [11, 9999989])
    assert built == []
    assert peak < 100 * 2**20  # building layer 2 here is an FFT of length 2**25: over 500 MB
    assert min_k_representation(4001, Base(30), 6).k == 3
    assert built == [1]


def test_scan_holds_its_open_targets_as_a_mask(capsys):
    # one bool per target, cleared layer by layer: the int64 list of open
    # targets, gathered and compressed at every layer, peaked at 96.4 MiB
    from revprime import cli

    args = ["--base", "2", "schnirelmann", "--op", "scan", "--lo", "2", "--hi", "2e6", "--kmax", "4"]
    tracemalloc.start()
    try:
        assert cli.main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert out == "k,count\n1,148840\n2,999998\n3,851159\nfailures,2\n"
    assert err.startswith("# failures: 2,4\n")
    assert peak < 90 * 2**20, peak


def _brute_pool(N, b):
    """Reversed primes <= N by digit reversal and trial division."""

    def is_prime(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    def rev(n):
        out = 0
        while n:
            n, d = divmod(n, b)
            out = out * b + d
        return out

    return [n for n in range(1, N + 1) if n % b and is_prime(rev(n))]


@pytest.mark.parametrize("b", [2, 3, 6, 10, 30])
def test_min_k_witness_is_first_combination(b):
    for N in range(2, 201):
        pool = _brute_pool(N, b)
        want_k, want = None, []
        for k in (1, 2, 3):
            first = next(
                (c for c in combinations_with_replacement(pool, k) if sum(c) == N), None
            )
            if first is not None:
                want_k, want = k, list(first)
                break
        res = min_k_representation(N, Base(b), 3)
        assert (res.k, res.witness) == (want_k, want), (b, N)
