import math
import os
import zlib

import numpy as np
import pytest

from revprime import cli
from revprime.digits import Base, reverse
from revprime.errors import (
    CacheChecksumError,
    CacheFormatError,
    CacheVersionError,
    ResourceLimitError,
)
import revprime.sieve as sieve
from revprime.sieve import (
    CACHE_MAGIC,
    cache_load,
    cache_store,
    indicator_mask,
    reversed_prime_arrays,
    sieve_primes,
    weighted_indicator,
)


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def test_sieve_small_sets():
    assert sieve_primes(30).primes().tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert sieve_primes(2).primes().tolist() == [2]
    assert sieve_primes(3).primes().tolist() == [2, 3]


def test_sieve_vs_trial_division():
    table = sieve_primes(10**4)
    assert table.primes().tolist() == trial_division_primes(10**4)
    assert table.count() == 1229
    for n in (0, 1, 2, 3, 4, 9973, 9999, 10000):
        assert table.is_prime(n) == (n in set(trial_division_primes(10**4)))


def test_sieve_millionth_count():
    assert sieve_primes(10**6).count() == 78498


def eratosthenes_odd_mask(limit):
    """Unsegmented reference sieve: entry i is the primality of 2i + 1."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return is_prime[1::2]


SEGMENT = 2 * sieve.SEGMENT_ODDS  # values per segment
WHEEL_SPAN = 2 * math.prod(sieve.WHEEL)  # values per wheel period


def test_sieve_matches_trial_division_at_every_small_limit():
    primes = trial_division_primes(2000)
    for limit in range(2, 2001):
        expected = [p for p in primes if p <= limit]
        got = sieve_primes(limit)
        assert len(got.odd_mask) == (limit + 1) // 2
        assert got.primes().tolist() == expected, limit


@pytest.mark.parametrize("limit", [
    *(k * SEGMENT + d for k in (1, 2) for d in (-1, 0, 1, 2)),
    WHEEL_SPAN - 1,
    WHEEL_SPAN + 1,
])
def test_sieve_matches_reference_across_segment_and_wheel_edges(limit):
    assert np.array_equal(sieve_primes(limit).odd_mask, eratosthenes_odd_mask(limit))


def test_sieve_counts_primes_below_ten_million():
    assert sieve_primes(10**7 - 1).count() == 664579


@pytest.mark.parametrize("old, new", [
    (2, 3),
    (3, 400),
    (18, 2000),
    (WHEEL_SPAN - 1, WHEEL_SPAN + 1),
    (WHEEL_SPAN, SEGMENT + 1),
    (SEGMENT - 1, SEGMENT + 2),
    (SEGMENT, 2 * SEGMENT - 1),
    (SEGMENT + 1, 2 * SEGMENT + 2),
    (1000, 2 * SEGMENT),
])
def test_grown_table_equals_a_fresh_sieve(old, new):
    # the old mask is copied as the prefix and only the odd numbers above
    # its limit are sieved, from odd and even old limits alike
    grown = sieve_primes(new, extend=sieve_primes(old))
    assert grown.limit == new
    assert np.array_equal(grown.odd_mask, sieve_primes(new).odd_mask)
    assert np.array_equal(grown.odd_mask, eratosthenes_odd_mask(new))


def test_get_prime_table_grows_the_shared_table(monkeypatch, fresh_session):
    real, calls = sieve.sieve_primes, []

    def spy(limit, *, extend=None):
        calls.append((limit, None if extend is None else extend.limit))
        return real(limit, extend=extend)

    monkeypatch.setattr(sieve, "sieve_primes", spy)
    assert sieve.get_prime_table(1000).limit == 1000
    assert sieve.get_prime_table(500).limit == 1000
    grown = sieve.get_prime_table(SEGMENT + 1)
    assert calls == [(1000, None), (SEGMENT + 1, 1000)]
    assert np.array_equal(grown.odd_mask, real(SEGMENT + 1).odd_mask)


def test_sieve_limit_range():
    with pytest.raises(ResourceLimitError):
        sieve_primes(1)
    with pytest.raises(ResourceLimitError) as err:
        sieve_primes((1 << 38) + 1)
    assert "bytes" in str(err.value)


def rev_int(n, b):
    r = 0
    while n:
        r = r * b + n % b
        n //= b
    return r


@pytest.mark.parametrize("b", [2, 3, 6, 10])
def test_enumeration_matches_oracle(b):
    base = Base(b)
    x = 10**4
    # independent n-side oracle: walk n, reverse by divmod, test primality
    table = sieve_primes(10**6)
    expected = []
    for n in range(1, x + 1):
        if n % b == 0:
            continue
        p = rev_int(n, b)
        if table.is_prime(p):
            expected.append((n, p))
    arrays = reversed_prime_arrays(x, base)
    got = list(zip(arrays.n.tolist(), arrays.p.tolist()))
    assert got == expected


@pytest.mark.parametrize("b", [2, 3, 6, 10])
def test_enumeration_matches_nside_oracle_1e5(b):
    # n-side formulation at scale: walk every n <= 1e5 with nonzero last
    # digit, reverse blockwise, and keep those whose reverse is prime
    from revprime.digits import reverse_block

    base = Base(b)
    x = 10**5
    table = sieve_primes(10**6)
    expected_n = []
    L = 1
    while b ** (L - 1) < x:
        lo, hi = b ** (L - 1), min(b**L - 1, x)
        n = np.arange(lo, hi + 1, dtype=np.int64)
        n = n[n % b != 0]
        rev = reverse_block(n, L, base)
        is_p = np.array([table.is_prime(int(p)) for p in rev]) if len(rev) < 2000 else (
            (rev == 2) | ((rev % 2 == 1) & table.odd_mask[rev // 2])
        )
        expected_n.extend(int(v) for v in n[is_p])
        L += 1
    got = reversed_prime_arrays(x, base)
    assert sorted(expected_n) == got.n.tolist()


def test_enumeration_examples(b10):
    arrays = reversed_prime_arrays(40, b10)
    i = arrays.n.tolist().index(32)
    assert arrays.p[i] == 23 and not arrays.coprime[i]
    assert reversed_prime_arrays(1, b10).n.tolist() == []
    first = reversed_prime_arrays(2, b10)
    assert (first.n[0], first.p[0]) == (2, 2)


def test_enumeration_checks_its_bound_at_the_call(b10, fresh_session, capsys):
    # enumerate builds its arrays before it writes the header, so a refused
    # bound has written nothing
    with pytest.raises(ValueError, match="x must be >= 1"):
        reversed_prime_arrays(0, b10)
    assert cli.main(["enumerate", "--limit", "0"]) == 2
    assert capsys.readouterr().out == ""
    assert cli.main(["enumerate", "--limit", "40"]) == 0
    assert [row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:4]] == ["2", "3", "5"]


def test_indicator_refuses_sources_past_the_ceiling_before_allocating(monkeypatch, fresh_session):
    # x = 200000 is below the lowered ceiling, but its sources reach 999999:
    # the 200001-byte mask must not be allocated before the refusal
    import tracemalloc

    monkeypatch.setattr(sieve, "MAX_SEQUENCE_LEN", 500000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="ceiling"):
            indicator_mask(200000, "reversed_prime", Base(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200000
    assert fresh_session.table is None


def test_enumeration_monotone_and_weights(b10):
    arr = reversed_prime_arrays(10**5, b10)
    assert np.all(np.diff(arr.n) > 0)
    assert np.allclose(arr.weight, np.log(arr.p.astype(float)), rtol=0, atol=0)
    # involution on records: reversing n recovers p and vice versa
    for n, p in zip(arr.n[:200], arr.p[:200]):
        assert rev_int(int(n), 10) == int(p) and rev_int(int(p), 10) == int(n)


@pytest.mark.parametrize("b", [2, 3, 5, 7])
def test_only_base_itself_skipped(b):
    # the single prime with last digit zero is p = b (prime bases only);
    # every other prime must appear as a source
    base = Base(b)
    x = b**3
    table = sieve_primes(x)
    sources = set(int(p) for p in reversed_prime_arrays(x - 1, base).p)
    for p in table.primes(x - 1):
        p = int(p)
        if p == b:
            assert p not in sources
        else:
            assert p in sources, (b, p)


def _full_block_oracle(table, base):
    """(n, p, weight, coprime) over every prime of the table with a nonzero
    last digit, each reversed with digits.reverse, sorted by n."""
    pairs = sorted((reverse(p, base), p) for p in table.primes().tolist() if p % base.b)
    n = np.array([r for r, _ in pairs], dtype=np.int64)
    p = np.array([q for _, q in pairs], dtype=np.int64)
    coprime = np.array([math.gcd(r, base.modulus) == 1 for r, _ in pairs], dtype=bool)
    return n, p, np.log(p.astype(np.float64)), coprime


def _group_cutoffs(b, L_top):
    """x = 1, x < b, and per length L: d b^(L-1) - 1, d b^(L-1) and the
    group end (d + 1) b^(L-1) - 1 for a few leading digits d, and b^L - 1,
    b^L, b^L + 1, all up to b^L_top."""
    xs = {1, b - 1, b}
    for L in range(1, L_top + 1):
        unit = b ** (L - 1)
        for d in {1, min(2, b - 1), b // 2, b - 1}:
            xs |= {d * unit - 1, d * unit, (d + 1) * unit - 1}
        xs |= {b**L - 1, b**L, b**L + 1}
    return sorted(x for x in xs if 1 <= x <= b**L_top)


@pytest.mark.parametrize("b, L_top", [
    (2, 12), (3, 7), (10, 5), (30, 3),
    (9, 5), (15, 4),  # odd composite: sources step 2b through the odd mask
    (6, 6), (16, 4),  # even: sources step b
    (7, 6), (31, 3),  # prime: p = b ends in 0 and is dropped
    (36, 3), (257, 2),
])
def test_bounded_build_matches_full_block_oracle(b, L_top, fresh_session):
    # the top block is reversed only up to x's leading-digit group; growing
    # the cached build (small x first) and cutting it (large x first) must
    # both give every column of the full-block enumeration cut at x
    base = Base(b)
    table = sieve_primes(b**L_top - 1)
    oracle = _full_block_oracle(table, base)
    xs = _group_cutoffs(b, L_top)
    assert xs[0] == 1 and xs[-1] == b**L_top
    for order in (xs, xs[::-1]):
        fresh_session.builds.clear()
        for x in order:
            cut = int(np.searchsorted(oracle[0], x, side="right"))
            got = reversed_prime_arrays(x, base)
            assert got.x == x
            for name, want in zip(("n", "p", "weight", "coprime"), oracle):
                assert np.array_equal(getattr(got, name), want[:cut]), (b, x, name)


@pytest.mark.parametrize("b", range(2, 65))
def test_coprime_column_matches_gcd(b, fresh_session):
    # the column looks n up by n mod M, M the product of the least primes
    # of b^3 - b while M <= 2^16; a prime left out is tested by division.
    # In base 42 that is 43, and n = 43 = rev(43) must come out not coprime.
    base = Base(b)
    got = reversed_prime_arrays(20000, base)
    assert got.coprime.tolist() == [math.gcd(n, base.modulus) == 1 for n in got.n.tolist()]
    if b == 42:
        assert 43 in got.n.tolist() and not got.coprime[got.n.tolist().index(43)]


def test_coprime_column_past_int64_modulus(fresh_session):
    # b^3 - b >= 2^63: the coprime column still equals gcd(n, b^3 - b) == 1
    base = Base(2**21 + 1)
    assert base.modulus >= 1 << 63
    got = reversed_prime_arrays(base.b - 1, base)
    assert got.n.tolist() == sieve_primes(base.b - 1).primes().tolist()
    want = [math.gcd(n, base.modulus) == 1 for n in got.n.tolist()]
    assert got.coprime.tolist() == want
    assert not all(want)


def _count_builds(monkeypatch):
    """Every later reversed-prime build is appended to the returned list."""
    builds = []
    build = sieve._build_blocks
    monkeypatch.setattr(sieve, "_build_blocks", lambda *a: builds.append(build(*a)) or builds[-1])
    return builds


def test_ascending_represent_range_builds_once(monkeypatch, fresh_session, capsys):
    builds = _count_builds(monkeypatch)
    assert cli.main(["represent", "--family", "r12", "--n", "117659..117698"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 40
    assert [full.x for full in builds] == [199999]


def test_cutoff_at_a_power_of_b_builds_once(monkeypatch, fresh_session, b10):
    # 10^5 is not a reversed prime: the 5-digit build, complete to 99999,
    # serves it
    builds = _count_builds(monkeypatch)
    for x in (10**5, 10**5, 99999, 10**5, 10**5 + 1):
        reversed_prime_arrays(x, b10)
    assert [full.x for full in builds] == [99999, 199999]


def test_count_ap_grid_builds_once_to_the_group_end(monkeypatch, fresh_session, capsys):
    builds = _count_builds(monkeypatch)
    args = ["count-ap", "--x", "11700000,18300000", "--q", "1..10", "--a", "0..9"]
    assert cli.main(args) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 10 * 10
    assert [full.x for full in builds] == [19999999]
    # a lone call reverses only the 8-digit primes ending in 1
    fresh_session.builds.clear()
    assert reversed_prime_arrays(18300000, Base(10)).x == 18300000
    assert [full.x for full in builds] == [19999999, 19999999]
    top = builds[1].n >= 10**7
    assert top.any() and (builds[1].p[top] % 10 == 1).all()


@pytest.mark.parametrize("b", [2, 3, 10, 30])
def test_weighted_indicator_is_bitwise_a_prefix_of_a_longer_one(b, fresh_session):
    # a represent batch hands target N the view weights[:N + 1] of one build
    # at its largest target M; it must be bitwise the indicator built at N,
    # before and after the session's table and reversed-prime build grow
    base, M = Base(b), 30000
    kinds = ("prime", "reversed_prime_coprime")
    Ns = list(range(990, 1010)) + [4096, 4097, 29999, M]
    before = {(N, kind): weighted_indicator(N, kind, base=base) for N in Ns[:22] for kind in kinds}
    longer = {kind: weighted_indicator(M, kind, base=base).weights for kind in kinds}
    assert fresh_session.builds[b].x >= M
    members = set()
    for N in Ns:
        for kind in kinds:
            prefix = longer[kind][: N + 1].view(np.uint64)
            after = weighted_indicator(N, kind, base=base).weights.view(np.uint64)
            assert np.array_equal(prefix, after), (N, kind)
            if (N, kind) in before:
                assert np.array_equal(prefix, before[N, kind].weights.view(np.uint64)), (N, kind)
            members.add((kind, bool(prefix[N])))
    assert members == {(kind, m) for kind in kinds for m in (False, True)}


def test_coprime_filter(b10):
    arr = reversed_prime_arrays(1000, b10, require_coprime=True)
    assert np.all(np.gcd(arr.n, 990) == 1)
    # against the unfiltered stream
    full = reversed_prime_arrays(1000, b10)
    assert len(arr) == int((np.gcd(full.n, 990) == 1).sum())


def test_weighted_indicator_prime():
    w = weighted_indicator(10, "prime")
    assert set(np.flatnonzero(w.weights).tolist()) == {2, 3, 5, 7}
    assert w.weights[7] == math.log(7)


def test_weighted_indicator_reversed(b10):
    w = weighted_indicator(40, "reversed_prime_coprime", base=b10)
    # 32 = rev(23) is a reversed prime but gcd(32, 990) = 2, so excluded here
    assert w.weights[32] == 0.0
    assert w.weights[13] == math.log(31)
    assert w.weights[0] == 0.0


def test_weighted_indicator_total_matches_direct_sum(b10):
    w = weighted_indicator(100, "reversed_prime_coprime", base=b10)
    direct = sum(
        math.log(rev_int(n, 10))
        for n in range(1, 101)
        if n % 10 and math.gcd(n, 990) == 1 and sieve_primes(10**3).is_prime(rev_int(n, 10))
    )
    assert abs(w.weights.sum() - direct) < 1e-9


def test_indicator_mask_is_the_weighted_support(b10):
    for kind, base in (("prime", None), ("reversed_prime_coprime", b10)):
        w = weighted_indicator(500, kind, base=base)
        assert np.array_equal(indicator_mask(500, kind, base=base), w.weights > 0)
    unfiltered = indicator_mask(40, "reversed_prime", base=b10)
    assert unfiltered[32] and unfiltered[13]  # 32 = rev(23) has no coprimality filter here
    with pytest.raises(ValueError):
        indicator_mask(40, "reversed_prime")


def test_indicator_mask_length_ceiling(monkeypatch):
    monkeypatch.setattr(sieve, "MAX_SEQUENCE_LEN", 1000)
    assert indicator_mask(999, "prime").sum() == 168
    with pytest.raises(ResourceLimitError):
        indicator_mask(1000, "prime")


def test_cache_roundtrip(tmp_path):
    table = sieve_primes(10**4)
    path = tmp_path / "table.bin"
    cache_store(path, table)
    loaded = cache_load(path)
    assert loaded.limit == table.limit
    assert np.array_equal(loaded.odd_mask, table.odd_mask)


# sha256 of the files cache_store wrote for these limits with the sieve that
# ran segments of 2^24 odd numbers on a thread pool; an equal file keeps
# every table cached before the wheel sieve a hit
CACHE_FILE_SHA256 = {
    10**5: "fd2f340f3b8087646627551dbe09124237fde8a322c332b724e5c396b1acf0fa",
    3 * 2**20 + 5: "991b3527c29f4578c3ed25337ec37543ec4ef5981f262850c4fadc1aa59a1382",
}


@pytest.mark.parametrize("limit", sorted(CACHE_FILE_SHA256))
def test_cache_file_bytes_are_pinned(limit, tmp_path):
    import hashlib

    path = tmp_path / "table.bin"
    cache_store(path, sieve_primes(limit))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_FILE_SHA256[limit]


def test_cache_truncation_checksum(tmp_path):
    path = tmp_path / "table.bin"
    cache_store(path, sieve_primes(10**4))
    raw = path.read_bytes()
    path.write_bytes(raw[:-25])
    with pytest.raises(CacheChecksumError):
        cache_load(path)


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "table.bin"
    cache_store(path, sieve_primes(100))
    raw = path.read_bytes()
    path.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(CacheFormatError):
        cache_load(path)


def test_cache_bad_version(tmp_path):
    path = tmp_path / "table.bin"
    cache_store(path, sieve_primes(100))
    raw = bytearray(path.read_bytes())
    off = len(CACHE_MAGIC)
    raw[off : off + 4] = (9).to_bytes(4, "little")
    # re-seal the checksum so the version check is what fires
    payload = bytes(raw[:-8])
    raw[-8:] = zlib.crc32(payload).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheVersionError):
        cache_load(path)


def test_cache_lock_released(tmp_path):
    path = tmp_path / "table.bin"
    cache_store(path, sieve_primes(100))
    assert not os.path.exists(str(path) + ".lock")
    cache_store(path, sieve_primes(200))
    assert cache_load(path).limit == 200


def test_cache_store_ignores_leftovers_of_a_dead_writer(tmp_path):
    # a writer killed mid-store used to leave table.bin.lock (which blocked
    # every later store) and a partial table.bin.tmp
    path = tmp_path / "table.bin"
    (tmp_path / "table.bin.lock").write_bytes(b"")
    (tmp_path / "table.bin.tmp").write_bytes(b"partial")
    cache_store(path, sieve_primes(300))
    assert cache_load(path).limit == 300
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "table.bin", "table.bin.lock", "table.bin.tmp"
    ]


def test_cache_store_gives_the_umask_mode(tmp_path):
    # the temp file is created 0o600; the stored table must be readable by
    # whoever a plain open() would have let read it
    old = os.umask(0o022)
    try:
        cache_store(tmp_path / "table.bin", sieve_primes(100))
    finally:
        os.umask(old)
    assert (tmp_path / "table.bin").stat().st_mode & 0o777 == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["table.bin"]
