import math
import os
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from revprime import circle, cli, representations
from revprime.digits import Base, reverse, reverse_block
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
    assert len(table.primes()) == 1229


def test_sieve_millionth_count():
    assert len(sieve_primes(10**6).primes()) == 78498


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
    assert len(sieve_primes(10**7 - 1).primes()) == 664579


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


# (b, L_top): every class of every L-digit block, 2 <= L <= L_top, with
# b^L_top <= 10^7 and some classes longer than the wheel period of their
# progression (255255 / the product of the wheel primes dividing lcm(2, b));
# in base 38 the sieving prime 19 divides every step and is skipped
CLASS_SIEVE_BASES = [(2, 20), (3, 14), (5, 10), (6, 8), (7, 8), (10, 7), (30, 4), (210, 3), (38, 4)]


@pytest.mark.parametrize("b, L_top", CLASS_SIEVE_BASES)
def test_class_sieve_equals_the_strided_view_of_a_table(b, L_top, monkeypatch):
    # the sources p = d mod b of an L-digit block, sieved as the progression
    # p0 + lcm(2, b) j, against the unsegmented reference sieve's view
    reference = eratosthenes_odd_mask(b**L_top - 1)
    monkeypatch.setattr(sieve, "SEGMENT_ODDS", 12289)
    step = math.lcm(2, b)
    for L in range(2, L_top + 1):
        for d in range(1, b):
            if math.gcd(d, b) > 1:
                continue
            p0 = next(p for p in range(b ** (L - 1) + d, b**L, b) if p % 2)
            want = np.flatnonzero(reference[p0 // 2 : b**L // 2 : step // 2])
            got = sieve.sieve_progression(p0, step, -((p0 - b**L) // step))
            assert got.dtype == np.int64 and np.array_equal(got, want), (b, L, d)


def test_class_sieve_is_the_same_at_every_segment_length(monkeypatch):
    # the 7-digit primes ending in 3: 900000 entries, wheel period 51051
    want = sieve.sieve_progression(10**6 + 3, 10, 900000)
    assert len(want) == 146565
    for segment in (4099, 51050, 51051, 51052, 899999, 900000, 900001):
        monkeypatch.setattr(sieve, "SEGMENT_ODDS", segment)
        assert np.array_equal(sieve.sieve_progression(10**6 + 3, 10, 900000), want), segment


def test_get_prime_table_grows_the_shared_table(tmp_path, monkeypatch):
    real, calls = sieve.sieve_primes, []
    real_store, stores = sieve.cache_store, []

    def spy(limit, *, extend=None):
        calls.append((limit, None if extend is None else extend.limit))
        return real(limit, extend=extend)

    def store_spy(path, table):
        stores.append(table.limit)
        real_store(path, table)

    monkeypatch.setattr(sieve, "sieve_primes", spy)
    monkeypatch.setattr(sieve, "cache_store", store_spy)
    assert sieve.get_prime_table(1000).limit == 1000
    assert sieve.get_prime_table(500).limit == 1000
    grown = sieve.get_prime_table(SEGMENT + 1)
    assert calls == [(1000, None), (SEGMENT + 1, 1000)]
    assert np.array_equal(grown.odd_mask, real(SEGMENT + 1).odd_mask)
    # 999999 -> 1000000 adds no odd number: the limit is raised, and nothing
    # is sieved or stored
    calls.clear()
    with sieve.Session(str(tmp_path)) as session:
        odd_mask = sieve.get_prime_table(999999).odd_mask
        assert sieve.get_prime_table(1000000).limit == 1000000
    assert calls == [(999999, None)] and stores == [999999]
    assert session.table.odd_mask is odd_mask
    assert sieve.cache_load(tmp_path / "prime_table.bin").limit == 999999


def test_the_library_holds_no_session(monkeypatch, b10):
    # the one session is the one a `with` binds: there is no module-level
    # session, and a prime read outside any fails before it sieves
    import contextvars

    monkeypatch.setattr(sieve, "sieve_primes", lambda *args, **kwargs: pytest.fail("sieved"))
    assert not hasattr(sieve, "session")
    with pytest.raises(LookupError):
        contextvars.Context().run(sieve.get_prime_table, 10)
    with pytest.raises(LookupError):
        contextvars.Context().run(reversed_prime_arrays, 100, b10)
    with sieve.Session() as inner:
        assert sieve._current.get() is inner
    assert sieve._current.get() is not inner
    # it holds the table and cache directory only: a stale attribute raises
    with pytest.raises(AttributeError):
        inner.builds = {}


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


def rebuilt_p(arrays):
    # a build keeps no source primes: p = reverse(n) within n's digit
    # length L, over the n in [b^(L-1), b^L)
    n, base = arrays.n, arrays.base
    p, lo, L = np.empty_like(n), 0, 1
    while lo < len(n):
        hi = int(np.searchsorted(n, base.b**L))
        p[lo:hi] = reverse_block(n[lo:hi], L, base)
        lo, L = hi, L + 1
    return p


@pytest.mark.parametrize("b", [2, 3, 6, 10])
def test_enumeration_matches_oracle(b):
    base = Base(b)
    x = 10**4
    # independent n-side oracle: walk n, reverse by divmod, test primality
    primes = set(sieve_primes(10**6).primes().tolist())
    expected = []
    for n in range(1, x + 1):
        if n % b == 0:
            continue
        p = rev_int(n, b)
        if p in primes:
            expected.append((n, p))
    arrays = reversed_prime_arrays(x, base)
    got = list(zip(arrays.n.tolist(), rebuilt_p(arrays).tolist()))
    assert got == expected


@pytest.mark.parametrize("b", [2, 3, 6, 10])
def test_enumeration_matches_nside_oracle_1e5(b):
    # n-side formulation at scale: walk every n <= 1e5 with nonzero last
    # digit, reverse blockwise, and keep those whose reverse is prime
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
        is_p = (rev == 2) | ((rev % 2 == 1) & table.odd_mask[rev // 2])
        expected_n.extend(int(v) for v in n[is_p])
        L += 1
    got = reversed_prime_arrays(x, base)
    assert sorted(expected_n) == got.n.tolist()


def test_enumeration_examples(b10):
    arrays = reversed_prime_arrays(40, b10)
    i = arrays.n.tolist().index(32)
    assert rebuilt_p(arrays)[i] == 23 and not arrays.coprime[i]
    assert reversed_prime_arrays(1, b10).n.tolist() == []
    first = reversed_prime_arrays(2, b10)
    assert (first.n[0], rebuilt_p(first)[0]) == (2, 2)


def test_enumeration_checks_its_bound_at_the_call(b10, fresh_session, capsys):
    # enumerate builds its arrays before it writes the header, so a refused
    # bound has written nothing
    with pytest.raises(ValueError, match="x must be >= 1"):
        reversed_prime_arrays(0, b10)
    assert cli.main(["enumerate", "--limit", "0"]) == 2
    assert capsys.readouterr().out == ""
    assert cli.main(["enumerate", "--limit", "40"]) == 0
    assert [row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:4]] == ["2", "3", "5"]


@pytest.mark.parametrize("coprime", [False, True])
@pytest.mark.parametrize("b", [2, 3, 6, 10])
def test_enumerate_prints_the_source_of_each_n(b, coprime, capsys):
    # the build keeps no p: enumerate rebuilds it from n as it prints, and
    # each row must hold the n <= x whose reverse p is prime, with that p
    x = 30000
    primes = set(sieve_primes(10**5).primes().tolist())  # every source, b^L - 1 < 10^5
    expected = [
        [n, rev_int(n, b), int(math.gcd(n, b**3 - b) == 1)]
        for n in range(1, x + 1)
        if n % b and rev_int(n, b) in primes and (not coprime or math.gcd(n, b**3 - b) == 1)
    ]
    args = ["enumerate", "--base", str(b), "--limit", str(x)] + ["--coprime"] * coprime
    assert cli.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,p,weight,coprime"
    rows = [line.split(",") for line in lines[1:]]
    assert [[int(n), int(p), int(c)] for n, p, _, c in rows] == expected


def test_enumerate_rebuilds_the_sources_of_a_long_block_in_parts(capsys):
    # the 7-digit n up to 2e6 (sources ending in 1) are more than the 2^16
    # whose sources enumerate rebuilds at once
    assert cli.main(["enumerate", "--limit", "2000000"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    top = [(int(n), int(p)) for n, p, _, _ in rows if int(n) >= 10**6]
    assert len(top) > 1 << 16
    assert all(rev_int(n, 10) == p for n, p in top)


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
    ps = rebuilt_p(arr)
    assert np.allclose(arr.weight, np.log(ps.astype(float)), rtol=0, atol=0)
    # involution on records: reversing n recovers p and vice versa
    for n, p in zip(arr.n[:200], ps[:200]):
        assert rev_int(int(n), 10) == int(p) and rev_int(int(p), 10) == int(n)


@pytest.mark.parametrize("b", [2, 3, 5, 7])
def test_only_base_itself_skipped(b):
    # the single prime with last digit zero is p = b (prime bases only);
    # every other prime must appear as a source
    base = Base(b)
    x = b**3
    table = sieve_primes(x)
    sources = set(int(p) for p in rebuilt_p(reversed_prime_arrays(x - 1, base)))
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
    # the top block is read only for x's leading digits and cut at x as
    # it is reversed, on a table that grows (small x first) or already
    # covers every x (large x first), and both give every column of the
    # full-block enumeration cut at x
    base = Base(b)
    table = sieve_primes(b**L_top - 1)
    oracle = _full_block_oracle(table, base)
    xs = _group_cutoffs(b, L_top)
    assert xs[0] == 1 and xs[-1] == b**L_top
    for order in (xs, xs[::-1]):
        for x in order:
            cut = int(np.searchsorted(oracle[0], x, side="right"))
            got = reversed_prime_arrays(x, base)
            for name, want in zip(("n", "p", "weight", "coprime"), oracle):
                have = rebuilt_p(got) if name == "p" else getattr(got, name)
                assert np.array_equal(have, want[:cut]), (b, x, name)


@pytest.mark.parametrize("b, L_top", [(2, 15), (3, 11), (5, 7), (6, 6), (7, 6), (10, 5), (30, 3), (210, 2)])
def test_top_block_class_sieve_matches_full_block_oracle(b, L_top, monkeypatch, fresh_session):
    # with short segments a top block sieves its own classes whenever that
    # takes fewer passes than growing the table: at group ends, at b^L - 1,
    # b^L and b^L + 1 and at random x, from a fresh table and from one that
    # grows, every column equals the oracle's cut at x
    import random

    base = Base(b)
    oracle = _full_block_oracle(sieve_primes(b**L_top - 1), base)
    monkeypatch.setattr(sieve, "SEGMENT_ODDS", 1000)
    sieved, real = [], sieve.sieve_progression

    def spy(*args, **kwargs):
        if "out" not in kwargs:  # a class, not a table
            sieved.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sieve, "sieve_progression", spy)
    rng = random.Random(b)
    xs = _group_cutoffs(b, L_top) + sorted(rng.randint(2, b**L_top) for _ in range(6))
    for fresh in (True, False):
        for x in xs:
            if fresh:
                fresh_session.table = None
            cut = int(np.searchsorted(oracle[0], x, side="right"))
            got = reversed_prime_arrays(x, base)
            for name, want in zip(("n", "p", "weight", "coprime"), oracle):
                have = rebuilt_p(got) if name == "p" else getattr(got, name)
                assert np.array_equal(have, want[:cut]), (b, x, fresh, name)
    # in base 2 a block's one class is all its odd numbers: growing the
    # table never takes more passes
    assert bool(sieved) == (b > 2), sieved


def test_many_classes_grow_the_table_instead(monkeypatch, fresh_session):
    # base 1000 at x = 900000: the top block's 360 classes would take a
    # segment pass each, growing the table to 999999 takes one, so the
    # table grows in one request and no class is sieved
    requests, sieved = [], []
    real_table, real_progression = sieve.get_prime_table, sieve.sieve_progression

    def table_spy(limit):
        requests.append(limit)
        return real_table(limit)

    def progression_spy(*args, **kwargs):
        if "out" not in kwargs:  # a class, not a table
            sieved.append(args)
        return real_progression(*args, **kwargs)

    monkeypatch.setattr(sieve, "get_prime_table", table_spy)
    monkeypatch.setattr(sieve, "sieve_progression", progression_spy)
    got = reversed_prime_arrays(900000, Base(1000))
    assert requests == [999999] and sieved == []
    assert got.n[-1] <= 900000


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
    """Every later reversed-prime build is appended to the returned list,
    as (x, build)."""
    builds = []
    build = sieve._build_blocks

    def spy(x, *args):
        builds.append((x, build(x, *args)))
        return builds[-1][1]

    monkeypatch.setattr(sieve, "_build_blocks", spy)
    return builds


def test_ascending_represent_range_builds_once(monkeypatch, fresh_session, capsys):
    builds = _count_builds(monkeypatch)
    assert cli.main(["represent", "--family", "r12", "--n", "117659..117698"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 40
    assert [x for x, _ in builds] == [117698]


def test_cutoff_at_a_power_of_b_builds_once(monkeypatch, fresh_session, b10):
    # 10^5 and 10^5 + 1 are not reversed primes: a call at either holds the
    # reversed primes to 99999, and the session keeps no build, so every
    # call builds once, to its own x
    builds = _count_builds(monkeypatch)
    xs = (10**5, 10**5, 99999, 10**5, 10**5 + 1)
    for x in xs:
        reversed_prime_arrays(x, b10)
    assert [x for x, _ in builds] == list(xs)
    for _, full in builds:
        assert np.array_equal(full.n, builds[2][1].n)


def test_count_ap_grid_builds_once_to_its_largest_cutoff(monkeypatch, fresh_session, capsys):
    builds = _count_builds(monkeypatch)
    args = ["count-ap", "--x", "11700000,18300000", "--q", "1..10", "--a", "0..9"]
    assert cli.main(args) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 10 * 10
    assert [x for x, _ in builds] == [18300000]
    # a lone call reverses only the 8-digit primes ending in 1, and keeps
    # only those whose reverse is at most x
    got = reversed_prime_arrays(18300000, Base(10))
    assert [x for x, _ in builds] == [18300000, 18300000] and builds[1][1] is got
    top = got.n >= 10**7
    assert top.any() and (rebuilt_p(got)[top] % 10 == 1).all() and got.n[-1] <= 18300000
    assert len(got) == len(builds[0][1])


def test_the_build_keeps_17_bytes_an_entry(fresh_session, capsys):
    # the build at ap-grid's cutoff keeps n, weight and coprime, not p; with
    # p (25 bytes an entry) count-ap at 1.83e7 peaked at 89.5 MB traced
    tracemalloc.start()
    try:
        assert cli.main(["count-ap", "--x", "18329389", "--q", "1", "--a", "0"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 80 * 2**20, peak
    full = reversed_prime_arrays(19999999, Base(10))
    assert len(full) == 1938773
    columns = {name: value for name, value in vars(full).items() if isinstance(value, np.ndarray)}
    assert list(columns) == ["n", "weight", "coprime"]
    assert sum(column.nbytes for column in columns.values()) == 17 * len(full)


def test_a_build_lives_only_as_long_as_its_reader(monkeypatch, b10):
    # the session keeps no build: a read hands back the build itself, a
    # coprime read copies from it, so the build goes with its reader or at
    # once
    refs = []
    build = sieve._build_blocks

    def spy(*args):
        full = build(*args)
        refs.append(weakref.ref(full.n))
        return full

    monkeypatch.setattr(sieve, "_build_blocks", spy)
    got = reversed_prime_arrays(50000, b10)
    assert refs[-1]() is got.n
    del got
    assert refs[-1]() is None
    got = reversed_prime_arrays(50000, b10, require_coprime=True)
    assert len(refs) == 2 and refs[-1]() is None and len(got) > 0


@pytest.mark.parametrize("args, mib", [
    (("count-ap", "--x", "11700000,18300000", "--q", "1..10", "--a", "0..9"), 68),
    (("represent", "--family", "r11", "--n", "7006387", "--exceptions"), 31),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else f"{v}MiB")
def test_a_command_drops_its_build_once_it_has_read_it(args, mib, capsys):
    # ap-grid's grid invocation and spectral's --exceptions: the build is
    # freed once the caller has its coprime cut, before the counts are made
    tracemalloc.start()
    try:
        assert cli.main(list(args)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < mib * 2**20, peak


@pytest.mark.parametrize("b", [2, 3, 10, 30])
def test_weighted_indicator_is_bitwise_a_prefix_of_a_longer_one(b, fresh_session):
    # a represent batch hands target N the view weights[:N + 1] of one build
    # at its largest target M; it must be bitwise the indicator built at N,
    # before and after the session's table grows
    base, M = Base(b), 30000
    kinds = ("prime", "reversed_prime_coprime")
    Ns = list(range(990, 1010)) + [4096, 4097, 29999, M]
    before = {(N, kind): weighted_indicator(N, kind, base=base) for N in Ns[:22] for kind in kinds}
    longer = {kind: weighted_indicator(M, kind, base=base).weights for kind in kinds}
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
    primes = set(sieve_primes(10**3).primes().tolist())
    direct = sum(
        math.log(rev_int(n, 10))
        for n in range(1, 101)
        if n % 10 and math.gcd(n, 990) == 1 and rev_int(n, 10) in primes
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


INDICATOR_KINDS = ("prime", "reversed_prime", "reversed_prime_coprime", "all", "B_set")
# every builder of a dense sequence over 0..x, called at x
LENGTH_BUILDERS = {
    "sieve_primes": lambda x, base: sieve_primes(x),
    "reversed_prime_arrays": lambda x, base: reversed_prime_arrays(x, base),
    **{f"weighted_indicator-{kind}": (lambda x, base, kind=kind: weighted_indicator(x, kind, base))
       for kind in INDICATOR_KINDS},
    **{f"indicator_mask-{kind}": (lambda x, base, kind=kind: indicator_mask(x, kind, base))
       for kind in INDICATOR_KINDS},
    "squarefree_mask": lambda x, base: representations.squarefree_mask(x),
    **{f"composition_count-{family}": (lambda x, base, family=family:
                                      representations.composition_count(x, family, base))
       for family in ("s12", "s21")},
    "exceptional_evens": lambda x, base: representations.exceptional_evens(x, base),
    **{f"representation_counts-{family}": (lambda x, base, family=family:
                                          representations.representation_counts([x], family, base, k=2))
       for family in representations.FAMILIES},
    **{f"exp_sum_evaluator-{kind}": (lambda x, base, kind=kind: circle.exp_sum_evaluator(x, kind, base))
       for kind in circle.EXP_SUM_KINDS},
}


@pytest.mark.parametrize("name", LENGTH_BUILDERS)
def test_one_patch_point_moves_every_length_ceiling(name, b10, monkeypatch, fresh_session):
    # sieve.MAX_SEQUENCE_LEN alone bounds every dense sequence and every
    # sieve: lowered, it refuses x at the ceiling before a prime is read and
    # before anything near the sequence's size is allocated
    ceiling = 1 << 20
    monkeypatch.setattr(sieve, "MAX_SEQUENCE_LEN", ceiling)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="ceiling"):
            LENGTH_BUILDERS[name](ceiling, b10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ceiling // 8 and fresh_session.table is None, peak


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
