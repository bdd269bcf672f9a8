import bisect
import math
import types

import numpy as np
import pytest

import revprime.representations as reps
import revprime.sieve as sieve
from revprime.digits import Base
from revprime.errors import ResourceLimitError
from revprime.representations import (
    composition_count,
    composition_counts,
    convolve,
    count_exceptional_evens,
    exceptional_evens,
    representation_count,
    squarefree_mask,
)
from revprime.sieve import (
    WeightedSequence,
    get_prime_table,
    reversed_prime_arrays,
    weighted_indicator,
)


def test_convolve_delta():
    d = WeightedSequence("d", np.array([0.0, 1.0]))
    assert convolve(d, d).weights.tolist() == [0.0, 0.0, 1.0]


def test_convolve_hand_example():
    w = weighted_indicator(10, "prime")
    c = convolve(w, w)
    # 10 = 3+7 = 7+3 = 5+5
    assert abs(c.weights[10] - (2 * math.log(3) * math.log(7) + math.log(5) ** 2)) < 1e-12


def test_fft_matches_direct_within_bound():
    rng = np.random.default_rng(42)
    for _ in range(100):
        u = WeightedSequence("u", rng.random(4096))
        v = WeightedSequence("v", rng.random(4096))
        direct = np.convolve(u.weights, v.weights)
        old = reps.DIRECT_OPS_CAP
        reps.DIRECT_OPS_CAP = 1  # force the FFT path
        try:
            fft = convolve(u, v)
        finally:
            reps.DIRECT_OPS_CAP = old
        assert fft.error_bound > 0
        assert float(np.abs(fft.weights - direct).max()) <= fft.error_bound


def _runs_of_ones(mask):
    """The maximal runs of ones of a 0/1 mask, as intervals [lo, hi]."""
    runs = []
    for i, m in enumerate(mask):
        if not m:
            continue
        if runs and runs[-1][1] == i - 1:
            runs[-1] = (runs[-1][0], i)
        else:
            runs.append((i, i))
    return runs


def _interval_convolve(a, mask):
    """The full convolution of counts a and a 0/1 mask by the interval step:
    a padded with zeros to the full length, the mask passed as its runs."""
    full = len(a) + len(mask) - 1
    padded = np.zeros(full, dtype=object)
    padded[: len(a)] = [int(x) for x in a]
    return reps._interval_step(padded, _runs_of_ones(mask))


def _step_is_wide(a, mask):
    # the interval step's int64/object switch, sized from max(counts)
    return 2 * max(int(x) for x in a) * (len(a) + len(mask) - 1) >= 2**63


# the exact_int_convolve tests below keep their names and oracle cases; the
# interval step replaced that limb-split FFT convolution
def test_exact_int_convolve():
    counts = np.array([0, 1, 2, 3])
    mask = np.array([1, 0, 1])
    expected = np.convolve(counts, mask)
    got = _interval_convolve(counts, mask)
    assert got.dtype == np.int64 and got.tolist() == expected.tolist()
    assert reps._interval_step(counts, [(0, 0), (2, 2)]).tolist() == expected[:4].tolist()
    big = np.array([2**80, 2**81], dtype=object)
    gotbig = _interval_convolve(big, np.array([1, 1]))
    assert gotbig.dtype == object and gotbig[1] == 2**80 + 2**81


def _double_loop_convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += int(x) * int(y)
    return out


@pytest.mark.parametrize("a,b", [
    ([0, 0, 0], [0, 0]),  # all zeros: a mask with no runs
    ([0, 3, 0, 0, 5, 0], [0, 0, 1, 0]),  # zeros inside and at both ends
    ([9], [1]),
    ([0], [1, 1, 1]),
    ([6, 1, 0, 2**70], [1, 0, 1]),
    ([2**64, 0, 2**64 + 1, 2**65 - 1, 3], [1, 1]),  # entries past 2^64
    ([255, 256, 65535, 2**63 - 1, 2**63], [1, 1, 0, 1]),  # int64 boundaries
])
def test_exact_int_convolve_vs_double_loop(a, b):
    # object counts, as a table's later stages pass them, times the runs of a
    # 0/1 mask; int64 out while 2 max(counts) len(counts) < 2^63
    got = _interval_convolve(a, b)
    assert got.dtype == (object if _step_is_wide(a, b) else np.int64)
    want = _double_loop_convolve(a, b)
    for n in (1, len(a), len(a) + len(b) - 1, len(a) + len(b) + 5):
        assert [int(x) for x in got[:n]] == want[:n]


def test_exact_int_convolve_on_random_int64_arrays():
    rng = np.random.default_rng(5)
    for la, lb in ((1, 1), (1, 40), (37, 1), (60, 45)):
        a = rng.integers(0, 2**62, la) * (rng.random(la) < 0.7)
        b = (rng.random(lb) < 0.7).astype(np.int64)
        got = _interval_convolve(a, b)
        assert got.dtype == (object if _step_is_wide(a, b) else np.int64)
        assert [int(x) for x in got] == _double_loop_convolve(a, b)


# each s0k table, the last of whose k interval steps switches to object
# dtype iff 2 max(c) (N + 1) >= 2^63, c = C(n - 1, k - 2) its input
S0K_CASES = [
    (2, 6, 5000),
    (3, 6, 5000),
    (2, 4, 30000),
    (3, 5, 11590),
    (3, 6, 20000),  # the last stage's output passes 2^63
    (2, 6, 10206),  # the last int64 N for k = 6
    (2, 6, 10207),  # the first object N for k = 6
]


@pytest.mark.parametrize("b,k,N", sorted(S0K_CASES))
def test_s0k_exact_fallback_in_prime_bases(monkeypatch, b, k, N):
    # every leading digit is coprime to a prime base, so s0k(n) is the number
    # of compositions of n into k parts, C(n - 1, k - 1), at every n <= N
    steps, products, convolutions = [], [], []
    _spy(monkeypatch, reps, "_interval_step", steps)
    _spy(monkeypatch, reps, "_fft_product", products)
    _spy(monkeypatch, reps.np, "convolve", convolutions)
    table = reps._composition_table(N, "B" * k, Base(b))
    assert len(steps) == k and products == [] and convolutions == []
    assert int(table[0]) == 0
    assert [int(x) for x in table[1:]] == [math.comb(n - 1, k - 1) for n in range(1, N + 1)]
    wide = 2 * math.comb(N - 1, k - 2) * (N + 1) >= 2**63
    assert table.dtype == (object if wide else np.int64)


def brute_family(N, seqs):
    """Literal nested loops over summand values."""
    if len(seqs) == 2:
        u, v = seqs
        return math.fsum(
            u[i] * v[N - i] for i in range(1, N) if u[i] and N - i >= 0 and v[N - i]
        )
    u, rest = seqs[0], seqs[1:]
    return math.fsum(
        u[i] * brute_family(N - i, rest) for i in range(1, N - 1) if u[i]
    )


@pytest.mark.parametrize("b", [2, 10])
def test_families_vs_nested_loops(b):
    base = Base(b)
    M = 400
    pr = weighted_indicator(M, "prime").weights
    rev = weighted_indicator(M, "reversed_prime_coprime", base=base).weights
    for family, seqs, k in (
        ("r11", [pr, rev], None),
        ("r12", [pr, rev, rev], None),
        ("r21", [pr, pr, rev], None),
        ("r0k", [rev, rev], 2),
        ("r0k", [rev, rev, rev], 3),
    ):
        for N in (17, 100, 255, 256, 399):
            got = representation_count(N, family, base, k=k).exact
            want = brute_family(N, seqs)
            assert abs(got - want) <= 1e-9 * max(1.0, want), (b, family, N)


def test_r11_odd_parity_structure(b10):
    # odd N forces p1 = 2, so the count collapses to the N-2 term:
    # 71 = rev(17) is coprime to 990, hence R11(73) = log 2 * log 17
    got = representation_count(73, "r11", b10)
    assert abs(got.exact - math.log(2) * math.log(17)) < 1e-12
    # and an odd N with N-2 not a reversed prime has no representation
    got = representation_count(35, "r11", b10)
    assert got.exact == 0.0


def test_r0k_600_exact_zero(b10):
    for exp in (2, 3):
        profile = representation_count(6 * 10**exp, "r0k", b10, k=2)
        assert profile.exact == 0.0
        assert profile.provenance == "exact"


def test_r12_even_suppressed(b10):
    # even targets only admit p1 = 2 in the ternary mixed sum; the count
    # stays far below the odd-N scale N^2
    even = representation_count(1000, "r12", b10).exact
    odd = representation_count(1001, "r12", b10).exact
    assert even < odd / 50
    from revprime.arithmetic import singular_series_ternary

    assert singular_series_ternary(1000, b10) == 0


def test_composition_counts(b10):
    assert composition_count(6, "s21", b10) == 6
    # constraint is vacuous in a prime base: compositions into k parts
    assert int(reps._composition_table(20, "BBB", Base(3))[20]) == math.comb(19, 2)
    assert int(reps._composition_table(50, "BB", Base(7))[50]) == 49


def brute_s12(N, base):
    ind = weighted_indicator(N, "B_set", base=base).weights
    return sum(
        1
        for n2 in range(1, N)
        for n3 in range(1, N - n2)
        if ind[n2] and ind[n3]
    )


@pytest.mark.parametrize("b", [2, 6, 10])
def test_s12_brute(b):
    base = Base(b)
    for N in (10, 57, 200):
        assert composition_count(N, "s12", base) == brute_s12(N, base)


@pytest.mark.parametrize("b", [2, 3, 6, 10])
def test_composition_bounds(b):
    base = Base(b)
    for N in (10**3, 10**4):
        s12 = composition_count(N, "s12", base)
        s21 = composition_count(N, "s21", base)
        assert N * N / (16 * b * b) <= s12 <= N * N / 2
        assert N * N / (8 * b) <= s21 <= N * N / 2


def test_squarefree_mask_length_ceiling():
    # checked before the mask is allocated
    with pytest.raises(ResourceLimitError):
        squarefree_mask(sieve.MAX_SEQUENCE_LEN)


def test_squarefree_mask():
    m = squarefree_mask(50)
    for n in range(51):
        expect = n != 0 and all(n % (d * d) for d in range(2, 8))
        assert m[n] == expect


def test_squarefree_shift_exact(b10):
    profile = representation_count(100, "rsquare", b10)
    assert abs(profile.exact - 23.984898763069932) < 1e-12
    assert profile.provenance == "exact"


def test_squarefree_shift_excludes_difference_zero(b10):
    # 17 is itself a reversed prime (rev 71); the n = N term must not count
    profile = representation_count(17, "rsquare", b10)
    arr = reversed_prime_arrays(17, b10, require_coprime=True)
    sq = squarefree_mask(17)
    expected = float(arr.weight[(arr.n < 17) & sq[17 - arr.n]].sum())
    assert abs(profile.exact - expected) < 1e-12


def test_squarefree_ratio_tolerance(b10, fixtures):
    tol = fixtures["rsquare_ratio_tol.b10"]
    devs = []
    for N in (10**4, 10**5, 10**6):
        profile = representation_count(N, "rsquare", b10)
        devs.append(abs(profile.ratio - 1.0))
        assert devs[-1] <= tol, (N, profile.ratio)
    assert devs[-1] < devs[0]  # the trend tightens over the decade span


def test_exceptional_evens_brute(b10):
    exc = exceptional_evens(100, b10)
    # direct double loop
    primes = set(get_prime_table(100).primes().tolist())
    arr = reversed_prime_arrays(100, b10, require_coprime=True)
    revs = set(int(v) for v in arr.n)
    brute = [
        N
        for N in range(2, 101, 2)
        if not any(p in primes and (N - p) in revs for p in range(2, N))
    ]
    assert exc.tolist() == brute == [2, 4, 6, 8, 52]
    assert count_exceptional_evens(100, b10) == 5


def test_exceptional_evens_keeps_the_length_ceiling(b10, monkeypatch):
    monkeypatch.setattr(sieve, "MAX_SEQUENCE_LEN", 1000)
    assert exceptional_evens(999, b10).tolist() == [2, 4, 6, 8, 52]
    with pytest.raises(ResourceLimitError):
        exceptional_evens(1000, b10)


@pytest.fixture
def fft_lengths(monkeypatch):
    """The nfft of every FFT product, with the FFT path forced."""
    lengths = []
    product = reps._fft_product
    monkeypatch.setattr(
        reps, "_fft_product", lambda u, v, nfft, n: lengths.append(nfft) or product(u, v, nfft, n)
    )
    monkeypatch.setattr(reps, "DIRECT_OPS_CAP", 1)
    return lengths


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _reverse(n, b):
    out = 0
    while n:
        n, d = divmod(n, b)
        out = out * b + d
    return out


def _brute_exceptional_evens(x, b):
    """Even N <= x that are no p + n, by a double loop over trial-division
    primes and digit-reversed n coprime to b^3 - b."""
    primes = [p for p in range(2, x + 1) if _is_prime(p)]
    revs = {n for n in range(1, x + 1) if math.gcd(n, b**3 - b) == 1 and _is_prime(_reverse(n, b))}
    return [N for N in range(2, x + 1, 2) if not any(N - p in revs for p in primes if p < N)]


@pytest.mark.parametrize("b", [2, 3, 10, 30])
def test_exceptional_evens_fft_path_vs_double_loop(b, fft_lengths):
    # the sweep against an oracle that knows nothing of parity; x odd and
    # even, so the last even N sits at both ends.  The sweep makes no FFT
    # product, even with the FFT path forced.
    for x in (600, 601):
        assert exceptional_evens(x, Base(b)).tolist() == _brute_exceptional_evens(x, b), (b, x)
    assert fft_lengths == []
    # the odd-half reach step over the same masks, on the FFT path: 300 + 300
    # - 1 and 301 + 301 - 1 entries, at the next 5-smooth lengths
    for x in (600, 601):
        p = sieve.indicator_mask(x, "prime")[1::2]
        r = sieve.indicator_mask(x, "reversed_prime_coprime", base=Base(b))[1::2]
        want = np.convolve(p.astype(np.int64), r.astype(np.int64)) > 0
        assert reps.reach_step(p, r).tolist() == want.tolist(), (b, x)
    assert fft_lengths == [600, 625]


@pytest.mark.parametrize("b", range(2, 37))
def test_exceptional_evens_vs_double_loop_in_every_base(b):
    # x = 4 and 5 hold only the targets 2 and 4, below most reversed primes
    for x in (4, 5, 100, 601):
        assert exceptional_evens(x, Base(b)).tolist() == _brute_exceptional_evens(x, b), (b, x)


def _reach_exceptional_evens(x, base):
    """Exceptional evens as the FFT-based implementation found them: one
    reach step over the odd halves, then an exact check of each zero against
    every prime below N."""
    pmask = sieve.indicator_mask(x, "prime")
    rmask = sieve.indicator_mask(x, "reversed_prime_coprime", base=base)
    reach = reps.reach_step(pmask[1::2], rmask[1::2], out_len=x // 2)
    primes = np.flatnonzero(pmask)
    misses = 2 * np.flatnonzero(~reach) + 2
    return [int(N) for N in misses if not rmask[N - primes[primes < N]].any()]


@pytest.mark.parametrize("b", range(2, 37))
def test_exceptional_evens_vs_reach_step_in_every_base(b):
    # at 2 * 10^5 fewer than 1/64 of the targets survive the first 32 dense
    # steps in every base, and the gather phase finishes the sweep
    x = 2 * 10**5
    assert exceptional_evens(x, Base(b)).tolist() == _reach_exceptional_evens(x, Base(b))


@pytest.mark.parametrize("b,count", [(2, 3), (6, 9), (10, 5), (30, 4)])
def test_exceptional_evens_pinned_counts(b, count):
    assert count_exceptional_evens(10**6, Base(b)) == count


def test_exceptional_evens_over_several_gather_blocks():
    # at 7 * 10^6 in base 2, ~5 * 10^4 targets survive the dense phase, so a
    # block of 2^20 entries holds ~21 reversed primes and the gather phase
    # runs more than one block
    assert exceptional_evens(7 * 10**6, Base(2)).tolist() == [2, 4, 6]


def test_exceptional_evens_on_sparse_synthetic_masks(monkeypatch):
    # 400 odd "reversed primes" below 2 * 10^4 and odd "primes" of density
    # 1/50: each target has few witnesses, so ~16000 targets enter the gather
    # phase (blocks of ~64 steps), and hundreds are exceptions.  The
    # reference is the exact reach step over the same odd halves.
    x = 1 << 21
    rng = np.random.default_rng(11)
    pmask = np.zeros(x + 1, dtype=bool)
    pmask[1::2] = rng.random(x // 2) < 0.02
    pmask[1] = False  # the integer 1, where the gather clips m - s < 0
    rmask = np.zeros(x + 1, dtype=bool)
    rmask[2 * rng.choice(10**4, 400, replace=False) + 1] = True
    # the sweep reads the table's odd mask and the coprime build's n column
    monkeypatch.setattr(reps, "get_prime_table", lambda limit: sieve.PrimeTable(x, pmask[1::2].copy()))
    monkeypatch.setattr(
        reps,
        "reversed_prime_arrays",
        lambda x, base, require_coprime=False: types.SimpleNamespace(n=np.flatnonzero(rmask)),
    )
    reach = reps.reach_step(pmask[1::2], rmask[1::2], out_len=x // 2)
    want = 2 * np.flatnonzero(~reach) + 2
    assert len(want) > 100
    assert exceptional_evens(x, Base(10)).tolist() == want.tolist()


@pytest.mark.parametrize("b", range(2, 37))
def test_parity_facts(b):
    # a member of reversed_prime_coprime is coprime to b^3 - b, which is even;
    # in an odd base rev(p) = p mod b - 1, an even modulus, so only rev(2) = 2
    # is even in the unfiltered pool
    x = max(10**4, b**3)
    coprime = reversed_prime_arrays(x, Base(b), require_coprime=True).n
    assert len(coprime) and not (coprime % 2 == 0).any()
    pool = reversed_prime_arrays(x, Base(b), require_coprime=False).n
    if b % 2:
        assert (pool[pool % 2 == 0] == 2).all()


def test_parity_facts_of_the_unfiltered_pools():
    # base 2: a binary reverse ends in the source prime's leading 1
    pool = reversed_prime_arrays(10**5, Base(2), require_coprime=False).n
    assert len(pool) and not (pool % 2 == 0).any()
    # base 10: rev(23) = 32, so the pool has even members
    pool = reversed_prime_arrays(10**4, Base(10), require_coprime=False).n
    assert 32 in pool.tolist()


def test_exception_density_decreasing(b10):
    densities = [
        count_exceptional_evens(x, b10) / (x // 2) for x in (10**3, 10**4, 10**5)
    ]
    assert densities[0] > densities[1] > densities[2]


def test_representation_validation(b10):
    with pytest.raises(ValueError):
        representation_count(1, "r11", b10)
    with pytest.raises(ValueError):
        representation_count(100, "r0k", b10, k=9)
    with pytest.raises(ValueError):
        composition_count(100, "nope", b10)


@pytest.mark.parametrize("k,N", [(4, 10001), (6, 1001), (6, 3001)])
def test_r0k_odd_n_exact_zero(b10, k, N):
    # reversed primes coprime to 990 are odd, so an even number of them never
    # sums to an odd N; the direct-path zero is final, with no search behind it
    profile = representation_count(N, "r0k", b10, k=k)
    assert profile.exact == 0.0
    assert profile.provenance == "exact"


@pytest.mark.parametrize("N", [100001, 100003, 100009])
def test_r11_fft_path_recheck(b10, N):
    # above the direct cap the count comes from the FFT; odd N forces p1 = 2,
    # so the count is log 2 * w_rev[N - 2], and a zero is recounted exactly
    assert (N + 1) ** 2 > reps.DIRECT_OPS_CAP
    w_rev = weighted_indicator(N, "reversed_prime_coprime", base=b10).weights
    profile = representation_count(N, "r11", b10)
    if w_rev[N - 2] == 0.0:
        assert profile.exact == 0.0
        assert profile.provenance == "exact"
    else:
        assert profile.provenance == "fft"
        assert math.isclose(profile.exact, math.log(2) * w_rev[N - 2], rel_tol=1e-9)


def test_reach_step_is_the_sumset():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = rng.random(300) < 0.1
        a = rng.random(200) < 0.2
        want = np.zeros(499, dtype=bool)
        for i in np.flatnonzero(r):
            want[i + np.flatnonzero(a)] = True
        assert reps.reach_step(r, a).tolist() == want.tolist()
        assert reps.reach_step(r, a, out_len=250).tolist() == want[:250].tolist()


def test_reach_step_fft_path_is_exact(fft_lengths):
    rng = np.random.default_rng(8)
    r = rng.random(5000) < 0.05
    a = rng.random(5000) < 0.05
    want = np.convolve(r.astype(np.int64), a.astype(np.int64)) > 0
    assert reps.reach_step(r, a).tolist() == want.tolist()
    assert reps.reach_step(r, a, out_len=6000).tolist() == want[:6000].tolist()
    # 10000 = 2^4 5^4 is the least 5-smooth number >= 5000 + 5000 - 1
    assert fft_lengths == [10000, 10000]


def _five_smooth_up_to(limit):
    out, p5 = [], 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            m = p35
            while m <= limit:
                out.append(m)
                m *= 2
            p35 *= 3
        p5 *= 5
    return sorted(out)


def test_next_fast_len_is_the_least_5_smooth():
    smooth = _five_smooth_up_to(2**33)
    near_powers = [2**e + d for e in range(14, 33) for d in (-2, -1, 0, 1, 2)]
    for n in list(range(1, 10**4 + 1)) + near_powers:
        assert reps._next_fast_len(n) == smooth[bisect.bisect_left(smooth, n)], n


def test_reach_step_error_bound_at_one_half(monkeypatch):
    # the bound 4 log2(nfft) eps sqrt(#R #A) must stay below 1/2; under
    # MAX_CONV_LEN it cannot reach it, so a larger eps stands in for rounding
    rng = np.random.default_rng(10)
    r, a = rng.random(400) < 0.3, rng.random(300) < 0.3
    nfft = reps._next_fast_len(699)
    at_half = 0.5 / (4.0 * math.log2(nfft) * math.sqrt(np.count_nonzero(r) * np.count_nonzero(a)))
    monkeypatch.setattr(reps, "DIRECT_OPS_CAP", 1)
    monkeypatch.setattr(reps, "_EPS", at_half * (1 - 1e-9))
    want = np.convolve(r.astype(np.int64), a.astype(np.int64)) > 0
    assert reps.reach_step(r, a).tolist() == want.tolist()
    monkeypatch.setattr(reps, "_EPS", at_half * (1 + 1e-9))
    monkeypatch.setattr(reps, "_fft_product", None)  # raises before any transform
    with pytest.raises(ResourceLimitError, match="rounding margin"):
        reps.reach_step(r, a)


@pytest.mark.parametrize("lengths", [(3, 2), (4001, 4001)])
def test_reach_step_is_one_fft_product(lengths, monkeypatch):
    # small or large, a sumset is one FFT product at the next 5-smooth
    # length, with the weighted chains' DIRECT_OPS_CAP left as it is
    rng = np.random.default_rng(12)
    r, a = (rng.random(n) < 0.3 for n in lengths)
    r[0] = a[-1] = True
    full = sum(lengths) - 1
    lengths_seen = []
    product = reps._fft_product
    monkeypatch.setattr(
        reps, "_fft_product", lambda u, v, nfft, n: lengths_seen.append(nfft) or product(u, v, nfft, n)
    )
    want = np.convolve(r.astype(np.int64), a.astype(np.int64)) > 0
    assert reps.reach_step(r, a).tolist() == want.tolist()
    assert lengths_seen == [reps._next_fast_len(full)]


def test_reach_step_length_ceiling(monkeypatch):
    monkeypatch.setattr(reps, "MAX_CONV_LEN", 698)
    mask = np.ones(350, dtype=bool)
    assert reps.reach_step(mask, mask[:349]).all()
    with pytest.raises(ResourceLimitError, match="exceeds 698"):
        reps.reach_step(mask, mask)


@pytest.mark.parametrize("b", [2, 10])
def test_recount_over_reach_layers_vs_nested_loops(b):
    # the recount behind an FFT near-zero, run on its own at small N
    base = Base(b)
    M = 300
    pr = weighted_indicator(M, "prime")
    rev = weighted_indicator(M, "reversed_prime_coprime", base=base)
    for seqs in ([pr, rev], [pr, rev, rev], [pr, pr, rev], [rev, rev, rev, rev]):
        for N in (17, 100, 255, 299):
            got = reps._exact_value(N, seqs, reps._tail_reach(seqs, N))
            want = brute_family(N, [s.weights for s in seqs])
            assert abs(got - want) <= 1e-9 * max(1.0, want), (b, len(seqs), N)


# ---------------------------------------------------------------------------
# batches: representation_counts against lone calls
# ---------------------------------------------------------------------------

def _same_profile(a, b):
    """Field by field with ==, NaN equal to NaN."""
    for field in ("N", "family", "exact", "predicted", "ratio", "provenance"):
        x, y = getattr(a, field), getattr(b, field)
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), (field, a, b)
        else:
            assert x == y, (field, a, b)


BATCHES = [
    # odd r11 targets near 1e5 force the exact recount; then duplicates and
    # a descending run
    ("r11", None, 10, list(range(100001, 100013)) + [100005, 100005] + list(range(100012, 100000, -3))),
    ("r11", None, 2, [20001, 20002, 20003, 20004, 20003]),
    # the FFT length doubles between N = 65535 and N = 65536
    ("r12", None, 10, list(range(65530, 65542)) + list(range(65541, 65529, -4)) + [65536]),
    ("r12", None, 30, [12001, 12002, 12003, 12004, 12004, 12001]),
    ("r12", None, 2, [300, 12000, 301, 12001]),  # direct and FFT paths mixed
    ("r21", None, 2, [12001, 12002, 12003, 12004, 12002]),
    ("r21", None, 10, list(range(65533, 65539))),
    ("r0k", 3, 30, [20001, 20002, 20003, 20004]),
    ("r0k", 2, 10, [20000, 20002, 20001, 20000]),
    ("r0k", 4, 2, [12000, 12001]),
]


# the factor kinds of each family's chain, left to right
CHAIN_KINDS = {
    "r11": ("prime", "reversed_prime_coprime"),
    "r12": ("prime", "reversed_prime_coprime", "reversed_prime_coprime"),
    "r21": ("prime", "prime", "reversed_prime_coprime"),
}


@pytest.mark.parametrize("family,k,b,Ns", BATCHES)
def test_batch_equals_lone_calls(family, k, b, Ns):
    base = Base(b)
    batch = list(reps.representation_counts(Ns, family, base, k=k))
    assert [p.N for p in batch] == Ns
    kinds = CHAIN_KINDS.get(family, ("reversed_prime_coprime",) * (k or 0))
    for N, got in zip(Ns, batch):
        _same_profile(got, representation_count(N, family, base, k=k))
        if got.provenance == "fft":
            # and bitwise the chain of indicators built at N, run with no
            # transforms shared at all
            seqs = [weighted_indicator(N, kind, base=base) for kind in kinds]
            assert got.exact == float(reps.convolve_chain(seqs, out_len=N + 1).weights[N])


def test_batch_with_an_odd_recount_window_rechecks(b10):
    # the r11 window above holds odd targets whose count is exactly zero
    batch = list(reps.representation_counts(list(range(100001, 100013, 2)), "r11", b10))
    assert len(batch) == 6
    assert any(p.exact == 0.0 and p.provenance == "exact" for p in batch)
    assert any(p.provenance == "fft" for p in batch)


def test_batch_transforms_only_new_inputs(b10, monkeypatch):
    # r12 over a window: each target pays one rfft (its accumulator) and one
    # irfft (its second stage); the first stage is transformed again only when
    # a new prime or reversed prime enters, and a new reversed prime is the
    # only thing that makes the second stage's factor miss
    Ns = list(range(100001, 100041))
    primes = set(get_prime_table(max(Ns)).primes().tolist())
    revs = set(reversed_prime_arrays(max(Ns), b10, require_coprime=True).n.tolist())
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        original = getattr(np.fft, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    list(reps.representation_counts(Ns, "r12", b10))
    # the first target; the composition table (interval steps) makes no FFT
    want_rfft, want_irfft = 3 + len(Ns) - 1, len(Ns) + 1
    for N in Ns[1:]:
        new_rev, new_prime = N in revs, N in primes
        want_rfft += int(new_rev or new_prime) + int(new_rev)
        want_irfft += int(new_rev or new_prime)
    assert counts == {"rfft": want_rfft, "irfft": want_irfft}
    assert want_rfft < 3 * len(Ns)  # the window does share transforms


def test_transform_cache_refuses_what_it_did_not_hand_out(b10):
    # a key (kind, nfft, members <= N) names a zero-padded input only for a
    # prefix view of the cache's own build, so nothing else may be keyed
    N, top = 15000, 20000
    assert (N + 1) ** 2 > reps.DIRECT_OPS_CAP
    cache = reps.TransformCache(top, b10)
    pr, rev = cache.factor(N, "prime"), cache.factor(N, "reversed_prime_coprime")
    got = convolve(pr, rev, out_len=N + 1, transforms=cache)
    want = convolve(
        weighted_indicator(N, "prime"),
        weighted_indicator(N, "reversed_prime_coprime", base=b10),
        out_len=N + 1,
    )
    assert got.error_bound == want.error_bound
    assert np.array_equal(got.weights, want.weights)
    whole = cache.factor(top, "prime").weights
    foreign = [
        weighted_indicator(N, "prime"),  # the same values in an array of its own
        WeightedSequence("prime", 2.0 * pr.weights),
        WeightedSequence("prime", whole[1 : N + 2]),  # a view, but not a prefix
        WeightedSequence("prime", whole[: 2 * N + 1 : 2]),
        WeightedSequence("u", pr.weights),  # a kind the cache never built
    ]
    for seq in foreign:
        for u, v in ((seq, rev), (pr, seq)):
            with pytest.raises(ValueError, match="not a prefix"):
                convolve(u, v, out_len=N + 1, transforms=cache)
    with pytest.raises(ValueError, match="exceeds the batch's largest"):
        cache.factor(top + 1, "prime")


def _spy(monkeypatch, module, name, calls):
    """Append the positional arguments of each call of module.name to calls."""
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_batch_builds_each_factor_kind_once(monkeypatch, b10):
    calls = []
    _spy(monkeypatch, reps, "weighted_indicator", calls)
    Ns = list(range(12001, 12006)) + [12003, 12000]
    list(reps.representation_counts(Ns, "r21", b10))
    assert sorted(calls) == [(12005, "prime"), (12005, "reversed_prime_coprime")]


def test_over_long_chain_is_refused_before_any_build(monkeypatch, fresh_session, b10):
    monkeypatch.setattr(reps, "MAX_CONV_LEN", 1 << 16)
    built = []
    _spy(monkeypatch, reps, "weighted_indicator", built)
    _spy(monkeypatch, reps, "coprime_leading_intervals", built)
    calls = [
        lambda: representation_count(40000, "r12", b10),
        lambda: representation_count(40000, "r0k", b10, k=3),
        lambda: reps.representation_counts([100, 40000], "r11", b10),
    ]
    for call in calls:
        with pytest.raises(ResourceLimitError, match="convolution length 80001 exceeds 65536"):
            call()
    assert fresh_session.table is None and built == []


def test_batch_is_checked_before_any_build(monkeypatch, fresh_session, b10):
    built = []
    _spy(monkeypatch, reps, "weighted_indicator", built)
    with pytest.raises(ValueError, match="N must be >= 2"):
        reps.representation_counts([100000, 1], "r11", b10)
    with pytest.raises(ValueError, match="ternary compositions need N >= 3"):
        reps.representation_counts([100000, 2], "r12", b10)
    with pytest.raises(ValueError, match="r0k requires"):
        reps.representation_counts([100000], "r0k", b10, k=9)
    assert fresh_session.table is None and built == []


def test_batch_of_no_targets(b10):
    assert list(reps.representation_counts([], "r12", b10)) == []


# ---------------------------------------------------------------------------
# exact ternary composition counts
# ---------------------------------------------------------------------------

def _ternary_targets(b, top):
    out, L = [], 1
    while b**L + 1 <= top:
        out += [N for N in (b**L - 1, b**L, b**L + 1) if N >= 3]
        L += 1
    return out


@pytest.mark.parametrize("b", [2, 3, 6, 10, 30])
def test_ternary_compositions_vs_brute_force(b):
    # exact int64 convolutions of the 0/1 sequences (1..M) and B
    base, M = Base(b), 400
    in_b = weighted_indicator(M, "B_set", base=base).weights.astype(np.int64)
    ones = np.ones(M + 1, dtype=np.int64)
    ones[0] = 0
    s12 = np.convolve(np.convolve(ones, in_b), in_b)
    s21 = np.convolve(np.convolve(ones, ones), in_b)
    Ns = list(range(3, M + 1)) + _ternary_targets(b, M)
    for family, want in (("s12", s12), ("s21", s21)):
        for N, got in zip(Ns, composition_counts(Ns, family, base), strict=True):
            assert got == want[N], (b, family, N)


# the convolution-chain values of the previous implementation; in the prime
# bases 2 and 3 every leading digit is coprime to b, so both counts are
# C(N-1, 2) there
PINNED_RANGE_SHA256 = {  # sha256 of ",".join(values for N = 3..400)
    2: ("5b285eda9997c2f66c225399838f55a9a082de2011c1e99177ae5b31c30b12a3",) * 2,
    3: ("5b285eda9997c2f66c225399838f55a9a082de2011c1e99177ae5b31c30b12a3",) * 2,
    6: ("174b5a80f3ad7c41371ce43c95461c7dd28e6bf15c1e7168a0cc0e9249547db6",
        "7815cd13729db132ce773f70f5172c79a4739b7ed8022d9378f2ebc692c67f68"),
    10: ("421cb130d70ee99b4eaee0fc739a33290bad027188b656ac8f534b3953909fb2",
         "b0b1f8ab2acc0c2b7ff33027480f77a4ac5df83e8a3c42be95d54ba716467119"),
    30: ("0e694a4e9a2dda20cc62563d6015f4ba53ce38c3899c10be770743a77a0387f8",
         "84177f6a4ba1a1af47b0df4782dd467a1545f29fa9b3fcac4998c78a98e27598"),
}
PINNED_POWERS = {  # N: (s12, s21) at N = b^L - 1, b^L, b^L + 1 above 400
    6: {
        1295: (109608, 334629),
        1296: (109780, 335146),
        1297: (109954, 335664),
        7775: (3960888, 12085461),
        7776: (3961924, 12088570),
        7777: (3962962, 12091680),
        46655: (142682136, 435309813),
        46656: (142688356, 435328474),
        46657: (142694578, 435347136),
        279935: (5137098072, 15672552885),
        279936: (5137135396, 15672664858),
        279937: (5137172722, 15672776832),
    },
    10: {
        999: (92648, 221113),
        1000: (92736, 221556),
        1001: (92828, 222000),
        9999: (9304248, 22211113),
        10000: (9305136, 22215556),
        10001: (9306028, 22220000),
        99999: (930820248, 2222111113),
        100000: (930829136, 2222155556),
        100001: (930838028, 2222200000),
        999999: (93085980248, 222221111113),
        1000000: (93086069136, 222221555556),
        1000001: (93086158028, 222222000000),
    },
    30: {
        899: (28848, 111105),
        900: (28864, 111352),
        901: (28888, 111600),
        26999: (26089008, 100533105),
        27000: (26089504, 100540552),
        27001: (26090008, 100548000),
        809999: (23483897808, 90495993105),
        810000: (23483912704, 90496216552),
        810001: (23483927608, 90496440000),
    },
}


@pytest.mark.parametrize("b", [2, 3, 6, 10, 30])
def test_ternary_compositions_pinned(b):
    import hashlib

    base = Base(b)
    if b in (2, 3):
        pinned = {N: (math.comb(N - 1, 2),) * 2 for N in _ternary_targets(b, 2**20) if N > 400}
    else:
        pinned = PINNED_POWERS[b]
        assert sorted(pinned) == [N for N in _ternary_targets(b, 2**20) if N > 400]
    # one table per family serves the range and the pinned powers
    Ns = list(range(3, 401)) + list(pinned)
    for i, (family, want) in enumerate(zip(("s12", "s21"), PINNED_RANGE_SHA256[b])):
        counts = composition_counts(Ns, family, base)
        values = ",".join(str(c) for c in counts[:398])
        assert hashlib.sha256(values.encode()).hexdigest() == want, (b, family)
        for N, got in zip(pinned, counts[398:], strict=True):
            assert got == pinned[N][i], (b, family, N)


@pytest.mark.parametrize("family", ["s12", "s21"], ids=["s12-None", "s21-None"])
def test_composition_count_length_ceiling(b10, monkeypatch, family):
    # refused before B's intervals are built
    def no_allocation(*args, **kwargs):
        raise AssertionError("intervals built")

    with monkeypatch.context() as m:
        m.setattr(reps, "coprime_leading_intervals", no_allocation)
        with pytest.raises(ResourceLimitError):
            composition_count(sieve.MAX_SEQUENCE_LEN, family, b10)
    monkeypatch.setattr(sieve, "MAX_SEQUENCE_LEN", 1000)
    assert composition_count(999, family, b10) > 0
    with pytest.raises(ResourceLimitError):
        composition_count(1000, family, b10)


def test_composition_counts_read_one_table(monkeypatch, b10):
    # a batch builds one table, at its largest target, and each of its counts
    # is the lone call's
    Ns = [1001, 57, 100000, 57, 3]
    for family in ("s12", "s21"):
        lone = [composition_count(N, family, b10) for N in Ns]
        tables = []
        _spy(monkeypatch, reps, "_composition_table", tables)
        assert reps.composition_counts(Ns, family, b10) == lone
        assert tables == [(100000, reps.COMPOSITION_PARTS[family], b10)]
        monkeypatch.undo()
    with pytest.raises(ValueError, match="ternary compositions need N >= 3"):
        reps.composition_counts([100, 2], "s12", b10)


@pytest.mark.parametrize("family", ["s12", "s21"])
def test_composition_count_refuses_an_over_long_table(monkeypatch, b10, family):
    # the table makes no convolution, so MAX_CONV_LEN does not bound it; the
    # represent batch that reads it refuses the chain's convolution length,
    # before B's intervals are built
    monkeypatch.setattr(reps, "MAX_CONV_LEN", 1 << 16)
    built = []
    _spy(monkeypatch, reps, "coprime_leading_intervals", built)
    assert composition_count(32767, family, b10) > 0
    assert composition_count(32768, family, b10) > 0
    assert len(built) == 2
    with pytest.raises(ResourceLimitError, match="convolution length 65537 exceeds 65536"):
        reps.check_batch(3, 32768, "r" + family[1:], b10, None)
    assert len(built) == 2
