"""Representation counts N = (primes) + (reversed primes) via convolution.

Every family is a coefficient extraction: convolve the relevant weighted
indicator sequences, truncated at N, and read index N.  Below a size
crossover the convolution is direct (exact up to elementwise rounding);
above it a real FFT is used and an a-posteriori error bound

    |error| <= 4 * log2(nfft) * eps * ||u||_2 * ||v||_2

is carried on the result.  The weighted chains take nfft a power of two:
the last bits of every printed count depend on it.  Existence questions are
answered by reach layers, boolean sumset masks over 0..N (reach_step): the
0/1 counts are integers and the FFT error bound must stay below 1/2 (under
MAX_CONV_LEN it is below 1.5e-5), so thresholding at 1/2 is exact.  The mask
is then the same at any nfft that holds the full convolution, so every
reach step, small or large, is one FFT product at the least 5-smooth length
(_next_fast_len), and its bound takes ||m||_2 = sqrt(#ones) for a 0/1 mask
m; DIRECT_OPS_CAP steers the weighted chains alone.  A direct-path zero is
already exact, as every term is non-negative; an FFT value within its bound
of zero is recounted by nested summation pruned by the reach layers.
reach_step and an uncached convolve share one FFT product kernel
(_fft_product).

exceptional_evens asks existence for every even N <= x at once, and almost
every N has a small witness, so it makes no convolution and builds no dense
mask: it reads the coprime reversed primes from their build and the odd
primality from the prime table, sweeps the reversed primes n in ascending
order and drops each N for which N - n is a prime, first by shifted slices
over all targets, then by a gather over the few survivors.  A target leaves
only with a witness, and the survivors have been checked against every n,
so the result is exact.

representation_counts is the one engine; a lone representation_count is a
batch of one.  A batch is checked once (check_batch), so a reversed-prime
source past the sieve ceiling is refused before any sieve, and builds each
input once, at its largest target, before it yields the first profile:
rsquare's squarefree mask and coprime reversed primes; the composition
table, read for every target's main term and then dropped; and the
factors, whose TransformCache hands target N their prefixes over 0..N,
bitwise the indicators built at N.  It then yields one profile per target,
in order, and keeps none.  Each target runs exactly the chain of a batch of
one, so every float a batch yields is bitwise the lone call's.  Transforms
are keyed by (kind, nfft, members <= N): a factor's spectrum is reused
while no new member enters, and a chain's first stage reuses its inverse
transform while both keys are unchanged.  Between neighbouring targets a
new prime or reversed prime is rare, so most targets pay for the
accumulator stages alone.

Families (weights are natural logs of the source primes):

    r11:  N = p1 + n2            predicted  S_2(N) * #B(N)
    r12:  N = p1 + n2 + n3       predicted  S_3(N) * comp(1,2)(N)
    r21:  N = p1 + p2 + n3       predicted  S_3(N) * comp(2,1)(N)
    r0k:  N = n1 + ... + nk      predicted  S_k(N) * comp(0,k)(N)
    rsquare: N = n + squarefree  predicted  #B(N)/zeta(2) * S_sq(N)

where the n_i range over reversed primes coprime to b^3 - b and comp(...)
are the unweighted composition counts with leading-digit constraints, read
from one exact integer table per batch (_composition_table).  B is a list of
digit intervals (digits.coprime_leading_intervals), so a B step of the table
is two slice operations per interval on a prefix sum: no FFT, no rounding.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .arithmetic import ZETA2, singular_series_k, singular_series_squarefree
from .digits import Base, coprime_leading_intervals, count_coprime_leading
from .errors import ResourceLimitError, brief
from .sieve import (
    WeightedSequence,
    check_length,
    get_prime_table,
    reversed_prime_arrays,
    reversed_prime_source_bound,
    weighted_indicator,
)

# len(u) * len(v) above which convolve() switches from direct to FFT
DIRECT_OPS_CAP = 1 << 27
MAX_CONV_LEN = 1 << 30
MAX_PURE_K = 6

FAMILIES = ("r11", "r12", "r21", "r0k", "rsquare")
# the parts of each ternary composition count, in _composition_table's letters
COMPOSITION_PARTS = {"s12": "BBA", "s21": "BAA"}

_EPS = float(np.finfo(np.float64).eps)


@dataclass
class RepresentationProfile:
    N: int
    family: str
    exact: float  # the weighted count (0.0 iff no representation exists)
    predicted: float  # singular series x combinatorial factor
    ratio: float
    provenance: str  # "exact" | "fft"


def convolve(
    u: WeightedSequence,
    v: WeightedSequence,
    out_len: int | None = None,
    transforms: TransformCache | None = None,
) -> WeightedSequence:
    """(u * v)[n] = sum_{i+j=n} u[i] v[j], optionally truncated to out_len.

    On the FFT path, `transforms` lends the spectra of one batch's earlier
    calls; the result is bitwise the one computed without it."""
    lu, lv = len(u), len(v)
    _check_conv_len(lu + lv - 1)
    propagated = u.error_bound * float(np.abs(v.weights).sum()) + v.error_bound * float(
        np.abs(u.weights).sum()
    )
    if lu * lv <= DIRECT_OPS_CAP:
        w = np.convolve(u.weights, v.weights)
        bound = propagated
    else:
        full = lu + lv - 1
        # a power of two: the last bits of the weighted counts depend on nfft
        nfft = 1 << (full - 1).bit_length()
        n = full if out_len is None else min(full, out_len)
        if transforms is None:
            w = _fft_product(u.weights, v.weights, nfft, n)
        else:
            w = transforms.product(u, v, nfft, n)
        bound = propagated + 4.0 * math.log2(nfft) * _EPS * float(
            np.linalg.norm(u.weights) * np.linalg.norm(v.weights)
        )
    if out_len is not None:
        w = w[:out_len]
    return WeightedSequence("conv", w, bound)  # an accumulator, never in a TransformCache


def _check_conv_len(full: int) -> None:
    if full > MAX_CONV_LEN:
        raise ResourceLimitError(f"convolution length {brief(full)} exceeds {MAX_CONV_LEN}")


def _fft_product(u: np.ndarray, v: np.ndarray, nfft: int, n: int) -> np.ndarray:
    """The first n entries of the clipped irfft(rfft(u) * rfft(v)) at length
    nfft: the linear convolution while nfft >= len(u) + len(v) - 1."""
    spectrum = np.fft.rfft(u, nfft)
    spectrum *= np.fft.rfft(v, nfft)  # in place: one spectrum fewer at peak
    return _clipped_inverse(spectrum, nfft, n)


def _next_fast_len(n: int) -> int:
    """The least 5-smooth integer 2^i 3^j 5^k >= n, for n >= 1."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _clipped_inverse(spectrum: np.ndarray, nfft: int, n: int) -> np.ndarray:
    """The first n entries of irfft(spectrum, nfft), FFT noise below zero clipped."""
    w = np.fft.irfft(spectrum, nfft)[:n]
    np.maximum(w, 0.0, out=w)
    return w


class TransformCache:
    """The factors of one batch of targets up to `top`, and the spectra that
    the batch's convolution chains share.

    Each factor kind is built once, by one weighted_indicator call at top,
    and factor(N, kind) hands out the prefix view over 0..N, bitwise
    weighted_indicator(N, kind).  A factor's zero-padded input at length
    nfft is thus named by its key (kind, nfft, members <= N); product()
    refuses any other sequence but an accumulator (a convolve() result).  A
    right operand keeps its spectrum; a left one (a chain's head) is
    transformed again unless its kind holds its key's spectrum.  The clipped
    inverse transform of a product of two factors (a chain's first stage) is
    kept over 0..top and reused while both keys are unchanged.  Accumulators
    are never cached, and a stale entry is dropped before its replacement is
    computed.
    """

    def __init__(self, top: int, base: Base):
        self.top, self.base = top, base
        self._factors: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # kind -> (weights, support)
        self._spectra: dict[str, tuple[tuple, np.ndarray]] = {}  # kind -> (key, spectrum)
        # (the two factors' keys, clipped inverse) of the last first stage
        self._inverse: tuple[tuple, np.ndarray] | None = None

    def factor(self, N: int, kind: str) -> WeightedSequence:
        """weighted_indicator(N, kind), as a view of the batch's build."""
        if N > self.top:
            raise ValueError(f"target {N} exceeds the batch's largest, {self.top}")
        if kind not in self._factors:
            w = weighted_indicator(self.top, kind, base=self.base).weights
            w.flags.writeable = False  # every target's view shares it
            self._factors[kind] = (w, np.flatnonzero(w))
        return WeightedSequence(kind, self._factors[kind][0][: N + 1])

    def _key(self, seq: WeightedSequence, nfft: int) -> tuple | None:
        """The key of a factor handed out by factor(); None for an accumulator."""
        if seq.kind == "conv":
            return None
        full, support = self._factors.get(seq.kind, (None, None))
        w = seq.weights
        # a prefix view has the address, dtype and strides of full[:len(w)]
        if full is None or w.__array_interface__ != full[: len(w)].__array_interface__:
            raise ValueError(f"a {seq.kind!r} sequence that is not a prefix of this cache's")
        return seq.kind, nfft, int(np.searchsorted(support, len(w) - 1, side="right"))

    def product(self, u: WeightedSequence, v: WeightedSequence, nfft: int, n: int) -> np.ndarray:
        """The first n entries of the clipped irfft(rfft(u) * rfft(v)) at
        length nfft, as convolve() computes them."""
        keys = self._key(u, nfft), self._key(v, nfft)
        first_stage = None not in keys
        if first_stage and self._inverse is not None:
            kept, w = self._inverse
            if kept == keys and len(w) >= n:
                return w[:n]
            self._inverse = None
            del w
        kept_v = self._spectra.pop(v.kind, None)
        if kept_v is None or kept_v[0] != keys[1]:
            del kept_v  # stale: dropped before its replacement is computed
            kept_v = keys[1], np.fft.rfft(v.weights, nfft)
        if keys[1] is not None:
            self._spectra[v.kind] = kept_v
        kept_u = self._spectra.get(u.kind)  # held only if u was a right operand
        if kept_u is not None and kept_u[0] == keys[0]:
            # u first, as in place: the rounding depends on the order
            spectrum = kept_u[1] * kept_v[1]
        else:
            spectrum = np.fft.rfft(u.weights, nfft)
            spectrum *= kept_v[1]
        del kept_u, kept_v
        if not first_stage:
            return _clipped_inverse(spectrum, nfft, n)
        w = _clipped_inverse(spectrum, nfft, max(n, self.top + 1)).copy()
        self._inverse = (keys, w)
        return w[:n]


def convolve_chain(
    seqs: list[WeightedSequence], out_len: int, transforms: TransformCache | None = None
) -> WeightedSequence:
    acc = seqs[0]
    for nxt in seqs[1:]:
        acc = convolve(acc, nxt, out_len=out_len, transforms=transforms)
    return acc


def reach_step(reach: np.ndarray, addend: np.ndarray, out_len: int | None = None) -> np.ndarray:
    """The sumset R + A as a boolean mask: index n is set iff n = r + a with
    reach[r] and addend[a], by one FFT product at every size.  The 0/1
    convolution counts are integers, so the threshold at 1/2 is exact while
    the error bound stays below 1/2; the mask is the same at any FFT length
    that holds the full convolution, so it takes the next 5-smooth one."""
    reach, addend = (np.asarray(m, dtype=bool) for m in (reach, addend))
    full = len(reach) + len(addend) - 1
    _check_conv_len(full)
    n = full if out_len is None else min(full, out_len)
    nfft = _next_fast_len(full)
    # ||m||_2 of a 0/1 mask is the square root of its count of ones
    bound = 4.0 * math.log2(nfft) * _EPS * math.sqrt(np.count_nonzero(reach) * np.count_nonzero(addend))
    if bound >= 0.5:
        raise ResourceLimitError(f"sumset error bound {bound} leaves no rounding margin")
    return _fft_product(reach, addend, nfft, n) > 0.5  # rfft takes the masks as 0.0/1.0


def _tail_reach(seqs: list[WeightedSequence], N: int) -> list[np.ndarray]:
    """tails[j]: the reach layer of seqs[j + 1:] over 0..N."""
    tails = [seqs[-1].weights[: N + 1] > 0]
    for s in reversed(seqs[1:-1]):
        tails.insert(0, reach_step(s.weights[: N + 1] > 0, tails[0], out_len=N + 1))
    return tails


def _exact_value(N: int, seqs: list[WeightedSequence], tails: list[np.ndarray]) -> float:
    """Exact (compensated) weighted count at N by direct nested summation,
    descending only into remainders inside the next reach layer."""
    head = seqs[0].weights
    if len(seqs) == 1:
        return float(head[N])
    sup = np.flatnonzero(head[: N + 1])
    sup = sup[tails[0][N - sup]]
    return math.fsum(
        float(head[i]) * _exact_value(N - int(i), seqs[1:], tails[1:]) for i in sup
    )


def check_family(family: str, k: int | None) -> None:
    """The family checks of representation_count, made before any prime is
    read: a usage error is a ValueError."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "r0k" and (k is None or not 2 <= k <= MAX_PURE_K):
        raise ValueError(f"r0k requires 2 <= k <= {MAX_PURE_K}")


def check_batch(least: int, largest: int, family: str, base: Base, k: int | None) -> None:
    """The checks of representation_counts, which need only a batch's least
    and largest targets, made before its targets are listed or a prime is
    read: the family; the least target, at least 2 and at least the summand
    count that the family's composition count needs (3 for r12 and r21, k
    for r0k); and the ceilings that the batch's builds at the largest target
    meet, the reversed primes' sieve last."""
    check_family(family, k)
    if least < 2:
        raise ValueError("N must be >= 2")
    if family in ("r12", "r21") and least < 3:
        raise ValueError("ternary compositions need N >= 3")
    if family == "r0k" and least < k:
        raise ValueError("need N >= k")
    # rsquare's squarefree mask or the first factor's indicator, then a chain's length
    check_length(largest, "squarefree mask" if family == "rsquare" else "indicator")
    if family != "rsquare":
        _check_conv_len(2 * largest + 1)
    reversed_prime_source_bound(largest, base)


def _chain(family: str, k: int | None) -> tuple[str, ...]:
    """The factor kinds of a family's convolution chain, left to right."""
    rev = "reversed_prime_coprime"
    if family == "r0k":
        return (rev,) * k
    return {"r11": ("prime", rev), "r12": ("prime", rev, rev), "r21": ("prime", "prime", rev)}[family]


def _chain_count(N: int, family: str, k: int | None, transforms: TransformCache) -> tuple[float, str]:
    """Target N's weighted count by its family's chain, and its provenance:
    a function of its own, so that its arrays are freed before the next
    target starts."""
    seqs = [transforms.factor(N, kind) for kind in _chain(family, k)]
    conv = convolve_chain(seqs, out_len=N + 1, transforms=transforms)
    exact = float(conv.weights[N])
    if conv.error_bound == 0:
        return exact, "exact"
    if exact <= conv.error_bound:
        # near zero through an FFT: recount exactly over the reach layers
        return _exact_value(N, seqs, _tail_reach(seqs, N)), "exact"
    return exact, "fft"


def _predicted(N: int, family: str, base: Base, k: int | None, comp: int | None) -> float:
    """S_k(N) for the chain's k summands times their composition count comp
    (for r11, #B(N))."""
    if family == "rsquare":
        return count_coprime_leading(N, base) / ZETA2 * float(singular_series_squarefree(N, base))
    if comp is None:  # r11
        comp = count_coprime_leading(N, base)
    return float(singular_series_k(N, len(_chain(family, k)), base)) * comp


def representation_count(N: int, family: str, base: Base, k: int | None = None) -> RepresentationProfile:
    """next(representation_counts([N], ...)): a batch of one."""
    return next(representation_counts([N], family, base, k=k))


def representation_counts(
    Ns: list[int], family: str, base: Base, k: int | None = None
) -> Iterator[RepresentationProfile]:
    """Yields the weighted count of representations of each N in Ns, in
    order, with the predicted main term; see the module docstring for the
    family key.  The checks and the batch's builds run at the call, before
    the first profile is drawn.  A chain family requests one prime table, at
    the largest of the largest target and the reversed primes' sources.
    r12, r21 and r0k then build their composition table once, at the
    largest target, read every target's count from it and drop it before
    the first chain starts."""
    check_family(family, k)
    if not Ns:
        return iter(())
    top = max(Ns)
    check_batch(min(Ns), top, family, base, k)
    comps = None
    if family == "rsquare":
        sqfree = squarefree_mask(top)
        arrays = reversed_prime_arrays(top, base, require_coprime=True)
    else:
        get_prime_table(max(top, reversed_prime_source_bound(top, base)))
        if family != "r11":
            parts = "B" * k if family == "r0k" else COMPOSITION_PARTS["s" + family[1:]]
            comps = _composition_table(top, parts, base)[Ns]
        transforms = TransformCache(top, base)

    def profiles() -> Iterator[RepresentationProfile]:
        for i, N in enumerate(Ns):
            if family == "rsquare":
                # N = n + eta, eta squarefree: n < N, as mu^2(0) = 0
                cut = int(np.searchsorted(arrays.n, N))
                exact, provenance = float(arrays.weight[:cut][sqfree[N - arrays.n[:cut]]].sum()), "exact"
            else:
                exact, provenance = _chain_count(N, family, k, transforms)
            predicted = _predicted(N, family, base, k, None if comps is None else int(comps[i]))
            ratio = exact / predicted if predicted > 0 else float("nan")
            yield RepresentationProfile(N, family, exact, predicted, ratio, provenance)

    return profiles()


def _composition_table(top: int, parts: str, base: Base) -> np.ndarray:
    """c(n) for every n <= top: the ordered sums n = n_1 + ... + n_j with n_i
    in parts[i - 1], where B is the integers whose leading digit is coprime
    to b and A is every n >= 1.  Both are lists of intervals, B its digit
    intervals, so the table starts from the empty sum and takes each part by
    one _interval_step."""
    check_length(top, "composition table")
    runs = {"A": [(1, top)], "B": coprime_leading_intervals(top, base)}
    counts = np.zeros(top + 1, dtype=np.int64)
    counts[0] = 1  # the empty sum
    for part in parts:
        counts = _interval_step(counts, runs[part])
    return counts


def _interval_step(counts: np.ndarray, runs: list[tuple[int, int]]) -> np.ndarray:
    """counts * 1_S over 0..len(counts) - 1, exactly, for non-negative integer
    counts and S the disjoint intervals [lo, hi] of runs inside that range.
    With C[m] = counts[0] + ... + counts[m - 1], [lo, hi] adds
    C[n - lo + 1] - C[n - min(hi, n)] at each n >= lo.  No partial sum passes
    2 max(counts) len(counts), so int64 holds below 2^63, else object: sized
    from max(counts), as an int64 prefix sum may already have wrapped."""
    top = len(counts) - 1
    dtype = np.int64 if 2 * int(counts.max()) * (top + 1) < 1 << 63 else object
    sums = np.zeros(top + 2, dtype=dtype)
    np.cumsum(counts.astype(dtype, copy=False), out=sums[1:])
    out = np.zeros(top + 1, dtype=dtype)
    for lo, hi in runs:
        out[lo:] += sums[1 : top - lo + 2]
        out[hi + 1 :] -= sums[1 : top - hi + 1]
    return out


def composition_counts(Ns: list[int], family: str, base: Base) -> list[int]:
    """The compositions n1 + n2 + n3 = N of each N in Ns, read from one
    table at the largest N: for s12 the leading digits of n2 and n3 are
    coprime to b (the table BBA of _composition_table), for s21 that of n3
    (BAA).  The table makes no convolution, so its one bound is the length
    ceiling (check_length); a represent batch's chain still refuses a
    target past MAX_CONV_LEN (check_batch)."""
    if family not in COMPOSITION_PARTS:
        raise ValueError(f"unknown composition family {family!r}")
    if min(Ns) < 3:
        raise ValueError("ternary compositions need N >= 3")
    table = _composition_table(max(Ns), COMPOSITION_PARTS[family], base)
    return [int(table[N]) for N in Ns]


def composition_count(N: int, family: str, base: Base) -> int:
    """composition_counts([N], ...)[0]: a batch of one."""
    return composition_counts([N], family, base)[0]


def squarefree_mask(x: int) -> np.ndarray:
    """Boolean array m[0..x]: m[n] iff n is squarefree (m[0] = False)."""
    check_length(x, "squarefree mask")
    m = np.ones(x + 1, dtype=bool)
    m[0] = False
    for q in range(2, math.isqrt(x) + 1):
        m[q * q :: q * q] = False
    return m


def exceptional_evens(x: int, base: Base) -> np.ndarray:
    """Even N <= x with no representation N = p + n (n a reversed prime
    coprime to b^3 - b), by a sweep over the reversed primes in ascending
    order that drops each target N once N - n is a prime.

    Every such n is odd (coprime to b^3 - b, which is even), so an even N
    needs an odd p.  The sweep works on odd halves: index m stands for the
    target N = 2m + 2, and index i of podd, the prime table's odd mask, for
    2i + 1, so n = 2s + 1 witnesses target m iff podd[m - s].  While many
    targets are alive, each n costs one shifted slice over all of them
    (dense phase).  Once fewer than 1/64 survive (checked every 16 steps),
    the survivors are tested against blocks of the next reversed primes by
    a gather (gather phase); a negative m - s is clipped to 0, and podd[0]
    (the integer 1) is False.  A target is dropped only with a witness in
    hand, and a survivor has been checked against every n, so the survivors
    are exactly the exceptions.  reversed_prime_source_bound refuses an x
    past the length ceiling before any prime is read."""
    if x < 4:
        raise ValueError("x must be >= 4")
    # one table covers x and the build's sources, as in a represent batch
    table = get_prime_table(max(x, reversed_prime_source_bound(x, base)))
    steps = reversed_prime_arrays(x, base, require_coprime=True).n // 2
    podd = table.odd_mask[: (x + 1) // 2]  # the session's: read only
    h = x // 2
    alive = np.ones(h, dtype=bool)
    not_prime = ~podd[:h]
    i = 0
    while i < len(steps) and (i % 16 or 64 * np.count_nonzero(alive) >= h):
        s = steps[i]
        alive[s:] &= not_prime[: h - s]
        i += 1
    m = np.flatnonzero(alive)
    while len(m) and i < len(steps):
        block = steps[i : i + max(1, (1 << 20) // len(m))]
        diff = m[:, None] - block[None, :]
        np.maximum(diff, 0, out=diff)
        m = m[~podd[diff].any(axis=1)]
        i += len(block)
    return 2 * m + 2


def count_exceptional_evens(x: int, base: Base) -> int:
    return len(exceptional_evens(x, base))
