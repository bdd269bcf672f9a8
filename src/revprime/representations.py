"""Representation counts N = (primes) + (reversed primes) via convolution.

Every family is a coefficient extraction: convolve the relevant weighted
indicator sequences, truncated at N, and read index N.  Below a size
crossover the convolution is direct (exact up to elementwise rounding);
above it a real FFT is used and an a-posteriori error bound

    |error| <= 4 * log2(nfft) * eps * ||u||_2 * ||v||_2

is carried on the result.  Existence questions are answered by reach
layers, boolean sumset masks over 0..N (reach_step): the 0/1 counts are
integers and the FFT error bound must stay below 1/2 (under MAX_CONV_LEN it
is below 1.5e-5), so thresholding at 1/2 is exact.  A direct-path zero is
already exact, as every term is non-negative; an FFT value within its bound
of zero is recounted by nested summation pruned by the reach layers.

Families (weights are natural logs of the source primes):

    r11:  N = p1 + n2            predicted  S_2(N) * #B(N)
    r12:  N = p1 + n2 + n3       predicted  S_3(N) * comp(1,2)(N)
    r21:  N = p1 + p2 + n3       predicted  S_3(N) * comp(2,1)(N)
    r0k:  N = n1 + ... + nk      predicted  S_k(N) * comp(0,k)(N)
    rsquare: N = n + squarefree  predicted  #B(N)/zeta(2) * S_sq(N)

where the n_i range over reversed primes coprime to b^3 - b and comp(...)
are the unweighted composition counts with leading-digit constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import ZETA2, singular_series_k, singular_series_squarefree
from .digits import Base, count_coprime_leading
from .errors import ResourceLimitError
from .sieve import (
    MAX_SEQUENCE_LEN,
    PrimeTable,
    WeightedSequence,
    indicator_mask,
    leading_coprime_sequence,
    reversed_prime_arrays,
    unit_indicator,
    weighted_indicator,
)

# len(u) * len(v) above which convolution switches from direct to FFT
DIRECT_OPS_CAP = 1 << 27
MAX_CONV_LEN = 1 << 30
MAX_PURE_K = 6

FAMILIES = ("r11", "r12", "r21", "r0k", "rsquare")
COMP_FAMILIES = ("s12", "s21", "s0k")

_EPS = float(np.finfo(np.float64).eps)


@dataclass
class RepresentationProfile:
    N: int
    family: str
    exact: float  # the weighted count (0.0 iff no representation exists)
    predicted: float  # singular series x combinatorial factor
    ratio: float
    provenance: str  # "exact" | "fft"


def convolve(u: WeightedSequence, v: WeightedSequence, out_len: int | None = None) -> WeightedSequence:
    """(u * v)[n] = sum_{i+j=n} u[i] v[j], optionally truncated to out_len."""
    lu, lv = len(u), len(v)
    if lu + lv - 1 > MAX_CONV_LEN:
        raise ResourceLimitError(f"convolution length {lu + lv - 1} exceeds {MAX_CONV_LEN}")
    propagated = u.error_bound * float(np.abs(v.weights).sum()) + v.error_bound * float(
        np.abs(u.weights).sum()
    )
    if lu * lv <= DIRECT_OPS_CAP:
        w = np.convolve(u.weights, v.weights)
        bound = propagated
    else:
        full = lu + lv - 1
        nfft = 1
        while nfft < full:
            nfft *= 2
        spectrum = np.fft.rfft(u.weights, nfft)
        spectrum *= np.fft.rfft(v.weights, nfft)  # in place: one spectrum fewer at peak
        w = np.fft.irfft(spectrum, nfft)[:full]
        bound = propagated + 4.0 * math.log2(nfft) * _EPS * float(
            np.linalg.norm(u.weights) * np.linalg.norm(v.weights)
        )
        np.maximum(w, 0.0, out=w)  # clip FFT noise below zero
    if out_len is not None:
        w = w[:out_len]
    return WeightedSequence("conv", w, bound)


def convolve_chain(seqs: list[WeightedSequence], out_len: int) -> WeightedSequence:
    acc = seqs[0]
    for nxt in seqs[1:]:
        acc = convolve(acc, nxt, out_len=out_len)
    return acc


def exact_int_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact convolution of non-negative integer sequences via big-integer
    packing (Kronecker substitution); object-dtype result."""
    ai = [int(x) for x in a]
    bi = [int(x) for x in b]
    if not ai or not bi:
        return np.empty(0, dtype=object)
    maxval = max(ai) * max(bi) * min(len(ai), len(bi))
    block = max(maxval.bit_length() + 1, 8)
    pa = sum(x << (i * block) for i, x in enumerate(ai))
    pb = sum(x << (i * block) for i, x in enumerate(bi))
    prod = pa * pb
    mask = (1 << block) - 1
    out = np.empty(len(ai) + len(bi) - 1, dtype=object)
    for i in range(len(out)):
        out[i] = (prod >> (i * block)) & mask
    return out


def reach_step(reach: np.ndarray, addend: np.ndarray, out_len: int | None = None) -> np.ndarray:
    """The sumset R + A as a boolean mask: index n is set iff n = r + a with
    reach[r] and addend[a].  The 0/1 convolution counts are integers, so the
    threshold at 1/2 is exact while the error bound stays below 1/2."""
    u, v = (WeightedSequence("mask", m.astype(np.float64)) for m in (reach, addend))
    conv = convolve(u, v, out_len=out_len)
    if conv.error_bound >= 0.5:
        raise ResourceLimitError(f"sumset error bound {conv.error_bound} leaves no rounding margin")
    return conv.weights > 0.5


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


def _family_sequences(N: int, family: str, base: Base, k: int | None, table: PrimeTable | None) -> list[WeightedSequence]:
    if family == "r11":
        return [
            weighted_indicator(N, "prime", table=table),
            weighted_indicator(N, "reversed_prime_coprime", base=base, table=table),
        ]
    if family == "r12":
        rev = weighted_indicator(N, "reversed_prime_coprime", base=base, table=table)
        return [weighted_indicator(N, "prime", table=table), rev, rev]
    if family == "r21":
        pr = weighted_indicator(N, "prime", table=table)
        return [pr, pr, weighted_indicator(N, "reversed_prime_coprime", base=base, table=table)]
    if family == "r0k":
        if k is None or not 2 <= k <= MAX_PURE_K:
            raise ValueError(f"r0k requires 2 <= k <= {MAX_PURE_K}")
        rev = weighted_indicator(N, "reversed_prime_coprime", base=base, table=table)
        return [rev] * k
    raise ValueError(f"unknown family {family!r}")


def _predicted(N: int, family: str, base: Base, k: int | None) -> float:
    if family == "r11":
        return float(singular_series_k(N, 2, base)) * count_coprime_leading(N, base)
    if family == "r12":
        return float(singular_series_k(N, 3, base)) * composition_count(N, "s12", base)
    if family == "r21":
        return float(singular_series_k(N, 3, base)) * composition_count(N, "s21", base)
    if family == "r0k":
        return float(singular_series_k(N, k, base)) * composition_count(N, "s0k", base, k=k)
    raise ValueError(f"unknown family {family!r}")


def representation_count(
    N: int,
    family: str,
    base: Base,
    k: int | None = None,
    table: PrimeTable | None = None,
) -> RepresentationProfile:
    """Weighted count of representations of N in the given family, with the
    predicted main term; see the module docstring for the family key."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if family == "rsquare":
        return squarefree_shift_count(N, base, table=table)
    seqs = _family_sequences(N, family, base, k, table)
    conv = convolve_chain(seqs, out_len=N + 1)
    exact = float(conv.weights[N])
    provenance = "fft" if conv.error_bound > 0 else "exact"
    if provenance == "fft" and exact <= conv.error_bound:
        # near zero through an FFT: recount exactly over the reach layers
        exact = _exact_value(N, seqs, _tail_reach(seqs, N))
        provenance = "exact"
    predicted = _predicted(N, family, base, k)
    ratio = exact / predicted if predicted > 0 else float("nan")
    return RepresentationProfile(N, family, exact, predicted, ratio, provenance)


def composition_count(
    N: int, family: str, base: Base, k: int | None = None
) -> int:
    """Compositions of N into positive parts with leading-digit constraints:

    s12: n1 + n2 + n3 = N, leading digits of n2 and n3 coprime to b
    s21: n1 + n2 + n3 = N, leading digit of n3 coprime to b
    s0k: n1 + ... + nk = N, all leading digits coprime to b
    """
    if family not in COMP_FAMILIES:
        raise ValueError(f"unknown composition family {family!r}")
    if family in ("s12", "s21") and N < 3:
        raise ValueError("ternary compositions need N >= 3")
    ones = unit_indicator(N)
    bset = leading_coprime_sequence(N, base)
    if family == "s12":
        seqs = [ones, bset, bset]
    elif family == "s21":
        seqs = [ones, ones, bset]
    else:
        if k is None or not 2 <= k <= MAX_PURE_K:
            raise ValueError(f"s0k requires 2 <= k <= {MAX_PURE_K}")
        if N < k:
            raise ValueError("need N >= k")
        seqs = [bset] * k
    conv = convolve_chain(seqs, out_len=N + 1)
    value = float(conv.weights[N])
    # counts are integers; the float path is trusted only while it provably
    # rounds to the right integer, else redo with exact integer convolution
    if value >= 2.0**53 or conv.error_bound >= 0.25:
        acc = exact_int_convolve(seqs[0].weights.astype(np.int64), seqs[1].weights.astype(np.int64))[: N + 1]
        for nxt in seqs[2:]:
            acc = exact_int_convolve(acc, nxt.weights.astype(np.int64))[: N + 1]
        return int(acc[N])
    return int(round(value))


def squarefree_shift_count(
    N: int, base: Base, table: PrimeTable | None = None
) -> RepresentationProfile:
    """Weighted count of N = n + eta with n a reversed prime coprime to
    b^3 - b and eta squarefree (eta = 0 excluded: mu^2(0) = 0)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    sqfree = squarefree_mask(N)
    arrays = reversed_prime_arrays(N, base, require_coprime=True, table=table)
    inner = arrays.n < N  # difference 0 is not squarefree
    n, w = arrays.n[inner], arrays.weight[inner]
    exact = float(w[sqfree[N - n]].sum())
    predicted = count_coprime_leading(N, base) / ZETA2 * float(
        singular_series_squarefree(N, base)
    )
    ratio = exact / predicted if predicted > 0 else float("nan")
    return RepresentationProfile(N, "rsquare", exact, predicted, ratio, "exact")


def squarefree_mask(x: int) -> np.ndarray:
    """Boolean array m[0..x]: m[n] iff n is squarefree (m[0] = False)."""
    if x >= MAX_SEQUENCE_LEN:
        raise ResourceLimitError(
            f"squarefree mask of length {x + 1} exceeds the {MAX_SEQUENCE_LEN} ceiling"
        )
    m = np.ones(x + 1, dtype=bool)
    m[0] = False
    for q in range(2, math.isqrt(x) + 1):
        m[q * q :: q * q] = False
    return m


def exceptional_evens(x: int, base: Base, table: PrimeTable | None = None) -> np.ndarray:
    """Even N <= x with no representation N = p + n (n a reversed prime
    coprime to b^3 - b): one reach step plus an exact confirmation of each
    zero position."""
    if x < 4:
        raise ValueError("x must be >= 4")
    pmask = indicator_mask(x, "prime", table=table)
    rmask = indicator_mask(x, "reversed_prime_coprime", base=base, table=table)
    reach = reach_step(pmask, rmask, out_len=x + 1)
    primes = np.flatnonzero(pmask)
    evens = np.arange(2, x + 1, 2)
    out = [N for N in evens[~reach[evens]] if not rmask[N - primes[primes < N]].any()]
    return np.array(out, dtype=np.int64)


def count_exceptional_evens(x: int, base: Base, table: PrimeTable | None = None) -> int:
    return len(exceptional_evens(x, base, table=table))
