"""Sums of reversed primes only: gap-interval verification in primorial
bases, minimal-k representations, and range scans.  Both of the latter read
reach layers (representations.reach_step): layer k is the exact set of sums
of k reversed primes, so the minimal k of N is the first layer holding N.

The reversed-prime set here carries NO coprimality filter: every n whose
digital reverse is prime is admitted.  In the primorial base b_i (product
of the first i primes) every prime above b_i ends in a digit coprime to
b_i, so L-digit reversed primes have leading digit 1 or > p_i; the interval
[2 b_i^(L-1), (p_i + 1) b_i^(L-1)] is therefore free of reversed primes for
i >= 2, which forces any representation of its right endpoint to use at
least (p_i + 1)/2 summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digits import Base
from .representations import reach_step
from .sieve import check_block_length, indicator_mask, reversed_prime_arrays

_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

MAX_SEARCH_K = 8


def primorial(i: int) -> int:
    """Product of the first i primes, 1 <= i <= 9."""
    if not 1 <= i <= len(_FIRST_PRIMES):
        raise ValueError(f"i must be in [1, {len(_FIRST_PRIMES)}]")
    out = 1
    for p in _FIRST_PRIMES[:i]:
        out *= p
    return out


@dataclass
class GapReport:
    base: Base
    L: int
    lo: int
    hi: int
    reversed_prime_count: int  # exact enumeration over [lo, hi]
    forced_k: Fraction  # (p_i + 1) / 2, the forced summand count at hi


def verify_gap(i: int, L: int) -> GapReport:
    """Enumerate reversed primes in [2 b_i^(L-1), (p_i+1) b_i^(L-1)].

    The count is 0 for i >= 2 and L >= 2 by the digit argument above; the
    i = 1 construction is degenerate (p_1 + 1 = 3 is itself below the next
    coprime digit) and the report simply records what enumeration finds.
    """
    if L < 2:
        raise ValueError("L must be >= 2")
    b_i = primorial(i)
    p_i = _FIRST_PRIMES[i - 1]
    base = Base(b_i)
    check_block_length(L, base)  # before b_i^(L-1) is taken: L may be huge
    lo = 2 * b_i ** (L - 1)
    hi = (p_i + 1) * b_i ** (L - 1)
    arrays = reversed_prime_arrays(hi, base, require_coprime=False)
    inside = int(np.count_nonzero((arrays.n >= lo) & (arrays.n <= hi)))
    return GapReport(base, L, lo, hi, inside, Fraction(p_i + 1, 2))


@dataclass
class MinKResult:
    N: int
    k: int | None  # smallest summand count <= k_max, or None
    witness: list[int]  # one representation (empty when k is None)
    single: bool  # True when N is itself a reversed prime (k = 1)


def check_k_max(k_max: int) -> None:
    """The k_max check of min_k_representation and scan_min_k."""
    if not 1 <= k_max <= MAX_SEARCH_K:
        raise ValueError(f"k_max must be in [1, {MAX_SEARCH_K}]")


def min_k_representation(N: int, base: Base, k_max: int) -> MinKResult:
    """Smallest k <= k_max with N a sum of k reversed primes, plus one
    witness.  k = 1 (N itself a reversed prime) is reported but flagged,
    since the constant of interest is defined with k > 1."""
    if N < 2:
        raise ValueError("N must be >= 2")
    check_k_max(k_max)
    pool = indicator_mask(N, "reversed_prime", base=base)
    layers: list[np.ndarray] = []  # layers[j]: the sums of exactly j + 1 reversed primes
    # N is in layer k + 1 iff N - r is in layer k for some pool member r, so
    # the layer holding N is never built and k <= 2 needs no convolution
    reached = bool(pool[N])
    while not reached and len(layers) + 1 < k_max:
        layers.append(reach_step(layers[-1], pool, out_len=N + 1) if layers else pool)
        reached = bool((pool & layers[-1][::-1]).any())
    if not reached:
        return MinKResult(N, None, [], single=False)
    # backtrack: at each layer take the smallest pool member r that leaves
    # a remainder inside the layer below
    witness, rest = [], N
    for below in reversed(layers):
        r = int(np.argmax(pool[: rest + 1] & below[rest::-1]))
        witness.append(r)
        rest -= r
    witness.append(rest)
    k = len(layers) + 1
    return MinKResult(N, k, witness, single=(k == 1))


@dataclass
class ScanResult:
    x_lo: int
    x_hi: int
    k_max: int
    counts: dict[int, int]  # minimal k -> how many N in range attain it
    failures: list[int]  # N with no representation within k_max

    @property
    def total(self) -> int:
        return sum(self.counts.values()) + len(self.failures)


def scan_min_k(x_lo: int, x_hi: int, base: Base, k_max: int) -> ScanResult:
    """Minimal-k histogram over [x_lo, x_hi]: the minimal k of N is the
    first reach layer over one shared reversed-prime pool that contains N."""
    if not 2 <= x_lo <= x_hi:
        raise ValueError("need 2 <= x_lo <= x_hi")
    check_k_max(k_max)
    pool = indicator_mask(x_hi, "reversed_prime", base=base)
    counts: dict[int, int] = {}
    open_n = np.arange(x_lo, x_hi + 1)  # targets not yet reached
    layer = pool  # layer k: the sums of exactly k reversed primes
    for k in range(1, k_max + 1):
        if k > 1:
            layer = reach_step(layer, pool, out_len=x_hi + 1)
        hit = layer[open_n]
        if hit.any():
            counts[k] = int(hit.sum())
        open_n = open_n[~hit]
        if not len(open_n):
            break
    return ScanResult(x_lo, x_hi, k_max, counts, open_n.tolist())
