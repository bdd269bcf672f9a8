"""Base-b numeral machinery: digit expansions, digital reversal, and B, the
integers whose leading digit is coprime to b.

Digits are stored little-endian throughout, so index i holds the coefficient
of b^i and reversal is an index flip.  The digital reverse of n with L digits
is sum(digit[i] * b^(L-1-i)); when n ends in zero digits the reverse is a
shorter integer (leading zeros drop), so reversal is an involution exactly on
integers whose last digit is nonzero.

B is a list of digit intervals [d b^(l-1), (d+1) b^(l-1) - 1], one for each
length l and digit d coprime to b.  coprime_leading_intervals merges them and
is the one definition of membership in B; a convolution with B is then two
slice operations per interval on a prefix sum.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Base:
    """A fixed radix b >= 2 with its precomputed reversal modulus b^3 - b."""

    b: int
    modulus: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.b < 2:
            raise ValueError(f"base must be >= 2, got {self.b}")
        object.__setattr__(self, "modulus", self.b**3 - self.b)


def digits_of(n: int, base: Base) -> list[int]:
    """Little-endian digit list of n; [0] for n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return [0]
    b = base.b
    out = []
    while n:
        n, d = divmod(n, b)
        out.append(d)
    return out


def digit_length(n: int, base: Base) -> int:
    """Number of base-b digits of n (1 for n = 0)."""
    return len(digits_of(n, base))


def reverse(n: int, base: Base) -> int:
    """Digital reverse of n >= 1 in base b.

    reverse(reverse(n)) == n exactly when the last digit of n is nonzero;
    otherwise the reverse is a shorter integer and information is lost.
    """
    if n < 1:
        raise ValueError("reverse is undefined for n < 1")
    b = base.b
    rev = 0
    while n:
        n, d = divmod(n, b)
        rev = rev * b + d
    return rev


@lru_cache(maxsize=None)
def _reversal_table(base: Base) -> tuple[int, np.ndarray | None]:
    """(k, table): k the largest with b^k <= 2^14 (at least 1) and the
    read-only int64 table of the reverses of the k-digit numbers, None for
    k = 1, where it is the identity; built once per base."""
    b = base.b
    k = 1
    while b ** (k + 1) <= 1 << 14:
        k += 1
    if k == 1:
        return k, None
    table = np.zeros(b**k, dtype=np.int64)
    rest = np.arange(b**k, dtype=np.int64)
    for _ in range(k):
        rest, digit = np.divmod(rest, b)
        table *= b
        table += digit
    table.flags.writeable = False
    return k, table


def reverse_block(values: np.ndarray, length: int, base: Base) -> np.ndarray:
    """Vectorized digital reverse for an int64 array of integers with at
    most `length` base-b digits (zero-padded reversal, so the same value as
    reverse() on integers with exactly `length` digits), as a new array.

    The digits go k at a time (_reversal_table): one floor division by b^k
    per step (numpy's is faster than its % or divmod), a multiply-subtract
    for the low k digits and a lookup in the table of reversed k-digit
    numbers, none for k = 1.  The top step takes the `step` digits left,
    whose reverses are the table's entries divided exactly by
    b^(k - step)."""
    b = base.b
    k, table = _reversal_table(base)
    high = values = np.asarray(values, dtype=np.int64)
    rev = None
    while length > 0:
        step = min(k, length)
        length -= step
        chunk = high
        if length:
            high = chunk // b**step
            chunk = chunk - high * b**step
        if table is not None:
            chunk = table[chunk] if step == k else table[chunk] // b ** (k - step)
        if rev is None:
            rev = chunk
        else:
            rev *= b**step
            rev += chunk
    if rev is None:
        return np.zeros(len(values), dtype=np.int64)
    return rev.copy() if rev is values else rev  # k = 1 and one digit: never the input


@lru_cache(maxsize=None)
def coprime_digits(base: Base) -> tuple[int, ...]:
    """Digits d in [1, b) with gcd(d, b) = 1; there are phi(b) of them."""
    return tuple(d for d in range(1, base.b) if math.gcd(d, base.b) == 1)


def residue_admissible(a: int, q: int, base: Base) -> int:
    """1 iff gcd(a, q, b^3 - b) = 1, else 0.

    The progression a mod q can contain reversed primes coprime to b^3 - b
    only in the admissible case; a = 0 means gcd(a, q) = q.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    return 1 if math.gcd(a, q, base.modulus) == 1 else 0


@lru_cache(maxsize=None)
def _coprime_leading_runs(base: Base, length: int) -> tuple[tuple[int, int], ...]:
    """B's merged intervals among the integers of at most `length` digits."""
    out: list[tuple[int, int]] = []
    for block in (base.b**ell for ell in range(length)):
        for d in coprime_digits(base):
            lo, hi = d * block, (d + 1) * block - 1
            if out and out[-1][1] + 1 == lo:  # touching: merge
                lo = out.pop()[0]
            out.append((lo, hi))
    return tuple(out)


def coprime_leading_intervals(x: int, base: Base) -> list[tuple[int, int]]:
    """B up to x as merged intervals [lo, hi], increasing, no two touching;
    the runs of each digit length are kept per base."""
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0:
        return []
    runs = _coprime_leading_runs(base, digit_length(x, base))
    out = list(runs[: bisect.bisect_left(runs, (x + 1,))])  # the runs with lo <= x
    out[-1] = (out[-1][0], min(out[-1][1], x))  # 1 is in B, so out is not empty
    return out


def count_coprime_leading(x: int, base: Base) -> int:
    """#{1 <= n <= x : leading base-b digit of n coprime to b}, equivalently
    gcd(reverse(n), b) = 1: the summed lengths of B's intervals up to x."""
    return sum(hi - lo + 1 for lo, hi in coprime_leading_intervals(x, base))
