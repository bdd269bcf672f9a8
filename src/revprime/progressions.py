"""Counting reversed primes in arithmetic progressions, against the
predicted equidistribution main terms.

All observed values are full enumerations (no sampling): the log-weighted
count of reversed primes n with gcd(n, b^3 - b) = 1 in a residue class,
either over a fixed digit length, a cutoff n <= x, or a leading-digit
window.  Cutoff counts are made in batches: weighted_counts_up_to gives
every class of every (x, q) from one enumeration, and weighted_count_up_to
is one cell of it.  Main terms share the factor

    (q, b^3-b)/phi((q, b^3-b)) * rho_b(a, q) / q,

which accounts for the classes mod gcd(q, b^3 - b) being either empty or
over-weighted relative to uniform.

The asymptotics hold for q up to exp(c sqrt(L)) with an ineffective c, which
cannot be checked; as a practical stand-in, queries with q > b^(L/4) emit a
ModulusRangeWarning (results are computed regardless).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arithmetic import totient
from .digits import (
    Base,
    count_coprime_leading,
    digit_length,
    residue_admissible,
    rev_coprime_to_base,
    reverse,
    reverse_block,
)
from .errors import CrossCheckError, ModulusRangeWarning
from .sieve import get_prime_table, reversed_prime_arrays

NAN = float("nan")


@dataclass
class APResult:
    """Observed log-weighted count vs. predicted main term."""

    observed: float
    main_term: float
    ratio: float  # observed / main_term, NaN when the main term vanishes
    raw_count: int


def _shared_factor(q: int, base: Base) -> Fraction:
    g = math.gcd(q, base.modulus)
    return Fraction(g, totient(g)) / q


def _check_modulus_guard(q: int, L: int, base: Base) -> None:
    if q**4 > base.b**L:
        warnings.warn(
            f"q={q} exceeds the practical guard b^(L/4)={(base.b**L) ** 0.25:.1f} "
            f"for L={L}; the main term may be unreliable",
            ModulusRangeWarning,
            stacklevel=3,
        )


def _check_modulus(q: int) -> None:
    # residues n % q are taken in int64
    if not 1 <= q < 1 << 63:
        raise ValueError(f"q must lie in [1, 2^63), got {q}")


def _result(observed: float, main: float, raw: int) -> APResult:
    ratio = observed / main if main > 0 else NAN
    return APResult(observed, main, ratio, raw)


def weighted_count_by_length(L: int, a: int, q: int, base: Base) -> APResult:
    """Reversed primes with exactly L digits, coprime to b^3 - b, congruent
    to a mod q; main term phi(b)/b * (q,m)/phi((q,m)) * rho/q * b^L."""
    if L < 1:
        raise ValueError("L must be >= 1")
    _check_modulus(q)
    _check_modulus_guard(q, L, base)
    a %= q
    b = base.b
    arrays = reversed_prime_arrays(b**L - 1, base, require_coprime=True)
    lo = int(np.searchsorted(arrays.n, b ** (L - 1), side="left"))
    n, w = arrays.n[lo:], arrays.weight[lo:]
    mask = n % q == a
    observed = float(w[mask].sum())
    raw = int(mask.sum())
    main = float(
        Fraction(totient(b), b)
        * _shared_factor(q, base)
        * residue_admissible(a, q, base)
        * b**L
    )
    return _result(observed, main, raw)


@dataclass
class ClassCounts:
    """Reversed primes n <= x coprime to b^3 - b, grouped by n mod q: the
    observed and raw count of each class that holds one (every other class
    counts 0), and the main term of an admissible class."""

    q: int
    base: Base
    residues: np.ndarray  # int64, increasing: the non-empty classes
    observed: np.ndarray  # float64, log-weighted count of each such class
    raw_count: np.ndarray  # int64, reversed primes in each such class
    main_unit: Fraction  # (q,m)/phi((q,m)) / q * #{n <= x : leading digit coprime}

    def result(self, a: int) -> APResult:
        """The class a mod q."""
        a %= self.q
        i = int(np.searchsorted(self.residues, a))
        held = i < len(self.residues) and self.residues[i] == a
        main = float(self.main_unit * residue_admissible(a, self.q, self.base))
        if not held:
            return _result(0.0, main, 0)
        return _result(float(self.observed[i]), main, int(self.raw_count[i]))


def _class_sums(weight: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """weight[s : s + k].sum() for each class (s, k), bit for bit: the classes
    of one size are the rows of a C-contiguous copy, and each row sum is the
    pairwise .sum() of that class alone (a sequential sum, as np.bincount
    takes, is not)."""
    out = np.empty(len(starts))
    for k in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == k)
        out[rows] = sliding_window_view(weight, k)[starts[rows]].sum(axis=1)
    return out


def check_counts(xs: list[int], qs: list[int]) -> None:
    """The argument checks of weighted_counts_up_to, made before any prime
    is read: a usage error is a ValueError."""
    if not (xs and qs) or min(xs) < 1:
        raise ValueError("x and q must be >= 1")
    for q in qs:
        _check_modulus(q)


def weighted_counts_up_to(
    xs: Iterable[int], qs: Iterable[int], base: Base
) -> dict[tuple[int, int], ClassCounts]:
    """Every class a mod q of reversed primes n <= x coprime to b^3 - b, for
    each x in xs and q in qs, keyed (x, q); main term (q,m)/phi((q,m)) *
    rho/q * #{n <= x : leading digit coprime to b}.

    One enumeration up to max(xs) serves every cell, and one sort by n mod q
    serves every x: each observed count is the .sum() of the same values in
    the same order as w[n % q == a].sum() over the n <= x.
    """
    xs, qs = list(dict.fromkeys(xs)), list(dict.fromkeys(qs))
    check_counts(xs, qs)
    for x in xs:
        for q in qs:
            _check_modulus_guard(q, digit_length(x, base), base)
    arrays = reversed_prime_arrays(max(xs), base, require_coprime=True)
    cuts = {x: len(arrays.restrict(x)) for x in xs}  # n[i] <= x iff i < cut
    out = {}
    for q in qs:
        residue = arrays.n % q
        # a stable sort keeps each class in increasing n, so the members
        # n <= x of a class are a prefix of it; keys of at most 16 bits take
        # numpy's radix sort
        order = np.argsort(residue.astype(np.min_scalar_type(q - 1)), kind="stable")
        residue, weight = residue[order], arrays.weight[order]
        starts = np.flatnonzero(np.diff(residue, prepend=-1))
        for x in xs:
            sizes = np.add.reduceat(order < cuts[x], starts, dtype=np.int64)
            held = sizes > 0
            out[x, q] = ClassCounts(
                q, base, residue[starts[held]],
                _class_sums(weight, starts[held], sizes[held]), sizes[held],
                _shared_factor(q, base) * count_coprime_leading(x, base),
            )
    return out


def weighted_count_up_to(x: int, a: int, q: int, base: Base) -> APResult:
    """Reversed primes n <= x, coprime to b^3 - b, with n = a mod q: the
    class a mod q of weighted_counts_up_to([x], [q])."""
    return weighted_counts_up_to([x], [q], base)[x, q].result(a)


def check_window(L: int, eta: int, r: int, q: int, base: Base) -> None:
    """The argument checks of weighted_count_window, made before any prime
    is read: a usage error is a ValueError."""
    _check_modulus(q)
    if not 1 <= eta <= L:
        raise ValueError("eta must satisfy 1 <= eta <= L")
    if not base.b ** (eta - 1) <= r < base.b**eta:
        raise ValueError(f"r={r} outside [{base.b**(eta-1)}, {base.b**eta})")


def weighted_count_window(
    L: int,
    eta: int,
    r: int,
    a: int,
    q: int,
    base: Base,
) -> APResult:
    """Reversed primes with L digits whose top eta digits equal r, in the
    class a mod q; main term kappa(rev r) * rho * (q,m)/phi((q,m)) * b^(L-eta)/q.

    Counting reversed primes with leading digits r is the same as counting
    primes p = reverse(n) with p = reverse(r) mod b^eta; both enumerations
    are run and must agree (raw counts exactly, weights to rounding).
    """
    check_window(L, eta, r, q, base)
    _check_modulus_guard(q, L, base)
    b = base.b
    a %= q

    arrays = reversed_prime_arrays(b**L - 1, base, require_coprime=True)
    lo = int(np.searchsorted(arrays.n, r * b ** (L - eta), side="left"))
    hi = int(np.searchsorted(arrays.n, (r + 1) * b ** (L - eta), side="left"))
    n, w = arrays.n[lo:hi], arrays.weight[lo:hi]
    mask = n % q == a
    observed = float(w[mask].sum())
    raw = int(mask.sum())

    # independent prime-side enumeration: p = rev(r) mod b^eta
    obs2, raw2 = _prime_side_window(L, eta, r, a, q, base)
    if raw2 != raw or abs(obs2 - observed) > 8 * np.finfo(float).eps * max(raw, 1) * max(observed, 1.0):
        raise CrossCheckError(
            f"window formulations disagree: n-side ({raw}, {observed}) vs "
            f"prime-side ({raw2}, {obs2})"
        )

    main = float(
        rev_coprime_to_base(r, base)
        * residue_admissible(a, q, base)
        * _shared_factor(q, base)
        * b ** (L - eta)
    )
    return _result(observed, main, raw)


def _prime_side_window(L: int, eta: int, r: int, a: int, q: int, base: Base) -> tuple[float, int]:
    b = base.b
    primes = get_prime_table(b**L - 1).primes(b**L - 1)
    lo = int(np.searchsorted(primes, b ** (L - 1), side="left"))
    block = primes[lo:]
    if L > 1:
        block = block[block % b != 0]
    block = block[block % b**eta == reverse(r, base)]
    rev = reverse_block(block, L, base)
    if base.modulus < (1 << 63):
        keep = np.gcd(rev, base.modulus) == 1
    else:
        keep = np.array([math.gcd(int(v), base.modulus) == 1 for v in rev], dtype=bool)
    keep &= rev % q == a
    return float(np.log(block[keep].astype(np.float64)).sum()), int(keep.sum())


def window_partition_check(
    L: int, a: int, q: int, base: Base, etas: tuple[int, ...] = (1, 2)
) -> bool:
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
