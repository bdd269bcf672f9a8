"""Counting reversed primes in arithmetic progressions, against the
predicted equidistribution main terms.

All observed values are full enumerations (no sampling): the log-weighted
count of reversed primes n with gcd(n, b^3 - b) = 1 in a residue class,
either over a fixed digit length, a cutoff n <= x, or a leading-digit
window.  Each of these is one span lo <= n <= hi, and one pass over spans
(_class_counts) serves all three: it gives every class of every (span, q)
from one enumeration and one sort by n mod q.  weighted_counts_up_to is the
batch of cutoff spans; weighted_count_up_to, weighted_count_by_length and
weighted_count_window are one cell each, and the window still runs an
independent prime-side enumeration as a cross-check.  Main terms are

    (q, b^3-b)/phi((q, b^3-b)) * rho_b(a, q) / q
        * #{lo <= n <= hi : leading digit of n coprime to b},

where the first factor accounts for the classes mod gcd(q, b^3 - b) being
either empty or over-weighted relative to uniform.

The asymptotics hold for q up to exp(c sqrt(L)) with an ineffective c, which
cannot be checked; as a practical stand-in, a call with cells q > b^(L/4)
emits one ModulusRangeWarning, however many such cells a batch holds
(results are computed regardless).
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
    reverse,
    reverse_block,
)
from .errors import CrossCheckError, ModulusRangeWarning, brief
from .sieve import check_block_length, get_prime_table, reversed_prime_arrays

NAN = float("nan")


@dataclass
class APResult:
    """Observed log-weighted count vs. predicted main term."""

    observed: float
    main_term: float
    ratio: float  # observed / main_term, NaN when the main term vanishes
    raw_count: int


def _check_modulus_guard(cells: Iterable[tuple[int, int]], base: Base) -> None:
    """One ModulusRangeWarning for the (q, L) cells with q > b^(L/4): the
    cell itself if it is alone, else their number and largest q."""
    past = [(q, L) for q, L in cells if q**4 > base.b**L]
    if len(past) == 1:
        (q, L), = past
        message = (f"q={q} exceeds the practical guard b^(L/4)={(base.b**L) ** 0.25:.1f} "
                   f"for L={L}; the main term may be unreliable")
    elif past:
        message = (f"{len(past)} (x, q) cells have q past the practical guard b^(L/4), "
                   f"up to q={max(q for q, _ in past)}; their main terms may be unreliable")
    else:
        return
    warnings.warn(message, ModulusRangeWarning, stacklevel=3)


def check_modulus(q: int) -> None:
    """Refuse a modulus outside [1, 2^63): residues n % q are taken in int64."""
    if not 1 <= q < 1 << 63:
        raise ValueError(f"q must lie in [1, 2^63), got {brief(q)}")


@dataclass
class ClassCounts:
    """Reversed primes n coprime to b^3 - b in one span lo <= n <= hi,
    grouped by n mod q: the observed and raw count of each class that holds
    one (every other class counts 0), and the main term of an admissible
    class."""

    q: int
    base: Base
    residues: np.ndarray  # int64, increasing: the non-empty classes
    observed: np.ndarray  # float64, log-weighted count of each such class
    raw_count: np.ndarray  # int64, reversed primes in each such class
    main_unit: Fraction  # (q,m)/phi((q,m)) / q * #{lo <= n <= hi : leading digit coprime}

    def result(self, a: int) -> APResult:
        """The class a mod q."""
        a %= self.q
        i = int(np.searchsorted(self.residues, a))
        main = float(self.main_unit * residue_admissible(a, self.q, self.base))
        if i < len(self.residues) and self.residues[i] == a:
            observed, raw = float(self.observed[i]), int(self.raw_count[i])
        else:
            observed, raw = 0.0, 0
        return APResult(observed, main, observed / main if main > 0 else NAN, raw)


def _class_sums(weight: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """weight[s : s + k].sum() for each class (s, k), bit for bit: the classes
    of one size are the rows of a C-contiguous copy, and each row sum is the
    pairwise .sum() of that class alone (a sequential sum, as np.bincount
    takes, is not)."""
    out = np.empty(len(starts))
    for k in set(sizes.tolist()):  # a set, not np.unique, whose first call imports numpy.ma
        rows = np.flatnonzero(sizes == k)
        out[rows] = sliding_window_view(weight, k)[starts[rows]].sum(axis=1)
    return out


def _class_counts(
    spans: list[tuple[int, int]], qs: list[int], base: Base
) -> dict[tuple[tuple[int, int], int], ClassCounts]:
    """Every class a mod q of reversed primes n coprime to b^3 - b in each
    span lo <= n <= hi (lo >= 1), for each q in qs, keyed ((lo, hi), q);
    main term (q,m)/phi((q,m)) * rho/q * #{lo <= n <= hi : leading digit
    coprime to b}.

    One enumeration from the least lo to the greatest hi serves every cell,
    and one sort by n mod q serves every span: each observed count is the
    .sum() of the same values in the same order as w[n % q == a].sum() over
    the n in the span.
    """
    arrays = reversed_prime_arrays(max(hi for _, hi in spans), base, require_coprime=True)
    first = int(np.searchsorted(arrays.n, min(lo for lo, _ in spans)))
    n, weight = arrays.n[first:], arrays.weight[first:]
    # the members of a span are n[i] for cut_lo <= i < cut_hi
    cuts = {
        (lo, hi): (int(np.searchsorted(n, lo)), int(np.searchsorted(n, hi, side="right")))
        for lo, hi in spans
    }
    out = {}
    for q in qs:
        # n mod q by numpy's fast floor division, in the narrowest unsigned
        # key; a stable sort keeps each class in increasing n, so the
        # members of a class in a span are one run of it, and keys of at
        # most 16 bits take numpy's radix sort
        residue = (n - n // q * q).astype(np.min_scalar_type(q - 1))
        order = np.argsort(residue, kind="stable")
        residue, w = residue[order], weight[order]
        edges = np.empty(len(residue), dtype=bool)  # where a class starts
        edges[:1] = True
        np.not_equal(residue[1:], residue[:-1], out=edges[1:])
        starts = np.flatnonzero(edges)
        g = math.gcd(q, base.modulus)
        for (lo, hi), (cut_lo, cut_hi) in cuts.items():
            runs = starts
            sizes = np.add.reduceat(order < cut_hi, starts, dtype=np.int64)
            if cut_lo:  # skip the members below lo at the head of each class
                below = np.add.reduceat(order < cut_lo, starts, dtype=np.int64)
                runs, sizes = starts + below, sizes - below
            held = sizes > 0
            leading = count_coprime_leading(hi, base) - count_coprime_leading(lo - 1, base)
            out[(lo, hi), q] = ClassCounts(
                q, base, residue[starts[held]].astype(np.int64),
                _class_sums(w, runs[held], sizes[held]), sizes[held],
                Fraction(g, totient(g)) / q * leading,
            )
    return out


def weighted_counts_up_to(
    xs: Iterable[int], qs: Iterable[int], base: Base
) -> dict[tuple[int, int], ClassCounts]:
    """Every class a mod q of reversed primes n <= x coprime to b^3 - b, for
    each x in xs and q in qs, keyed (x, q): the spans 1 <= n <= x of one
    _class_counts pass."""
    xs, qs = list(dict.fromkeys(xs)), list(dict.fromkeys(qs))
    if not (xs and qs) or min(xs) < 1:
        raise ValueError("x and q must be >= 1")
    for q in qs:
        check_modulus(q)
    lengths = [digit_length(x, base) for x in xs]
    _check_modulus_guard(((q, L) for L in lengths for q in qs), base)
    counts = _class_counts([(1, x) for x in xs], qs, base)
    return {(x, q): cell for ((_, x), q), cell in counts.items()}


def weighted_count_up_to(x: int, a: int, q: int, base: Base) -> APResult:
    """Reversed primes n <= x, coprime to b^3 - b, with n = a mod q: the
    class a mod q of weighted_counts_up_to([x], [q])."""
    return weighted_counts_up_to([x], [q], base)[x, q].result(a)


def weighted_count_by_length(L: int, a: int, q: int, base: Base) -> APResult:
    """Reversed primes with exactly L digits, coprime to b^3 - b, congruent
    to a mod q; main term phi(b)/b * (q,m)/phi((q,m)) * rho/q * b^L: the
    class a mod q of the span b^(L-1) <= n <= b^L - 1."""
    if L < 1:
        raise ValueError("L must be >= 1")
    check_modulus(q)
    check_block_length(L, base)
    _check_modulus_guard([(q, L)], base)
    span = (base.b ** (L - 1), base.b**L - 1)
    return _class_counts([span], [q], base)[span, q].result(a)


def weighted_count_window(
    L: int,
    eta: int,
    r: int,
    a: int,
    q: int,
    base: Base,
) -> APResult:
    """Reversed primes with L digits whose top eta digits equal r, in the
    class a mod q; main term kappa(rev r) * rho * (q,m)/phi((q,m)) * b^(L-eta)/q:
    the class a mod q of the span r b^(L-eta) <= n <= (r + 1) b^(L-eta) - 1.

    Counting reversed primes with leading digits r is the same as counting
    primes p = reverse(n) with p = reverse(r) mod b^eta; both enumerations
    are run and must agree (raw counts exactly, weights to rounding).
    """
    check_modulus(q)
    if not 1 <= eta <= L:
        raise ValueError("eta must satisfy 1 <= eta <= L")
    check_block_length(L, base)
    if not base.b ** (eta - 1) <= r < base.b**eta:
        raise ValueError(f"r={brief(r)} outside [{base.b**(eta-1)}, {base.b**eta})")
    _check_modulus_guard([(q, L)], base)
    a %= q
    get_prime_table(max(base.b**L - 1, 2))  # both sides read this one table
    unit = base.b ** (L - eta)
    span = (r * unit, (r + 1) * unit - 1)
    res = _class_counts([span], [q], base)[span, q].result(a)
    observed, raw = res.observed, res.raw_count

    # independent prime-side enumeration: p = rev(r) mod b^eta
    obs2, raw2 = _prime_side_window(L, eta, r, a, q, base)
    if raw2 != raw or abs(obs2 - observed) > 8 * np.finfo(float).eps * max(raw, 1) * max(observed, 1.0):
        raise CrossCheckError(
            f"window formulations disagree: n-side ({raw}, {observed}) vs "
            f"prime-side ({raw2}, {obs2})"
        )
    return res


def _prime_side_window(L: int, eta: int, r: int, a: int, q: int, base: Base) -> tuple[float, int]:
    b = base.b
    primes = get_prime_table(max(b**L - 1, 2)).primes(b**L - 1)
    lo = int(np.searchsorted(primes, b ** (L - 1), side="left"))
    # p = rev(r) mod b^eta ends in r's leading digit, which is nonzero
    block = primes[lo:]
    block = block[block % b**eta == reverse(r, base)]
    rev = reverse_block(block, L, base)
    # gcd(n, b^3 - b) = 1 iff n is coprime to each of b - 1, b and b + 1
    keep = (np.gcd(rev, b - 1) == 1) & (np.gcd(rev, b) == 1) & (np.gcd(rev, b + 1) == 1)
    keep &= rev % q == a
    return float(np.log(block[keep].astype(np.float64)).sum()), int(keep.sum())

