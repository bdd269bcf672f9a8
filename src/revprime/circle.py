"""Circle-method instrumentation: exponential sums, major-arc partitions,
approximation residuals, Weyl-type bound ratios, and weakly-digital
diagnostics.

The exponential sums are evaluated directly over their coefficient arrays:

    S(alpha)      = sum_{p <= x} e(p alpha) log p              kind "prime"
    revS(alpha)   = sum over reversed primes n <= x coprime    kind "reversed_prime_coprime"
                    to b^3 - b of e(n alpha) log(reverse(n))
    v(beta)       = sum_{n <= x} e(n beta)                     kind "all"
    revv(beta)    = sum_{n <= x, lead digit coprime} e(n beta) kind "B_set"

with e(t) = exp(2 pi i t), over the indicator kinds of sieve.indicator_support.
exp_sum_evaluator builds a sum's support once and evaluates it at any
number of alpha; exp_sum is one such evaluation.
The phase t = n * (alpha mod 1) >= 0 is reduced mod 1 as t - floor(t), which
is exactly fmod(t, 1), the value t % 1.0 gives (the subtraction is exact by
Sterbenz's lemma), at a fraction of np.remainder's cost.

When alpha mod 1 = num/den is a dyadic rational (den a power of two) with
den at most the number of terms and max(n) * num < 2^53, every product
n * alpha is exact, so every phase is exactly k/den with k = n num mod den.
The cos and sin of 2 pi k/den are then taken once per k, from a table of den
entries, and gathered by k: the same float operations on the same values as
the direct path, so the sum is bit for bit the same.  The curve's grid j/M
is such an alpha for every j when M is a power of two.

Accumulation uses numpy pairwise summation, whose error grows like
log(n) * eps (at least as tight as a compensated running sum).  Everything
here is diagnostic: ratios and residuals are reported, and nothing on the
minor arcs is asserted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import mobius, totient
from .digits import Base
from .errors import ResourceLimitError
from .sieve import indicator_support, weighted_indicator

EXP_SUM_KINDS = ("prime", "reversed_prime_coprime", "all", "B_set")  # kinds of indicator_support
MAX_ARC_GRID = 1 << 20  # ceiling on floor(Q)^2; build_arcs makes ~0.3 floor(Q)^2 arcs


@dataclass(frozen=True)
class ExpSumEvaluator:
    """One exponential sum's coefficient support (n, w), built once and
    evaluated at any number of alpha.

    At a dyadic alpha mod 1 = num/den with den <= len(n) and
    max(n) * num < 2^53 the phases k/den come from a table of den cos and
    sin values (see the module docstring); any other alpha takes one cos
    and one sin per term.  Both paths give the same bits."""

    n: np.ndarray  # int64, increasing
    w: np.ndarray
    # two rows of scratch that every call reuses: fresh temporaries per alpha
    # are paged in again whenever the allocator returns them to the system
    _work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_work", np.empty((2, len(self.n))))

    def __call__(self, alpha: float) -> complex:
        """The sum at alpha (reduced mod 1)."""
        theta, scratch = self._work
        alpha %= 1.0
        num, den = alpha.as_integer_ratio()
        if den <= len(self.n) and int(self.n[-1]) * num < 1 << 53:
            # n * alpha is exact, so its fractional part is exactly k/den
            k = np.multiply(self.n, num, out=scratch.view(np.int64))
            k &= den - 1
            table = np.arange(den) / den * (2.0 * np.pi)
            cos = np.take(np.cos(table), k, out=theta, mode="clip")
            re = np.sum(np.multiply(self.w, cos, out=theta))
            sin = np.take(np.sin(table), k, out=theta, mode="clip")
            im = np.sum(np.multiply(self.w, sin, out=theta))
            return complex(re, im)
        np.multiply(self.n, alpha, out=theta)  # n converts exactly below 2^53
        theta -= np.floor(theta, out=scratch)  # exactly t % 1.0; see the module docstring
        theta *= 2.0 * np.pi
        re = np.sum(np.multiply(self.w, np.cos(theta, out=scratch), out=scratch))
        im = np.sum(np.multiply(self.w, np.sin(theta, out=scratch), out=scratch))
        return complex(re, im)


def exp_sum_evaluator(x: int, kind: str, base: Base | None = None) -> ExpSumEvaluator:
    """The exponential sum over n <= x of a kind of EXP_SUM_KINDS, on that
    indicator kind's support and weights, as an evaluator."""
    if kind not in EXP_SUM_KINDS:
        raise ValueError(f"unknown exponential sum kind {kind!r}")
    return ExpSumEvaluator(*indicator_support(x, kind, base))


def exp_sum(alpha: float, x: int, kind: str, base: Base | None = None) -> complex:
    """The complex exponential sum of the given kind at alpha (reduced mod 1)."""
    if not math.isfinite(alpha):  # checked before the support is built
        raise ValueError(f"alpha must be finite, not {alpha}")
    return exp_sum_evaluator(x, kind, base)(alpha)


# ---------------------------------------------------------------------------
# Major arcs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arc:
    a: int
    q: int
    center: float
    halfwidth: float
    lo: float  # clipped to [0, 1]
    hi: float

    def contains(self, alpha: float) -> bool:
        return self.lo <= alpha <= self.hi


@dataclass
class ArcPartition:
    """Major arcs {alpha : |alpha - a/q| <= Q/N} for q <= Q = (log N)^B,
    gcd(a, q) = 1, 0 <= a <= q, clipped to [0, 1]; pairwise disjoint."""

    N: int
    B: float
    Q: float
    arcs: list[Arc] = field(default_factory=list)

    @property
    def total_measure(self) -> float:
        return sum(arc.hi - arc.lo for arc in self.arcs)

    def find(self, alpha: float) -> Arc | None:
        for arc in self.arcs:
            if arc.contains(alpha):
                return arc
        return None

    def arc_of(self, alpha: float) -> Arc:
        """The arc holding alpha mod 1; a ValueError if none does."""
        arc = self.find(alpha % 1.0)
        if arc is None:
            raise ValueError(f"alpha={alpha} lies outside every major arc")
        return arc


def build_arcs(N: int, B: float) -> ArcPartition:
    """Construct the major-arc family; raises if the arcs are not disjoint
    (N too small for the chosen B)."""
    if N < 16:
        raise ValueError("N must be >= 16")
    if N > sys.float_info.max:  # the arcs' halfwidth Q / N needs N as a float
        raise ValueError(f"N must be at most {sys.float_info.max:.17g}")
    if not math.isfinite(B):
        raise ValueError(f"B must be finite, not {B}")
    if B < 1:
        raise ValueError("B must be >= 1")
    # log log N > 0 for N >= 16; past the grid bound (log N)^B may overflow
    if B * math.log(math.log(N)) > math.log(MAX_ARC_GRID):
        raise ResourceLimitError(
            f"Q = (log N)^B exceeds {MAX_ARC_GRID}; floor(Q)^2 exceeds the {MAX_ARC_GRID} ceiling"
        )
    Q = math.log(N) ** B
    halfwidth = Q / N
    m = int(Q)
    if m >= 2:
        # 1/m and 1/(m-1) are the closest centres, 1/(m(m-1)) apart: if
        # their arcs overlap, some do, and building the rest is wasted
        _check_disjoint(_arc(1, m, halfwidth), _arc(1, m - 1, halfwidth), N, B)
    if m * m > MAX_ARC_GRID:
        raise ResourceLimitError(
            f"Q = (log N)^B = {Q:.4g} needs about {0.3 * m * m:.3g} major arcs; "
            f"floor(Q)^2 exceeds the {MAX_ARC_GRID} ceiling"
        )
    arcs = [
        _arc(a, q, halfwidth)
        for q in range(1, m + 1)
        for a in range(0, q + 1)
        if math.gcd(a, q) == 1
    ]
    arcs.sort(key=lambda arc: (arc.lo, arc.hi))
    for prev, cur in zip(arcs, arcs[1:]):
        _check_disjoint(prev, cur, N, B)
    return ArcPartition(N, B, Q, arcs)


def _arc(a: int, q: int, halfwidth: float) -> Arc:
    center = a / q
    return Arc(a, q, center, halfwidth, max(0.0, center - halfwidth), min(1.0, center + halfwidth))


def _check_disjoint(prev: Arc, cur: Arc, N: int, B: float) -> None:
    if cur.lo <= prev.hi:
        raise ValueError(
            f"major arcs {prev.a}/{prev.q} and {cur.a}/{cur.q} overlap; "
            f"N={N} is too small for B={B}"
        )


def major_arc_residual(
    alpha: float,
    N: int,
    base: Base,
    which: str = "revS",
    B: float = 1.0,
) -> float:
    """|sum(alpha) - predicted| / N on the major arc containing alpha.

    which = "S":    predicted = mu(q)/phi(q) * v(beta)
    which = "revS": predicted = mu(q)/phi(q) * 1[q | b^3-b] * revv(beta)

    with beta = alpha - a/q.  At alpha = 0 and which = "S" this reduces to
    the prime-number-theorem residual |theta(N) - N| / N.
    """
    if which not in ("S", "revS"):
        raise ValueError("which must be 'S' or 'revS'")
    arc = build_arcs(N, B).arc_of(alpha)
    beta = alpha % 1.0 - arc.center
    coef = mobius(arc.q) / totient(arc.q)
    if which == "S":
        lhs = exp_sum(alpha, N, "prime")
        predicted = coef * exp_sum(beta, N, "all", base)
    else:
        lhs = exp_sum(alpha, N, "reversed_prime_coprime", base)
        if base.modulus % arc.q != 0:
            coef = 0.0
        predicted = coef * exp_sum(beta, N, "B_set", base)
    return abs(lhs - predicted) / N


def distance_to_integer(t: float) -> float:
    f = t % 1.0
    return min(f, 1.0 - f)


def weyl_ratio(
    beta: float,
    N: int,
    base: Base | None = None,
    kind: str = "all",
) -> float:
    """Scaled geometric-sum magnitudes that the linear exponential-sum
    bounds assert are O(1):

    kind "all":   |sum_{n<=N} e(n beta)| * ||beta||
    kind "B_set": |sum_{n<=N, lead coprime} e(n beta)| * ||beta|| / log N
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, not {beta}")
    dist = distance_to_integer(beta)
    if dist == 0.0:
        raise ValueError("beta must not be an integer")
    if kind not in ("all", "B_set"):
        raise ValueError("kind must be 'all' or 'B_set'")
    if kind == "B_set" and N < 2:
        raise ValueError("B_set ratios need N >= 2 (they divide by log N)")
    s = abs(exp_sum(beta, N, kind, base))
    return s * dist if kind == "all" else s * dist / math.log(N)


# ---------------------------------------------------------------------------
# Mean square (Parseval) check
# ---------------------------------------------------------------------------

@dataclass
class ParsevalResult:
    lhs: float  # exact coefficient-square sum
    rhs: float  # DFT quadrature of |revS|^2 over [0,1)
    scaled: float  # lhs / (N log N)


def parseval_check(N: int, base: Base) -> ParsevalResult:
    """Mean square of revS over the circle, two ways.

    The integrand is a trigonometric polynomial of degree <= N, so a DFT of
    length M >= 2N + 1 integrates it exactly (up to float rounding); the
    orthogonality value is the sum of squared coefficients.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    w = weighted_indicator(N, "reversed_prime_coprime", base=base).weights
    lhs = float(np.sum(w * w))
    M = 2 * N + 2
    spectrum = np.fft.rfft(w, M)
    sq = np.abs(spectrum) ** 2
    # rfft halves the spectrum; double interior bins (M even: bin M/2 unique)
    rhs = (sq[0] + 2.0 * sq[1:-1].sum() + sq[-1]) / M
    return ParsevalResult(lhs, rhs, lhs / (N * math.log(N)))


# ---------------------------------------------------------------------------
# Minor-arc probe (exploratory only)
# ---------------------------------------------------------------------------

@dataclass
class MinorArcProbe:
    N: int
    B: float
    samples: int
    seed: int
    max_abs: float  # max |revS(alpha)| over sampled minor-arc points
    max_abs_prime: float  # max |S(alpha)| over the same points (report only)
    scaled: dict[float, float]  # A -> max_abs * (log N)^A / N


def minor_arc_probe(
    N: int,
    B: float,
    base: Base,
    samples: int,
    seed: int = 0,
) -> MinorArcProbe:
    """Sample |revS| (and |S|) at uniform minor-arc points (rejection
    against the major arcs of build_arcs(N, B)) and report
    max |revS| * (log N)^A / N for A = 0, 1, 2, 3, 4.  Purely
    exploratory: no pass/fail is attached to either the conjectured
    reversed-prime decay or the classical prime-sum decay."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    part = build_arcs(N, B)
    rng = np.random.default_rng(seed)
    rev_s = exp_sum_evaluator(N, "reversed_prime_coprime", base)
    prime_s = exp_sum_evaluator(N, "prime")
    max_abs = 0.0
    max_abs_prime = 0.0
    drawn = 0
    while drawn < samples:
        alpha = float(rng.random())
        if part.find(alpha) is not None:
            continue
        drawn += 1
        max_abs = max(max_abs, abs(rev_s(alpha)))
        max_abs_prime = max(max_abs_prime, abs(prime_s(alpha)))
    logN = math.log(N)
    scaled = {A: max_abs * logN**A / N for A in (0.0, 1.0, 2.0, 3.0, 4.0)}
    return MinorArcProbe(N, B, samples, seed, max_abs, max_abs_prime, scaled)


# ---------------------------------------------------------------------------
# Weakly digital diagnostics
# ---------------------------------------------------------------------------

@dataclass
class WeaklyDigitalSeed:
    """Per-position digit maps alpha_i: {0..b-1} -> R, stored as rows of a
    (length, b) array; positions beyond the stored length are zero maps."""

    base: Base
    maps: np.ndarray  # shape (length, b)

    def __post_init__(self):
        self.maps = np.asarray(self.maps, dtype=np.float64)
        if self.maps.ndim != 2 or self.maps.shape[1] != self.base.b:
            raise ValueError(f"maps must have shape (L, {self.base.b})")

    @property
    def length(self) -> int:
        return self.maps.shape[0]

    def row(self, i: int) -> np.ndarray:
        if i < self.length:
            return self.maps[i]
        return np.zeros(self.base.b, dtype=np.float64)


def gamma_sigma(seed: WeaklyDigitalSeed, lam: int) -> tuple[list[float], float]:
    """Per-position oscillation measures gamma_i for i < lam and their sum.

        gamma_i = (2 log 2) / (2 (b-1) b^4 (log b)^2)
                  * sum_{0 <= m < n < b} || D_i(m) - D_i(n) ||^2

    with D_i(d) = b * alpha_i(d) - alpha_(i+1)(d) and ||.|| the distance to
    the nearest integer.  A large sum forces cancellation in exponential
    sums weighted by the seeded digit function.
    """
    if lam < 0 or lam > seed.length:
        raise ValueError(f"lambda must be in [0, {seed.length}]")
    b = seed.base.b
    const = (2.0 * math.log(2.0)) / (2.0 * (b - 1) * b**4 * math.log(b) ** 2)
    gammas = []
    for i in range(lam):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite t is refused
            diff = b * seed.row(i) - seed.row(i + 1)
            total = 0.0
            for m in range(b):
                for n in range(m + 1, b):
                    t = diff[m] - diff[n]
                    if not math.isfinite(t):
                        raise ValueError(f"D_{i}({m}) - D_{i}({n}) is past the float range")
                    t = abs(t - round(t))
                    total += t * t
        gammas.append(const * total)
    return gammas, math.fsum(gammas)


def congruence_reversal_seed(
    base: Base, h: int, q: int, L: int, k: int = 0, d: int = 1
) -> WeaklyDigitalSeed:
    """Seed whose digit function is (h/q) * rev_L(n) + (k/d) * n, where rev_L
    is the zero-padded L-digit reversal of `digits.reverse_block`:

        alpha_i(m) = (h/q) * m * b^(L-i-1) + (k/d) * m * b^i.

    This encodes a reversal phase h/q together with a congruence phase k/d,
    the combination whose oscillation measure controls reversed-prime
    exponential sums twisted by residue classes.
    """
    if q < 1 or d < 1 or L < 1:
        raise ValueError("q, d, L must be >= 1")
    b = base.b
    # a float has no b^(L-1) >= 2^1024: refused before that power is computed
    past = f"the digit maps of L = {L} in base {b} at these h/q and k/d are past the float range"
    if (L - 1) * (b.bit_length() - 1) >= 1024:
        raise ValueError(past)
    m = np.arange(b, dtype=np.float64)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            rows = [
                (h / q) * m * float(b ** (L - i - 1)) + (k / d) * m * float(b**i)
                for i in range(L)
            ]
    except OverflowError:  # h/q, k/d or a power of b has no float
        raise ValueError(past) from None
    maps = np.vstack(rows)
    if not np.isfinite(maps).all():
        raise ValueError(past)
    return WeaklyDigitalSeed(base, maps)
