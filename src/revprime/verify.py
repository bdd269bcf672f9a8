"""The one-shot verification suite.

Exact identity checks run at bit/rational level; asymptotic trend checks
compare against tolerances recorded in a fixtures file (2x the deviation
maxima observed by the standalone oracles in scripts/build_fixtures.py,
which must be regenerated before the tolerances can honestly change).

Suites:
    identities       exact checks: reversal algebra, residue exponential
                     sums, singular series, mean-square quadrature
    representations  convolution counts vs. direct enumeration, composition
                     bounds, ternary positivity window
    obstructions     exact zero counts: binary pure sums at 6*10^n,
                     reversal-free primorial intervals
    asymptotics      progression ratio convergence, exceptional-set decay
                     (requires the fixtures file)
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from . import arithmetic, circle, representations, schnirelmann
from .digits import Base, residue_admissible, reverse_block
from .progressions import weighted_counts_up_to
from .sieve import WeightedSequence, reversed_prime_arrays, weighted_indicator


_BASES = (2, 3, 6, 10)  # the bases of checks 1, 4 and 6


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    runtime_ms: int


def default_fixtures_path() -> str:
    return str(resources.files("revprime").joinpath("data/fixtures.txt"))


def key_value_lines(path: str, what: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for each key = value line of a file, past
    blank lines and # comments; any other line is a ValueError that names
    `what` and the line's number.  Each caller checks its own keys and values."""
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not (key and eq):
                raise ValueError(f"{what} line {number} is not key = value: {line!r}")
            yield number, key, value


def load_fixtures(path: str) -> dict[str, float]:
    """The key = value lines of a fixtures file (key_value_lines); a value
    that is not a finite float (nan passes every check) is a ValueError."""
    out: dict[str, float] = {}
    for number, key, text in key_value_lines(path, f"fixtures {path}"):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"fixtures {path} line {number} is not key = finite float: {key} = {text!r}")
        out[key] = value
    return out


def _timed(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"exception: {exc!r}"
    ms = int(1000 * (time.perf_counter() - start))
    return CheckResult(name, passed, detail, ms)


# ---------------------------------------------------------------------------
# criterion 1: reversal / involution / congruence, exhaustive to 1e5
# ---------------------------------------------------------------------------

def check_reversal_algebra():
    limit = 10**5
    failures = 0
    for b in _BASES:
        base = Base(b)
        mod = b * b - 1
        L = 1
        while b ** (L - 1) <= limit:
            lo, hi = b ** (L - 1), min(b**L - 1, limit)
            if lo > hi:
                break
            n = np.arange(lo, hi + 1, dtype=np.int64)
            rev = reverse_block(n, L, base)
            # congruence: rev(n) = b^(L-1) * n mod (b^2 - 1), all n
            if np.any((rev - (b ** (L - 1) % mod) * n) % mod != 0):
                failures += 1
            # involution where the last digit is nonzero
            keep = n % b != 0
            rev2 = reverse_block(rev[keep], L, base)
            if not np.array_equal(rev2, n[keep]):
                failures += 1
            # shared-factor equivalence with b^2 - 1
            if np.any((np.gcd(n, mod) > 1) != (np.gcd(rev, mod) > 1)):
                failures += 1
            L += 1
    return failures == 0, f"bases {_BASES}, n <= {limit}, block failures = {failures}"


# ---------------------------------------------------------------------------
# criterion 2: residue exponential-sum identity, b <= 12, q <= 500
# ---------------------------------------------------------------------------

def check_admissible_exp_sum():
    q_max, b_max = 500, 12
    eps_scale = 1e-9
    worst = 0.0
    sums_cache: dict[tuple[int, int], np.ndarray] = {}
    bases = {b: Base(b) for b in range(2, b_max + 1)}
    for q in range(1, q_max + 1):
        r = np.arange(q, dtype=np.int64)
        coprime_a = np.flatnonzero(np.gcd(r, q) == 1)
        table = np.exp(2j * np.pi * r / q)
        for b, base in bases.items():
            m = base.modulus
            radical = math.prod(arithmetic.distinct_primes(math.gcd(q, m)))
            key = (q, radical)
            if key not in sums_cache:
                admissible = np.gcd(np.gcd(r, q), radical) == 1
                rows = np.flatnonzero(admissible)
                idx = (rows[:, None] * coprime_a[None, :]) % q
                sums_cache[key] = table[idx].sum(axis=0)
            sums = sums_cache[key]
            expected = arithmetic.admissible_exp_sum(q, 1, base)
            err = float(np.abs(sums - expected).max()) / q
            worst = max(worst, err)
            if err > eps_scale:
                return False, f"b={b} q={q}: error {err:.3e} * q"
    return True, f"b <= {b_max}, q <= {q_max}; worst error {worst:.2e} * q"


# ---------------------------------------------------------------------------
# criterion 3: singular series identities
# ---------------------------------------------------------------------------

def check_singular_series():
    n_max, b_max = 2000, 12
    c2 = Fraction(66016, 100000)
    for b in range(2, b_max + 1):
        base = Base(b)
        for N in range(1, n_max + 1):
            s3 = arithmetic.singular_series_ternary(N, base)
            if arithmetic.singular_series_ternary_divisor_sum(N, base) != s3:
                return False, f"divisor sum != product at b={b} N={N}"
            if N % 2 == 0 and s3 != 0:
                return False, f"ternary series nonzero at even N={N}, b={b}"
            if N % 2 == 1 and arithmetic.singular_series_binary(N, base) != 0:
                return False, f"binary series nonzero at odd N={N}, b={b}"
    base10 = Base(10)
    for N in range(1, 10**4, 2):
        if arithmetic.singular_series_ternary(N, base10) <= c2:
            return False, f"ternary series at odd N={N} not above 0.66016"
    return True, f"sum = product for N <= {n_max}, b <= {b_max}; odd-N bound holds to 1e4"


# ---------------------------------------------------------------------------
# criterion 4: representation counts vs direct enumeration
# ---------------------------------------------------------------------------

def _pair_scatter(iu: np.ndarray, wu: np.ndarray, dense: np.ndarray, out_len: int) -> np.ndarray:
    """sum over support(u) x all j of wu * dense[j] scattered to i + j:
    direct shift-and-add enumeration, independent of the convolution engine."""
    out = np.zeros(out_len)
    for i, w in zip(iu, wu):
        hi = out_len - i
        if hi <= 0:
            continue
        out[i : i + min(len(dense), hi)] += w * dense[: min(len(dense), hi)]
    return out


def _enumeration_oracle(seqs: list[np.ndarray], out_len: int) -> np.ndarray:
    acc = seqs[0]
    for nxt in seqs[1:]:
        sup = np.flatnonzero(nxt)
        acc = _pair_scatter(sup, nxt[sup], acc, out_len)
    return acc


def check_representation_oracle():
    n_max = 2000
    rel_tol = 1e-6
    worst = 0.0
    for b in _BASES:
        base = Base(b)
        pr = weighted_indicator(n_max, "prime").weights
        rev = weighted_indicator(n_max, "reversed_prime_coprime", base=base).weights
        plans = {
            "r11": [pr, rev],
            "r12": [pr, rev, rev],
            "r21": [pr, pr, rev],
            "r0k2": [rev, rev],
            "r0k3": [rev, rev, rev],
        }
        for name, seqs in plans.items():
            oracle = _enumeration_oracle(seqs, n_max + 1)
            lib = representations.convolve_chain(
                [WeightedSequence("w", s) for s in seqs], out_len=n_max + 1
            ).weights
            rel = float((np.abs(lib - oracle) / np.maximum(np.abs(oracle), 1.0)).max())
            worst = max(worst, rel)
            if rel > rel_tol:
                return False, f"{name} b={b}: relative error {rel:.2e}"
        # the represent batch must agree with the oracle at every target
        Ns = list(range(7, n_max + 1, 97)) + [n_max]
        for N, profile in zip(Ns, representations.representation_counts(Ns, "r12", base)):
            want = _enumeration_oracle(plans["r12"], N + 1)[N]
            if abs(profile.exact - want) > rel_tol * max(1.0, want):
                return False, f"r12({N}) b={b}: {profile.exact} vs oracle {want}"
        # squarefree shifts: direct per-N enumeration with trial-division mu^2
        sq = np.array([_is_squarefree_slow(t) for t in range(n_max + 1)])
        arrays = reversed_prime_arrays(n_max, base, require_coprime=True)
        Ns = list(range(2, n_max + 1, 53)) + [n_max]
        for N, profile in zip(Ns, representations.representation_counts(Ns, "rsquare", base)):
            inner = arrays.n < N
            want = float(arrays.weight[inner][sq[N - arrays.n[inner]]].sum())
            got = profile.exact
            if abs(got - want) > rel_tol * max(1.0, want):
                return False, f"rsquare({N}) b={b}: {got} vs oracle {want}"
    return True, f"five families, N <= {n_max}, bases {_BASES}; worst rel err {worst:.2e}"


def _is_squarefree_slow(n: int) -> bool:
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# criterion 5: exact obstructions
# ---------------------------------------------------------------------------

def check_exact_obstructions():
    base10 = Base(10)
    for exp in (2, 3, 4):
        profile = representations.representation_count(6 * 10**exp, "r0k", base10, k=2)
        if profile.exact != 0.0 or profile.provenance != "exact":
            return False, f"r0k(6*10^{exp}, k=2) = {profile.exact} via {profile.provenance}"
    for i, L in ((2, 2), (2, 3), (3, 2)):
        report = schnirelmann.verify_gap(i, L)
        if report.reversed_prime_count != 0:
            return False, f"gap (i={i}, L={L}): found {report.reversed_prime_count}"
    return True, "6*10^n binary sums empty (n=2,3,4); primorial gaps empty"


# ---------------------------------------------------------------------------
# criterion 6: composition-count bounds
# ---------------------------------------------------------------------------

def check_composition_bounds():
    for b in _BASES:
        base = Base(b)
        Ns = (10**3, 10**4, 10**5)
        s12s, s21s = (representations.composition_counts(Ns, family, base) for family in ("s12", "s21"))
        for N, s12, s21 in zip(Ns, s12s, s21s):
            if not N * N / (16 * b * b) <= s12 <= N * N / 2:
                return False, f"s12({N}) b={b} = {s12} out of bounds"
            if not N * N / (8 * b) <= s21 <= N * N / 2:
                return False, f"s21({N}) b={b} = {s21} out of bounds"
    return True, f"bounds hold at N in 1e3..1e5, bases {_BASES}"


# ---------------------------------------------------------------------------
# criterion 7: progression ratio convergence (fixtures)
# ---------------------------------------------------------------------------

_PROGRESSION_MODULI = (1, 3, 7, 9, 11)


def check_progression_convergence(fixtures: dict[str, float]):
    base10 = Base(10)
    xs = (10**4, 10**5, 10**6, 10**7)
    counts = weighted_counts_up_to(xs, _PROGRESSION_MODULI, base10)
    lines = []
    for q in _PROGRESSION_MODULI:
        tol = fixtures[f"theta_ratio_tol.b10.q{q}"]
        worst_first, worst_last = 0.0, 0.0
        for a in range(q):
            if not residue_admissible(a, q, base10):
                continue
            devs = []
            for x in xs:
                res = counts[x, q].result(a)
                dev = abs(res.ratio - 1.0)
                devs.append(dev)
                if dev > tol:
                    return False, f"q={q} a={a} x={x}: |ratio-1|={dev:.5f} > tol {tol:.5f}"
            worst_first = max(worst_first, devs[0])
            worst_last = max(worst_last, devs[-1])
        # contraction of the worst deviation between the endpoints
        if worst_last >= worst_first:
            return False, f"q={q}: max dev at 1e7 ({worst_last:.5f}) not below 1e4 ({worst_first:.5f})"
        lines.append(f"q{q}:{worst_first:.4f}->{worst_last:.4f}")
    return True, "within tolerance; endpoint contraction " + " ".join(lines)


# ---------------------------------------------------------------------------
# criterion 8: mean-square quadrature
# ---------------------------------------------------------------------------

def check_parseval():
    base10 = Base(10)
    scaled = []
    for N in (10**3, 10**4):
        res = circle.parseval_check(N, base10)
        if abs(res.lhs - res.rhs) > 1e-6 * res.lhs:
            return False, f"N={N}: lhs {res.lhs!r} vs rhs {res.rhs!r}"
        if not math.isfinite(res.scaled):
            return False, f"N={N}: scaled value not finite"
        scaled.append(f"{res.scaled:.4f}")
    return True, f"quadrature matches to 1e-6; lhs/(N log N) = {', '.join(scaled)}"


# ---------------------------------------------------------------------------
# criterion 9: exceptional-set decay (fixtures)
# ---------------------------------------------------------------------------

def check_exception_decay(fixtures: dict[str, float]):
    base10 = Base(10)
    limit = fixtures["exception_density_limit.b10"]
    densities = []
    for x in (10**3, 10**4, 10**5, 10**6):
        count = representations.count_exceptional_evens(x, base10)
        densities.append(count / (x // 2))
    if not all(a > b for a, b in zip(densities, densities[1:])):
        return False, f"densities not strictly decreasing: {densities}"
    if densities[-1] > limit:
        return False, f"final density {densities[-1]} above fixture limit {limit}"
    return True, f"densities {['%.6f' % d for d in densities]}, final <= {limit}"


# ---------------------------------------------------------------------------
# criterion 10: ternary positivity window
# ---------------------------------------------------------------------------

def check_ternary_positivity():
    base10 = Base(10)
    lo, hi = 10**4, 10**4 + 10**3
    pr = weighted_indicator(hi, "prime")
    rev = weighted_indicator(hi, "reversed_prime_coprime", base=base10)
    r12 = representations.convolve_chain([pr, rev, rev], out_len=hi + 1)
    r21 = representations.convolve_chain([pr, pr, rev], out_len=hi + 1)
    odd = np.arange(lo + 1, hi + 1, 2)
    for name, conv in (("r12", r12), ("r21", r21)):
        values = conv.weights[odd]
        if not np.all(values > conv.error_bound):
            bad = int(odd[np.argmin(values)])
            return False, f"{name}({bad}) = {values.min()} not positive beyond error bound"
    return True, f"r12, r21 > 0 for every odd N in [{lo}, {hi}]"


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

# (name, the fixture keys it reads, callable); a check that reads keys
# takes the fixtures as its one argument
_CHECKS = [
    ("1-reversal-algebra", (), check_reversal_algebra),
    ("2-residue-exp-sum", (), check_admissible_exp_sum),
    ("3-singular-series", (), check_singular_series),
    ("4-representation-oracle", (), check_representation_oracle),
    ("5-exact-obstructions", (), check_exact_obstructions),
    ("6-composition-bounds", (), check_composition_bounds),
    ("7-progression-convergence", tuple(f"theta_ratio_tol.b10.q{q}" for q in _PROGRESSION_MODULI),
     check_progression_convergence),
    ("8-parseval", (), check_parseval),
    ("9-exception-decay", ("exception_density_limit.b10",), check_exception_decay),
    ("10-ternary-positivity", (), check_ternary_positivity),
]

SUITES = {
    "identities": ["1-reversal-algebra", "2-residue-exp-sum", "3-singular-series", "8-parseval"],
    "representations": ["4-representation-oracle", "6-composition-bounds", "10-ternary-positivity"],
    "obstructions": ["5-exact-obstructions"],
    "asymptotics": ["7-progression-convergence", "9-exception-decay"],
    "all": [name for name, *_ in _CHECKS],
}


def suite_fixture_keys(suite: str) -> list[str]:
    """The fixture keys that the suite's checks read, in check order."""
    return [key for name, keys, _ in _CHECKS if name in SUITES[suite] for key in keys]


def run_suite(suite: str, fixtures: dict[str, float] | None = None) -> Iterator[CheckResult]:
    """Run the suite's checks in order, yielding each result as its check ends."""
    for name, keys, fn in _CHECKS:
        if name in SUITES[suite]:
            yield _timed(name, (lambda: fn(fixtures)) if keys else fn)
