"""The four workloads: the CLI argv each seed generates, and the checks on
each invocation's stdout.

The seed moves only the numeric inputs below; the program sees only the
generated argv.  Where an input range would change the amount of work from
seed to seed, it is narrowed or paired so that every seed does the same work
to about 1%, and the run-to-run spread is the machine's, not the inputs'.

Every check gets the invocation's whole stdout and returns an error message,
or None when the output is correct.  Seeds with recorded digests
(digests.json, made from the seed commit by record_digests.py) must match
byte for byte; every seed must also pass the cheap invariants here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

Check = Callable[[str], "str | None"]
DIGESTS = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Invocation:
    label: str  # digest key, stable across seeds
    args: tuple[str, ...]  # after `python -m revprime.cli`
    check: Check
    cache: bool = False  # gets the pass's benchmark-owned --cache-dir


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Invocation  # the one-item invocation timed as setup_s
    invocations: tuple[Invocation, ...]  # one pass, run in order


def _rows(stdout: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(stdout)))


def _params(row: dict[str, str]) -> dict[str, str]:
    return dict(part.split("=", 1) for part in row["params"].split(";"))


def _report_check(expected_rows: int, extra: Callable[[list[dict]], "str | None"]) -> Check:
    """Rows in the (command, params, observed, ...) report schema."""

    def check(stdout: str) -> str | None:
        rows = _rows(stdout)
        if len(rows) != expected_rows:
            return f"{len(rows)} rows, expected {expected_rows}"
        for row in rows:
            if not float(row["observed"]) >= 0.0:
                return f"negative observed in {row['params']}"
        return extra(rows)

    return check


def _count_ap_check(xs: list[int], qs: list[int], as_: list[int]) -> Check:
    def partition(rows: list[dict]) -> str | None:
        observed = {}
        for row in rows:
            p = _params(row)
            observed[int(p["x"]), int(p["q"]), int(p["a"])] = float(row["observed"])
        if 1 not in qs or 0 not in as_:
            return None
        for x in xs:
            total = observed[x, 1, 0]
            for q in qs:
                if not set(range(q)) <= set(as_):
                    continue
                part = math.fsum(observed[x, q, a] for a in range(q))
                if not math.isclose(part, total, rel_tol=1e-9):
                    return f"x={x} q={q}: classes sum to {part!r}, not {total!r}"
        return None

    return _report_check(len(xs) * len(qs) * len(as_), partition)


def _represent_check(targets: list[int], k: int | None = None) -> Check:
    def targets_and_parity(rows: list[dict]) -> str | None:
        got = [int(_params(row)["n"]) for row in rows]
        if got != targets:
            return f"targets {got[:3]}... differ from {targets[:3]}..."
        for row, n in zip(rows, targets):
            # reversed primes coprime to b^3 - b are odd: an even number of
            # them never sums to an odd N
            if k is not None and k % 2 == 0 and n % 2 == 1:
                if float(row["observed"]) != 0.0 or row["provenance"] != "exact":
                    return f"n={n}: odd N as a sum of {k} reversed primes"
        return None

    return _report_check(len(targets), targets_and_parity)


def _exceptions_check() -> Check:
    def integral(rows: list[dict]) -> str | None:
        value = float(rows[0]["observed"])
        return None if value == int(value) else f"non-integral exception count {value!r}"

    return _report_check(1, integral)


def _curve_check(samples: int) -> Check:
    def check(stdout: str) -> str | None:
        rows = _rows(stdout)
        if len(rows) != samples:
            return f"{len(rows)} rows, expected {samples}"
        for column in ("abs_S", "abs_revS"):
            values = [float(row[column]) for row in rows]
            # |S(alpha)| <= S(0), the sum of the non-negative weights
            if min(values) < 0.0 or max(values) > values[0] * (1 + 1e-9):
                return f"{column} outside [0, {column}(0)]"
        for j, row in enumerate(rows):
            if not math.isclose(float(row["alpha"]), j / samples, abs_tol=1e-12):
                return f"alpha {row['alpha']} off the grid j/{samples}"
        return None

    return check


def _scan_check(lo: int, hi: int) -> Check:
    def check(stdout: str) -> str | None:
        rows = _rows(stdout)
        if not rows or rows[-1]["k"] != "failures":
            return "no failures row"
        total = sum(int(row["count"]) for row in rows)
        if total != hi - lo + 1:
            return f"counts sum to {total}, not {hi - lo + 1}"
        return None

    return check


def _ap_grid(rng: random.Random) -> Workload:
    # X1 + X2 = 3e7 keeps the reversed primes below X1 plus those below X2
    # (the work of the grid) constant to 0.1% across seeds
    u = rng.randint(10**6, 4 * 10**6)
    xs = [10**7 + u, 2 * 10**7 - u]
    qs, as_ = list(range(1, 11)), list(range(10))
    cold = Invocation(
        "cold",
        ("count-ap", "--x", str(xs[1]), "--q", "1", "--a", "0"),
        _count_ap_check(xs[1:], [1], [0]),
        cache=True,
    )
    grid = Invocation(
        "grid",
        ("count-ap", "--x", f"{xs[0]},{xs[1]}", "--q", "1..10", "--a", "0..9"),
        _count_ap_check(xs, qs, as_),
        cache=True,
    )
    return Workload("ap-grid", cold, (cold, grid))


def _represent_range(rng: random.Random) -> Workload:
    # every target lies in [1e5, 1.2e5 + 39]: FFT length 2^18 throughout
    n0 = rng.randint(10**5, 12 * 10**4)
    window = f"{n0}..{n0 + 39}"
    targets = list(range(n0, n0 + 40))
    setup = Invocation(
        "setup",
        ("represent", "--family", "r11", "--n", str(n0 + 39)),
        _represent_check([n0 + 39]),
    )
    return Workload(
        "represent-range",
        setup,
        (
            Invocation("r12", ("represent", "--family", "r12", "--n", window),
                       _represent_check(targets)),
            Invocation("r11", ("represent", "--family", "r11", "--n", window),
                       _represent_check(targets)),
        ),
    )


def _spectral(rng: random.Random) -> Workload:
    # x stays in the 10^7 reversed-prime block with FFT length 2^24, and m in
    # the 10^6 block; the ranges are narrow because the direct sums cost
    # grows with m
    x = rng.randint(69 * 10**5, 71 * 10**5)
    m = rng.randint(96 * 10**4, 10**6)
    setup = Invocation(
        "setup",
        ("circle", "--op", "curve", "--N", str(x), "--samples", "1"),
        _curve_check(1),
    )
    return Workload(
        "spectral",
        setup,
        (
            Invocation("exceptions",
                       ("represent", "--family", "r11", "--n", str(x), "--exceptions"),
                       _exceptions_check()),
            Invocation("curve",
                       ("circle", "--op", "curve", "--N", str(m), "--samples", "128"),
                       _curve_check(128)),
        ),
    )


def _sumset(rng: random.Random) -> Workload:
    # five odd targets per window force the exact search; its cost grows
    # like s0^3, so s0 moves in a narrow range
    s0 = rng.randint(2990, 3010)
    targets = list(range(s0, s0 + 10))
    even = max(n for n in targets if n % 2 == 0)
    setup = Invocation(
        "setup",
        ("represent", "--family", "r0k", "--k", "4", "--n", str(even)),
        _represent_check([even], k=4),
    )
    lo, hi = 2, 4000
    return Workload(
        "sumset",
        setup,
        (
            Invocation("r0k",
                       ("represent", "--family", "r0k", "--k", "4", "--n", f"{s0}..{s0 + 9}"),
                       _represent_check(targets, k=4)),
            Invocation("scan",
                       ("schnirelmann", "--op", "scan", "--lo", str(lo), "--hi", str(hi),
                        "--kmax", "4", "--base", "30"),
                       _scan_check(lo, hi)),
        ),
    )


WORKLOADS = {
    "ap-grid": _ap_grid,
    "represent-range": _represent_range,
    "spectral": _spectral,
    "sumset": _sumset,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}/{seed}"))


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_digests() -> dict[str, dict[str, dict[str, str]]]:
    """workload -> seed -> invocation label -> stdout digest."""
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
