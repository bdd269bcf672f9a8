"""Command-line front end.

One subcommand per experiment family; every command emits structured rows
(CSV with a header, or JSON objects one per line) on stdout and a runtime
note on stderr, so identical invocations with the same seed produce
byte-identical stdout.  Rows are written one at a time as the command makes
them, and no command holds a list of its rows: every check that can refuse
a command runs before the first byte of stdout, and only a failure after it
(an allocation, or a reader that closed stdout) leaves the rows before it.

Exit codes: 0 success, 1 verification failure (a failed check, or two
independent computations that disagree), 2 usage error, 3 resource or cache
error, or stdout closed by its reader before the output was written.

Configuration precedence: command-line flags, then environment
(REVPRIME_CACHE_DIR), then a key=value config file (--config), then
defaults.  The file sets base, cache_dir, format, seed and fixtures; a line
that is not key=value, any other key, or a format other than csv and json
is a usage error.  --threads is accepted and checked (>= 0) for existing
callers, and changes nothing: the sieve runs on one thread.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

import numpy as np

from . import circle, representations, schnirelmann, sieve, verify
from .digits import Base
from .errors import CacheError, CrossCheckError, ResourceLimitError
from .progressions import check_modulus, weighted_count_window, weighted_counts_up_to

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    base: int = 10
    cache_dir: str | None = None
    format: str = "csv"
    seed: int = 0
    fixtures: str | None = None


FORMATS = ("csv", "json")
# the RunConfig fields that a --config file may set, by name
CONFIG_KEYS = ("base", "cache_dir", "format", "seed", "fixtures")


def _read_config_file(path: str) -> dict[str, str]:
    """The key=value lines of a config file; blank lines and # comments are
    skipped, and anything else that is not a known key set to a valid value
    is a ValueError."""
    out = {}
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not eq:
                raise ValueError(f"--config line {number} is not key=value: {line!r}")
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown --config key {key!r}; known: {', '.join(CONFIG_KEYS)}")
            out[key] = value
    if out.get("format", "csv") not in FORMATS:
        raise ValueError(f"--config format must be csv or json, got {out['format']!r}")
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            file_vals = _read_config_file(args.config)
        except OSError as exc:
            raise ValueError(f"cannot read --config file: {exc}") from exc
        for key, value in file_vals.items():
            setattr(cfg, key, _parse_int(value) if key in ("base", "seed") else value)
    if os.environ.get("REVPRIME_CACHE_DIR"):
        cfg.cache_dir = os.environ["REVPRIME_CACHE_DIR"]
    if getattr(args, "base", None) is not None:
        cfg.base = args.base
    if getattr(args, "cache_dir", None):
        cfg.cache_dir = args.cache_dir
    if getattr(args, "format", None):
        cfg.format = args.format
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "fixtures", None):
        cfg.fixtures = args.fixtures
    if cfg.base < 2:
        raise ValueError(f"base must be >= 2, got {cfg.base}")
    if getattr(args, "threads", 0) < 0:
        raise ValueError(f"threads must be >= 0, got {args.threads}")
    return cfg


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_rows(cfg: RunConfig, fieldnames: list[str], rows: Iterable[dict], out=None) -> None:
    """Write rows one at a time as they are drawn; the CSV header is written
    before the first row is asked for."""
    out = out if out is not None else sys.stdout
    if cfg.format == "json":
        for row in rows:
            obj = {k: (_fmt(v) if isinstance(v, float) else v) for k, v in row.items()}
            out.write(json.dumps(obj, sort_keys=True) + "\n")
    else:
        writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})


def _params_str(params: dict) -> str:
    return ";".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()))


def report_row(command: str, params: dict, observed: float, predicted: float, provenance: str) -> dict:
    """A row in the standard report schema (observed, predicted, ratio)."""
    return {
        "command": command,
        "params": _params_str(params),
        "observed": observed,
        "predicted": predicted,
        "ratio": observed / predicted if predicted > 0 else float("nan"),
        "provenance": provenance,
    }


REPORT_FIELDS = ["command", "params", "observed", "predicted", "ratio", "provenance"]


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

class _NotAnInteger(ValueError, argparse.ArgumentTypeError):
    """A usage error that argparse, as the type of a flag, reports verbatim."""


def _parse_int(text: str) -> int:
    """An integer written plainly ('600') or in e-notation that names an
    integer exactly ('1e5', '1.5e3'); anything else is a ValueError."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise _NotAnInteger(f"not an integer: {text!r}") from None
    # at most the 4300 digits int() takes by default: '1e999999999' would
    # otherwise build a huge integer
    if not value.is_finite() or value.adjusted() >= 4300 or value != value.to_integral_value():
        raise _NotAnInteger(f"not an integer: {text!r}")
    return int(value)


def _int_ranges(text: str) -> list[range]:
    """Parse '600', '1..30', or '1e4,1e5,1e6' into one range per part,
    without expanding any."""
    out: list[range] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, _, hi = part.partition("..")
            lo, hi = _parse_int(lo), _parse_int(hi)
            if hi < lo:
                raise ValueError(f"empty range: {part!r}")
        else:
            lo = hi = _parse_int(part)
        out.append(range(lo, hi + 1))
    return out


def int_list(ranges: list[range]) -> list[int]:
    """The ints of _int_ranges' ranges, in order, as one list."""
    return [n for part in ranges for n in part]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_enumerate(args, cfg: RunConfig) -> int:
    # built, and the limit checked, before emit_rows writes the header
    arrays = sieve.reversed_prime_arrays(args.limit, Base(cfg.base), require_coprime=args.coprime)
    rows = (
        {"n": int(n), "p": int(p), "weight": float(w), "coprime": int(c)}
        for n, p, w, c in zip(arrays.n, arrays.p, arrays.weight, arrays.coprime)
    )
    emit_rows(cfg, ["n", "p", "weight", "coprime"], rows)
    return 0


def cmd_count_ap(args, cfg: RunConfig) -> int:
    base = Base(cfg.base)
    # the cutoffs and moduli are checked on the ranges' ends, as represent's
    # targets are: a range past a ceiling is never listed, and the residues
    # never are
    x_ranges, q_ranges, a_ranges = _int_ranges(args.x), _int_ranges(args.q), _int_ranges(args.a)
    if min(part[0] for part in x_ranges) < 1:
        raise ValueError("x and q must be >= 1")
    sieve.reversed_prime_source_bound(max(part[-1] for part in x_ranges), base)
    for part in q_ranges:
        check_modulus(part[0])
        check_modulus(part[-1])
    xs, qs = int_list(x_ranges), int_list(q_ranges)
    counts = weighted_counts_up_to(xs, qs, base)
    cells = ((x, q, a) for x in xs for q in qs for part in a_ranges for a in part)
    rows = (
        report_row("count-ap", {"base": cfg.base, "x": x, "a": a, "q": q},
                   res.observed, res.main_term, "exact")
        for x, q, a in cells
        for res in [counts[x, q].result(a)]
    )
    emit_rows(cfg, REPORT_FIELDS, rows)
    return 0


def cmd_partition(args, cfg: RunConfig) -> int:
    base = Base(cfg.base)
    res = weighted_count_window(args.digits, args.eta, args.r, args.a, args.q, base)
    params = {"base": cfg.base, "L": args.digits, "eta": args.eta, "r": args.r,
              "a": args.a, "q": args.q}
    emit_rows(cfg, REPORT_FIELDS, [report_row("partition", params, res.observed, res.main_term, "exact")])
    return 0


def cmd_represent(args, cfg: RunConfig) -> int:
    base = Base(cfg.base)
    if args.exceptions:
        if args.family != "r11":
            raise ValueError(f"--exceptions counts r11 exceptions only, not family {args.family!r}")
        x = max(part[-1] for part in _int_ranges(args.n))  # only the largest target counts
        count = representations.count_exceptional_evens(x, base)
        params = {"base": cfg.base, "x": x, "family": "r11"}
        emit_rows(cfg, REPORT_FIELDS, [report_row("exceptions", params, float(count), 0.0, "exact")])
        return 0
    # checked on the ranges' ends: a range past a ceiling is never listed
    ranges = _int_ranges(args.n)
    least, largest = min(part[0] for part in ranges), max(part[-1] for part in ranges)
    representations.check_batch(least, largest, args.family, base, args.k)
    targets = int_list(ranges)
    extra = {"k": args.k} if args.family == "r0k" else {}
    profiles = representations.representation_counts(targets, args.family, base, k=args.k)
    rows = (
        report_row("represent", {"base": cfg.base, "n": p.N, "family": args.family, **extra},
                   p.exact, p.predicted, p.provenance)
        for p in profiles
    )
    emit_rows(cfg, REPORT_FIELDS, rows)
    return 0


def cmd_circle(args, cfg: RunConfig) -> int:
    base = Base(cfg.base)
    if args.op == "arcs":
        part = circle.build_arcs(args.N, args.B)
        rows = ({"a": arc.a, "q": arc.q, "lo": arc.lo, "hi": arc.hi} for arc in part.arcs)
        emit_rows(cfg, ["a", "q", "lo", "hi"], rows)
        print(f"# total_measure={_fmt(part.total_measure)} Q={_fmt(part.Q)}", file=sys.stderr)
        return 0
    if args.op == "expsum":
        z = circle.exp_sum(args.alpha, args.N, args.kind, base)
        row = {"alpha": args.alpha, "kind": args.kind, "re": z.real, "im": z.imag, "abs": abs(z)}
        emit_rows(cfg, ["alpha", "kind", "re", "im", "abs"], [row])
        return 0
    if args.op == "residual":
        value = circle.major_arc_residual(args.alpha, args.N, base, which=args.which, B=args.B)
        params = {"alpha": args.alpha, "N": args.N, "which": args.which}
        emit_rows(cfg, REPORT_FIELDS, [report_row("residual", params, value, 0.0, "exact")])
        return 0
    if args.op == "weyl":
        value = circle.weyl_ratio(args.beta, args.N, base, kind=args.kind)
        params = {"beta": args.beta, "N": args.N, "kind": args.kind}
        emit_rows(cfg, REPORT_FIELDS, [report_row("weyl", params, value, 0.0, "exact")])
        return 0
    if args.op == "parseval":
        res = circle.parseval_check(args.N, base)
        row = {"N": args.N, "lhs": res.lhs, "rhs": res.rhs, "scaled": res.scaled}
        emit_rows(cfg, ["N", "lhs", "rhs", "scaled"], [row])
        return 0
    if args.op == "probe":
        probe = circle.minor_arc_probe(args.N, args.B, base, args.samples, seed=cfg.seed)
        rows = (
            {"A": A, "scaled_max": v, "max_abs_prime": probe.max_abs_prime,
             "samples": probe.samples, "seed": probe.seed}
            for A, v in sorted(probe.scaled.items())
        )
        emit_rows(cfg, ["A", "scaled_max", "max_abs_prime", "samples", "seed"], rows)
        return 0
    if args.op == "curve":
        xs = np.linspace(0.0, 1.0, args.samples, endpoint=False)
        # the reversed primes' ceilings are checked before the prime sum sieves
        sieve.reversed_prime_source_bound(args.N, base)
        prime_s = circle.exp_sum_evaluator(args.N, "prime")
        rev_s = circle.exp_sum_evaluator(args.N, "reversed_prime_coprime", base)
        rows = (
            {"alpha": alpha, "abs_S": abs(prime_s(alpha)), "abs_revS": abs(rev_s(alpha))}
            for alpha in map(float, xs)
        )
        emit_rows(cfg, ["alpha", "abs_S", "abs_revS"], rows)
        return 0
    if args.op == "gamma":
        seed = circle.congruence_reversal_seed(base, args.h, args.q, args.digits, k=args.k, d=args.d)
        gammas, sigma = circle.gamma_sigma(seed, args.lam)
        rows = ({"i": i, "gamma": g} for i, g in [*enumerate(gammas), ("sigma", sigma)])
        emit_rows(cfg, ["i", "gamma"], rows)
        return 0
    raise ValueError(f"unknown circle op {args.op!r}")


def cmd_schnirelmann(args, cfg: RunConfig) -> int:
    base = Base(cfg.base)
    if args.op == "gap":
        report = schnirelmann.verify_gap(args.i, args.digits)
        row = {
            "base": report.base.b,
            "L": report.L,
            "lo": report.lo,
            "hi": report.hi,
            "count": report.reversed_prime_count,
            "forced_k": str(report.forced_k),
        }
        emit_rows(cfg, ["base", "L", "lo", "hi", "count", "forced_k"], [row])
        return 0
    if args.op == "mink":
        res = schnirelmann.min_k_representation(args.n, base, args.kmax)
        row = {
            "n": res.N,
            "k": res.k if res.k is not None else "none",
            "witness": "+".join(str(w) for w in res.witness),
            "single": int(res.single),
        }
        emit_rows(cfg, ["n", "k", "witness", "single"], [row])
        return 0
    if args.op == "scan":
        res = schnirelmann.scan_min_k(args.lo, args.hi, base, args.kmax)
        counts = [*sorted(res.counts.items()), ("failures", len(res.failures))]
        emit_rows(cfg, ["k", "count"], ({"k": k, "count": c} for k, c in counts))
        if res.failures:
            print("# failures: " + ",".join(map(str, res.failures)), file=sys.stderr)
        return 0
    raise ValueError(f"unknown schnirelmann op {args.op!r}")


def _parse_budget(text: str) -> float:
    if text.endswith("ms"):
        return float(text[:-2]) / 1000
    if text.endswith("s"):
        return float(text[:-1])
    if text.endswith("m"):
        return float(text[:-1]) * 60
    if text.endswith("h"):
        return float(text[:-1]) * 3600
    return float(text)


def cmd_verify(args, cfg: RunConfig) -> int:
    if args.suite not in verify.SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; available: {', '.join(sorted(verify.SUITES))}")
    budget = _parse_budget(args.budget) if args.budget else None
    if budget is not None and not budget > 0:  # nan too; inf means no limit
        raise ValueError(f"budget must be positive, not {args.budget!r}: it would check nothing")
    fixtures = None
    if verify.suite_needs_fixtures(args.suite):
        path = cfg.fixtures or verify.default_fixtures_path()
        if not os.path.exists(path):
            raise ValueError(
                f"suite {args.suite!r} needs the oracle fixtures file, not found at {path}; "
                "regenerate it with scripts/build_fixtures.py"
            )
        fixtures = verify.load_fixtures(path)
    results = verify.run_suite(args.suite, fixtures=fixtures, budget_seconds=budget)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if res.detail.startswith("skipped"):
            status = "SKIP"
        print(f"{status} {res.name}: {res.detail}")
        if not res.passed:
            failed += 1
        print(f"# {res.name} runtime_ms={res.runtime_ms}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand; the
    # SUPPRESS default keeps subparser defaults from clobbering earlier values
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--base", type=_parse_int, default=argparse.SUPPRESS,
                        help="radix b >= 2 (default 10)")
    common.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS)
    common.add_argument("--cache-dir", default=argparse.SUPPRESS,
                        help="prime-table cache directory")
    common.add_argument("--threads", type=_parse_int, default=argparse.SUPPRESS,
                        help="accepted and checked (>= 0) for existing callers; "
                        "changes nothing, the sieve runs on one thread")
    common.add_argument("--seed", type=_parse_int, default=argparse.SUPPRESS,
                        help="seed for sampled probes")
    common.add_argument("--config", default=argparse.SUPPRESS, help="key=value config file")
    common.add_argument("--fixtures", default=argparse.SUPPRESS, help="oracle fixtures file")

    parser = argparse.ArgumentParser(
        prog="revprime",
        description="Reversed primes: progressions, representation counts, circle-method probes.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list reversed primes up to a bound", parents=[common])
    p.add_argument("--limit", type=_parse_int, required=True)
    p.add_argument("--coprime", action="store_true", help="keep only gcd(n, b^3-b) = 1")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count-ap", help="progression counts vs. main term (grid)", parents=[common])
    p.add_argument("--x", required=True, help="bound(s): 1e4,1e5 or 10..20")
    p.add_argument("--a", default="0", help="residue(s)")
    p.add_argument("--q", default="1", help="modulus/moduli")
    p.set_defaults(func=cmd_count_ap)

    p = sub.add_parser("partition", help="leading-digit window count vs. main term", parents=[common])
    p.add_argument("--digits", type=_parse_int, required=True, help="digit length L")
    p.add_argument("--eta", type=_parse_int, required=True)
    p.add_argument("--r", type=_parse_int, required=True)
    p.add_argument("--a", type=_parse_int, default=0)
    p.add_argument("--q", type=_parse_int, default=1)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("represent", help="representation counts vs. predictions", parents=[common])
    p.add_argument("--family", choices=representations.FAMILIES, required=True)
    p.add_argument("--k", type=_parse_int, default=None, help="summand count for r0k")
    p.add_argument("--n", required=True, help="target(s): 600 or 4..100")
    p.add_argument(
        "--exceptions",
        action="store_true",
        help="count even N <= max(n) with no r11 representation",
    )
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("circle", help="exponential sums, arcs, residuals, probes", parents=[common])
    p.add_argument("--op", required=True,
                   choices=("arcs", "expsum", "residual", "weyl", "parseval", "probe", "curve", "gamma"))
    p.add_argument("--N", type=_parse_int, default=10**4)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--kind", default="all")
    p.add_argument("--which", choices=("S", "revS"), default="revS")
    p.add_argument("--samples", type=_parse_int, default=100)
    p.add_argument("--h", type=_parse_int, default=1)
    p.add_argument("--q", type=_parse_int, default=3)
    p.add_argument("--k", type=_parse_int, default=0)
    p.add_argument("--d", type=_parse_int, default=1)
    p.add_argument("--digits", type=_parse_int, default=10)
    p.add_argument("--lam", type=_parse_int, default=10)
    p.set_defaults(func=cmd_circle)

    p = sub.add_parser("schnirelmann", help="pure sums of reversed primes", parents=[common])
    p.add_argument("--op", required=True, choices=("gap", "mink", "scan"))
    p.add_argument("--i", type=_parse_int, default=2, help="primorial index")
    p.add_argument("--digits", type=_parse_int, default=2, help="digit length L")
    p.add_argument("--n", type=_parse_int, default=600)
    p.add_argument("--kmax", type=_parse_int, default=4)
    p.add_argument("--lo", type=_parse_int, default=100)
    p.add_argument("--hi", type=_parse_int, default=200)
    p.set_defaults(func=cmd_schnirelmann)

    p = sub.add_parser("verify", help="run an acceptance suite", parents=[common])
    p.add_argument("--suite", default="all")
    p.add_argument("--budget", default=None, help="e.g. 30s, 10m")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    previous = sieve.session
    try:
        cfg = resolve_config(args)
        # a fresh session per command: a rejected command reads no prime and
        # leaves the cache alone, and the caller's tables stay its own
        sieve.session = sieve.Session(cfg.cache_dir)
        code = args.func(args, cfg)
        sys.stdout.flush()
    except BrokenPipeError:
        # reader gone (`| head`): stop quietly; devnull absorbs the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    except CrossCheckError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    except (ResourceLimitError, CacheError, MemoryError) as exc:
        # a MemoryError may carry no message
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    finally:
        sieve.session = previous
    print(f"# runtime_ms={int(1000 * (time.perf_counter() - start))}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
