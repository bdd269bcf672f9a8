"""revprime benchmark: one workload, run as fresh CLI child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the tree under test is the checkout that holds this
directory (its src/ goes on the children's PYTHONPATH).  Workloads are
defined in workloads.py: ap-grid, represent-range, spectral and sumset.

The loop is closed: one client, one `python -m revprime.cli` invocation at a
time, each waiting for the previous one.  A pass is the workload's list of
invocations; passes repeat until S seconds have gone by.  Every invocation's
stdout is checked (workloads.py); a nonzero exit, a traceback on stderr, a
timeout or a wrong output is a failure and is never dropped.

--trace 0 prints the end-to-end metrics, tracing off:
    wall_s       median over passes of the pass's wall time
    cpu_s        median over passes of the children's user + system time
    peak_rss_mb  median over passes of the largest child ru_maxrss
    setup_s      median wall time of the workload's one-item invocation,
                 run at least SETUP_SAMPLES times and SETUP_SECONDS long
    ok_ratio     invocations that passed over invocations attempted
                 (1 - fail_ratio; fail_ratio itself is 0 on a good run, and
                 a gated metric must never read 0)
--trace 1 runs one untraced pass, then traced passes (at least two) in which
every invocation runs under tracing.py, and prints the per-layer metrics:
counts from the first traced pass, which every later traced pass must
repeat exactly, and self times as medians over the traced passes.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the same figures for people.
The full result, with the environment and every sample, is written to
.perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spawn
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # the one-item invocation runs at least this often,
SETUP_SECONDS = 3.0  # and until its runs add up to this long
RUN_LIMIT_S = 165.0  # a run must end within 180 s
INVOCATION_TIMEOUT_S = 120.0
COVERAGE_MIN = 0.8  # top-level spans cover at least this share of main()
TRACEBACK = b"Traceback (most recent call last)"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name == "trace.coverage_min":
        return "ratio"
    return "count"


class Bench:
    def __init__(self, root: Path, workload: workloads.Workload, digests: dict[str, str]):
        self.root = root
        self.workload = workload
        self.digests = digests
        self.env = spawn.child_env(root)
        self.threads = spawn.threads()
        self.work = root / ".perfbench" / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_walls: list[float] = []
        self.uses_cache = any(inv.cache for inv in workload.invocations + (workload.setup,))

    def left(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def fresh_cache(self) -> Path:
        cache = self.work / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(parents=True)
        return cache

    def invoke(
        self, inv: workloads.Invocation, cache: Path | None, spans: Path | None
    ) -> tuple[spawn.ChildResult | None, bool]:
        """Run one invocation and check it: (result, passed), with result None
        if the run time limit left no time to start it."""
        self.attempted += 1
        where = f"{self.workload.name}/{inv.label}"
        timeout = min(INVOCATION_TIMEOUT_S, self.left())
        if timeout <= 0:
            self.failures.append(f"{where}: not started, run time limit reached")
            return None, False
        entry = ["-m", "revprime.cli"] if spans is None else [str(HERE / "tracing.py"), str(spans)]
        argv = [sys.executable, *entry, *inv.args, "--threads", str(self.threads)]
        if inv.cache:
            argv += ["--cache-dir", str(cache)]
        res = spawn.run(argv, self.env, self.root, timeout)
        problem = None
        if res.timed_out:
            problem = f"timed out after {timeout:.0f} s"
        elif res.returncode != 0:
            problem = f"exit code {res.returncode}"
        elif TRACEBACK in res.stderr:
            problem = "traceback on stderr"
        else:
            problem = self.check_output(inv, res.stdout)
        if problem is not None:
            tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{where}: {problem} {tail}")
        return res, problem is None

    def check_output(self, inv: workloads.Invocation, stdout: bytes) -> str | None:
        expected = self.digests.get(inv.label)
        if expected is not None and workloads.digest(stdout) != expected:
            return "stdout differs from the recorded digest"
        try:
            return inv.check(stdout.decode())
        except Exception as exc:  # malformed output is a failure, not a crash
            return f"unreadable output ({type(exc).__name__}: {exc})"

    def run_pass(self, traced: bool = False) -> dict:
        cache = self.fresh_cache() if self.uses_cache else None
        walls, cpus, rss, spans = [], [], [], []
        start = time.perf_counter()
        for i, inv in enumerate(self.workload.invocations):
            span_file = self.work / f"spans-{i}.json" if traced else None
            if span_file is not None:
                span_file.unlink(missing_ok=True)
            res, passed = self.invoke(inv, cache, span_file)
            if res is None:
                continue
            walls.append(res.wall_s)
            cpus.append(res.cpu_s)
            rss.append(res.maxrss_mb)
            if passed and inv is self.workload.setup:
                self.setup_walls.append(res.wall_s)
            if passed and span_file is not None:
                spans.append(json.loads(span_file.read_text()))
        return {
            "wall_s": time.perf_counter() - start,
            "cpu_s": sum(cpus),
            "peak_rss_mb": max(rss, default=0.0),
            "invocation_walls": walls,
            "spans": spans,
        }

    def repeat_passes(self, seconds: float, minimum: int, traced: bool) -> list[dict]:
        """Passes until `seconds` have gone by, at least `minimum`, and no
        pass started that would not end in time (estimated by the last)."""
        passes: list[dict] = []
        start = time.monotonic()
        while len(passes) < minimum or time.monotonic() - start < seconds:
            if passes and self.left() < 1.5 * passes[-1]["wall_s"] + self.setup_reserve():
                break
            passes.append(self.run_pass(traced))
        return passes

    def setup_reserve(self) -> float:
        """Time the setup top-up may still take."""
        missing = max(SETUP_SAMPLES - len(self.setup_walls), 0)
        longest = max(self.setup_walls, default=5.0)
        return 1.5 * max(missing * longest, SETUP_SECONDS - sum(self.setup_walls))

    def top_up_setup(self) -> None:
        while len(self.setup_walls) < SETUP_SAMPLES or sum(self.setup_walls) < SETUP_SECONDS:
            cache = self.fresh_cache() if self.workload.setup.cache else None
            res, passed = self.invoke(self.workload.setup, cache, None)
            if not passed:
                return
            self.setup_walls.append(res.wall_s)

    def measured(self, seconds: float) -> tuple[dict, dict]:
        passes = self.repeat_passes(seconds, 1, traced=False)
        self.top_up_setup()
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(self.setup_walls) if self.setup_walls else 0.0,
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "ok_ratio": (self.attempted - len(self.failures)) / self.attempted,
        }
        samples = {"passes": [strip_spans(p) for p in passes], "setup_walls": self.setup_walls}
        return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, samples

    def traced(self, seconds: float) -> tuple[dict, dict]:
        untraced = self.run_pass(traced=False)
        passes = self.repeat_passes(seconds, 2, traced=True)
        per_pass = [tracing.layer_metrics(p["spans"]) for p in passes]
        layers = [metrics for metrics, _ in per_pass]
        for i, other in enumerate(layers[1:], start=2):
            differ = [k for k in tracing.COUNT_METRICS if other[k] != layers[0][k]]
            if differ:
                self.failures.append(f"traced pass {i} counts differ from pass 1: {differ}")
        metrics = tracing.median_layers(layers)
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in passes) - untraced["wall_s"]
        )
        metrics["trace.coverage_min"] = min(coverage for _, coverage in per_pass)
        samples = {
            "untraced_pass": strip_spans(untraced),
            "passes": [strip_spans(p) for p in passes],
            "layers_per_pass": layers,
            "spans": [p["spans"] for p in passes],
        }
        return {k: (v, layer_unit(k)) for k, v in metrics.items()}, samples


def strip_spans(p: dict) -> dict:
    return {k: v for k, v in p.items() if k != "spans"}


def environment(root: Path, threads: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_flag": threads,
        "pinned_env": dict(spawn.PINNED_ENV, PYTHONPATH=str(root / "src")),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "revprime" / "cli.py").is_file():
        print(f"no revprime tree under test: {root / 'src' / 'revprime'} is missing",
              file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    digests = workloads.load_digests().get(args.workload, {}).get(str(args.seed), {})
    bench = Bench(root, workload, digests)
    try:
        if args.trace:
            metrics, samples = bench.traced(args.seconds)
        else:
            metrics, samples = bench.measured(args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    failed = len(bench.failures)
    env = environment(root, bench.threads)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digests_recorded": bool(digests),
        "environment": env,
        "argv": [list(inv.args) for inv in (workload.setup, *workload.invocations)],
        "attempted": bench.attempted,
        "failed": failed,
        "failures": bench.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
    }
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={env['commit']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} --threads {env['threads_flag']} "
          + " ".join(f"{k}={v}" for k, v in spawn.PINNED_ENV.items()))
    print(f"# passes={len(samples['passes'])} attempted={bench.attempted} failed={failed} "
          f"digests={'checked' if digests else 'not recorded, invariants only'} "
          f"result={out_file.relative_to(root)}")
    if args.trace:
        coverage = metrics["trace.coverage_min"][0]
        verdict = "ok" if coverage >= COVERAGE_MIN else "LOW: time outside every timed layer"
        print(f"# coverage check: top-level spans cover >= {coverage:.1%} of each traced "
              f"invocation's main(): {verdict}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<58} {value:>16.6f} {unit}")
    print(f"{'fail_ratio':<58} {failed / bench.attempted:>16.6f} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
