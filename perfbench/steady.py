"""Steadiness mode: run workloads repeatedly and report the spread.

    python3 perfbench/steady.py [--workload NAME ...] [--seeds 1-10] [--seconds S]

Each run is a separate `run.py` process with its own seed.  For every
metric the report gives the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.  A
metric whose spread exceeds a tenth is flagged as not repeating; the bounds
in BENCHMARK.json are set from this output.  Defaults: every workload, seeds
1-10 and run_seconds from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec_file = HERE.parent / "BENCHMARK.json"
    spec = json.loads(spec_file.read_text()) if spec_file.is_file() else {}
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 20))
    args = parser.parse_args()

    summary = {}
    for name in args.workload or list(workloads.WORKLOADS):
        values: dict[str, list[float]] = {}
        runs, incorrect, slowest = 0, [], 0.0
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            slowest = max(slowest, time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                incorrect.append(f"seed {seed}: exit {proc.returncode} {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            runs += 1
            if not result["correct"]:
                incorrect.append(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"== {name}: {runs} runs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"{args.seconds:g} s each, slowest run {slowest:.1f} s")
        for problem in incorrect:
            print(f"   NOT CORRECT {problem}")
        summary[name] = {}
        for metric, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(metric)
            note = "" if spread <= 0.1 else "  does not repeat within a tenth"
            if bound is not None:
                note = f"  {spread / bound:.2f} of bound {bound}" + note
            print(f"   {metric:<56} median {median:12.6g}  Q1 {q1:12.6g}  Q3 {q3:12.6g}"
                  f"  spread {spread:.4f}{note}")
            summary[name][metric] = {"values": vals, "median": median, "q1": q1, "q3": q3,
                                     "spread": spread}
    out = HERE.parent / ".perfbench" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {out.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
