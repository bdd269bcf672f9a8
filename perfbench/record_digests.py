"""Record the stdout digest of every invocation for the shipped seeds.

    python3 perfbench/record_digests.py

Run it on the seed commit only: the digests pin that commit's stdout, which
later changes must reproduce byte for byte.  Seed 0 is the default, seeds
1-10 are the ones steadiness runs use, and seeds 11-15 are held out: never
used while tuning the benchmark, kept for checking a claimed gain.  Every
output must also pass the invariant checks before its digest is kept.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

SEEDS = range(16)


def main() -> int:
    recorded: dict[str, dict[str, dict[str, str]]] = {}
    for name in workloads.WORKLOADS:
        recorded[name] = {}
        for seed in SEEDS:
            workload = workloads.build(name, seed)
            bench = run.Bench(run.HERE.parent, workload, {})
            cache = bench.fresh_cache() if bench.uses_cache else None
            ordered = dict.fromkeys((workload.setup, *workload.invocations))
            digests = {}
            try:
                for inv in ordered:
                    res, passed = bench.invoke(inv, cache, None)
                    if not passed:
                        print("\n".join(bench.failures), file=sys.stderr)
                        return 1
                    digests[inv.label] = workloads.digest(res.stdout)
            finally:
                shutil.rmtree(bench.work, ignore_errors=True)
            recorded[name][str(seed)] = digests
            print(f"{name} seed {seed}: {digests}", flush=True)
    workloads.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
