"""Outside-in tracing of one revprime CLI invocation, and the per-layer
metrics computed from its spans.

Run as a script, this file is the traced child process:

    python perfbench/tracing.py SPANS_OUT ARG...

It times a bare ``import revprime.cli``, replaces every function named in
LAYERS by a timing wrapper in each ``revprime`` module namespace that binds
it (so ``from .sieve import reversed_prime_arrays`` in other modules is timed
too), calls ``revprime.cli.main(ARG...)`` and exits with its return code.
Spans stay in memory and are written to SPANS_OUT as JSON when main returns.
Nothing under ``src/`` is edited: the wrappers exist only in this process.

A span is ``[name, start, end, parent, attrs]``: times in seconds from
``time.perf_counter``, ``parent`` the index of the enclosing span or -1, and
``attrs`` the counts the wrapper read off the call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

# module.function for every layer boundary the benchmark times
LAYERS = (
    "sieve.sieve_primes",
    "sieve.get_prime_table",
    "sieve.reversed_prime_arrays",
    "sieve.weighted_indicator",
    "sieve.cache_load",
    "sieve.cache_store",
    "progressions.weighted_count_up_to",
    "representations.representation_count",
    "representations.convolve",
    "representations.composition_count",
    "representations.exceptional_evens",
    "arithmetic.singular_series_k",
    "circle.exp_sum",
    "schnirelmann.scan_min_k",
    "cli.emit_rows",
)

# counts recorded besides F.calls; each must repeat exactly between runs
EXTRA_COUNTS = (
    "sieve.get_prime_table.misses",
    "sieve.reversed_prime_arrays.misses",
    "sieve.cache_file.bytes",
    "representations.convolve.elems",
    "representations.convolve.fft_calls",
    "representations.representation_count.rechecks",
    "representations.representation_count.direct_rechecks",
    "circle.exp_sum.terms",
    "cli.emit_rows.rows",
)

COUNT_METRICS = tuple(f"{f}.calls" for f in LAYERS) + EXTRA_COUNTS
TIME_METRICS = tuple(f"{f}.self_s" for f in LAYERS) + ("process.import_s",)


# ---------------------------------------------------------------------------
# the traced child
# ---------------------------------------------------------------------------

class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []  # only the main thread calls wrapped functions
        self.paused = False

    def wrap(self, name: str, fn, annotate):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if annotate is not None:
                # counted after the span closes, so the parent's self time
                # carries the cost of counting
                self.paused = True
                try:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    span[4] = annotate(call.arguments, result)
                except Exception as exc:  # a changed signature loses a count, not the run
                    span[4] = {"error": f"{type(exc).__name__}: {exc}"}
                finally:
                    self.paused = False
            return result

        return wrapper


def _convolve_attrs(a: dict, result) -> dict:
    u, v = a["u"], a["v"]
    if u.error_bound == 0.0 and v.error_bound == 0.0:
        propagated = 0.0
    else:  # the bound convolve() carries over from its inputs
        propagated = u.error_bound * float(abs(v.weights).sum()) + v.error_bound * float(
            abs(u.weights).sum()
        )
    return {
        "elems": len(u) + len(v) - 1,
        "fft": result.error_bound > propagated,
        "zero": bool(len(result.weights)) and float(result.weights[-1]) <= result.error_bound,
    }


def _exp_sum_terms_counter():
    import numpy as np
    from revprime import digits, sieve

    memo: dict[tuple, int] = {}

    def attrs(a: dict, result) -> dict:
        x, kind, base, table = a["x"], a["kind"], a.get("base"), a.get("table")
        key = (kind, x, base.b if base is not None else None, id(table))
        if key not in memo:
            if kind == "prime":
                tbl = table if table is not None else sieve.get_prime_table(max(x, 2))
                memo[key] = tbl.count(x)
            elif kind == "reversed_prime_coprime":
                memo[key] = len(sieve.reversed_prime_arrays(x, base, True, table))
            elif kind == "B_set":
                memo[key] = int(np.count_nonzero(digits.coprime_leading_indicator(x, base)))
            else:
                memo[key] = x
        return {"terms": memo[key]}

    return attrs


def _file_bytes(a: dict, result) -> dict:
    return {"bytes": os.path.getsize(a["path"])}


def install(tracer: Tracer) -> None:
    """Wrap every LAYERS function in each revprime namespace that binds it."""
    import revprime  # noqa: F401  (loads every submodule)

    annotators = {
        "representations.convolve": _convolve_attrs,
        "representations.representation_count": lambda a, r: {"provenance": r.provenance},
        "circle.exp_sum": _exp_sum_terms_counter(),
        "sieve.cache_load": _file_bytes,
        "sieve.cache_store": _file_bytes,
        "cli.emit_rows": lambda a, r: {"rows": len(a["rows"])},
    }
    namespaces = [
        vars(module)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "revprime" or name.startswith("revprime."))
    ]
    for layer in LAYERS:
        module_name, _, func_name = layer.rpartition(".")
        module = sys.modules.get(f"revprime.{module_name}")
        original = getattr(module, func_name, None)
        if original is None:  # absent from the tree under test: reported as 0
            continue
        wrapper = tracer.wrap(layer, original, annotators.get(layer))
        for namespace in namespaces:
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = wrapper


def _child_main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import revprime.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    try:
        code = revprime.cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - start
        sys.stdout.flush()
        with open(spans_out, "w") as fh:
            json.dump({"import_s": import_s, "main_s": main_s, "spans": tracer.spans}, fh)
    return code


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one pass
# ---------------------------------------------------------------------------

def layer_metrics(invocations: list[dict]) -> tuple[dict[str, float], float]:
    """Totals over the traced invocations of one pass, plus the smallest
    share of an invocation's main() time that its top-level spans cover."""
    out = dict.fromkeys(COUNT_METRICS + TIME_METRICS, 0)
    coverage = 1.0
    for inv in invocations:
        spans = inv["spans"]
        children: list[list[int]] = [[] for _ in spans]
        top_level = 0.0
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                children[parent].append(i)
            else:
                top_level += end - start
        if inv["main_s"] > 0:
            coverage = min(coverage, top_level / inv["main_s"])
        out["process.import_s"] += inv["import_s"]
        for i, (name, start, end, _, attrs) in enumerate(spans):
            kids = children[i]
            kid_names = [spans[k][0] for k in kids]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - sum(spans[k][2] - spans[k][1] for k in kids)
            attrs = attrs or {}
            if name == "sieve.get_prime_table" and "sieve.sieve_primes" in kid_names:
                out["sieve.get_prime_table.misses"] += 1
            elif name == "sieve.reversed_prime_arrays" and "sieve.get_prime_table" in kid_names:
                out["sieve.reversed_prime_arrays.misses"] += 1
            elif name in ("sieve.cache_load", "sieve.cache_store"):
                out["sieve.cache_file.bytes"] += attrs.get("bytes", 0)
            elif name == "representations.convolve":
                out["representations.convolve.elems"] += attrs.get("elems", 0)
                out["representations.convolve.fft_calls"] += int(attrs.get("fft", False))
            elif name == "representations.representation_count":
                convs = [spans[k][4] or {} for k in kids if spans[k][0] == "representations.convolve"]
                if any(c.get("fft") for c in convs):
                    if attrs.get("provenance") == "exact":
                        out["representations.representation_count.rechecks"] += 1
                elif convs and convs[-1].get("zero"):
                    # a zero from the direct path, re-decided by the exact search
                    out["representations.representation_count.direct_rechecks"] += 1
            elif name == "circle.exp_sum":
                out["circle.exp_sum.terms"] += attrs.get("terms", 0)
            elif name == "cli.emit_rows":
                out["cli.emit_rows.rows"] += attrs.get("rows", 0)
    return out, coverage


def median_layers(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first pass, times as the median over passes."""
    out = dict(passes[0])
    for name in TIME_METRICS:
        out[name] = statistics.median(p[name] for p in passes)
    return out


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
