"""Benchmark of the incidence_scrolls package in this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports the package from src/, sets it up several times (setup_s is the
median), then repeats passes of the workload for about S seconds, checks
every output, and prints a readable summary followed by one JSON line:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracer as tr
from workloads import FULL, WORKLOADS, load_reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = "incidence_scrolls"
TRACE_DIR = HERE / "out"

# set-ups per run; classify-warm's set-up includes a full cache fill
SETUPS = {"enumerate-cold": 9, "classify-warm": 3, "query-mix": 9}

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "bases_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def use_source() -> None:
    """Put the checkout's src/ first on the import path."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_package() -> SimpleNamespace:
    """Import the package afresh from src/, so that its caches start empty."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    top = importlib.import_module(PACKAGE)
    if Path(top.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise BenchError(f"{PACKAGE} was imported from {top.__file__}, not from {SRC}")
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in tr.LAYERS}
    every = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
    return SimpleNamespace(modules=modules, every_module=every, **modules)


def set_up(name: str, seed: int, size, reference):
    """Import, generate the inputs and, for classify-warm, fill the caches."""
    start = perf_counter()
    pkg = load_package()
    workload = WORKLOADS[name](pkg, seed, size, reference)
    workload.fill()
    return workload, perf_counter() - start


def run_pass(workload, ops, tracer=None):
    """Run every op once; returns (pass seconds, op seconds, outputs).

    An op that raises counts as failed; its exception is its output.
    """
    outputs, times = [], []
    start = perf_counter()
    for label, op in ops:
        if tracer is not None:
            tracer.begin_op(label)
        t = perf_counter()
        try:
            out = op()
        except Exception as exc:  # the op failed; the run goes on and counts it
            out = exc
        times.append(perf_counter() - t)
        if tracer is not None:
            tracer.end_op()
        outputs.append(out)
    return perf_counter() - start, times, outputs


class Checker:
    """Checks the first output of each op in full; later outputs of the same
    op must reproduce it exactly."""

    def __init__(self, workload):
        self.workload = workload
        self.expected: dict[int, object] = {}
        self.problems: list[str] = []

    def failures(self, labels, outputs) -> int:
        failed = 0
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                self._note(f"{labels[i]}: {type(out).__name__}: {out}")
                failed += 1
                continue
            try:
                value = self.workload.canonical(i, out)
                if i not in self.expected:
                    self.expected[i] = value if self.workload.verify(i, out, value) else None
                ok = self.expected[i] is not None and value == self.expected[i]
            except Exception:
                self._note(f"{labels[i]}: check raised\n{traceback.format_exc()}")
                ok = False
            if not ok:
                self._note(f"{labels[i]}: wrong output")
                failed += 1
        return failed

    def _note(self, msg: str) -> None:
        if len(self.problems) < 20 and msg not in self.problems:
            self.problems.append(msg)


def percentile(values: list[float], p: int) -> float:
    """Interpolated percentile, the median at p = 50."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def traced_pass(workload, ops, keep_spans: bool):
    """One pass with the tracer installed; returns (pass seconds, outputs,
    tracer, exact counts, component times)."""
    pkg = workload.pkg
    tracer = tr.Tracer(pkg.modules, pkg.every_module, keep_spans)
    before = tr.cache_stats(pkg.modules)
    tracer.install()
    try:
        elapsed, _, outputs = run_pass(workload, ops, tracer)
    finally:
        tracer.remove()
    counts, times = tr.pass_metrics(tracer, before, tr.cache_stats(pkg.modules))
    return elapsed, outputs, tracer, counts, times


def run(name: str, seed: int, seconds: float, trace: bool, size=FULL) -> dict:
    """Set up, then alternate plain and (with trace) traced passes until about
    `seconds` of passes have run."""
    reference = load_reference()
    setups = []
    workload = None
    for _ in range(SETUPS[name]):
        workload = None  # drop the previous set-up's package and caches first
        gc.collect()
        workload, elapsed = set_up(name, seed, size, reference)
        setups.append(elapsed)
    ops = workload.ops()
    labels = [label for label, _ in ops]
    checker = Checker(workload)

    plain_times, op_times, traced_times, layer_times = [], [], [], []
    exact = spans = None
    attempted = failed = 0
    measured = 0.0
    k = 0
    while k < (2 if trace else 1) or measured + 0.5 * statistics.median(plain_times) < seconds:
        if workload.fresh:
            tr.clear_caches(workload.pkg.modules)
        if trace and k % 2 == 1:
            elapsed, outputs, tracer, counts, times = traced_pass(workload, ops, spans is None)
            if spans is None:
                exact, spans = counts, tracer
            elif counts != exact:
                differ = sorted(key for key in counts if counts[key] != exact[key])
                checker.problems.append(f"traced counts differ between passes: {differ}")
            layer_times.append(times)
            traced_times.append(elapsed)
        else:
            elapsed, times, outputs = run_pass(workload, ops)
            plain_times.append(elapsed)
            op_times.extend(times)
        measured += elapsed
        attempted += len(outputs)
        failed += checker.failures(labels, outputs)
        outputs = None  # let the next pass start from the program's own memory
        k += 1

    problems = checker.problems + workload.final_checks()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload.per_pass_query:
        latencies = plain_times
    else:
        # every pass repeats the same queries on the same cache state, so a
        # query's latency is its mean over the passes
        n_ops = len(ops)
        latencies = [statistics.fmean(op_times[i::n_ops]) for i in range(n_ops)]
    # the timed phase per pass: a mean, which evens out the minute-long speed
    # swings of a shared host better than the median pass does
    wall_s = sum(plain_times) / len(plain_times)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "bases_per_s": workload.bases_per_pass / wall_s,
        "query_p50_ms": 1e3 * percentile(latencies, 50),
        "query_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": rss_mb,
    }
    result = {
        "workload": name,
        "seed": seed,
        "setups": len(setups),
        "passes": len(plain_times),
        "traced_passes": len(traced_times),
        "query_samples": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": end_to_end,
    }
    if trace:
        per_layer = dict(exact)
        for key in layer_times[0]:
            per_layer[key] = statistics.median(t[key] for t in layer_times)
        per_layer["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
        result["per_layer"] = {key: per_layer[key] for key in tr.LAYER_METRICS}
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{name}.json"
        spans.write_chrome_trace(path)
        result["trace_file"] = str(path.relative_to(HERE.parent))
    return result


def summary_lines(result: dict) -> list[str]:
    r = result
    error_rate = r["failed"] / r["attempted"]
    lines = [
        f"workload {r['workload']}  seed {r['seed']}  set-ups {r['setups']}  "
        f"passes {r['passes']} plain + {r['traced_passes']} traced",
    ]
    for name, value in r["end_to_end"].items():
        lines.append(f"  {name:<14} {value:>14.6g} {END_TO_END[name]}")
    above = r["query_samples"] - int(0.9 * r["query_samples"])
    lines.append(f"  query samples {r['query_samples']} ({above} above p90)")
    lines.append(f"  error_rate {error_rate:.6g} ({r['failed']} of {r['attempted']} ops)")
    for name, value in r.get("per_layer", {}).items():
        lines.append(f"  {name:<28} {value:>14.6g} {tr.LAYER_METRICS[name][0]}")
    if "trace_file" in r:
        lines.append(f"  spans of the first traced pass: {r['trace_file']}")
    for msg in r["problems"]:
        lines.append(f"  PROBLEM {msg}")
    return lines


def result_json(result: dict) -> dict:
    if "per_layer" in result:
        metrics = {
            k: {"value": v, "unit": tr.LAYER_METRICS[k][0]} for k, v in result["per_layer"].items()
        }
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in result["end_to_end"].items()}
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_source()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(result):
        print(line)
    print(json.dumps(result_json(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
