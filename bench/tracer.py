"""Layer tracer that works from outside the package.

The tracer rebinds the module attributes of the package's functions to
counting wrappers, so that nothing under src/ changes.  Every call is
counted under its qualified name ("base.validate").  A span (name, start,
end, parent, op id) is recorded only where a call crosses from one
component into another: the layers are the package's modules, and a few
functions are timed apart from the rest of their layer (the oracle, the
validation checks, candidate generation, rendering and CLI parsing).  A
component's self time is the duration of its spans minus the time their
child spans cover.  Spans stay in memory and are written out at the end of
a run.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("schubert", "base", "degeneration", "ruled", "classify", "cli")

# The component of a call into a layer from outside it; a call from within
# the same layer stays in the caller's component.
DEFAULT_COMPONENT = {
    "schubert": "schubert.kernel",
    "base": "base.core",
    "degeneration": "degeneration",
    "ruled": "ruled",
    "classify": "classify",
    "cli": "cli",
}

# Functions timed apart from the rest of their layer, wherever they are
# called from.
COMPONENT = {
    "schubert.oracle_intersection_number": "schubert.oracle",
    "base.validate": "base.validate",
    "base.require_valid": "base.validate",
    "classify.base_candidates": "classify.candidates",
    "classify._codim_partitions": "classify.candidates",
    "classify.render_table": "classify.render",
    "classify.row_to_dict": "classify.render",
    "classify.AuditReport.render": "classify.render",
    "cli.build_parser": "cli.parse",
    "cli.parse_base": "cli.parse",
    "cli._invariants_dict": "cli.render",
}

# Methods traced besides the module-level functions.
METHODS = (("classify", "AuditReport", "render"),)

# Recursion whose nesting depth is recorded.
DEPTH_KEY = "degeneration._genus"

# Candidate generation, whose result length is counted as classify.candidates.
CANDIDATES_KEY = "classify.base_candidates"

ROOT = "bench"


def component_of(key: str) -> str | None:
    if key.startswith("cli.cmd_"):
        return "cli.render"
    return COMPONENT.get(key)


class Tracer:
    """Counts, spans and per-component self time for one pass.

    `install` rebinds every traced function in every module of the package
    and `remove` restores the originals.  Each op the benchmark runs is a
    root span opened with `begin_op` and closed with `end_op`.
    """

    def __init__(self, modules: dict, package_modules: list, keep_spans: bool):
        self.modules = modules
        self.package_modules = package_modules
        self.keep_spans = keep_spans
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list = []
        self.stack: list = []
        self.depth = 0
        self.max_depth = 0
        self.next_id = 0
        self.op_id = -1
        self.saved: list = []

    # -- ops -------------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.op_id += 1
        self.stack.append([self._new_id(), ROOT, ROOT, 0.0, label, perf_counter()])

    def end_op(self) -> None:
        end = perf_counter()
        sid, comp, _, child, label, start = self.stack.pop()
        self.self_s[comp] += end - start - child
        if self.keep_spans:
            self.spans.append((sid, None, self.op_id, label, comp, start, end))

    def _new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    # -- wrapping --------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn):
        explicit = component_of(key)
        default = DEFAULT_COMPONENT[layer]
        tracer = self
        if key == DEPTH_KEY:
            fn = self._depth_counted(fn)
        if key == CANDIDATES_KEY:
            fn = self._length_counted(fn, "classify.candidates")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[key] += 1
            stack = tracer.stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            comp = explicit or (parent[1] if parent[2] == layer else default)
            if comp == parent[1]:
                return fn(*args, **kwargs)
            frame = [tracer._new_id(), comp, layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[comp] += duration - frame[3]
                parent[3] += duration
                if tracer.keep_spans:
                    tracer.spans.append(
                        (frame[0], parent[0], tracer.op_id, key, comp, start, end)
                    )

        return traced

    def _depth_counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.depth += 1
            if tracer.depth > tracer.max_depth:
                tracer.max_depth = tracer.depth
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.depth -= 1

        return counted

    def _length_counted(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.counts[name] += len(out)
            return out

        return counted

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", layer, obj))
        for mod in self.package_modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.saved.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(self.modules[layer], cls_name, None)
            fn = cls.__dict__.get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                self.saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", layer, fn))

    def remove(self) -> None:
        while self.saved:
            owner, name, obj = self.saved.pop()
            setattr(owner, name, obj)

    # -- output ----------------------------------------------------------

    def write_chrome_trace(self, path) -> None:
        """Write the kept spans in the Chrome trace-event format (one complete
        event per span, times in microseconds from the first span)."""
        t0 = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i, (sid, parent, op, name, comp, start, end) in enumerate(self.spans):
                event = {
                    "name": name,
                    "cat": comp,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": round((start - t0) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "args": {"id": sid, "parent": parent, "op": op},
                }
                fh.write(("," if i else "") + json.dumps(event) + "\n")
            fh.write("]}\n")


def cache_stats(modules: dict) -> dict:
    """(hits, misses, entries) summed over the lru caches of each layer."""
    out = {}
    for layer in LAYERS:
        mod = modules[layer]
        hits = misses = size = 0
        for obj in vars(mod).values():
            info = getattr(obj, "cache_info", None)
            if info is not None and getattr(obj, "__module__", None) == mod.__name__:
                ci = info()
                hits += ci.hits
                misses += ci.misses
                size += ci.currsize
        out[layer] = (hits, misses, size)
    return out


def clear_caches(modules: dict) -> None:
    for mod in modules.values():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                obj.cache_clear()


# name -> unit, better
LAYER_METRICS = {
    "schubert.kernel_calls": ("count", "lower"),
    "schubert.pieri_steps": ("count", "lower"),
    "schubert.kernel_hit_ratio": ("ratio", "higher"),
    "schubert.kernel_s": ("s", "lower"),
    "schubert.cache_entries": ("count", "lower"),
    "schubert.oracle_calls": ("count", "lower"),
    "schubert.oracle_s": ("s", "lower"),
    "base.validate_calls": ("count", "lower"),
    "base.validate_s": ("s", "lower"),
    "base.degree_calls": ("count", "lower"),
    "base.directrix_calls": ("count", "lower"),
    "base.normalize_calls": ("count", "lower"),
    "base.core_s": ("s", "lower"),
    "degeneration.genus_calls": ("count", "lower"),
    "degeneration.nodes": ("count", "lower"),
    "degeneration.max_depth": ("count", "lower"),
    "degeneration.split_calls": ("count", "lower"),
    "degeneration.genus_s": ("s", "lower"),
    "degeneration.cache_entries": ("count", "lower"),
    "ruled.calls": ("count", "lower"),
    "ruled.s": ("s", "lower"),
    "classify.candidates": ("count", "lower"),
    "classify.candidates_s": ("s", "lower"),
    "classify.self_s": ("s", "lower"),
    "classify.render_s": ("s", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.render_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def pass_metrics(tracer: Tracer, before: dict, after: dict) -> tuple[dict, dict]:
    """(counts, times) of one traced pass, keyed by the LAYER_METRICS names.

    Counts are exact and repeat from pass to pass; times are self times in
    seconds.
    """
    c, t = tracer.counts, tracer.self_s
    k_hits = after["schubert"][0] - before["schubert"][0]
    k_misses = after["schubert"][1] - before["schubert"][1]
    counts = {
        "schubert.kernel_calls": c["schubert.intersection_number"],
        "schubert.pieri_steps": c["schubert.pieri_multiply"],
        "schubert.kernel_hit_ratio": k_hits / (k_hits + k_misses) if k_hits + k_misses else 0.0,
        "schubert.cache_entries": after["schubert"][2],
        "schubert.oracle_calls": c["schubert.oracle_intersection_number"],
        "base.validate_calls": c["base.validate"],
        "base.degree_calls": c["base.degree"],
        "base.directrix_calls": c["base.directrix_degree"],
        "base.normalize_calls": c["base.normalize"],
        "degeneration.genus_calls": c["degeneration.genus_by_degeneration"],
        "degeneration.nodes": after["degeneration"][1] - before["degeneration"][1],
        "degeneration.max_depth": tracer.max_depth,
        "degeneration.split_calls": c["degeneration._split_parts"],
        "degeneration.cache_entries": after["degeneration"][2],
        "ruled.calls": sum(v for k, v in c.items() if k.startswith("ruled.")),
        "classify.candidates": c["classify.candidates"],
        "cli.calls": c["cli.main"],
    }
    times = {
        "schubert.kernel_s": t["schubert.kernel"],
        "schubert.oracle_s": t["schubert.oracle"],
        "base.validate_s": t["base.validate"],
        "base.core_s": t["base.core"],
        "degeneration.genus_s": t["degeneration"],
        "ruled.s": t["ruled"],
        "classify.candidates_s": t["classify.candidates"],
        "classify.self_s": t["classify"],
        "classify.render_s": t["classify.render"],
        "cli.parse_s": t["cli.parse"],
        "cli.render_s": t["cli.render"],
        "cli.self_s": t["cli"],
    }
    return counts, times
