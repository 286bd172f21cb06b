"""Fast self-check of the benchmark: every workload at a tiny size.

    python3 bench/selfcheck.py              # or: python3 -m pytest bench/selfcheck.py

Each workload runs untraced and traced for a fraction of a second; every
named metric must be emitted as a number, and no op may fail.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SECONDS = 0.2


def check_workload(name: str) -> None:
    run.use_source()
    for trace in (False, True):
        result = run.run(name, seed=1, seconds=SECONDS, trace=trace, size=TINY)
        out = run.result_json(result)
        assert out["correct"], result["problems"]
        assert out["failed"] == 0 and out["attempted"] >= 1
        expected = tracer.LAYER_METRICS if trace else run.END_TO_END
        assert set(out["metrics"]) == set(expected)
        for key, metric in out["metrics"].items():
            assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), key
            unit = expected[key][0] if trace else expected[key]
            assert metric["unit"] == unit, key
        if not trace:
            assert all(out["metrics"][k]["value"] > 0 for k in run.END_TO_END)
        lines = run.summary_lines(result)
        assert any(line.strip().startswith("error_rate 0 ") for line in lines)


def test_enumerate_cold():
    check_workload("enumerate-cold")


def test_classify_warm():
    check_workload("classify-warm")


def test_query_mix():
    check_workload("query-mix")


if __name__ == "__main__":
    for workload in WORKLOADS:
        check_workload(workload)
        print(f"{workload}: ok")
