"""The benchmark harness still runs against the package in src/."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from incidence_scrolls.classify import enumerate_bases

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_enumeration_matches_reference_digests(monkeypatch):
    # the recorded rows of every base for n <= 14, beyond selfcheck's n <= 8
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # registered before it runs: its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    reference = workloads.load_reference()["enumerate"]
    for n in range(3, 15):
        rows = [workloads.row_key(b, inv) for b, inv in enumerate_bases(n)]
        assert len(rows) == reference[str(n)]["bases"], n
        assert workloads.rows_digest(rows) == reference[str(n)]["sha256"], n
