"""Write bench/reference.json: the digests the benchmark checks outputs against.

    python3 bench/record_reference.py

Run it only on a commit whose outputs are known to be right; the committed
file was recorded from the initial engine, whose tables match tests/golden.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from incidence_scrolls import classify  # noqa: E402
from workloads import FULL, GOLDEN, row_key, rows_digest, sha256, table_digest  # noqa: E402


def classify_reference(max_n: int) -> dict:
    report = classify.audit(max_n)
    rational, elliptic = classify.build_tables(max_n)
    return {
        "bases_checked": report.bases_checked,
        "rational_rows": report.rational_rows,
        "elliptic_rows": report.elliptic_rows,
        "rows_sha256": table_digest((rational, elliptic)),
        "table_rational_sha256": sha256(classify.render_table(rational, 0, max_n)),
        "table_elliptic_sha256": sha256(classify.render_table(elliptic, 1, max_n)),
        "audit_sha256": sha256(report.render()),
    }


def main() -> None:
    reference = {"enumerate": {}, "classify": {}}
    for n in range(3, FULL.enumerate_max_n + 1):
        out = classify.enumerate_bases(n)
        reference["enumerate"][str(n)] = {
            "bases": len(out),
            "sha256": rows_digest([row_key(b, inv) for b, inv in out]),
        }
    for max_n in sorted({8, FULL.classify_max_n}):
        reference["classify"][str(max_n)] = classify_reference(max_n)
    golden8 = reference["classify"]["8"]
    for name in ("rational", "elliptic"):
        text = (GOLDEN / f"table_{name}.txt").read_text(encoding="utf-8")
        if sha256(text) != golden8[f"table_{name}_sha256"]:
            raise SystemExit(f"the {name} table at max_n = 8 differs from tests/golden")
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
