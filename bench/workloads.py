"""The benchmark's three workloads, their inputs and their output checks.

A workload is a list of ops, each one call into the package; one pass runs
every op once, and the benchmark repeats passes.  Every output of the first
pass is checked against an independent route or a recorded reference, and
every later pass must reproduce the first pass's outputs exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE.parent / "tests" / "golden"


@dataclass(frozen=True)
class Size:
    enumerate_max_n: int = 16
    classify_max_n: int = 14
    query_n: tuple[int, int] = (20, 40)
    query_parts: tuple[int, int] = (4, 8)
    query_repeats: int = 6


FULL = Size()
TINY = Size(
    enumerate_max_n=8, classify_max_n=8, query_n=(20, 21), query_parts=(4, 6), query_repeats=1
)


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def row_key(b, inv) -> list:
    """Everything the package reports for one base, in a fixed layout."""
    bundle = inv.bundle
    return [
        str(b),
        inv.degree,
        inv.genus,
        inv.ambient,
        inv.e,
        inv.divisor_degree,
        inv.min_directrix_degree,
        inv.decomposable,
        inv.speciality,
        None
        if bundle is None
        else [bundle.kind, bundle.base_genus, bundle.e, bundle.e_divisor_trivial],
    ]


def rows_digest(rows: list) -> str:
    return sha256(json.dumps(rows, separators=(",", ":")))


def table_digest(tables) -> str:
    """Digest of the rows of both classification tables."""
    return rows_digest(
        [row_key(r.base, r.invariants) + [r.min_directrix_count] for t in tables for r in t]
    )


def degree_codims(n: int, dims) -> tuple[int, ...]:
    return tuple(n - 1 - d for d in dims) + (1,)


def oracle_degree(pkg, n: int, dims) -> int:
    return pkg.schubert.oracle_intersection_number(n, degree_codims(n, dims))


def oracle_min_directrix(pkg, n: int, dims) -> int:
    best = None
    for k, dk in enumerate(dims):
        if dk == 0:
            value = 0
        else:
            codims = [n - 1 - d for i, d in enumerate(dims) if i != k] + [n - dk]
            value = pkg.schubert.oracle_intersection_number(n, codims)
        best = value if best is None else min(best, value)
    return best


class Workload:
    """Ops of one pass, plus the checks of their outputs.

    `fresh` workloads empty the package's caches before every pass.
    `canonical(i, out)` reduces op i's output to a value that later passes
    must reproduce, and `verify(i, out, value)` checks the first pass's
    output in full.
    """

    fresh = True
    per_pass_query = False

    def __init__(self, pkg, seed: int, size: Size, reference: dict):
        self.pkg = pkg
        self.size = size
        self.reference = reference

    def fill(self) -> None:
        """Untimed set-up work done before the first pass."""

    def final_checks(self) -> list[str]:
        return []


class EnumerateCold(Workload):
    """Cold enumeration of every base for n = 3..max_n, in a seeded order."""

    per_pass_query = True

    def __init__(self, pkg, seed, size, reference):
        super().__init__(pkg, seed, size, reference)
        self.order = list(range(3, size.enumerate_max_n + 1))
        random.Random(seed).shuffle(self.order)
        self.bases_per_pass = sum(reference["enumerate"][str(n)]["bases"] for n in self.order)

    def ops(self):
        def enumerate_n(n):
            return lambda: self.pkg.classify.enumerate_bases(n)

        return [(f"enumerate_bases({n})", enumerate_n(n)) for n in self.order]

    def canonical(self, i, out):
        return rows_digest([row_key(b, inv) for b, inv in out])

    def verify(self, i, out, digest) -> bool:
        n = self.order[i]
        ref = self.reference["enumerate"][str(n)]
        if digest != ref["sha256"] or len(out) != ref["bases"]:
            return False
        return all(inv.degree == oracle_degree(self.pkg, n, b.dims) for b, inv in out)


class ClassifyWarm(Workload):
    """Replay of the audit, both tables and their renderings on warm caches."""

    fresh = False

    def __init__(self, pkg, seed, size, reference):
        super().__init__(pkg, seed, size, reference)
        self.max_n = size.classify_max_n
        self.ref = reference["classify"][str(self.max_n)]
        self.bases_per_pass = 2 * self.ref["bases_checked"]
        self.state = {}

    def fill(self):
        for _, op in self.ops():
            op()

    def ops(self):
        s, n = self.state, self.max_n

        def audit():
            s["report"] = self.pkg.classify.audit(n)
            return s["report"]

        def tables():
            s["tables"] = self.pkg.classify.build_tables(n)
            return s["tables"]

        return [
            ("audit", audit),
            ("build_tables", tables),
            ("render_table(0)", lambda: self.pkg.classify.render_table(s["tables"][0], 0, n)),
            ("render_table(1)", lambda: self.pkg.classify.render_table(s["tables"][1], 1, n)),
            ("AuditReport.render", lambda: s["report"].render()),
        ]

    def canonical(self, i, out):
        if i == 0:
            return [out.bases_checked, len(out.violations), out.rational_rows, out.elliptic_rows]
        if i == 1:
            return table_digest(out)
        return sha256(out)

    def verify(self, i, out, value) -> bool:
        ref = self.ref
        if i == 0:
            return value == [ref["bases_checked"], 0, ref["rational_rows"], ref["elliptic_rows"]]
        if i == 1:
            rational, elliptic = out
            return value == ref["rows_sha256"] and all(
                r.invariants.degree == oracle_degree(self.pkg, r.base.ambient, r.base.dims)
                for r in rational + elliptic
            )
        key = ("table_rational_sha256", "table_elliptic_sha256", "audit_sha256")[i - 2]
        return value == ref[key]

    def final_checks(self):
        """The tables at max_n = 8 must equal the committed goldens byte for byte."""
        c = self.pkg.classify
        rational, elliptic = c.build_tables(8)
        problems = []
        for rows, genus, name in ((rational, 0, "rational"), (elliptic, 1, "elliptic")):
            golden = (GOLDEN / f"table_{name}.txt").read_text(encoding="utf-8")
            if c.render_table(rows, genus, 8) != golden:
                problems.append(f"table_{name} at max_n = 8 differs from tests/golden")
            if sha256(golden) != self.reference["classify"]["8"][f"table_{name}_sha256"]:
                problems.append(f"tests/golden/table_{name}.txt differs from the reference")
        return problems


# fixed shares of one query-mix pass
DEGREE_SHARE = 0.15
JOIN_SHARE = 0.15
INVALID_SHARE = 0.10


def random_codims(rng: random.Random, n: int, parts: int) -> list[int]:
    """Codimensions, largest first, of a random valid base in P^n with the
    given number of spaces: they sum to 2n - 3, none exceeds n - 2 (no
    hyperplane) and the two largest sum to at most n - 1 (no degenerate
    pair).  Each part is drawn uniformly from the values that still leave
    the rest feasible."""
    total = 2 * n - 3
    firsts = [
        a
        for a in range(1, n - 1)
        if parts - 1 <= total - a <= (parts - 1) * min(a, n - 1 - a)
    ]
    first = rng.choice(firsts)
    codims = [first]
    cap, left = min(first, n - 1 - first), total - first
    for k in range(parts - 1, 0, -1):
        part = rng.randint(-(-left // k), min(cap, left - k + 1))
        codims.append(part)
        cap, left = part, left - part
    return codims


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    n: int
    dims: tuple[int, ...]
    valid: bool


def query_inputs(seed: int, size: Size) -> list[Query]:
    """One pass of query-mix: every (n, parts) cell `query_repeats` times, in
    a seeded order, each time with a fresh random valid base.

    Fixed shares of the pass become `degree` and `join` queries, the rest
    `invariants --json`, and a fixed share is made invalid by adding a
    hyperplane or shrinking the smallest space into a degenerate pair.
    """
    rng = random.Random(seed)
    n_lo, n_hi = size.query_n
    p_lo, p_hi = size.query_parts
    cells = [(n, p) for n in range(n_lo, n_hi + 1) for p in range(p_lo, p_hi + 1)]
    cells *= size.query_repeats
    rng.shuffle(cells)
    k = len(cells)
    n_degree = max(1, round(k * DEGREE_SHARE))
    n_join = max(1, round(k * JOIN_SHARE))
    commands = ["degree"] * n_degree + ["join"] * n_join
    commands += ["invariants"] * (k - len(commands))
    rng.shuffle(commands)
    n_invalid = max(2, round(k * INVALID_SHARE))
    invalid = [i < n_invalid for i in range(k)]
    rng.shuffle(invalid)
    queries = []
    hyperplane = True
    for (n, parts), command, bad in zip(cells, commands, invalid):
        dims = sorted(n - 1 - c for c in random_codims(rng, n, parts))
        if bad:
            if hyperplane:
                dims = dims + [n - 1]
            else:
                dims[0] = n - 2 - dims[1]
            hyperplane = not hyperplane
        dims.sort()
        text = f"{n}:{','.join(str(d) for d in dims)}"
        argv = {
            "invariants": ("invariants", text, "--json"),
            "degree": ("degree", text),
            "join": ("join", text, "-i", "0", "-j", "1"),
        }[command]
        queries.append(Query(argv, n, tuple(dims), not bad))
    return queries


JOIN_DEGREE = re.compile(r"degree (\d+) \+ (\d+) = (\d+), genus .* = (-?\d+)$", re.M)


class QueryMix(Workload):
    """Seeded CLI point queries at large n; the caches last for one pass, as
    they do for one `invariants @FILE` process."""

    def __init__(self, pkg, seed, size, reference):
        super().__init__(pkg, seed, size, reference)
        self.queries = query_inputs(seed, size)
        self.bases_per_pass = len(self.queries)

    def ops(self):
        def call(argv):
            def run():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.pkg.cli.main(list(argv))
                return rc, out.getvalue(), err.getvalue()

            return run

        return [(" ".join(q.argv), call(q.argv)) for q in self.queries]

    def canonical(self, i, out):
        return out

    def verify(self, i, result, value) -> bool:
        q = self.queries[i]
        rc, out, err = result
        if not q.valid:
            return rc == 1 and out == "" and err.startswith("error:")
        if rc != 0 or err:
            return False
        deg = oracle_degree(self.pkg, q.n, q.dims)
        command = q.argv[0]
        if command == "degree":
            return out == f"{q.n}:{','.join(map(str, q.dims))}  degree = {deg}\n"
        if command == "join":
            m = JOIN_DEGREE.search(out)
            return bool(m) and int(m[1]) + int(m[2]) == int(m[3]) == deg and int(m[4]) >= 0
        rec = json.loads(out)
        min_dir = oracle_min_directrix(self.pkg, q.n, q.dims)
        e = deg - 2 * min_dir
        speciality = q.n - 1 - deg + 2 * rec["genus"]
        return (
            rec["ambient"] == q.n
            and tuple(rec["dims"]) == q.dims
            and rec["degree"] == deg
            and rec["min_directrix_degree"] == min_dir
            and rec["e"] == e
            and rec["m"] == (deg + e) // 2
            and rec["genus"] >= 0
            and rec["speciality"] == speciality >= 0
            and (rec["genus"] > 1 or speciality == 0)
        )


WORKLOADS = {
    "enumerate-cold": EnumerateCold,
    "classify-warm": ClassifyWarm,
    "query-mix": QueryMix,
}
