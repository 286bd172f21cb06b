"""Exhaustive enumeration of incidence bases and the classification tables.

For each ambient dimension the finitely many hyperplane-free nondegenerate
bases satisfying the curve condition are enumerated, measured, and filtered
into the rational and elliptic tables.  The audit replays the classification
theorems against the enumeration and reports anything out of place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .base import IncidenceBase, ScrollInvariants, _invariants_dict
from .degeneration import _genus, _scroll_invariants
from .ruled import (
    incidence_clause,
    is_incidence,
    min_directrix_count,
    predicted_base,
    very_ample,
)
from .schubert import _k_read_off, _k_step, oracle_intersection_number

# the largest ambient dimension enumerate, table and audit accept: the number
# of candidate bases, and the time, grow about 1.6x per step in n
MAX_ENUMERATION_N = 20


def _check_n(n: int) -> None:
    if n < 3:
        raise ValueError("enumeration starts at ambient dimension 3")
    _check_max_n(n)


def _check_max_n(n: int) -> None:
    if n > MAX_ENUMERATION_N:
        raise ValueError(
            f"enumeration is limited to ambient dimension {MAX_ENUMERATION_N}, got {n}"
        )


def base_candidates(n: int) -> list[IncidenceBase]:
    """All dimension multisets in P^n passing validation, in lexicographic
    order."""
    _check_n(n)
    return [IncidenceBase(n, dims) for dims, *_ in _degree_genus_rows(n)]


@lru_cache(maxsize=None)
def _degree_genus_rows(n: int) -> tuple[tuple[tuple[int, ...], int, int, int], ...]:
    """(dims, degree, genus, minimum directrix degree) of every valid base in
    P^n, in lexicographic order.

    A depth-first walk picks codimensions in ascending order, each at least
    1 (no hyperplane).  Every pick but the last is at most (n - 1) // 2, the
    bound on the second largest codimension of a nondegenerate base, and
    leaves a budget no smaller than itself; the last pick spends the rest of
    the 2n - 3 (the curve condition) and makes a nondegenerate pair with the
    one before it.  The walk carries the K-theoretic class (v0, v1) of each
    prefix, so a product over the codimensions is shared by every base below
    it, and a base's own last factor, its largest codimension, is read off,
    not multiplied.  Ascending order puts the long runs of small
    codimensions, which many bases share, at the root: for n = 3..16 the
    walk takes 10,775 K steps, where picking in descending order takes
    33,580.
    """
    rows = []

    def walk(codims: tuple[int, ...], lo: int, budget: int, v0: list, v1: list) -> None:
        t = 2 * n - 3 - budget
        for c in range(lo, min((n - 1) // 2, budget // 2) + 1):
            walk(codims + (c,), c, budget - c, *_k_step(v0, v1, t, n, c))
        if codims and lo <= budget <= n - 1 - codims[-1]:
            dims = tuple(n - 1 - c for c in (budget, *reversed(codims)))
            rows.append((dims, *_k_read_off(n, v0, v1, budget)))

    walk((), 1, 2 * n - 3, [1], [0])
    rows.sort()
    return tuple(rows)


def enumerate_bases(n: int) -> list[tuple[IncidenceBase, ScrollInvariants]]:
    """Every valid base in P^n paired with its measured invariants.

    The genus comes from the K-theoretic Pieri pass, which assumes no
    nonspeciality, so bases whose scrolls are special are reported with
    their true genus and a nonzero speciality instead of failing.  The walk
    builds only valid bases, so none is validated again: every codimension
    is at least 1 (no hyperplane), they sum to 2n - 3 (the curve
    condition), and the two largest sum to at most n - 1, so the tightest
    pair, and with it every pair, is nondegenerate.
    """
    _check_n(n)
    out = []
    for dims, d, g, min_dir in _degree_genus_rows(n):
        b = IncidenceBase(n, dims)
        out.append((b, _scroll_invariants(b, d, g, min_dir)))
    return out


def _enumerated(max_n: int):
    """Every (base, invariants) pair for 3 <= n <= max_n, in order of n; the
    range is checked here, before any base is measured."""
    if max_n < 3:
        raise ValueError("need max_n >= 3")
    _check_max_n(max_n)
    return (pair for n in range(3, max_n + 1) for pair in enumerate_bases(n))


@dataclass(frozen=True)
class TableRow:
    """One classification-table entry."""

    base: IncidenceBase
    invariants: ScrollInvariants
    min_directrix_count: int | None  # None renders as the infinite family

    @property
    def min_directrix_span(self) -> int:
        return self.invariants.min_directrix_degree - self.invariants.genus

    def scroll_label(self) -> str:
        inv = self.invariants
        return f"R^{inv.degree}_{inv.genus} in P^{inv.ambient}"

    def min_directrix_label(self) -> str:
        inv = self.invariants
        if inv.min_directrix_degree == 1 and inv.genus == 0:
            return "P^1"
        return f"C^{inv.min_directrix_degree}_{inv.genus} in P^{self.min_directrix_span}"

    def count_label(self) -> str:
        return "inf^1" if self.min_directrix_count is None else str(self.min_directrix_count)


def build_tables(max_n: int = 8) -> tuple[list[TableRow], list[TableRow]]:
    """(rational rows, elliptic rows) for ambient dimensions 3..max_n."""
    rational: list[TableRow] = []
    elliptic: list[TableRow] = []
    for b, inv in _enumerated(max_n):
        if inv.genus > 1:
            continue
        row = TableRow(b, inv, min_directrix_count(inv.bundle))
        (rational if inv.genus == 0 else elliptic).append(row)
    return rational, elliptic


def render_table(rows: list[TableRow], genus: int, max_n: int) -> str:
    kind = "RATIONAL" if genus == 0 else "ELLIPTIC"
    lines = [f"INCIDENCE {kind} SCROLLS (n <= {max_n})", ""]
    if genus == 0:
        header = ["Scroll", "Base", "Min. Dir. (*)", "Normalized", "deg(b)"]
    else:
        header = ["Scroll", "Base", "Min. Dir.", "Normalized", "deg(b)"]
    table = [header]
    for row in rows:
        inv = row.invariants
        mindir = row.min_directrix_label()
        if genus == 0:
            mindir += f" ({row.count_label()})"
        bundle = inv.bundle.describe() if inv.bundle is not None else "?"
        table.append(
            [
                row.scroll_label(),
                row.base.spaces_str(),
                mindir,
                bundle,
                str(inv.divisor_degree),
            ]
        )
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    for r in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    if genus == 0:
        lines.append("")
        lines.append("(*) number of minimum directrix curves")
    return "\n".join(lines) + "\n"


def row_to_dict(row: TableRow) -> dict:
    rec = _invariants_dict(row.base, row.invariants)
    return {
        **{k: rec[k] for k in ("ambient", "dims", "degree", "genus", "e", "m")},
        "min_directrix": {
            "degree": rec["min_directrix_degree"],
            "ambient": row.min_directrix_span,
            "count": "inf^1" if row.min_directrix_count is None else row.min_directrix_count,
        },
        "bundle": rec["bundle"],
    }


@dataclass
class AuditReport:
    """Replay of the classification against the full enumeration.

    The violation lists cover the classified range (genus <= 1): theorem
    clause membership, predicted bases, uniqueness of (d, g, n, e), no
    indecomposable e = 0 elliptic base, and the oracle's recount of the
    minimum directrix degree.  Every base also has its degree recounted by
    the oracle and its genus recounted by the degeneration recursion.  Bases
    whose scrolls fail the nonspecial genus formula are listed separately;
    they are a property of the geometry, not a classification violation.
    """

    max_n: int
    bases_checked: int = 0
    rational_rows: int = 0
    elliptic_rows: int = 0
    clause_failures: list = field(default_factory=list)
    predicted_base_mismatches: list = field(default_factory=list)
    uniqueness_collisions: list = field(default_factory=list)
    indecomposable_e0: list = field(default_factory=list)
    oracle_mismatches: list = field(default_factory=list)
    directrix_oracle_mismatches: list = field(default_factory=list)
    genus_check_mismatches: list = field(default_factory=list)
    speciality_exceptions: list = field(default_factory=list)

    @property
    def violations(self) -> list:
        return (
            self.clause_failures
            + self.predicted_base_mismatches
            + self.uniqueness_collisions
            + self.indecomposable_e0
            + self.oracle_mismatches
            + self.directrix_oracle_mismatches
            + self.genus_check_mismatches
        )

    def render(self) -> str:
        lines = [
            f"audit of all incidence bases with 3 <= n <= {self.max_n}",
            f"  bases checked: {self.bases_checked}",
            f"  rational rows (genus 0): {self.rational_rows}",
            f"  elliptic rows (genus 1): {self.elliptic_rows}",
            f"  violations: {len(self.violations)}",
        ]
        for msg in self.violations:
            lines.append(f"    VIOLATION {msg}")
        lines.append(
            f"  special scrolls (genus formula inapplicable): {len(self.speciality_exceptions)}"
        )
        # the trailing newline rides on the last part so that the text is
        # allocated once: a second full-size copy made the render time jumpy
        parts = ["\n".join(lines), *self.speciality_exceptions]
        parts[-1] += "\n"
        return "\n    ".join(parts)


def audit(max_n: int = 8) -> AuditReport:
    """Check every enumerated base with genus <= 1 against the classification
    and recount the degree and the genus of all of them by independent
    routes."""
    report = AuditReport(max_n=max_n)
    seen_keys: dict[tuple[int, int, int, int], IncidenceBase] = {}
    for b, inv in _enumerated(max_n):
        report.bases_checked += 1
        n, codims = b.ambient, b.codims()
        if inv.degree != oracle_intersection_number(n, codims + (1,)):
            report.oracle_mismatches.append(f"{b}: Pieri and bialternant degrees differ")
        check = _genus(n, b.dims)
        if inv.genus != check:
            report.genus_check_mismatches.append(
                f"{b}: K-theoretic genus {inv.genus}, degeneration gives {check}"
            )
        if inv.speciality != 0:
            report.speciality_exceptions.append(
                f"{b}: degree={inv.degree} genus={inv.genus} "
                f"speciality={inv.speciality}"
            )
        if inv.genus > 1:
            continue
        if inv.genus == 0:
            report.rational_rows += 1
        else:
            report.elliptic_rows += 1
        # the oracle recounts each directrix; a point base space traces none
        oracle_min_dir = min(
            oracle_intersection_number(n, codims[:k] + (c + 1,) + codims[k + 1 :])
            if c < n - 1 else 0
            for k, c in enumerate(codims)
        )
        if inv.min_directrix_degree != oracle_min_dir:
            report.directrix_oracle_mismatches.append(
                f"{b}: minimum directrix degree {inv.min_directrix_degree}, "
                f"bialternant gives {oracle_min_dir}"
            )
        model = inv.bundle
        if inv.genus == 1 and not inv.decomposable and inv.e == 0:
            report.indecomposable_e0.append(f"{b}: indecomposable elliptic with e = 0")
        if not very_ample(model):
            report.clause_failures.append(f"{b}: model {model} not very ample")
            continue
        clause = incidence_clause(model)
        if clause is None or not is_incidence(model):
            report.clause_failures.append(
                f"{b}: (g, e, m) = ({inv.genus}, {inv.e}, {inv.divisor_degree}) "
                f"matches no classification clause"
            )
            continue
        predicted = predicted_base(model)
        if predicted != b:
            report.predicted_base_mismatches.append(
                f"{b}: clause '{clause}' predicts {predicted}"
            )
        key = (inv.degree, inv.genus, inv.ambient, inv.e)
        if key in seen_keys:
            report.uniqueness_collisions.append(
                f"{b} and {seen_keys[key]} share (d, g, n, e) = {key}"
            )
        else:
            seen_keys[key] = b
    return report
