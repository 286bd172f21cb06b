"""Enumeration, classification tables, and the audit."""

import dataclasses
import itertools
from pathlib import Path

import pytest

from incidence_scrolls import classify
from incidence_scrolls.base import IncidenceBase
from incidence_scrolls.classify import (
    audit,
    base_candidates,
    build_tables,
    enumerate_bases,
    render_table,
    row_to_dict,
)

GOLDEN = Path(__file__).parent / "golden"

RATIONAL_ROWS = [
    # (ambient, dims, degree, e, m, min directrix degree, count or None)
    (3, (1, 1, 1), 2, 0, 1, 1, None),
    (4, (1, 2, 2, 2), 3, 1, 2, 1, 1),
    (5, (1, 3, 3, 3, 3), 4, 2, 3, 1, 1),
    (5, (2, 2, 2, 3), 4, 0, 2, 2, None),
    (6, (1, 4, 4, 4, 4, 4), 5, 3, 4, 1, 1),
    (6, (2, 3, 3, 3), 5, 1, 3, 2, 1),
    (7, (1, 5, 5, 5, 5, 5, 5), 6, 4, 5, 1, 1),
    (7, (3, 3, 3, 4), 6, 0, 3, 3, None),
    (8, (1, 6, 6, 6, 6, 6, 6, 6), 7, 5, 6, 1, 1),
    (8, (3, 4, 4, 4), 7, 1, 4, 3, 1),
]

ELLIPTIC_ROWS = [
    (4, (2, 2, 2, 2, 2), 5, -1, 2, 3, None),
    (5, (2, 2, 3, 3, 3), 6, 0, 3, 3, 2),
    (6, (2, 3, 3, 4, 4), 7, 1, 4, 3, 1),
    (7, (2, 4, 4, 4, 5), 8, 2, 5, 3, 1),
    (7, (3, 3, 3, 5, 5), 8, 0, 4, 4, None),
    (8, (2, 5, 5, 5, 5), 9, 3, 6, 3, 1),
]


def test_base_candidates_small():
    assert [b.dims for b in base_candidates(3)] == [(1, 1, 1)]
    assert [b.dims for b in base_candidates(4)] == [(1, 2, 2, 2), (2, 2, 2, 2, 2)]
    got = [b.dims for b in base_candidates(5)]
    assert got == [
        (1, 3, 3, 3, 3),
        (2, 2, 2, 3),
        (2, 2, 3, 3, 3),
        (2, 3, 3, 3, 3, 3),
        (3, 3, 3, 3, 3, 3, 3),
    ]


def test_candidates_all_valid_and_sorted():
    # and complete: a brute force over every multiset of dims with the right
    # codimension sum, kept if valid and sorted, gives the same list;
    # hyperplanes (dim n - 1) impose no condition and are never valid, so
    # they are left out and every space spends at least one codimension
    from incidence_scrolls.base import validate

    for n in range(3, 10):
        brute = sorted(
            dims
            for r in range(1, 2 * n - 2)
            for dims in itertools.combinations_with_replacement(range(n - 1), r)
            if sum(n - 1 - d for d in dims) == 2 * n - 3
            and validate(IncidenceBase(n, dims)).all_ok
        )
        assert [b.dims for b in base_candidates(n)] == brute


# number of candidate bases for n = 3, 4, ..., MAX_ENUMERATION_N
CANDIDATE_COUNTS = [
    1, 2, 5, 10, 21, 39, 74, 129, 229, 381, 641, 1030, 1662, 2588, 4043, 6136, 9322, 13845,
]


def test_candidate_counts():
    ns = range(3, classify.MAX_ENUMERATION_N + 1)
    assert [len(base_candidates(n)) for n in ns] == CANDIDATE_COUNTS


def test_enumerate_includes_high_genus():
    rows = {b.dims: inv for b, inv in enumerate_bases(5)}
    inv = rows[(3, 3, 3, 3, 3, 3, 3)]
    assert (inv.degree, inv.genus, inv.speciality) == (14, 8, 6)


def _rows_key(rows):
    return [
        (
            r.base.ambient,
            r.base.dims,
            r.invariants.degree,
            r.invariants.e,
            r.invariants.divisor_degree,
            r.invariants.min_directrix_degree,
            r.min_directrix_count,
        )
        for r in rows
    ]


def test_tables_match_expected_rows():
    rational, elliptic = build_tables(8)
    assert _rows_key(rational) == RATIONAL_ROWS
    assert _rows_key(elliptic) == ELLIPTIC_ROWS
    assert all(r.invariants.genus == 0 for r in rational)
    assert all(r.invariants.genus == 1 for r in elliptic)
    assert all(r.invariants.speciality == 0 for r in rational + elliptic)


def test_tables_match_golden_files():
    rational, elliptic = build_tables(8)
    assert render_table(rational, 0, 8) == (GOLDEN / "table_rational.txt").read_text()
    assert render_table(elliptic, 1, 8) == (GOLDEN / "table_elliptic.txt").read_text()


def test_row_json_contract():
    rational, elliptic = build_tables(4)
    row = row_to_dict(elliptic[0])
    assert row == {
        "ambient": 4,
        "dims": [2, 2, 2, 2, 2],
        "degree": 5,
        "genus": 1,
        "e": -1,
        "m": 2,
        "min_directrix": {"degree": 3, "ambient": 2, "count": "inf^1"},
        "bundle": {"kind": "indecomposable", "base_genus": 1, "e": -1, "e_trivial": False},
    }
    row0 = row_to_dict(rational[0])
    assert row0["min_directrix"] == {"degree": 1, "ambient": 1, "count": "inf^1"}
    assert row0["bundle"] == {
        "kind": "decomposable",
        "base_genus": 0,
        "e": 0,
        "e_trivial": False,
    }


def test_audit_classified_range_is_clean():
    report = audit(8)
    assert report.violations == []
    assert report.rational_rows == 10
    assert report.elliptic_rows == 6
    assert report.indecomposable_e0 == []
    assert report.oracle_mismatches == []
    assert report.directrix_oracle_mismatches == []
    assert report.genus_check_mismatches == []


def test_audit_rejects_empty_range():
    with pytest.raises(ValueError, match="need max_n >= 3"):
        audit(2)


def test_lower_bound_messages():
    with pytest.raises(ValueError, match="^enumeration starts at ambient dimension 3$"):
        base_candidates(2)
    with pytest.raises(ValueError, match="^need max_n >= 3$"):
        build_tables(2)


@pytest.mark.parametrize("entry", [base_candidates, build_tables, audit])
def test_enumeration_limit_fails_before_any_work(entry, monkeypatch):
    # n = MAX_ENUMERATION_N itself is accepted; the gate runs before any base
    calls = []
    monkeypatch.setattr(classify, "_scroll_invariants", lambda b, d, g: calls.append(b))
    monkeypatch.setattr(classify, "IncidenceBase", lambda n, dims: calls.append((n, dims)))
    limit = classify.MAX_ENUMERATION_N
    message = f"limited to ambient dimension {limit}, got {limit + 1}$"
    with pytest.raises(ValueError, match=message):
        entry(limit + 1)
    assert calls == []
    assert len(base_candidates(limit)) == len(calls) == CANDIDATE_COUNTS[-1]
    assert calls[0] == (limit, (1,) + (limit - 2,) * (limit - 1))


def test_audit_recounts_min_directrix_degree_by_oracle(monkeypatch):
    # a wrong minimum directrix degree on one classified row is a violation
    real = classify._scroll_invariants
    bad = IncidenceBase(4, (1, 2, 2, 2))

    def skewed(b, d, g):
        inv = real(b, d, g)
        if b == bad:
            return dataclasses.replace(inv, min_directrix_degree=inv.min_directrix_degree + 1)
        return inv

    monkeypatch.setattr(classify, "_scroll_invariants", skewed)
    report = audit(4)
    assert report.directrix_oracle_mismatches == [
        "4:1,2,2,2: minimum directrix degree 2, bialternant gives 1"
    ]
    assert report.violations == report.directrix_oracle_mismatches
    assert "    VIOLATION 4:1,2,2,2: minimum directrix degree 2" in report.render()


def test_audit_recounts_genus_by_degeneration(monkeypatch):
    # a wrong K-theoretic genus on one base, here one above the classified
    # range, is a violation of its own
    real = classify._scroll_invariants
    bad = IncidenceBase(5, (3, 3, 3, 3, 3, 3, 3))

    def skewed(b, d, g):
        inv = real(b, d, g)
        return dataclasses.replace(inv, genus=inv.genus + 1) if b == bad else inv

    monkeypatch.setattr(classify, "_scroll_invariants", skewed)
    report = audit(5)
    assert report.genus_check_mismatches == [
        "5:3,3,3,3,3,3,3: K-theoretic genus 9, degeneration gives 8"
    ]
    assert report.violations == report.genus_check_mismatches
    assert "    VIOLATION 5:3,3,3,3,3,3,3: K-theoretic genus 9" in report.render()
    assert audit(4).violations == []


def test_audit_reports_special_scrolls_honestly():
    report = audit(5)
    assert len(report.speciality_exceptions) == 2
    assert report.speciality_exceptions[0].startswith("5:2,3,3,3,3,3")
    assert report.speciality_exceptions[1].startswith("5:3,3,3,3,3,3,3")


def test_audit_render_lists_special_scrolls_one_per_line():
    report = audit(5)
    assert report.render().split("\n")[-4:] == [
        "  special scrolls (genus formula inapplicable): 2",
        *("    " + msg for msg in report.speciality_exceptions),
        "",
    ]
    assert audit(4).render().endswith("violations: 0\n  special scrolls (genus formula inapplicable): 0\n")


def test_theorem_predicted_base_appears():
    # the (g, e, m) = (0, 1, 3) scroll must be enumerated with its base
    bases = {b.dims: inv for b, inv in enumerate_bases(6)}
    inv = bases[(2, 3, 3, 3)]
    assert (inv.genus, inv.e, inv.divisor_degree) == (0, 1, 3)
