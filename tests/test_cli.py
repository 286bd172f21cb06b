"""Command-line interface behavior and exit codes."""

import json
from pathlib import Path

import pytest

from incidence_scrolls import classify, cli
from incidence_scrolls.cli import main, parse_base, CLIParseError
from incidence_scrolls.base import IncidenceBase

GOLDEN = Path(__file__).parent / "golden"


def test_parse_base_formats():
    assert parse_base("4:2,2,2,2,2") == IncidenceBase(4, (2, 2, 2, 2, 2))
    assert parse_base('{"ambient": 4, "dims": [2, 2, 2, 2, 2]}') == IncidenceBase(
        4, (2, 2, 2, 2, 2)
    )
    with pytest.raises(CLIParseError):
        parse_base("4:2,x")
    with pytest.raises(CLIParseError):
        parse_base("nonsense")


def test_validate_ok(capsys):
    assert main(["validate", "4:2,2,2,2,2"]) == 0
    assert "valid incidence base" in capsys.readouterr().out


def test_validate_invalid_reports_reduction(capsys):
    assert main(["validate", "6:2,2,3,4,5"]) == 1
    out = capsys.readouterr().out
    assert "reduces to 5:2,2,2,3" in out


def test_degree_and_genus(capsys):
    assert main(["degree", "4:2,2,2,2,2"]) == 0
    assert "degree = 5" in capsys.readouterr().out
    assert main(["genus", "4:2,2,2,2,2"]) == 0
    out = capsys.readouterr().out
    assert "by degeneration = 1" in out and "by formula = 1" in out
    assert "special" not in out


def test_genus_on_special_base(capsys):
    assert main(["genus", "5:2,3,3,3,3,3"]) == 0
    out = capsys.readouterr().out
    assert "by degeneration = 3" in out
    assert "inapplicable" in out
    assert "scroll is special: speciality i = 1" in out


def test_invariants_json(capsys):
    assert main(["invariants", "6:2,3,3,4,4", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["degree"] == 7 and rec["genus"] == 1 and rec["e"] == 1
    assert rec["bundle"]["kind"] == "decomposable"


def test_join_command(capsys):
    assert main(["join", "4:2,2,2,2,2", "-i", "0", "-j", "1"]) == 0
    out = capsys.readouterr().out
    assert "kappa = 2" in out
    assert "(d1, g1) = (3, 0)" in out


def test_separate_command(capsys):
    assert main(["separate", "3:1,1,1", "-i", "0", "--add-hyperplane"]) == 0
    out = capsys.readouterr().out
    assert "4:1,2,2,2" in out
    assert main(["separate", "4:1,2,2,2", "-i", "0", "-j", "1"]) == 1  # 1 + 2 != 4


def test_schubert_command(capsys):
    assert main(["schubert", "-n", "4", "-c", "1,1,1,1,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["schubert", "-n", "4", "-c", "1,1"]) == 1  # dimension mismatch


def test_surface_command(capsys):
    assert main(["surface", "-g", "0", "-e", "2", "-m", "4"]) == 0
    out = capsys.readouterr().out
    assert "not an incidence scroll" in out
    assert main(["surface", "-g", "1", "-e", "0", "-m", "4", "--e-trivial"]) == 0
    out = capsys.readouterr().out
    assert "7:3,3,3,5,5" in out


def test_enumerate_command(capsys):
    assert main(["enumerate", "-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "4:1,2,2,2" in out and "4:2,2,2,2,2" in out


def test_enumerate_json_golden(capsys):
    assert main(["enumerate", "-n", "6", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "enumerate_6.json").read_text()


def test_enumerate_measures_each_base_once(monkeypatch, capsys):
    calls = []
    real = classify.verified_invariants

    def counting(b):
        calls.append(b)
        return real(b)

    monkeypatch.setattr(classify, "verified_invariants", counting)
    monkeypatch.setattr(cli, "verified_invariants", counting)
    assert main(["enumerate", "-n", "6"]) == 0
    assert calls == classify.base_candidates(6)


def test_table_golden_via_cli(tmp_path, capsys):
    out_file = tmp_path / "t1.txt"
    assert main(["table", "--genus", "0", "--max-n", "8", "--out", str(out_file)]) == 0
    assert out_file.read_text() == (GOLDEN / "table_rational.txt").read_text()
    assert main(["table", "--genus", "1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "table_elliptic.txt").read_text()


def test_table_json(capsys):
    assert main(["table", "--genus", "1", "--max-n", "4", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1 and rows[0]["dims"] == [2, 2, 2, 2, 2]


def test_audit_command(capsys):
    assert main(["audit", "--max-n", "6"]) == 0
    out = capsys.readouterr().out
    assert "violations: 0" in out


def test_audit_golden(capsys):
    assert main(["audit", "--max-n", "8"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "audit_8.txt").read_text()


def test_audit_rejects_empty_range(capsys):
    assert main(["audit", "--max-n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need max_n >= 3\n"


def test_parse_error_exit_code(capsys):
    assert main(["degree", "bogus"]) == 2
    assert main(["schubert", "-n", "4", "-c", "1,x"]) == 2
    assert main(["no-such-command"]) == 2


def test_unrealizable_base_exit_code(capsys):
    assert main(["validate", "5:0,1,3,3"]) == 1
    assert "unrealizable" in capsys.readouterr().out


def test_base_list_file(tmp_path, capsys):
    listing = tmp_path / "bases.txt"
    listing.write_text("# rational rows\n3:1,1,1\n4:1,2,2,2\n\n")
    assert main(["degree", f"@{listing}"]) == 0
    out = capsys.readouterr().out
    assert "degree = 2" in out and "degree = 3" in out


def test_base_list_parse_error_names_the_line(tmp_path, capsys):
    listing = tmp_path / "bases.txt"
    listing.write_text("4:2,2,2,2,2\n4:2,x\n")
    assert main(["degree", f"@{listing}"]) == 2
    captured = capsys.readouterr()
    assert "degree = 5" in captured.out
    assert captured.err.startswith(f"error: {listing}:2: cannot parse base '4:2,x'")


@pytest.fixture
def listing_with_bad_line(tmp_path):
    listing = tmp_path / "bases.txt"
    listing.write_text("4:2,2,2,2,2\n4:2,2,2,2\n3:1,1,1\n")
    return listing


def test_invariants_list_keeps_lines_before_bad_one(listing_with_bad_line, capsys):
    assert main(["invariants", f"@{listing_with_bad_line}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "4:2,2,2,2,2  R^5_1 in P^4\n"
        "  e = -1, deg(b) = 2, min directrix degree = 3\n"
        "  decomposable = false, speciality = 0\n"
        "  bundle: indecomposable, e = -1\n"
    )
    assert captured.err.startswith("error: 4:2,2,2,2: ")


def test_invariants_json_list_keeps_records_before_bad_line(listing_with_bad_line, capsys):
    assert main(["invariants", f"@{listing_with_bad_line}", "--json"]) == 1
    captured = capsys.readouterr()
    records = json.loads(captured.out)
    assert [r["base"] for r in records] == ["4:2,2,2,2,2"]
    assert records[0]["degree"] == 5 and records[0]["genus"] == 1
    assert captured.err.startswith("error: 4:2,2,2,2: ")


def test_invariants_single_base_error_prints_nothing(capsys):
    assert main(["invariants", "4:2,2,2,2", "--json"]) == 1
    assert capsys.readouterr().out == ""
