"""Command-line interface behavior and exit codes."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from incidence_scrolls import base, classify, cli, degeneration
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


NON_INTEGER_JSON_BASES = [
    '{"ambient": 4.9, "dims": [2.7, 2, 2, 2, 2]}',
    '{"ambient": 4, "dims": "22222"}',
    '{"ambient": 1e400, "dims": [1]}',
    '{"ambient": 4, "dims": [2, 2, 2, 2, 2.0]}',
    '{"ambient": true, "dims": [1, 1, 1]}',
    '{"ambient": 3, "dims": [1, 1, false]}',
    '{"ambient": "4", "dims": [2, 2, 2, 2, 2]}',
    '{"ambient": 4, "dims": {"0": 2}}',
]


@pytest.mark.parametrize("text", NON_INTEGER_JSON_BASES)
def test_json_base_takes_only_integers(text, capsys):
    with pytest.raises(CLIParseError):
        parse_base(text)
    assert main(["degree", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot parse base")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "text, field",
    [
        ("0_4:2,2,2,2,2", "0_4"),
        ("4:+2,2,2,2,2", "+2"),
        ("4:\u0662,2,2,2,2", "\u0662"),  # ARABIC-INDIC DIGIT TWO
        ("4:2, 2,2,2,2", " 2"),
    ],
)
def test_text_base_takes_only_plain_integers(text, field, capsys):
    # int() alone would read each of these as 4:2,2,2,2,2
    assert main(["degree", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot parse base {text!r}: invalid literal for int() with base 10: {field!r}\n"
    )


@pytest.mark.parametrize("codims, field", [("+1,1,1,1,1,1", "+1"), ("1,1,1,1,1,\u0661", "\u0661")])
def test_schubert_codims_take_only_plain_integers(codims, field, capsys):
    assert main(["schubert", "-n", "4", "-c", codims]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot parse codimensions {codims!r}: "
        f"invalid literal for int() with base 10: {field!r}\n"
    )


@pytest.mark.parametrize(
    "argv, field",
    [
        (["enumerate", "-n", "+3"], "+3"),
        (["enumerate", "-n", "\u0663"], "\u0663"),
        (["table", "--genus", "+0", "--max-n", "3"], "+0"),
        (["table", "--genus", "0", "--max-n", " 3"], " 3"),
        (["audit", "--max-n", "3_0"], "3_0"),
        (["join", "4:2,2,2,2,2", "-i", "\u0660", "-j", "1"], "\u0660"),
        (["separate", "3:1,1,1", "-i", "+0", "--add-hyperplane"], "+0"),
        (["separate", "4:2,2,2,2,2", "-i", "0", "-j", "+1"], "+1"),
        (["schubert", "-n", "+4", "-c", "1,1,1,1,1,1"], "+4"),
        (["surface", "-g", "+0", "-e", "2", "-m", "4"], "+0"),
        (["surface", "-g", "0", "-e", "+2", "-m", "4"], "+2"),
        (["surface", "-g", "0", "-e", "2", "-m", "4 "], "4 "),
    ],
)
def test_integer_options_take_only_plain_integers(argv, field, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": invalid int value: {field!r}\n")


def test_integer_option_error_is_argparse_own(capsys):
    assert main(["enumerate", "-n", "x"]) == 2
    assert capsys.readouterr().err == (
        "usage: incidence-scrolls enumerate [-h] -n N [--json]\n"
        "incidence-scrolls enumerate: error: argument -n: invalid int value: 'x'\n"
    )
    assert main(["surface", "-g", "-1", "-e", "0", "-m", "1"]) == 2
    assert "argument -g: invalid choice: -1 (choose from 0, 1)" in capsys.readouterr().err


def test_negative_integers_still_reach_the_range_checks(capsys):
    assert main(["schubert", "-n", "4", "-c=-1,1"]) == 1
    assert capsys.readouterr().err == "error: codimension -1 outside [0, 3]\n"
    assert main(["degree", "4:-1,2,2,2,2"]) == 2
    assert capsys.readouterr().err.endswith(": subspace dimension -1 outside [0, 3]\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "-n", "21"],
        ["table", "--genus", "0", "--max-n", "21"],
        ["audit", "--max-n", "40"],
    ],
)
def test_enumeration_limit_is_an_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    limit, n = classify.MAX_ENUMERATION_N, argv[-1]
    assert captured.err == f"error: enumeration is limited to ambient dimension {limit}, got {n}\n"


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
    real = classify._scroll_invariants

    def counting(b, d, g):
        calls.append(b)
        return real(b, d, g)

    monkeypatch.setattr(classify, "_scroll_invariants", counting)
    monkeypatch.setattr(cli, "verified_invariants", lambda b: calls.append(("again", b)))
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
        "3:1,1,1  R^2_0 in P^3\n"
        "  e = 0, deg(b) = 1, min directrix degree = 1\n"
        "  decomposable = true, speciality = 0\n"
        "  bundle: decomposable, e = 0\n"
    )
    assert captured.err.startswith(f"error: {listing_with_bad_line}:2: 4:2,2,2,2: ")
    assert captured.err.count("\n") == 1


def test_invariants_json_list_keeps_records_before_bad_line(listing_with_bad_line, capsys):
    assert main(["invariants", f"@{listing_with_bad_line}", "--json"]) == 1
    captured = capsys.readouterr()
    records = json.loads(captured.out)
    assert [r["base"] for r in records] == ["4:2,2,2,2,2", "3:1,1,1"]
    assert records[0]["degree"] == 5 and records[0]["genus"] == 1
    assert captured.err.startswith(f"error: {listing_with_bad_line}:2: 4:2,2,2,2: ")


def test_invariants_single_base_error_prints_nothing(capsys):
    assert main(["invariants", "4:2,2,2,2", "--json"]) == 1
    assert capsys.readouterr().out == ""


def test_batch_keeps_going_and_exits_with_worst_code(tmp_path, capsys):
    listing = tmp_path / "bases.txt"
    listing.write_text("4:2,2,2,2,2\n4:2,x\n# comment\n4:2,2,2,2\n\n3:1,1,1\n")
    assert main(["degree", f"@{listing}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "4:2,2,2,2,2  degree = 5\n3:1,1,1  degree = 2\n"
    assert captured.err == (
        f"error: {listing}:2: cannot parse base '4:2,x': "
        "invalid literal for int() with base 10: 'x'\n"
        f"error: {listing}:4: 4:2,2,2,2: imposes 4 conditions, needs 5\n"
    )
    assert main(["genus", f"@{listing}"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("4:2,2,2,2,2  genus by degeneration = 1")
    assert "3:1,1,1  genus by degeneration = 0" in out
    # validate reports the invalid base on stdout with exit 1, the parse error with 2
    assert main(["validate", f"@{listing}"]) == 2
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 3 and "3:1,1,1 is a valid incidence base" in captured.out
    assert captured.err.startswith(f"error: {listing}:2: cannot parse base")


def test_batch_reports_internal_failure_with_exit_3(listing_with_bad_line, monkeypatch, capsys):
    real = cli.verified_invariants

    def broken(b):
        if str(b) == "4:2,2,2,2,2":
            raise base.InternalConsistencyError(f"{b}: routes disagree")
        return real(b)

    monkeypatch.setattr(cli, "verified_invariants", broken)
    assert main(["invariants", f"@{listing_with_bad_line}", "--json"]) == 3
    captured = capsys.readouterr()
    assert [r["base"] for r in json.loads(captured.out)] == ["3:1,1,1"]
    assert captured.err.splitlines()[0] == (
        f"internal consistency failure: {listing_with_bad_line}:1: 4:2,2,2,2,2: routes disagree"
    )
    assert captured.err.splitlines()[1].startswith(f"error: {listing_with_bad_line}:2: ")


def test_batch_from_missing_file_fails_as_a_whole(tmp_path, capsys):
    assert main(["invariants", f"@{tmp_path / 'missing.txt'}", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory")


def _too_deep(n, dims):
    raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize("argv", [["genus", "5:2,3,3,3,3,3"]])
def test_deep_recursion_is_an_error_not_a_traceback(argv, monkeypatch, capsys):
    monkeypatch.setattr(degeneration, "_genus", _too_deep)
    monkeypatch.setattr(cli, "_genus", _too_deep)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[1]}: degeneration recursion too deep\n"


CHAIN_600 = "600:1," + ",".join(["598"] * 599)


@pytest.mark.parametrize(
    "argv",
    [["invariants", CHAIN_600, "--json"], ["join", CHAIN_600, "-i", "0", "-j", "1"]],
    ids=["invariants", "join"],
)
def test_chain_past_the_recursion_limit_answers(argv, capsys):
    # the recursion stops near n = 495; the K-theoretic pass has no depth
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if argv[0] == "invariants":
        rec = json.loads(captured.out)
        assert (rec["degree"], rec["genus"]) == (599, 0)
    else:
        assert "degree 1 + 598 = 599, genus 0 + 0 + 1 - 1 = 0\n" in captured.out


def test_genus_command_exits_3_when_the_routes_disagree(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_genus", lambda n, dims: 2)
    assert main(["genus", "4:2,2,2,2,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal consistency failure: 4:2,2,2,2,2: K-theoretic genus 1, "
        "degeneration gives 2\n"
    )


def test_join_exits_3_when_the_genus_bookkeeping_fails(monkeypatch, capsys):
    real = degeneration._measure
    monkeypatch.setattr(
        degeneration, "_measure", lambda n, dims: (5, 2) if len(dims) == 5 else real(n, dims)
    )
    assert main(["join", "4:2,2,2,2,2", "-i", "0", "-j", "1"]) == 3
    assert capsys.readouterr().err == (
        "internal consistency failure: 4:2,2,2,2,2: join genera 0 + 0 + 2 - 1 != 2 "
        "for pair (0, 1)\n"
    )


def test_deep_recursion_in_batch_names_the_line(tmp_path, monkeypatch, capsys):
    listing = tmp_path / "bases.txt"
    listing.write_text("5:2,3,3,3,3,3\n3:1,1,1\n")
    real = cli._genus
    monkeypatch.setattr(cli, "_genus", lambda n, dims: (_too_deep if n == 5 else real)(n, dims))
    assert main(["genus", f"@{listing}"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("3:1,1,1  genus by degeneration = 0")
    assert captured.err == (
        f"error: {listing}:1: 5:2,3,3,3,3,3: degeneration recursion too deep\n"
    )


def test_genus_and_separate_validate_each_base_once(tmp_path, monkeypatch, capsys):
    seen = []
    real = base.validate

    def counting(b):
        seen.append(str(b))
        return real(b)

    monkeypatch.setattr(base, "validate", counting)
    assert main(["genus", "5:2,3,3,3,3,3"]) == 0
    assert seen == ["5:2,3,3,3,3,3"]
    listing = tmp_path / "bases.txt"
    listing.write_text("4:2,2,2,2,2\n3:1,1,1\n")
    seen.clear()
    assert main(["genus", f"@{listing}"]) == 0
    assert seen == ["4:2,2,2,2,2", "3:1,1,1"]
    seen.clear()
    capsys.readouterr()
    assert main(["separate", "3:1,1,1", "-i", "0", "--add-hyperplane"]) == 0
    assert seen == ["3:1,1,1", "4:1,2,2,2"]
    assert capsys.readouterr().out == (
        "3:1,1,1 separates to 4:1,2,2,2\n  degree 2 -> 3, genus 0\n"
    )


# -- one parser per process --------------------------------------------------


def test_parser_is_built_once_for_many_calls(capsys):
    cli.build_parser.cache_clear()
    assert main(["degree", "4:2,2,2,2,2"]) == 0
    assert main(["schubert", "-n", "4", "-c", "1,1,1,1,1,1"]) == 0
    assert main(["audit", "--max-n", "3"]) == 0
    assert cli.build_parser.cache_info().misses == 1


def test_flags_do_not_leak_between_calls(capsys):
    assert main(["invariants", "6:2,3,3,4,4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 7
    assert main(["invariants", "6:2,3,3,4,4"]) == 0
    assert capsys.readouterr().out.startswith("6:2,3,3,4,4  R^7_1 in P^6\n")


def test_usage_error_leaves_the_parser_usable(capsys):
    assert main(["join", "4:2,2,2,2,2", "-i", "0"]) == 2
    assert "required: -j" in capsys.readouterr().err
    assert main(["degree", "4:2,2,2,2,2"]) == 0
    assert capsys.readouterr() == ("4:2,2,2,2,2  degree = 5\n", "")


@pytest.mark.parametrize("argv", [["--help"], ["invariants", "--help"], ["--version"]])
@pytest.mark.parametrize("columns", ["60", "120"])
def test_help_is_the_same_from_cached_and_fresh_parser(argv, columns, monkeypatch, capsys):
    cli.build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "200")
    assert main(["degree", "3:1,1,1"]) == 0  # builds the parser at another width
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", columns)
    assert main(argv) == 0
    cached = capsys.readouterr()
    cli.build_parser.cache_clear()
    assert main(argv) == 0
    assert capsys.readouterr() == cached
    assert cached.out and cached.err == ""


# -- argv fuzzing, in process -------------------------------------------------

SUBCOMMANDS = (
    "validate", "degree", "genus", "invariants", "join", "separate",
    "schubert", "surface", "enumerate", "table", "audit",
)
# every flag but --out, which would write files
FLAGS = (
    "--json", "-i", "-j", "--add-hyperplane", "-n", "-c", "-g", "-e", "-m",
    "--e-trivial", "--indecomposable", "--genus", "--max-n", "--help", "--version",
)
small_ints = st.integers(-2, 9).map(str)
base_texts = st.one_of(
    st.sampled_from([str(b) for n in range(3, 9) for b in classify.base_candidates(n)]),
    st.builds(
        lambda n, dims: f"{n}:{','.join(map(str, dims))}",
        st.integers(0, 10),
        st.lists(st.integers(-1, 10), max_size=8),
    ),
    st.sampled_from(
        ["4:2,x", "nonsense", ":", "{", '{"ambient": 4}', '{"ambient": 3, "dims": [1, 1, 1]}']
        + NON_INTEGER_JSON_BASES
    ),
    st.builds(
        lambda n, dims: json.dumps({"ambient": n, "dims": dims}),
        st.one_of(st.integers(0, 10), st.floats(), st.booleans(), st.text(max_size=3)),
        st.one_of(
            st.lists(
                st.one_of(st.integers(-1, 10), st.floats(-1, 10), st.booleans()), max_size=8
            ),
            st.text(max_size=8),
        ),
    ),
)
codim_lists = st.lists(st.integers(-1, 5), min_size=1, max_size=6).map(
    lambda cs: ",".join(map(str, cs))
)
tokens = st.one_of(st.sampled_from(SUBCOMMANDS + FLAGS), small_ints, base_texts, codim_lists)
genus_ints = st.sampled_from(["0", "1", "2"])
well_formed = st.one_of(
    st.builds(lambda c, b: [c, b], st.sampled_from(SUBCOMMANDS[:4]), base_texts),
    st.builds(lambda b: ["invariants", b, "--json"], base_texts),
    st.builds(lambda b, i, j: ["join", b, "-i", i, "-j", j], base_texts, small_ints, small_ints),
    st.builds(lambda b, i: ["separate", b, "-i", i, "--add-hyperplane"], base_texts, small_ints),
    st.builds(
        lambda b, i, j: ["separate", b, "-i", i, "-j", j], base_texts, small_ints, small_ints
    ),
    st.builds(lambda n, c: ["schubert", "-n", n, "-c", c], small_ints, codim_lists),
    st.builds(
        lambda g, e, m: ["surface", "-g", g, "-e", e, "-m", m], genus_ints, small_ints, small_ints
    ),
    st.builds(lambda n: ["enumerate", "-n", n], small_ints),
    st.builds(lambda g, n: ["table", "--genus", g, "--max-n", n], genus_ints, small_ints),
    st.builds(lambda n: ["audit", "--max-n", n], small_ints),
)
argvs = st.one_of(
    well_formed,
    st.builds(lambda argv, extra: argv + [extra], well_formed, st.sampled_from(FLAGS) | small_ints),
    st.builds(
        lambda cmd, rest: [cmd, *rest], st.sampled_from(SUBCOMMANDS), st.lists(tokens, max_size=5)
    ),
    st.lists(tokens, max_size=4),
)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(argvs)
def test_fuzzed_argv_exits_cleanly_and_ignores_parser_reuse(argv):
    cli.build_parser.cache_clear()
    fresh = _run_main(argv)
    cached = _run_main(argv)
    assert cached == fresh
    rc, _, err = fresh
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
