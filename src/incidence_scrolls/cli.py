"""Command-line interface.

Bases are written n:d1,d2,... (for example 4:2,2,2,2,2) or as a JSON object
{"ambient": 4, "dims": [2, 2, 2, 2, 2]} of integers only.  validate, degree, genus and
invariants also accept @FILE, a batch of one base per line (blank lines and
# comments skipped).  A batch keeps going past a failing line: the line is
reported on stderr as "error: FILE:LINE: <message>" (or "internal consistency
failure: FILE:LINE: ..."), stdout keeps every good record in order (under
invariants --json, as one list), and the command exits with the worst exit
code seen on any line.

Exit codes: 0 success, 1 invalid or unrealizable base (or, for genus, a
degeneration recursion too deep for the interpreter), 2 parse error, 3
internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import __version__
from .base import (
    IncidenceBase,
    InternalConsistencyError,
    ScrollInvariants,
    SpecialityError,
    UnrealizableBaseError,
    _bundle_dict,
    degree,
    formula_genus,
    normalize,
    require_valid,
    validate,
)
from .classify import audit, build_tables, enumerate_bases, render_table, row_to_dict
from .degeneration import (
    _genus,
    _speciality,
    join,
    separate,
    verified_invariants,
)
from .ruled import (
    RuledSurfaceModel,
    base_structure_constraints,
    embedding_invariants,
    incidence_clause,
    is_incidence,
    min_directrix_count,
    predicted_base,
    very_ample,
)
from .schubert import _degree_genus, intersection_number, oracle_intersection_number


class CLIParseError(Exception):
    pass


def _parse_int(field: str) -> int:
    """int(field) for a plain decimal -?[0-9]+ only: int() alone also takes
    signs, underscores, whitespace and non-ASCII digits."""
    if not (field.isascii() and field.removeprefix("-").isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {field!r}")
    return int(field)


def _int_option(text: str) -> int:
    """The type of every integer option: _parse_int, with argparse's own
    "invalid int value" message."""
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def parse_base(text: str) -> IncidenceBase:
    text = text.strip()
    try:
        if text.startswith("{"):
            obj = json.loads(text)
            n, dims = obj["ambient"], obj["dims"]
            # only JSON integers: int() would truncate 4.9, iterate "22222"
            # and overflow on 1e400; a bool is an int to Python, not to JSON
            if not isinstance(dims, list) or any(type(v) is not int for v in (n, *dims)):
                raise ValueError("ambient and dims must be an integer and a list of integers")
            return IncidenceBase(n, tuple(dims))
        head, _, tail = text.partition(":")
        dims = tuple(_parse_int(p) for p in tail.split(",")) if tail else ()
        return IncidenceBase(_parse_int(head), dims)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise CLIParseError(f"cannot parse base {text!r}: {exc}") from None


# exit code and stderr label of each error a command reports, shared by main
# and the @FILE batch loop (the first matching row wins); any other exception
# is a bug and keeps its traceback
_EXIT_CODES = {
    CLIParseError: (2, "error"),
    InternalConsistencyError: (3, "internal consistency failure"),
    ValueError: (1, "error"),
    OSError: (1, "error"),
    RecursionError: (1, "error"),
}
_REPORTED = tuple(_EXIT_CODES)


def _report(exc: Exception, base: str | None, where: str = "") -> int:
    """Print exc on stderr, after where (a batch line's FILE:LINE), and
    return its exit code; base is the text of the base being processed."""
    code, label = next(v for cls, v in _EXIT_CODES.items() if isinstance(exc, cls))
    if isinstance(exc, RecursionError):
        exc = "degeneration recursion too deep"
        if base:
            exc = f"{base}: {exc}"
    print(f"{label}: {where}{exc}", file=sys.stderr)
    return code


def _each_base(arg: str, run) -> int:
    """Call run on the base arg, or on each base of the batch @FILE, and
    return the worst exit code (run returns an exit code, or None for 0).

    A single base lets its error propagate to main.  A batch reports a
    failing line as FILE:LINE and goes on with the next one.
    """
    if not arg.startswith("@"):
        return run(parse_base(arg)) or 0
    path = arg[1:]
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")  # an unreadable file fails as a whole
    worst = 0
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if line:
            try:
                code = run(parse_base(line)) or 0
            except _REPORTED as exc:
                code = _report(exc, line, f"{path}:{lineno}: ")
            worst = max(worst, code)
    return worst


def _invariants_dict(b: IncidenceBase, inv: ScrollInvariants) -> dict:
    return {
        "base": str(b),
        "ambient": inv.ambient,
        "dims": list(b.dims),
        "degree": inv.degree,
        "genus": inv.genus,
        "e": inv.e,
        "m": inv.divisor_degree,
        "min_directrix_degree": inv.min_directrix_degree,
        "decomposable": inv.decomposable,
        "speciality": inv.speciality,
        "bundle": _bundle_dict(inv.bundle),
    }


def cmd_validate(args) -> int:
    def one(b):
        report = validate(b)
        print(report.summary())
        if report.all_ok:
            return 0
        try:
            reduced = normalize(b)
            if reduced != b:
                print(f"  reduces to {reduced}")
        except UnrealizableBaseError as exc:
            print(f"  unrealizable: {exc}")
        return 1

    return _each_base(args.base, one)


def cmd_degree(args) -> int:
    def one(b):
        print(f"{b}  degree = {degree(b)}")

    return _each_base(args.base, one)


def cmd_genus(args) -> int:
    def one(b):
        require_valid(b)
        d, g, _ = _degree_genus(b.ambient, b.dims)
        check = _genus(b.ambient, b.dims)
        if check != g:
            raise InternalConsistencyError(
                f"{b}: K-theoretic genus {g}, degeneration gives {check}"
            )
        try:
            formula = str(formula_genus(b, deg=d))
        except SpecialityError:
            formula = "inapplicable (degree + 1 - n is odd)"
        print(f"{b}  genus by degeneration = {g}, by formula = {formula}")
        i = _speciality(b, d, g)
        if i:
            print(f"  scroll is special: speciality i = {i}")

    return _each_base(args.base, one)


def cmd_invariants(args) -> int:
    records = []

    def one(b):
        rec = _invariants_dict(b, verified_invariants(b))
        if args.json:
            records.append(rec)
            return
        bundle = rec["bundle"]
        print(
            f"{rec['base']}  R^{rec['degree']}_{rec['genus']} in P^{rec['ambient']}\n"
            f"  e = {rec['e']}, deg(b) = {rec['m']}, "
            f"min directrix degree = {rec['min_directrix_degree']}\n"
            f"  decomposable = {str(rec['decomposable']).lower()}, "
            f"speciality = {rec['speciality']}"
        )
        if bundle is not None:
            flag = ", e-divisor trivial" if bundle["e_trivial"] else ""
            print(f"  bundle: {bundle['kind']}, e = {bundle['e']}{flag}")

    code = _each_base(args.base, one)
    if args.json:
        print(json.dumps(records if args.base.startswith("@") else records[0], indent=2))
    return code


def cmd_join(args) -> int:
    b = parse_base(args.base)
    split = join(b, args.i, args.j)
    print(f"join of spaces {args.i} and {args.j} in {b} (forced meet P^{split.m})")
    print(f"  component through P^{split.m}: {split.beta_dot}", end="")
    dot_norm = normalize(split.beta_dot)
    if dot_norm != split.beta_dot:
        print(f" -> {dot_norm}", end="")
    print(f"  (d1, g1) = ({split.d1}, {split.g1})")
    print(f"  component in the hyperplane: {split.beta_ddot}", end="")
    ddot_norm = normalize(split.beta_ddot)
    if ddot_norm != split.beta_ddot:
        print(f" -> {ddot_norm}", end="")
    print(f"  (d2, g2) = ({split.d2}, {split.g2})")
    print(f"  common generators kappa = {split.kappa}")
    print(
        f"  degree {split.d1} + {split.d2} = {split.d1 + split.d2}, "
        f"genus {split.g1} + {split.g2} + {split.kappa} - 1 = "
        f"{split.g1 + split.g2 + split.kappa - 1}"
    )
    return 0


def cmd_separate(args) -> int:
    b = parse_base(args.base)
    out = separate(b, args.i, args.j, add_hyperplane=args.add_hyperplane)
    require_valid(out)
    d = _degree_genus(b.ambient, b.dims)[0]
    d_out, g_out, _ = _degree_genus(out.ambient, out.dims)
    print(f"{b} separates to {out}")
    print(f"  degree {d} -> {d_out}, genus {g_out}")
    return 0


def cmd_schubert(args) -> int:
    try:
        codims = [_parse_int(p) for p in args.codims.split(",")]
    except ValueError as exc:
        raise CLIParseError(f"cannot parse codimensions {args.codims!r}: {exc}") from None
    value = intersection_number(args.n, codims)
    check = oracle_intersection_number(args.n, codims)
    if value != check:
        raise InternalConsistencyError(
            f"Pieri gives {value}, bialternant gives {check} for {codims} in G(1, {args.n})"
        )
    print(value)
    return 0


def cmd_surface(args) -> int:
    model = RuledSurfaceModel(
        genus=args.g,
        e=args.e,
        divisor_degree=args.m,
        decomposable=not args.indecomposable,
        e_divisor_trivial=args.e_trivial,
    )
    print(f"model: genus {model.genus}, e = {model.e}, deg(b) = {model.m}, "
          f"{'decomposable' if model.decomposable else 'indecomposable'}")
    if not very_ample(model):
        print("  divisor is not very ample; no scroll embedding")
        return 0
    d, n = embedding_invariants(model)
    print(f"  embeds as R^{d}_{model.genus} in P^{n}")
    if is_incidence(model):
        print(f"  incidence scroll: {incidence_clause(model)}")
        print(f"  base: {predicted_base(model)}")
    else:
        print("  not an incidence scroll")
    count = min_directrix_count(model)
    print(f"  minimum directrix curves: {'inf^1' if count is None else count}")
    if model.decomposable:
        reqs = base_structure_constraints(model)
        pretty = ", ".join(f"{c} of dimension {dim}" for dim, c in reqs)
        print(f"  forced base spaces: {pretty}")
    return 0


def cmd_enumerate(args) -> int:
    records = [_invariants_dict(b, inv) for b, inv in enumerate_bases(args.n)]
    if args.json:
        print(json.dumps(records, indent=2))
        return 0
    for rec in records:
        tag = f" (special, i = {rec['speciality']})" if rec["speciality"] else ""
        print(
            f"{rec['base']}  degree {rec['degree']}, genus {rec['genus']}, "
            f"e = {rec['e']}, m = {rec['m']}{tag}"
        )
    return 0


def cmd_table(args) -> int:
    rational, elliptic = build_tables(args.max_n)
    rows = rational if args.genus == 0 else elliptic
    if args.json:
        text = json.dumps([row_to_dict(r) for r in rows], indent=2) + "\n"
    else:
        text = render_table(rows, args.genus, args.max_n)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_audit(args) -> int:
    report = audit(args.max_n)
    sys.stdout.write(report.render())
    return 3 if report.violations else 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    main call in the process: parse_args returns a fresh Namespace on each
    call and no command changes the parser."""
    parser = argparse.ArgumentParser(
        prog="incidence-scrolls",
        description="Exact classification engine for incidence scrolls",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def base_cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("base", help="base as n:d1,d2,... (or @FILE for a list)")
        p.set_defaults(func=func)
        return p

    base_cmd("validate", cmd_validate, "check the curve condition and general position")
    base_cmd("degree", cmd_degree, "degree of the swept scroll")
    base_cmd("genus", cmd_genus, "genus by degeneration and by formula, cross-checked")
    p = base_cmd("invariants", cmd_invariants, "full scroll invariants")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("join", help="split the scroll by joining two base spaces")
    p.add_argument("base")
    p.add_argument("-i", type=_int_option, required=True, help="index into the sorted dims")
    p.add_argument("-j", type=_int_option, required=True)
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("separate", help="pull two spaces meeting in a point apart")
    p.add_argument("base")
    p.add_argument("-i", type=_int_option, required=True)
    p.add_argument("-j", type=_int_option, default=None)
    p.add_argument("--add-hyperplane", action="store_true")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("schubert", help="intersection number of special classes")
    p.add_argument("-n", type=_int_option, required=True)
    p.add_argument("-c", dest="codims", required=True, help="comma-separated codimensions")
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("surface", help="predicates for a ruled-surface model")
    p.add_argument("-g", type=_int_option, required=True, choices=(0, 1))
    p.add_argument("-e", type=_int_option, required=True)
    p.add_argument("-m", type=_int_option, required=True)
    p.add_argument("--e-trivial", dest="e_trivial", action="store_true")
    p.add_argument("--indecomposable", action="store_true")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("enumerate", help="all bases in one ambient dimension")
    p.add_argument("-n", type=_int_option, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("table", help="classification table for genus 0 or 1")
    p.add_argument("--genus", type=_int_option, required=True, choices=(0, 1))
    p.add_argument("--max-n", dest="max_n", type=_int_option, default=8)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("audit", help="replay the classification over the enumeration")
    p.add_argument("--max-n", dest="max_n", type=_int_option, default=8)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _REPORTED as exc:
        return _report(exc, getattr(args, "base", None))


if __name__ == "__main__":
    sys.exit(main())
