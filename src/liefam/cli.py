"""Command line entry point producing deterministic JSON or text reports.

Exit codes: 0 when every requested check passes, 1 on a failing check,
2 on usage errors.  Rationals are written "p/q" everywhere; JSON output
uses sorted keys so reruns are byte-identical (timings are only included
on request).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .algebra import bracket, grading_bounds, LieElement, specialize, verify_jacobi
from .cohomology import (
    ANSATZ_SHAPES,
    Ansatz,
    cochain_from_json,
    compare_classes,
    goncharova_table,
    is_cocycle,
    solve_coboundary,
)
from .errors import LiefamError
from .families import CATALOG, by_name
from .geometry import LaurentPoly, verify_against_geometry
from .central import class_independence, locality_bound, pairing_table
from .moduli import INFINITE_SLOPE, classify_fiber, CurveParams, j_of_line, rescale
from .poly import rat, rat_str
from .suite import CRITERIA, NAMED_COCYCLES, default_window, named_cocycle, run_suite


def parse_window(text: str) -> range:
    lo, _, hi = text.partition("..")
    window = range(int(lo), int(hi) + 1)
    if not window:
        raise ValueError("the window is empty")
    return window


def parse_params(text: str | None) -> dict:
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        key, _, value = piece.partition("=")
        key = key.strip()
        if key in out:
            raise ValueError(f"parameter {key!r} is given twice")
        out[key] = rat(value.strip())
    return out


def parse_laurent(text: str) -> LaurentPoly | None:
    """Parse "coeff:deg,coeff:deg" (e.g. "1:-2"); "0" means no connection."""
    text = text.strip()
    if text in ("0", ""):
        return None
    items = []
    for piece in text.split(","):
        coeff, _, deg = piece.partition(":")
        items.append((int(deg) if deg else 0, rat(coeff)))
    return LaurentPoly.from_items((), items)


def parse_pins(text: str | None) -> dict:
    """Parse pinned map values "index=rational,..." (e.g. "1=0,2=-4/3")."""
    pins = {}
    for piece in text.split(",") if text else ():
        key, _, value = piece.partition("=")
        if int(key) in pins:
            raise ValueError(f"index {int(key)} is pinned twice")
        pins[int(key)] = rat(value)
    return pins


def parse_slope(text: str):
    """A rational slope, or INFINITE_SLOPE for the line e1 = 0."""
    return text if text == INFINITE_SLOPE else rat(text)


def checked(parse, what: str):
    """An argparse type that validates a value with `parse` and keeps its text.

    Reports echo every input as typed, so the output of a valid call does
    not depend on the validation; a malformed value exits 2 through
    argparse before any handler runs.
    """

    def check(text: str) -> str:
        try:
            parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"invalid {what} {text!r}: {exc}")
        return text

    return check


def window_text(args, family) -> str:
    """The --window text, or the suite's window for the family's index bound."""
    if args.window is not None:
        return args.window
    window = default_window(family)
    return f"{window.start}..{window.stop - 1}"


def family_from_args(args) -> "FamilySpec":
    kwargs = {}
    if args.family == "d-line":
        if getattr(args, "s", None) is None:
            raise LiefamError("family d-line needs --s")
        kwargs["s"] = rat(args.s)
    fam = by_name(args.family, **kwargs)
    assignment = parse_params(getattr(args, "params", None))
    if assignment:
        fam = specialize(fam, assignment, partial=True)
    return fam


def emit(args, payload: dict, ok: bool = True) -> int:
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        _print_text(payload)
    return 0 if ok else 1


def _print_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in payload:
            value = payload[key]
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _print_text(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                _print_text(value, indent)
            else:
                print(f"{pad}- {value}")
    else:
        print(f"{pad}{payload}")


def _report(args, command: str, inputs: dict, body: dict, ok: bool) -> int:
    payload = {
        "command": command,
        "inputs": inputs,
        "version": __version__,
        **body,
    }
    return emit(args, payload, ok)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_families_list(args) -> int:
    listing = {
        name: {"requires": list(req)} for name, (_, req) in sorted(CATALOG.items())
    }
    return _report(args, "families list", {}, {"families": listing}, True)


def cmd_families_dump(args) -> int:
    fam = family_from_args(args)
    bounds = grading_bounds(fam)
    return _report(
        args,
        "families dump",
        {"family": args.family},
        {"spec": fam.to_json(), "grading": [bounds.lower, bounds.upper]},
        True,
    )


def cmd_bracket(args) -> int:
    fam = family_from_args(args)
    x = LieElement.basis(args.n, fam.params)
    y = LieElement.basis(args.m, fam.params)
    value = bracket(fam, x, y)
    return _report(
        args,
        "bracket",
        {"family": fam.name, "n": args.n, "m": args.m},
        {"element": value.to_json()},
        True,
    )


def cmd_verify_jacobi(args) -> int:
    fam = family_from_args(args)
    window = window_text(args, fam)
    report = verify_jacobi(fam, parse_window(window))
    return _report(
        args,
        "verify-jacobi",
        {"family": fam.name, "window": window},
        {"report": report.to_json()},
        report.passed,
    )


def cmd_verify_geometry(args) -> int:
    fam = family_from_args(args)
    report = verify_against_geometry(fam, parse_window(args.window))
    return _report(
        args,
        "verify-geometry",
        {"family": fam.name, "window": args.window},
        {"report": report.to_json()},
        report.passed,
    )


def cmd_cohomology_goncharova(args) -> int:
    table = goncharova_table(args.qmax, args.smax)
    rows = [[q, s, dim] for (q, s), dim in sorted(table.items())]
    nonzero = [[q, s] for (q, s), dim in sorted(table.items()) if dim]
    return _report(
        args,
        "cohomology goncharova",
        {"qmax": args.qmax, "smax": args.smax},
        {"dimensions": rows, "nonzero_at": nonzero},
        True,
    )


def _load_cocycle(args):
    """Named cocycle, or a JSON file {"algebra": <name>, "cochain": {...}}."""
    if args.cocycle in NAMED_COCYCLES:
        return named_cocycle(args.cocycle)
    path = Path(args.cocycle)
    if not path.is_file():
        raise LiefamError(
            f"unknown cocycle {args.cocycle!r}; choose from "
            f"{', '.join(NAMED_COCYCLES)} or pass a JSON file path"
        )
    try:
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise LiefamError(f"cocycle file {path} holds no JSON object")
        return by_name(data["algebra"]), cochain_from_json(data["cochain"])
    except KeyError as exc:
        raise LiefamError(f"cocycle file {path} lacks the key {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        # not JSON, wrongly typed values, or lists too short
        raise LiefamError(f"cocycle file {path} is malformed: {exc}") from None


def cmd_cohomology_check(args) -> int:
    algebra, cochain = _load_cocycle(args)
    window = window_text(args, algebra)
    report = is_cocycle(algebra, cochain, parse_window(window))
    return _report(
        args,
        "cohomology check",
        {"cocycle": args.cocycle, "window": window},
        {"report": report.to_json(), "cochain": cochain.to_json()},
        report.passed,
    )


def _ansatz_from_args(args) -> Ansatz:
    return Ansatz(args.ansatz, args.weight, pins=parse_pins(args.pin))


def cmd_cohomology_solve(args) -> int:
    algebra, cochain = _load_cocycle(args)
    result = solve_coboundary(
        algebra, cochain, _ansatz_from_args(args), parse_window(args.window)
    )
    return _report(
        args,
        "cohomology solve",
        {
            "cocycle": args.cocycle,
            "ansatz": args.ansatz,
            "weight": args.weight,
            "window": args.window,
        },
        {"result": result.to_json()},
        result.solved,
    )


def cmd_cohomology_compare(args) -> int:
    algebra, omega = _load_cocycle(args)
    if args.against not in NAMED_COCYCLES:
        raise LiefamError(
            f"unknown cocycle {args.against!r}; choose from {', '.join(NAMED_COCYCLES)}"
        )
    against, beta = named_cocycle(args.against)
    if against != algebra:
        raise LiefamError(
            f"{args.cocycle} is a cocycle of {algebra.name} but {args.against} "
            f"is one of {against.name}; compare needs both on one algebra"
        )
    result = compare_classes(
        algebra, omega, beta, _ansatz_from_args(args), parse_window(args.window)
    )
    return _report(
        args,
        "cohomology compare",
        {
            "cocycle": args.cocycle,
            "against": args.against,
            "ansatz": args.ansatz,
            "weight": args.weight,
            "window": args.window,
        },
        {"result": result.to_json()},
        result.solved,
    )


def cmd_central_cocycle(args) -> int:
    window = parse_window(args.window)
    table = pairing_table(args.family, window, parse_laurent(args.R))
    rows = [
        [n, m, v.to_json()] for (n, m), v in sorted(table.items())
    ]
    return _report(
        args,
        "central cocycle",
        {"family": args.family, "R": args.R, "window": args.window},
        {"support": rows},
        True,
    )


def cmd_central_locality(args) -> int:
    report = locality_bound(
        args.family, parse_window(args.window), parse_laurent(args.R)
    )
    return _report(
        args,
        "central locality",
        {"family": args.family, "R": args.R, "window": args.window},
        {"report": report.to_json()},
        True,
    )


def cmd_central_independence(args) -> int:
    lam, report = class_independence(
        parse_laurent(args.r1) or LaurentPoly.zero(()),
        parse_laurent(args.r2) or LaurentPoly.zero(()),
        parse_window(args.window),
    )
    body = {"report": report.to_json()}
    if lam is not None:
        body["lambda"] = {str(k): rat_str(v) for k, v in sorted(lam.items())}
    return _report(
        args,
        "central independence",
        {"r1": args.r1, "r2": args.r2, "window": args.window},
        body,
        report.passed,
    )


def cmd_moduli_classify(args) -> int:
    fiber = classify_fiber(rat(args.e1), rat(args.e2))
    point = CurveParams(rat(args.e1), rat(args.e2))
    return _report(
        args,
        "moduli classify",
        {"e1": args.e1, "e2": args.e2},
        {"fiber": fiber.to_json(), "invariants": point.to_json()},
        True,
    )


def cmd_moduli_jline(args) -> int:
    value = j_of_line(parse_slope(args.s))
    return _report(
        args, "moduli j-line", {"s": args.s}, {"j": rat_str(value)}, True
    )


def cmd_moduli_rescale(args) -> int:
    fam = family_from_args(args)
    scaled = rescale(fam, rat(args.lambda2))
    return _report(
        args,
        "moduli rescale",
        {"family": fam.name, "lambda2": args.lambda2},
        {"spec": scaled.to_json()},
        True,
    )


def cmd_paper_suite(args) -> int:
    only = set(args.only) if args.only else None
    results = run_suite(only=only)
    ok = all(r.passed for r in results)
    if not args.json:
        for r in results:
            line = f"criterion {r.number}: {'PASS' if r.passed else 'FAIL'}  {r.title}"
            if args.timings:
                line += f"  ({r.elapsed:.2f}s)"
            print(line)
        print("overall:", "PASS" if ok else "FAIL")
        return 0 if ok else 1
    payload = {
        "command": "paper-suite",
        "inputs": {"seed": args.seed},
        "version": __version__,
        "criteria": [r.to_json(timings=args.timings) for r in results],
        "overall": "PASS" if ok else "FAIL",
    }
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


#: The --window help of the checks that prove their identity over the domain.
PROVED_WINDOW = (
    "a PASS holds on the whole index domain; the window holds the free slots of "
    "a failing tuple, and the tuples evaluated where no proof applies, when the "
    "certificate names it"
)
DEFAULT_WINDOW = " (default -8..8, or 1..16 when the basis starts at 1)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liefam",
        description="Exact verification toolkit for almost-graded Lie algebra families.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--text", dest="json", action="store_false")
    parser.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock times; paper-suite may run its criteria in two processes and "
        "gives each criterion's own seconds, which can add up to more than the run took",
    )
    parser.set_defaults(json=False)
    sub = parser.add_subparsers(dest="command", required=True)
    window = checked(parse_window, "window")
    rational = checked(rat, "rational")
    laurent = checked(parse_laurent, "Laurent polynomial")

    fam = sub.add_parser("families", help="catalog access")
    fam_sub = fam.add_subparsers(dest="subcommand", required=True)
    fam_sub.add_parser("list").set_defaults(handler=cmd_families_list)
    dump = fam_sub.add_parser("dump")
    _family_flags(dump)
    dump.set_defaults(handler=cmd_families_dump)

    br = sub.add_parser("bracket", help="bracket of two basis vectors")
    _family_flags(br)
    br.add_argument("--n", type=int, required=True)
    br.add_argument("--m", type=int, required=True)
    br.set_defaults(handler=cmd_bracket)

    vj = sub.add_parser(
        "verify-jacobi", help="certify the Jacobi identity on every triple of the domain"
    )
    _family_flags(vj)
    vj.add_argument("--window", type=window, help=PROVED_WINDOW + DEFAULT_WINDOW)
    vj.set_defaults(handler=cmd_verify_jacobi)

    vg = sub.add_parser(
        "verify-geometry",
        help="check rules against vector fields, one identity per parity class over "
        "Q[params, n, m]: a PASS holds for every pair of the domain; pairs at the "
        "basis bound are bracketed one by one",
    )
    _family_flags(vg)
    vg.add_argument("--window", default="-6..6", type=window, help=PROVED_WINDOW + " (%(default)s)")
    vg.set_defaults(handler=cmd_verify_geometry)

    coh = sub.add_parser("cohomology", help="cochain computations")
    coh_sub = coh.add_subparsers(dest="subcommand", required=True)
    gon = coh_sub.add_parser("goncharova")
    gon.add_argument("--qmax", type=int, default=3)
    gon.add_argument("--smax", type=int, default=20)
    gon.set_defaults(handler=cmd_cohomology_goncharova)
    chk = coh_sub.add_parser("check")
    chk.add_argument("--cocycle", required=True)
    chk.add_argument("--window", type=window, help=PROVED_WINDOW + DEFAULT_WINDOW)
    chk.set_defaults(handler=cmd_cohomology_check)
    slv = coh_sub.add_parser("solve")
    _solve_flags(slv)
    slv.set_defaults(handler=cmd_cohomology_solve)
    cmp_ = coh_sub.add_parser("compare")
    _solve_flags(cmp_)
    cmp_.add_argument("--against", required=True)
    cmp_.set_defaults(handler=cmd_cohomology_compare)

    cen = sub.add_parser("central", help="residue pairings")
    cen_sub = cen.add_subparsers(dest="subcommand", required=True)
    coc = cen_sub.add_parser("cocycle")
    coc.add_argument("--family", default="witt")
    coc.add_argument(
        "--R", default="0", type=laurent, help='Laurent terms "coeff:deg,..."; 0 for none'
    )
    coc.add_argument("--window", default="-10..10", type=window)
    coc.set_defaults(handler=cmd_central_cocycle)
    loc = cen_sub.add_parser("locality")
    loc.add_argument("--family", default="witt")
    loc.add_argument("--R", default="0", type=laurent)
    loc.add_argument("--window", default="-8..8", type=window)
    loc.set_defaults(handler=cmd_central_locality)
    ind = cen_sub.add_parser("independence")
    ind.add_argument("--r1", required=True, type=laurent)
    ind.add_argument("--r2", required=True, type=laurent)
    ind.add_argument("--window", default="-10..10", type=window)
    ind.set_defaults(handler=cmd_central_independence)

    mod = sub.add_parser("moduli", help="parameter geometry")
    mod_sub = mod.add_subparsers(dest="subcommand", required=True)
    cla = mod_sub.add_parser("classify")
    cla.add_argument("--e1", required=True, type=rational)
    cla.add_argument("--e2", required=True, type=rational)
    cla.set_defaults(handler=cmd_moduli_classify)
    jl = mod_sub.add_parser("j-line")
    jl.add_argument(
        "--s",
        required=True,
        type=checked(parse_slope, "slope"),
        help='rational slope or "inf"',
    )
    jl.set_defaults(handler=cmd_moduli_jline)
    res = mod_sub.add_parser("rescale")
    _family_flags(res)
    res.add_argument("--lambda2", required=True, type=rational)
    res.set_defaults(handler=cmd_moduli_rescale)

    ps = sub.add_parser("paper-suite", help="run the full verification suite")
    ps.add_argument(
        "--only", type=int, nargs="*", choices=sorted(CRITERIA), help="criterion numbers"
    )
    ps.add_argument(
        "--seed", type=int, default=1, help="recorded in the inputs; no criterion uses it"
    )
    ps.set_defaults(handler=cmd_paper_suite)

    return parser


def _family_flags(parser):
    parser.add_argument("--family", required=True, help="catalog family name")
    parser.add_argument(
        "--params",
        type=checked(parse_params, "parameters"),
        help='specialization "e1=1,e2=-1/2"',
    )
    parser.add_argument("--s", type=checked(rat, "rational"), help="slope for d-line")


def _solve_flags(parser):
    parser.add_argument("--cocycle", required=True)
    parser.add_argument("--ansatz", choices=ANSATZ_SHAPES, default="affine")
    parser.add_argument("--weight", type=int, required=True)
    parser.add_argument(
        "--window",
        default="-12..12",
        type=checked(parse_window, "window"),
        help="a closed shape solves over every pair of the domain, and the window "
        "only bounds the pairs evaluated when a stratum has no proof; a per-index "
        "ansatz has one unknown per index of the window, and its result holds there",
    )
    parser.add_argument(
        "--pin", type=checked(parse_pins, "pins"), help='pinned values "1=0,2=0"'
    )


#: Flags whose values may start with "-" (windows, rationals, slopes).
_VALUE_FLAGS = {
    "--window",
    "--e1",
    "--e2",
    "--s",
    "--R",
    "--r1",
    "--r2",
    "--lambda2",
    "--pin",
    "--params",
}


def _merge_negative_values(argv):
    """Join "--flag -value" into "--flag=-value" so argparse accepts it.

    A bare "--" is never joined: argparse strips it from "--flag=--" and
    would hand the handler an empty list instead of a checked value.
    """
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1] != "--":
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_merge_negative_values(argv))
    try:
        return args.handler(args)
    except LiefamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
