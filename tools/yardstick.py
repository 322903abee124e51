"""Digest the outputs of the yardstick commands, or compare them with a saved set.

    python tools/yardstick.py OUT.json [--against OLD.json]

Each yardstick argv runs through `liefam.cli.main(["--json", *argv])` in
this process, with `src/` of this checkout first on the import path.  OUT
maps the argv, joined by spaces, to two SHA-256 digests.  The first is of
json.dumps([exit code, stdout, stderr]), the digest that tests/test_cli.py
pins.  The second, the verdict digest, is of the same list with every
`certificate` object and every `checked` count removed from the JSON on
stdout, so it changes only when a status, witness, solved map or error
does.  With `--against`, each argv whose first digest differs from OLD's,
or that OLD lacks, is printed with `verdict` when its verdict digest
differs too (or OLD lacks it) and `certificate` when only the certificate
changed, and the exit code is 1 if there are any.

The argvs reach every subcommand of `liefam.cli.build_parser()`.  They are
`families list`, `families dump` for every catalog family, `bracket` on
witt, on virasoro at (2, -2), its central pair, and on elliptic, `moduli
classify` at the cusp, at both nodes (IIb at e1 = e2, IIa at e2 = e3) and
at one smooth point, `moduli j-line` at the slopes 0 and inf and at the
degenerate slope 1, which exits 2, `moduli rescale` of witt, elliptic and
virasoro at lambda^2 = 4, `paper-suite` at seeds 1 and 7, `cohomology
goncharova` at qmax 1-3 with smax 8 and 20 and at qmax 5 with smax 35,
where the ranks of the graded differentials at q = 4 and 5 are the
largest eliminations of the set, `verify-jacobi` for every
catalog family (d-line at the slopes 3, 0, 1, -2 and -1/2 of criterion 1:
a line through the origin, the degenerate lines and the IIa node) on its
default window and on -9..12 (1..23 when the basis starts at 1),
`cohomology check` for every named cocycle on its default window,
`verify-geometry` for every family with a geometric oracle on the windows
-6..6, 1..9 and 3..11, the residue pairings: `central cocycle` for every
genus-zero fibre on -10..10 (1..12 when the basis starts at 1), with no
connection and with `--R 1:-2`, `central locality` on witt with `--R 0`
and `--R 1:0`, and `central independence` of `1:0` against `0` and of
`1:-1` against `1:0`, and the solve/compare matrix: every named cocycle,
and every ordered pair of distinct named cocycles of one algebra, under
every ansatz shape, at weights -4..0 on the windows -12..12, 1..20 and
3..11.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from liefam.cli import main as liefam_main  # noqa: E402
from liefam.cohomology import ANSATZ_SHAPES  # noqa: E402
from liefam.families import CATALOG, FIBRES, by_name  # noqa: E402
from liefam.geometry import PARAMETRIZATIONS  # noqa: E402
from liefam.suite import NAMED_COCYCLES, named_cocycle  # noqa: E402

WEIGHTS = range(-4, 1)
WINDOWS = ("-12..12", "1..20", "3..11")
GEOMETRY_WINDOWS = ("-6..6", "1..9", "3..11")
JACOBI_SLOPES = ("3", "0", "1", "-2", "-1/2")


def _solve_matrix(head):
    for shape, weight, window in itertools.product(ANSATZ_SHAPES, WEIGHTS, WINDOWS):
        yield [*head, "--ansatz", shape, "--weight", str(weight), "--window", window]


def yardstick_argvs() -> list:
    """The yardstick argvs, each a list of strings without the leading --json."""
    argvs = [["families", "list"]]
    for name in CATALOG:
        slope = ["--s", "3"] if name == "d-line" else []
        argvs.append(["families", "dump", "--family", name, *slope])
    for name, n, m in (("witt", "-3", "5"), ("virasoro", "2", "-2"), ("elliptic", "2", "4")):
        argvs.append(["bracket", "--family", name, "--n", n, "--m", m])
    for e1, e2 in (("0", "0"), ("1", "1"), ("1", "-1/2"), ("1", "2")):
        argvs.append(["moduli", "classify", "--e1", e1, "--e2", e2])
    argvs += [["moduli", "j-line", "--s", s] for s in ("0", "inf", "1")]
    for name in ("witt", "elliptic", "virasoro"):
        argvs.append(["moduli", "rescale", "--family", name, "--lambda2", "4"])
    argvs += [["paper-suite", "--seed", seed] for seed in ("1", "7")]
    for q, s in [*itertools.product("123", ("8", "20")), ("5", "35")]:
        argvs.append(["cohomology", "goncharova", "--qmax", q, "--smax", s])
    for name in CATALOG:
        wide = "1..23" if by_name(name, s=3).lower_bound else "-9..12"
        for slope in [["--s", s] for s in JACOBI_SLOPES] if name == "d-line" else [[]]:
            head = ["verify-jacobi", "--family", name, *slope]
            argvs += [head, [*head, "--window", wide]]
    argvs += [["cohomology", "check", "--cocycle", name] for name in NAMED_COCYCLES]
    for name, window in itertools.product(FIBRES, GEOMETRY_WINDOWS):
        argvs.append(["verify-geometry", "--family", name, "--window", window])
    for name, connection in itertools.product(PARAMETRIZATIONS, ([], ["--R", "1:-2"])):
        wide = "1..12" if by_name(name).lower_bound else "-10..10"
        argvs.append(["central", "cocycle", "--family", name, "--window", wide, *connection])
    for connection in ("0", "1:0"):
        argvs.append(["central", "locality", "--family", "witt", "--R", connection])
    for r1, r2 in (("1:0", "0"), ("1:-1", "1:0")):
        argvs.append(["central", "independence", "--r1", r1, "--r2", r2])
    for name in NAMED_COCYCLES:
        argvs += _solve_matrix(["cohomology", "solve", "--cocycle", name])
    algebra = {name: named_cocycle(name)[0].name for name in NAMED_COCYCLES}
    for omega, beta in itertools.permutations(NAMED_COCYCLES, 2):
        if algebra[omega] == algebra[beta]:
            argvs += _solve_matrix(["cohomology", "compare", "--cocycle", omega, "--against", beta])
    return argvs


def outputs(argv) -> list:
    """[exit code, stdout, stderr] of `liefam --json <argv>`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = liefam_main(["--json", *argv])
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _verdict(value):
    """The JSON value without its `certificate` objects and `checked` counts."""
    if isinstance(value, dict):
        return {k: _verdict(v) for k, v in value.items() if k not in ("certificate", "checked")}
    if isinstance(value, list):
        return [_verdict(v) for v in value]
    return value


def digests(argv) -> list:
    """[digest, verdict digest] of `liefam --json <argv>`."""
    code, out, err = outputs(argv)
    try:
        verdict = _verdict(json.loads(out))
    except ValueError:  # no JSON on stdout: an error exit
        verdict = out
    return [_sha([code, out, err]), _sha([code, verdict, err])]


def digest(argv) -> str:
    """SHA-256 of json.dumps([exit code, stdout, stderr]) of `liefam --json <argv>`."""
    return _sha(outputs(argv))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", type=Path, help="where to write the digests")
    parser.add_argument("--against", type=Path, help="digests to compare with")
    args = parser.parse_args(argv)
    new = {" ".join(a): digests(a) for a in yardstick_argvs()}
    args.output.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    if args.against is None:
        return 0
    old = json.loads(args.against.read_text())
    changed = 0
    for key, (full, verdict) in new.items():
        before = old.get(key, [None, None])
        if before[0] != full:
            changed += 1
            print(key, "verdict" if before[1] != verdict else "certificate")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
