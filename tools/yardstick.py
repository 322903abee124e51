"""Digest the outputs of the yardstick commands, or compare them with a saved set.

    python tools/yardstick.py OUT.json [--against OLD.json]

Each yardstick argv runs through `liefam.cli.main(["--json", *argv])` in
this process, with `src/` of this checkout first on the import path.  OUT
maps the argv, joined by spaces, to the SHA-256 of json.dumps([exit code,
stdout, stderr]), the digest that tests/test_cli.py pins.  With
`--against`, the argvs whose digest differs from OLD's, or that OLD
lacks, are printed one per line, and the exit code is 1 if there are any.

The argvs are `families dump` for every catalog family, `paper-suite` at
seeds 1 and 7, `cohomology goncharova` at qmax 1-3 with smax 8 and 20,
`verify-geometry` for every family with a geometric oracle on the windows
-6..6, 1..9 and 3..11, and the solve/compare matrix: every named cocycle,
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
from liefam.families import CATALOG, FIBRES  # noqa: E402
from liefam.suite import NAMED_COCYCLES, named_cocycle  # noqa: E402

WEIGHTS = range(-4, 1)
WINDOWS = ("-12..12", "1..20", "3..11")
GEOMETRY_WINDOWS = ("-6..6", "1..9", "3..11")


def _solve_matrix(head):
    for shape, weight, window in itertools.product(ANSATZ_SHAPES, WEIGHTS, WINDOWS):
        yield [*head, "--ansatz", shape, "--weight", str(weight), "--window", window]


def yardstick_argvs() -> list:
    """The yardstick argvs, each a list of strings without the leading --json."""
    argvs = []
    for name in CATALOG:
        slope = ["--s", "3"] if name == "d-line" else []
        argvs.append(["families", "dump", "--family", name, *slope])
    argvs += [["paper-suite", "--seed", seed] for seed in ("1", "7")]
    for q, s in itertools.product("123", ("8", "20")):
        argvs.append(["cohomology", "goncharova", "--qmax", q, "--smax", s])
    for name, window in itertools.product(FIBRES, GEOMETRY_WINDOWS):
        argvs.append(["verify-geometry", "--family", name, "--window", window])
    for name in NAMED_COCYCLES:
        argvs += _solve_matrix(["cohomology", "solve", "--cocycle", name])
    algebra = {name: named_cocycle(name)[0].name for name in NAMED_COCYCLES}
    for omega, beta in itertools.permutations(NAMED_COCYCLES, 2):
        if algebra[omega] == algebra[beta]:
            argvs += _solve_matrix(["cohomology", "compare", "--cocycle", omega, "--against", beta])
    return argvs


def digest(argv) -> str:
    """SHA-256 of json.dumps([exit code, stdout, stderr]) of `liefam --json <argv>`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = liefam_main(["--json", *argv])
        except SystemExit as exc:
            code = exc.code
    blob = json.dumps([code, out.getvalue(), err.getvalue()]).encode()
    return hashlib.sha256(blob).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", type=Path, help="where to write the digests")
    parser.add_argument("--against", type=Path, help="digests to compare with")
    args = parser.parse_args(argv)
    digests = {" ".join(a): digest(a) for a in yardstick_argvs()}
    args.output.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    if args.against is None:
        return 0
    old = json.loads(args.against.read_text())
    changed = [key for key, value in digests.items() if old.get(key) != value]
    for key in changed:
        print(key)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
