"""The benchmark's workloads: inputs from a seed, one pass, known answers.

Each workload has a `build(seed)` that makes its inputs (this is the
set-up that `setup_s` times) and a `run(inputs)` that does one full pass
and returns a `Pass`: the pass's output, which must repeat exactly
between passes at one seed, and one verdict per certificate, True when
the certificate agrees with the known answer listed in this file.  A
certificate whose check raises counts as a wrong verdict.

Every liefam name is looked up on its module at call time, so a tracer
that rebinds module attributes sees the calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction


def load_liefam(root: str):
    """Import liefam from `root`/src, or exit with code 2 if it is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "liefam", "__init__.py")):
        print(f"error: no liefam sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    importlib.import_module("liefam.cli")  # imports every traced module
    return importlib.import_module("liefam")


# ---------------------------------------------------------------------------
# known answers, independent of the code under test
# ---------------------------------------------------------------------------

#: paper-suite: every criterion passes except criterion 5, whose stated
#: witness is known to fail the identity it is claimed to satisfy.
EXPECTED_STATUS = {
    1: "PASS",
    2: "PASS",
    3: "PASS",
    4: "PASS",
    5: "FAIL",
    6: "PASS",
    7: "PASS",
    8: "PASS",
    9: "PASS",
}
#: The paper's scalar in omega - d1(F) = (1/3) beta3.
PAPER_SCALAR = "1/3"


def goncharova_closed_form(q: int, s: int) -> int:
    """Goncharova: dim H^q_(s) of the index >= 1 subalgebra is 1 iff 2s = 3q^2 +- q."""
    return 1 if 2 * s in (3 * q * q + q, 3 * q * q - q) else 0


# ---------------------------------------------------------------------------
# passes and verdicts
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    output: object
    verdicts: list = field(default_factory=list)  # (label, right: bool)

    @property
    def wrong(self) -> list:
        return [label for label, right in self.verdicts if not right]


def _judge(verdicts, label, check):
    """Append (label, check()) to verdicts; an exception is a wrong verdict."""
    try:
        right = bool(check())
    except Exception as exc:  # noqa: BLE001 - a raising certificate is a wrong verdict
        verdicts.append((f"{label}: raised {type(exc).__name__}: {exc}", False))
        return None
    verdicts.append((label, right))
    return right


def digest(obj) -> str:
    import hashlib  # imported here to keep it out of the set-up probe's timed window

    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


# ---------------------------------------------------------------------------
# paper-suite
# ---------------------------------------------------------------------------


def build_paper_suite(seed: int, package):
    rng = random.Random(seed)
    return {"argv": ["--json", "paper-suite", "--seed", str(rng.randrange(1, 100_000))]}


def describe_paper_suite(inputs) -> dict:
    return {"argv": inputs["argv"]}


def run_paper_suite(inputs, package) -> Pass:
    buf = io.StringIO()
    verdicts = []
    try:
        with contextlib.redirect_stdout(buf):
            code = package.cli.main(inputs["argv"])
        payload = json.loads(buf.getvalue())
    except Exception as exc:  # noqa: BLE001 - every certificate of the pass is wrong
        labels = [f"criterion {n}" for n in EXPECTED_STATUS] + ["overall"]
        return Pass(None, [(f"{label}: raised {type(exc).__name__}: {exc}", False) for label in labels])
    criteria = {c["criterion"]: c for c in payload["criteria"]}
    for number, status in EXPECTED_STATUS.items():
        crit = criteria.get(number)

        def check(crit=crit, status=status, number=number):
            if crit is None or crit["status"] != status:
                return False
            if number == 5:
                return crit["details"]["computed_witness"]["scalar"] == PAPER_SCALAR
            return True

        _judge(verdicts, f"criterion {number}", check)
    # criterion 5 fails, so the suite fails and the command exits with 1
    _judge(verdicts, "overall", lambda: payload["overall"] == "FAIL" and code == 1)
    return Pass(buf.getvalue(), verdicts)


# ---------------------------------------------------------------------------
# jacobi-window
# ---------------------------------------------------------------------------

FULL_WINDOW = range(-10, 11)
LOW_WINDOW = range(1, 22)
#: d-line slopes to draw from; the Jacobi identity holds on every line.
SLOPES = tuple(
    Fraction(p, q) for q in (1, 2, 3) for p in range(-6, 7) if Fraction(p, q).denominator == q
)


def window_for(family):
    return LOW_WINDOW if (family.lower_bound or 0) >= 1 else FULL_WINDOW


def build_jacobi_window(seed: int, package):
    rng = random.Random(seed)
    fam, alg, suite = package.families, package.algebra, package.suite
    s1, s2 = rng.sample(SLOPES, 2)
    point = {"e1": Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
             "e2": Fraction(rng.randint(-9, 9), rng.randint(1, 4))}
    families = [
        fam.witt(),
        fam.virasoro(),
        fam.elliptic(),
        fam.d_infinity(),
        fam.three_point(),
        fam.nodal(),
        fam.formal_family(1),
        fam.formal_family(2),
        fam.formal_family(3),
        fam.d_line(s1),
        fam.d_line(s2),
        alg.specialize(fam.elliptic(), point),
    ]
    cocycles = [(name,) + suite.named_cocycle(name) for name in suite.NAMED_COCYCLES]
    witt, ds1 = suite.named_cocycle("ds-order1")
    return {
        "families": families,
        "cocycles": cocycles,
        "bad_family": suite.corrupted_elliptic(),
        "bad_cocycle": (witt, suite.sign_flipped(ds1)),
    }


def describe_jacobi_window(inputs) -> dict:
    return {
        "families": [f.to_json() for f in inputs["families"]],
        "cocycles": [[name, alg.name, c.to_json()] for name, alg, c in inputs["cocycles"]],
        "bad_family": inputs["bad_family"].to_json(),
        "bad_cocycle": inputs["bad_cocycle"][1].to_json(),
    }


def run_jacobi_window(inputs, package) -> Pass:
    alg, coh = package.algebra, package.cohomology
    verdicts, output = [], []

    def record(report):
        output.append(report.to_json())
        return report

    for family in inputs["families"]:
        _judge(
            verdicts,
            f"jacobi {family.name}",
            lambda: record(alg.verify_jacobi(family, window_for(family))).passed,
        )
    for name, algebra, cochain in inputs["cocycles"]:
        _judge(
            verdicts,
            f"cocycle {name}",
            lambda: record(coh.is_cocycle(algebra, cochain, window_for(algebra))).passed,
        )

    def jacobi_control():
        bad = inputs["bad_family"]
        report = record(alg.verify_jacobi(bad, window_for(bad)))
        if report.passed or report.witness is None:
            return False
        # the cached Jacobiator's witness must also show under the public one
        return not alg.jacobiator(bad, *report.witness["triple"]).is_zero

    def cocycle_control():
        algebra, cochain = inputs["bad_cocycle"]
        report = record(coh.is_cocycle(algebra, cochain, window_for(algebra)))
        return not report.passed and report.witness is not None

    _judge(verdicts, "control corrupted_elliptic", jacobi_control)
    _judge(verdicts, "control sign_flipped(ds-order1)", cocycle_control)
    return Pass(output, verdicts)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

#: (q, s) pairs: every q <= 4, s <= 26, and q = 5 on both sides of s = 35.
ELIMINATION_CASES = tuple((q, s) for q in range(1, 5) for s in range(1, 27)) + (
    (5, 34),
    (5, 35),
)


def build_elimination(seed: int, package):
    # The matrices are fixed by (q, s); the seed is not used.
    return {"cases": ELIMINATION_CASES}


def describe_elimination(inputs) -> dict:
    return {"cases": [list(c) for c in inputs["cases"]]}


def graded_dim(coh, linalg, q: int, s: int) -> int:
    """dim H^q_(s), as `goncharova_dim` computes it, for the q >= 4 that it rejects."""

    def rank(p):
        return linalg.rank_of_vectors(
            v for v in coh.graded_differential_columns(p, s).values() if v
        )

    return len(coh.graded_tuples(q, s)) - rank(q) - rank(q - 1)


def run_elimination(inputs, package, expected=goncharova_closed_form) -> Pass:
    coh, linalg = package.cohomology, package.linalg
    verdicts, output = [], []
    for q, s in inputs["cases"]:

        def check(q=q, s=s):
            dim = coh.goncharova_dim(q, s) if q <= 3 else graded_dim(coh, linalg, q, s)
            output.append([q, s, dim])
            return dim == expected(q, s)

        _judge(verdicts, f"dim H^{q}_({s})", check)
    return Pass(output, verdicts)


WORKLOADS = {
    "paper-suite": (build_paper_suite, describe_paper_suite, run_paper_suite),
    "jacobi-window": (build_jacobi_window, describe_jacobi_window, run_jacobi_window),
    "elimination": (build_elimination, describe_elimination, run_elimination),
}
