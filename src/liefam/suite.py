"""The full verification suite: every top-level claim, run in order.

Each criterion returns a CriterionResult with machine-readable details;
the CLI `paper-suite` subcommand and tests/test_acceptance.py both run
these.  Criterion 5 asserts the reference witness of
omega - d1 F = (1/3) beta3 verbatim, with values in the index >= 1
subalgebra L1 and F(v_1) = F(v_2) = 0, and fails: the stated map fails
the identity on exactly the 45 pairs of the window 1..24 that touch
index 1 or 2 (at (1, 3) the residual is 4 v_2).  Its erratum is
attached to the details: read W-valued, the stated formula is the
computed witness minus (1/3) ad(v_{-2}) and satisfies the identity once
F(v_2) = -(4/3) v_0 replaces the formula's -(5/3) v_0.  That corrected
map satisfies it on every pair of indices >= 1, as the solve's witness
does, since d1 ad(v_{-2}) = 0; the stated map's residuals follow by
linearity of d1: the two maps differ only at the pins 1 and 2.  The
erratum's pair counts are counts of the window; the equality with the
computed witness minus (1/3) ad(v_{-2}) holds on every index.  Criterion
5 also certifies that beta3 is no coboundary of a map of weight -2 or 0:
each per-index system on 1..24 is inconsistent, and that is a
certificate for the whole basis.
"""

from __future__ import annotations

import _thread
import itertools
import marshal
import os
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .algebra import (
    FamilySpec,
    LieElement,
    abelianization_codim,
    map_coefficients,
    specialize,
    verify_jacobi,
)
from .central import locality_bound
from .cohomology import (
    AffineMapRule,
    Ansatz,
    Cochain,
    MapTableRule,
    PairRule,
    coboundary_mismatches,
    compare_classes,
    deformation_differential,
    differential,
    expected_goncharova,
    goncharova_table,
    is_cocycle,
    solve_coboundary,
)
from .families import (
    d_infinity,
    d_line,
    elliptic,
    formal_family,
    l1_subalgebra,
    nodal,
    three_point,
    virasoro,
    w1_subalgebra,
    witt,
)
from .geometry import verify_against_geometry
from .moduli import (
    INFINITE_SLOPE,
    classify_fiber,
    j_of_line,
    symbolic_invariants,
)
from .poly import ParamPoly, rat_str


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_json(self, timings=False):
        data = {
            "criterion": self.number,
            "title": self.title,
            "status": "PASS" if self.passed else "FAIL",
            "details": self.details,
        }
        if timings:
            data["seconds"] = round(self.elapsed, 3)
        return data


def _timed(fn):
    start = time.monotonic()
    result = fn()
    result.elapsed = time.monotonic() - start
    return result


# ---------------------------------------------------------------------------
# named cocycles used by the CLI and the criteria
# ---------------------------------------------------------------------------


def named_cocycle(name: str):
    """(algebra, cochain) for the cocycles the toolkit talks about by name."""
    if name == "ds-order1":
        return witt(), deformation_differential(d_line(0), "e1", 1)
    if name == "dinf-order2":
        return witt(), deformation_differential(d_infinity(), "e2", 2)
    if name == "w1-order1":
        return l1_subalgebra(), deformation_differential(w1_subalgebra(), "alpha2", 1)
    if name in ("beta1", "beta2", "beta3"):
        i = int(name[-1])
        return l1_subalgebra(), deformation_differential(formal_family(i), "t", 1)
    raise KeyError(
        f"unknown cocycle {name!r}; known: ds-order1, dinf-order2, w1-order1, "
        "beta1, beta2, beta3"
    )


NAMED_COCYCLES = ("ds-order1", "dinf-order2", "w1-order1", "beta1", "beta2", "beta3")


# ---------------------------------------------------------------------------
# perturbed variants (negative controls)
# ---------------------------------------------------------------------------


def corrupted_elliptic() -> FamilySpec:
    """Elliptic family with the even-even shift -2 coefficient 3e1 -> 2e1."""
    fam = elliptic()

    def corrupt(key, shift, p):
        return p * Fraction(2, 3) if (key, shift) == ("even-even", -2) else p

    return map_coefficients(fam, corrupt, fam.params, "elliptic|corrupted")


def sign_flipped(cochain: Cochain) -> Cochain:
    """Pair-rule cochain with the sign of its odd-even terms flipped."""
    spec = cochain.rule.spec
    flipped = replace(
        map_coefficients(
            spec,
            lambda key, shift, p: -p if key == "odd-even" else p,
            spec.params,
            spec.name + "|sign-flip",
        ),
        central=None,
    )
    return Cochain(
        2, "adjoint", cochain.weight, cochain.params, PairRule(flipped),
        label=flipped.name,
    )


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

FULL_WINDOW = range(-8, 9)
LOW_WINDOW = range(1, 17)


def default_window(family: FamilySpec) -> range:
    """LOW_WINDOW for a basis that starts at index 1 or above, else FULL_WINDOW."""
    return LOW_WINDOW if (family.lower_bound or 0) >= 1 else FULL_WINDOW


def criterion_1() -> CriterionResult:
    """Jacobi certification for the whole catalog.

    elliptic() comes first: the fibres after it take its PASS by transport
    (`verify_jacobi`), so only it, virasoro and the formal families are walked.
    """
    cases = [
        elliptic(),
        witt(),
        virasoro(),
        d_line(0),
        d_line(1),
        d_line(-2),
        d_line(Fraction(-1, 2)),
        d_line(3),
        d_infinity(),
        three_point(),
        nodal(),
        formal_family(1),
        formal_family(2),
        formal_family(3),
    ]
    start = time.monotonic()
    reports = {}
    for fam in cases:
        reports[fam.name] = verify_jacobi(fam, default_window(fam))
    elapsed = time.monotonic() - start
    passed = all(r.passed for r in reports.values()) and elapsed < 10.0
    return CriterionResult(
        1,
        "Jacobi certification across the family catalog",
        passed,
        details={
            "families": {k: r.status for k, r in reports.items()},
            "budget_seconds": 10,
            "within_budget": elapsed < 10.0,
        },
    )


def criterion_2() -> CriterionResult:
    """Geometric oracle: three-point over Q[alpha2], elliptic over Q[e1, e2].

    Both go through the one cubic realization, as one identity per parity
    class over Q[params, n, m]: three brackets of symbolic fields each.
    Every pair of the window is PASS because its class is proved, so the
    elliptic check holds for every pair on every fibre of the cubic family,
    singular ones included.
    """
    start = time.monotonic()
    three = verify_against_geometry(three_point(), range(-6, 7))
    ell = verify_against_geometry(elliptic(), range(-6, 7))
    elapsed = time.monotonic() - start
    passed = three.passed and ell.passed and elapsed < 60.0
    return CriterionResult(
        2,
        "Bracket rules match the realized vector fields",
        passed,
        details={
            "three-point": three.status,
            "elliptic": ell.status,
            "budget_seconds": 60,
            "within_budget": elapsed < 60.0,
        },
    )


def criterion_3() -> CriterionResult:
    """Graded cohomology dimensions match (3q^2 +- q)/2 for q <= 3, s <= 20."""
    table = goncharova_table(3, 20)
    bad = {
        f"q={q},s={s}": dim
        for (q, s), dim in table.items()
        if dim != expected_goncharova(q, s)
    }
    ones = sorted((q, s) for (q, s), dim in table.items() if dim == 1)
    return CriterionResult(
        3,
        "Graded dimension table for the index >= 1 subalgebra",
        not bad,
        details={"nonzero_at": [list(x) for x in ones], "mismatches": bad},
    )


def criterion_4() -> CriterionResult:
    """Deformation differentials are cocycles with the printed witnesses."""
    w = witt()
    algebra1, omega1 = named_cocycle("ds-order1")
    algebra2, omega2 = named_cocycle("dinf-order2")
    window = range(-12, 13)
    checks = {}
    checks["order1-cocycle"] = is_cocycle(w, omega1, FULL_WINDOW).passed
    checks["order2-cocycle"] = is_cocycle(w, omega2, FULL_WINDOW).passed

    sol1 = solve_coboundary(w, omega1, Ansatz("parity-constant", -2), window)
    checks["order1-solved"] = sol1.solved
    if sol1.solved:
        r = sol1.phi.rule
        checks["order1-witness"] = (
            r.even == (Fraction(0), Fraction(-3))
            and r.odd == (Fraction(0), Fraction(-3, 2))
        )
    sol2 = solve_coboundary(w, omega2, Ansatz("parity-constant", -4), window)
    checks["order2-solved"] = sol2.solved
    if sol2.solved:
        r = sol2.phi.rule
        checks["order2-witness"] = (
            r.even == (Fraction(0), Fraction(1))
            and r.odd == (Fraction(0), Fraction(1, 2))
        )
    # the equations come from the residual of each parity class of (n, m),
    # so no pair is evaluated and a solution holds on every pair of W
    return CriterionResult(
        4,
        "Order-1 and order-2 cocycles with exact coboundary witnesses",
        all(checks.values()),
        details={k: ("PASS" if v else "FAIL") for k, v in checks.items()},
    )


_STATED_EVEN = (Fraction(-1, 6), Fraction(-8, 6))  # F(v_m) = -(m+8)/6 v_{m-2}
_STATED_ODD = (Fraction(-1, 6), Fraction(-5, 6))  # F(v_m) = -(m+5)/6 v_{m-2}


def _stated_map(pins: dict) -> Cochain:
    """The stated map v_m -> (a*m + d) v_{m-2}, overridden at the pinned indices."""
    rule = AffineMapRule(-2, _STATED_EVEN, _STATED_ODD, pins)
    return Cochain(1, "adjoint", -2, (), rule, label="stated-map")


def _residuals(phi: Cochain, omega, beta, scalar, window) -> dict:
    """{(n, m): omega - d1 F - scalar * beta} on the window pairs where nonzero.

    d1 is taken over the Witt algebra W: on pairs of indices >= 1 its
    bracket is the action of L1 on W, so F may take values in W; omega and
    beta are defined from index 1 on, so the identity is proved on every
    pair of indices >= 1.  The pairs come from `coboundary_mismatches`,
    which proves it per parity class and per pin, and evaluates the window
    pairs of a stratum whose proof fails.
    """
    mismatches = coboundary_mismatches(witt(), phi, omega, beta, scalar, list(window))
    return {pair: -difference for _, pair, difference in mismatches}


def _by_linearity(base: Cochain, residuals: dict, phi: Cochain, window) -> dict:
    """`_residuals` of phi on the window pairs, from those of base by linearity of d1.

    phi and base are affine maps with one weight and one affine rule per
    parity, so delta = phi - base is zero off their pins, and the residual
    of phi is that of base minus d1 delta.  (d1 delta)(v_n, v_m) =
    delta([v_n, v_m]) - [delta(v_n), v_m] - [v_n, delta(v_m)] is zero
    unless n, m or n + m is an index where delta is not, so only those
    pairs are evaluated, through `differential` over W.
    """
    pinned = {*base.rule.pins, *phi.rule.pins}
    delta = {i: d for i in pinned if not (d := phi.value(i) - base.value(i)).is_zero}
    d1 = differential(witt(), Cochain(1, "adjoint", base.weight, (), MapTableRule(delta)))
    out, zero = {}, LieElement.zero()
    for n, m in itertools.combinations(window, 2):
        r = residuals.get((n, m), zero)
        if delta.keys() & {n, m, n + m}:
            r = r - d1.value(n, m)
        if not r.is_zero:
            out[n, m] = r
    return out


def _erratum(omega, beta3, computed: Cochain, scalar, window) -> dict:
    """Where the stated witness fails, and the W-valued map that repairs it.

    The equality of the corrected W-valued map with the computed witness
    minus (1/3) ad(v_{-2}) holds on every index m >= 1: ad(v_{-2})(v_m) =
    (m + 2) v_{m-2} is affine of weight -2, so both sides agree off their
    pins exactly when their affine coefficients agree per parity.  When it
    holds and the solved `scalar` is 1/3, the corrected map has no residual
    on any pair of indices >= 1: the solve's witness satisfies the identity
    on all of them (`compare_classes`), and d1 ad(v_{-2}) = 0 by the Jacobi
    identity of W.  Otherwise its residuals come from its proof
    (`_residuals`).  The verbatim map's follow from them by linearity of d1
    (`_by_linearity`).  The pair counts are those of the window.
    """
    third = Fraction(1, 3)
    corrected = _stated_map({2: Fraction(-4, 3)})
    c, r = corrected.rule, computed.rule
    shifted = tuple((a - third, d - 2 * third) for a, d in (r.even, r.odd))
    ad_shift = (
        c.weight == r.weight == -2
        and (c.even, c.odd) == shifted
        and all(c.coefficient(m) == r.coefficient(m) - third * (m + 2) for m in {*c.pins, *r.pins})
    )
    solved = ad_shift and scalar == third
    w_valued = {} if solved else _residuals(corrected, omega, beta3, third, window)
    verbatim = _by_linearity(corrected, w_valued, _stated_map({1: 0, 2: 0}), window)
    first = min(verbatim, default=None)
    return {
        "stated_pins": {
            "pairs": len(window) * (len(window) - 1) // 2,
            "failing_pairs": len(verbatim),
            "first_residual": {"pair": list(first), "value": verbatim[first].to_json()}
            if first
            else None,
        },
        "w_valued": {
            "values": {str(m): corrected.value(m).to_json() for m in (1, 2)},
            "formula_at_2": _stated_map({}).value(2).to_json(),
            "failing_pairs": len(w_valued),
            "equals_computed_minus_third_ad_v-2": ad_shift,
        },
    }


def criterion_5() -> CriterionResult:
    """Comparison of the geometric cocycle with the third formal cocycle.

    Asserts the reference witness verbatim: F(v_m) = -(m+8)/6 v_{m-2}
    (m even), -(m+5)/6 v_{m-2} (m odd), F(v_1) = F(v_2) = 0, scalar 1/3.
    The solver's unique affine solution with those pins is (m-4)/6 resp.
    (m-1)/6 with the same scalar, so the criterion fails; the computed
    witness is attached.  So is the erratum: with the stated pins the
    identity fails on exactly the 45 pairs of the window touching index
    1 or 2 (residual 4 v_2 at (1, 3)) and holds on all others, where
    the stated map equals the computed witness minus (1/3) ad(v_{-2}).
    Read as a map into the Witt algebra W, the formula gives
    F(v_1) = -v_{-1}, and with F(v_2) = -(4/3) v_0 in place of its
    -(5/3) v_0 it satisfies the identity on every pair of indices >= 1,
    as the solved witness does (`_erratum`): no pair is walked for it.
    The stated map differs from it only at 1 and 2, so its residuals are
    the corrected map's minus d1 of that difference, which is zero on
    every pair without 1 or 2 in n, m or n + m (`_by_linearity`).  The
    erratum's pair counts are those of the window 1..24; the equality of
    the corrected map with the computed witness minus (1/3) ad(v_{-2}) is
    proved on every index m >= 1 from the affine coefficients per parity
    and the values at the pins.

    Last, beta3 is certified not a coboundary of a map of weight -2 or 0:
    each per-index system on 1..24 is inconsistent, and that is a global
    certificate: any such map on the whole basis would satisfy the
    window's equations, which read F only where the ansatz models it
    (`solve_coboundary`).  Each solve stops at its first contradiction,
    so its certificate counts the equations read up to it: 23 at weight
    -2, 2 at weight 0.
    """
    algebra, omega = named_cocycle("w1-order1")
    _, beta3 = named_cocycle("beta3")
    window = range(1, 25)
    result = compare_classes(
        algebra,
        omega,
        beta3,
        Ansatz("affine", -2, pins={1: Fraction(0), 2: Fraction(0)}),
        window,
    )
    checks = {"solved": result.solved}
    computed = {}
    erratum = {}
    if result.solved:
        rule = result.phi.rule
        computed = {
            "even": [rat_str(rule.even[0]), rat_str(rule.even[1])],
            "odd": [rat_str(rule.odd[0]), rat_str(rule.odd[1])],
            "scalar": rat_str(result.scalar),
        }
        checks["scalar-is-1/3"] = result.scalar == Fraction(1, 3)
        checks["stated-map-even"] = rule.even == _STATED_EVEN
        checks["stated-map-odd"] = rule.odd == _STATED_ODD
        checks["pins"] = rule.pins.get(1, None) == 0 and rule.pins.get(2, None) == 0
        erratum = _erratum(omega, beta3, result.phi, result.scalar, window)

    infeasible = solve_coboundary(
        algebra, beta3, Ansatz("per-index", -2), window
    )
    checks["beta3-not-a-coboundary"] = infeasible.status == "infeasible"
    infeasible0 = solve_coboundary(
        algebra, beta3, Ansatz("per-index", 0), window
    )
    checks["beta3-not-a-coboundary-weight0"] = infeasible0.status == "infeasible"

    return CriterionResult(
        5,
        "Identity omega - d1(F) = (1/3) beta3 with the stated witness",
        all(checks.values()),
        details={
            "checks": {k: ("PASS" if v else "FAIL") for k, v in checks.items()},
            "computed_witness": computed,
            "erratum": erratum,
            "infeasibility": {"certificate": infeasible.certificate},
        },
    )


def criterion_6() -> CriterionResult:
    """Residue pairing on the Witt realization: support, values, locality."""
    loc = locality_bound("witt", range(-10, 11))
    table = loc.support
    ok_support = all(n + m == 0 for (n, m) in table)
    ok_values = True
    for (n, m), value in table.items():
        if value != Fraction(n**3 - n):
            ok_values = False
    # every expected nonzero value is present
    for n in range(-10, -1):
        if (n, -n) not in table and n**3 - n != 0:
            ok_values = False
    vir = virasoro().central
    ok_prop = all(
        value == Fraction(-12) * vir.value(n, m) for (n, m), value in table.items()
    )
    return CriterionResult(
        6,
        "Residue pairing reproduces -12 x the central rule with locality 0",
        ok_support and ok_values and ok_prop and loc.lower == 0,
        details={
            "support_pairs": len(table),
            "support_on_zero_sum": ok_support,
            "values_n3_minus_n": ok_values,
            "proportionality_-12": ok_prop,
            "locality_M": loc.lower,
        },
    )


#: Ten rational (e1, e2) with e1, e2 and e3 = -(e1 + e2) pairwise distinct.
SMOOTH_POINTS = tuple(
    (Fraction(a), Fraction(b))
    for a, b in (
        ("1/2", "3"), ("-7", "2"), ("7/2", "-8"), ("1", "-7/2"), ("-7/4", "-8"),
        ("-2", "9/4"), ("0", "-5"), ("3", "4"), ("-3", "2"), ("8", "9"),
    )
)


def criterion_7() -> CriterionResult:
    """Modular parameter identities and the fiber taxonomy."""
    checks = {}
    checks["j-at-infinite-slope"] = j_of_line(INFINITE_SLOPE) == 1728

    # j = 1728 g2^3 / disc on the line (e1, e2) = (1, s) is fixed by s -> -1 - s
    g2, g3, disc = symbolic_invariants()
    line = ("s",)
    s = ParamPoly.var(line, "s")
    on_line = {"e1": 1, "e2": s}
    num = (g2**3 * 1728).map_params(line, on_line)
    den = disc.map_params(line, on_line)
    partner = {"s": -1 - s}
    checks["j-line-involution"] = (
        num * den.map_params(line, partner) == num.map_params(line, partner) * den
    )

    checks["cusp"] = classify_fiber(0, 0).kind == "cuspidal"
    checks["node-IIb-s1"] = classify_fiber(1, 1).subcase == "IIb"
    checks["node-IIa"] = classify_fiber(1, Fraction(-1, 2)).subcase == "IIa"
    checks["node-IIb-s-2"] = classify_fiber(1, -2).subcase == "IIb"
    checks["smooth-points"] = all(
        classify_fiber(a, b).kind == "smooth" for a, b in SMOOTH_POINTS
    )
    checks["g2^3-27g3^2=disc"] = g2**3 - g3**2 * 27 == disc
    return CriterionResult(
        7,
        "Modular quantities: j values, line involution, fiber classes",
        all(checks.values()),
        details={k: ("PASS" if v else "FAIL") for k, v in checks.items()},
    )


def criterion_8() -> CriterionResult:
    """Commutator-span codimensions with stabilization at N=16 vs N=20.

    `abelianization_codim` ranks both windows in one elimination; N = 20
    is still a window, not a proof that the codimension stays put.
    """
    cases = {
        "w1(alpha2=1)": (specialize(w1_subalgebra(), {"alpha2": 1}), 2),
        "l1": (l1_subalgebra(), 2),
        "formal-2(t=1)": (specialize(formal_family(2), {"t": 1}), 1),
        "formal-3(t=1)": (specialize(formal_family(3), {"t": 1}), 1),
    }
    details = {}
    passed = True
    for label, (fam, expected) in cases.items():
        codim, stable = abelianization_codim(fam, 16)
        details[label] = {"codim": codim, "stabilized": stable}
        if codim != expected or not stable:
            passed = False
    return CriterionResult(
        8, "Commutator codimension values, stabilized", passed, details=details
    )


def criterion_9() -> CriterionResult:
    """Negative controls: perturbed constants must fail with witnesses."""
    checks = {}
    bad_fam = corrupted_elliptic()
    jac = verify_jacobi(bad_fam, FULL_WINDOW)
    checks["jacobi-fails-with-witness"] = (not jac.passed) and jac.witness is not None

    geo = verify_against_geometry(bad_fam, range(-4, 5))
    checks["geometry-fails-with-witness"] = (not geo.passed) and geo.witness is not None

    w, omega1 = named_cocycle("ds-order1")
    bad_omega = sign_flipped(omega1)
    coc = is_cocycle(w, bad_omega, FULL_WINDOW)
    checks["cocycle-fails-with-witness"] = (not coc.passed) and coc.witness is not None
    return CriterionResult(
        9,
        "Perturbed structure constants are caught with concrete witnesses",
        all(checks.values()),
        details={k: ("PASS" if v else "FAIL") for k, v in checks.items()},
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


#: The criteria a forked child runs while the parent runs the rest.  The
#: criteria share no state.  Warm medians per criterion, 15 serial passes
#: on a 2-core machine, in ms, three processes: c1 6.6-7.1, c2 2.7-2.8,
#: c3 2.9-3.0, c4 3.6-3.8, c5 5.8-6.8, c6 1.7-1.8, c7 1.0, c8 4.2-4.3,
#: c9 4.9-5.3, 33.2-35.2 in all; the child's share is 15.5-16.6 and the
#: parent's 17.7-18.8.  Measured like for like inside run_suite passes,
#: where the child starts with cold process caches and both processes
#: share the cores, the parent's share is the longer one: over 30 passes
#: in each of the three processes, medians of 27.3-31.0 ms against
#: 17.8-18.8, longer in 81 of the 90 passes.  Evening the shares out did
#: not shorten a pass: rotating splits in one process (25 passes each,
#: three processes), moving 3, 8 or 9 to the child gave pass medians of
#: 26.0-29.3 ms against 24.0-29.7 for this split, and none was shorter in
#: more than one of the three processes.  Four balanced splits, timed
#: between serial runs in one process, all took 0.032-0.035 s against
#: 0.050 s serial, so the gain does not rest on tuning this one.
CHILD_CRITERIA = frozenset({1, 2, 4, 6, 7})


def run_suite(only=None):
    """Run the verification criteria; returns their CriterionResults in order.

    The criteria may run in two processes: a forked child runs those of
    CHILD_CRITERIA and sends its results through a pipe while this
    process runs the rest.  Everything runs here when fork is missing,
    fewer than two CPUs are usable, another thread runs, or one side's
    share is empty.  A child that could not start, or ended without its
    results because a criterion raised or it was killed, has its share run
    here instead, so an error reaches the caller as a serial run raises
    it: that of the first criterion in order that raised.  `elapsed` is
    each criterion's own wall time, so the times of a run can add up to
    more than it took.
    """
    numbers = [number for number in sorted(CRITERIA) if only is None or number in only]
    share = [number for number in numbers if number in CHILD_CRITERIA]
    if len(share) == len(numbers) or not _two_processes():
        share = []
    child = _fork(share)
    try:
        outcomes = _run(number for number in numbers if number not in share)
    finally:
        theirs = _join(child)
    outcomes.update(_run(share) if theirs is None else theirs)
    for number in sorted(outcomes):
        if isinstance(outcomes[number], Exception):
            raise outcomes[number]
    return [outcomes[number] for number in sorted(outcomes)]


def _run(numbers) -> dict:
    """number -> CriterionResult, in order, up to the first criterion that
    raises, which maps to its exception."""
    outcomes = {}
    for number in numbers:
        try:
            outcomes[number] = _timed(CRITERIA[number])
        except Exception as exc:  # noqa: BLE001 - raised by run_suite in criterion order
            outcomes[number] = exc
            break
    return outcomes


def _two_processes() -> bool:
    """Whether a forked child can run beside this process: fork exists, two
    CPUs are usable and no other thread runs, as a fork copies only this one.
    `_thread` is built in, so the check imports nothing."""
    if not hasattr(os, "fork") or _thread._count():
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _fork(share):
    """(pid, read end of its pipe) of a child running the criteria `share`;
    None for an empty share or when no process can be started.  The child
    writes the marshalled fields of its CriterionResults and ends by
    os._exit, never returning into the caller; it writes nothing if a
    criterion raises."""
    if not share:
        return None
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the share runs here
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read)
            _leave_the_parents_cpu()
            results = [_timed(CRITERIA[number]) for number in share]
            fields = [(r.number, r.title, r.passed, r.details, r.elapsed) for r in results]
            with os.fdopen(write, "wb") as pipe:
                pipe.write(marshal.dumps(fields))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _leave_the_parents_cpu():
    """Keep this forked child off the CPU its parent runs on, where it can.

    On a 2-CPU Linux guest the scheduler was seen to leave a fork child on
    its parent's CPU for the whole run while the other CPU idled, so that
    run_suite in a new interpreter took 64.6 ms against 56.3 ms serial
    (medians of 20); with the child moved it took 45.5 ms.  The parent's
    CPU is field 39 of /proc/<ppid>/stat.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        with open(f"/proc/{os.getppid()}/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
    except OSError:  # no /proc, or no other CPU: the scheduler places the child
        pass


def _join(child):
    """The child's outcomes once it is reaped; None for no child or one that
    ended without sending them."""
    if child is None:
        return None
    pid, read = child
    try:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status:
        return None
    return {fields[0]: CriterionResult(*fields) for fields in marshal.loads(data)}
