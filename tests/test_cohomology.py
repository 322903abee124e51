"""Differentials, cocycle checks, coboundary witnesses, graded dimensions."""

import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefam import algebra as algebra_module
from liefam import cohomology
from liefam.algebra import (
    CENTRAL,
    LieElement,
    RuleTerm,
    basis_bracket,
    class_coefficients,
    evaluate_pair_rule,
    pullback,
    restricted,
    verify_jacobi,
)
from liefam.cohomology import (
    ANSATZ_SHAPES,
    GONCHAROVA_QMAX,
    GONCHAROVA_SMAX,
    PER_INDEX_MAX,
    ZERO_PINS_MAX,
    AffineMapRule,
    Ansatz,
    Cochain,
    DerivedRule,
    MapTableRule,
    coboundary_mismatches,
    compare_classes,
    deformation_differential,
    differential,
    expected_goncharova,
    goncharova_dim,
    goncharova_table,
    graded_differential_columns,
    graded_tuples,
    is_cocycle,
    solve_coboundary,
)
from liefam.errors import (
    ArityUnsupported,
    LiefamError,
    MissingParameter,
    OutOfDomainIndex,
    WindowTooLarge,
)
from liefam.families import (
    d_infinity,
    d_line,
    elliptic,
    formal_family,
    l1_subalgebra,
    virasoro,
    w1_subalgebra,
    witt,
)
from liefam.linalg import LinearSystem, rank_of_vectors
from liefam.poly import ParamPoly
from liefam.suite import NAMED_COCYCLES, corrupted_elliptic, named_cocycle, sign_flipped


def affine_map(weight, even, odd, pins=None):
    return Cochain(
        1, "adjoint", weight, (), AffineMapRule(weight, even, odd, pins or {})
    )


def test_d1_of_identity_is_minus_bracket():
    ident = affine_map(0, (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
    d = differential(witt(), ident)
    for n, m in [(1, 2), (-3, 5), (0, 4)]:
        assert d.value(n, m) == basis_bracket(witt(), n, m).scale(-1)


def test_d1_recovers_first_deformation_cocycle():
    # F(l_n) = -3 l_{n-2} (n even), -(3/2) l_{n-2} (n odd)
    phi = affine_map(
        -2, (Fraction(0), Fraction(-3)), (Fraction(0), Fraction(-3, 2))
    )
    d = differential(witt(), phi)
    _, omega = named_cocycle("ds-order1")
    for n in range(-6, 7):
        for m in range(n + 1, 7):
            assert d.value(n, m) == omega.value(n, m)


def test_trivial_d1_of_dual_functional():
    # phi = dual of l_5 on the index >= 1 subalgebra
    phi = Cochain(1, "trivial", None, (), MapTableRule({5: ParamPoly.const((), 1)}))
    d = differential(l1_subalgebra(), phi)
    assert d.value(1, 4) == -3  # -(m - n) delta_{n+m,5}
    assert d.value(2, 3) == -1
    assert d.value(2, 4) == 0


def test_adjoint_d2_after_d1_vanishes():
    rng = random.Random(9)
    for _ in range(5):
        phi = affine_map(
            rng.choice([-4, -2, 0, 2]),
            (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
            (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
        )
        dd = differential(witt(), differential(witt(), phi))
        for _ in range(10):
            tup = sorted(rng.sample(range(-6, 7), 3))
            assert dd.value(*tup).is_zero


def test_trivial_d_squared_vanishes():
    rng = random.Random(4)
    entries = {
        (n, m): ParamPoly.const((), rng.randint(-5, 5))
        for n in range(1, 7)
        for m in range(n + 1, 8)
    }
    zero = ParamPoly.const((), 0)
    c = Cochain(2, "trivial", None, (), DerivedRule(lambda n, m: entries.get((n, m), zero)))
    dd = differential(l1_subalgebra(), differential(l1_subalgebra(), c))
    for tup in [(1, 2, 3, 4), (1, 3, 5, 7), (2, 3, 4, 6)]:
        assert dd.value(*tup).is_zero


def trivial_d_reference(algebra, c, *xs):
    """(d c)(v_x0, ..., v_xq) for a trivial cochain c, summed directly.

    The alternating sum of c on each bracket [v_xi, v_xj], i < j, its
    central term dropped, and the other indices, with sign (-1)^(i+j):
    the trivial differential as it was written before it became a walk.
    """
    total = ParamPoly.const(c.params, 0)
    for i, j in itertools.combinations(range(len(xs)), 2):
        rest = tuple(xs[t] for t in range(len(xs)) if t not in (i, j))
        for idx, coeff in evaluate_pair_rule(algebra, xs[i], xs[j]):
            total = total + c.value(idx, *rest) * coeff * (-1) ** (i + j)
    return total


def _random_trivial(arity):
    """A trivial cochain with pseudo-random integer values on every sorted tuple."""

    def value(*idx):
        return ParamPoly.const((), random.Random(repr(idx)).randint(-5, 5))

    return Cochain(arity, "trivial", None, (), DerivedRule(value))


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("name", ["witt", "virasoro", "l1"])
def test_the_trivial_walk_is_the_alternating_sum(name, arity):
    """d of a trivial cochain walks `_d_terms` with its values on CENTRAL;
    on virasoro the walk must drop the central term of every bracket."""
    algebra = ALGEBRAS[name]()
    window = range(1, 9) if algebra.lower_bound else range(-4, 5)
    c = _random_trivial(arity)
    d = differential(algebra, c)
    assert d.mode == "trivial" and d.arity == arity + 1
    values = [d.value(*tup) for tup in itertools.combinations(window, arity + 1)]
    assert values == [
        trivial_d_reference(algebra, c, *tup) for tup in itertools.combinations(window, arity + 1)
    ]
    assert any(not v.is_zero for v in values)


@pytest.mark.parametrize("name", ["witt", "virasoro"])
def test_adjoint_d_squared_vanishes_on_a_pair_rule(name):
    """d of d of an adjoint 2-cochain walks the alternating sum at arity 3."""
    algebra = ALGEBRAS[name]()
    c = sign_flipped(named_cocycle("ds-order1")[1])
    d = differential(algebra, c)
    dd = differential(algebra, d)
    assert (d.arity, dd.arity, dd.mode) == (3, 4, "adjoint")
    assert not is_cocycle(algebra, c, range(-4, 5)).passed
    for tup in itertools.combinations(range(-3, 4), 4):
        assert dd.value(*tup).is_zero, tup


def test_deformation_differentials_are_cocycles():
    cases = [
        (witt(), deformation_differential(d_line(0), "e1", 1)),
        (witt(), deformation_differential(d_line(0), "e1", 2)),
        (witt(), deformation_differential(d_infinity(), "e2", 2)),
        (l1_subalgebra(), deformation_differential(w1_subalgebra(), "alpha2", 1)),
        (l1_subalgebra(), deformation_differential(formal_family(1), "t", 1)),
        (l1_subalgebra(), deformation_differential(formal_family(2), "t", 1)),
        (l1_subalgebra(), deformation_differential(formal_family(3), "t", 1)),
    ]
    for algebra, cochain in cases:
        window = range(1, 17) if algebra.lower_bound == 1 else range(-8, 9)
        assert is_cocycle(algebra, cochain, window).passed, cochain.label


def test_deformation_differential_values():
    omega = deformation_differential(d_line(0), "e1", 1)
    assert omega.weight == -2
    assert omega.value(2, 4) == LieElement.basis(4, coeff=6)
    assert omega.value(1, 4) == LieElement.basis(3, coeff=6)
    assert omega.value(1, 3).is_zero
    # order-2 coefficient on the vertical line: shift -4, mixed row (m-n-2)
    omega2 = deformation_differential(d_infinity(), "e2", 2)
    assert omega2.weight == -4
    assert omega2.value(2, 4) == LieElement.basis(2, coeff=-2)
    assert omega2.value(1, 4) == LieElement.basis(1, coeff=-1)
    beta1 = deformation_differential(formal_family(1), "t", 1)
    assert beta1.value(2, 5) == LieElement.basis(6, coeff=3)
    beta3 = deformation_differential(formal_family(3), "t", 1)
    assert beta3.value(2, 5) == LieElement.basis(5, coeff=5)
    assert beta3.value(3, 5).is_zero
    with pytest.raises(MissingParameter):
        deformation_differential(witt(), "t", 1)


def test_sign_flip_breaks_the_cocycle_condition():
    _, omega = named_cocycle("ds-order1")
    report = is_cocycle(witt(), sign_flipped(omega), range(-8, 9))
    assert not report.passed and report.witness is not None


def test_solve_coboundary_printed_witnesses():
    w = witt()
    _, omega1 = named_cocycle("ds-order1")
    sol = solve_coboundary(w, omega1, Ansatz("parity-constant", -2), range(-12, 13))
    assert sol.solved
    assert sol.phi.rule.even == (0, Fraction(-3))
    assert sol.phi.rule.odd == (0, Fraction(-3, 2))
    _, omega2 = named_cocycle("dinf-order2")
    sol = solve_coboundary(w, omega2, Ansatz("parity-constant", -4), range(-12, 13))
    assert sol.solved
    assert sol.phi.rule.even == (0, Fraction(1))
    assert sol.phi.rule.odd == (0, Fraction(1, 2))


def test_solved_witness_round_trips_through_d1():
    w = witt()
    _, omega1 = named_cocycle("ds-order1")
    sol = solve_coboundary(w, omega1, Ansatz("parity-constant", -2), range(-12, 13))
    d = differential(w, sol.phi)
    for n in range(-12, 13):
        for m in range(n + 1, 13):
            assert d.value(n, m) == omega1.value(n, m)


def test_gamma1_witness_for_beta1():
    l1, beta1 = named_cocycle("beta1")
    sol = solve_coboundary(
        l1, beta1, Ansatz("per-index", -1), range(1, 21)
    )
    assert sol.solved
    for n in range(2, 18):
        want = LieElement.basis(n - 1, coeff=Fraction(n - 1, 2))
        assert sol.phi.value(n) == want
    assert sol.phi.value(1).is_zero  # forced: image would leave the domain


def test_gamma2_witness_for_beta2():
    l1, beta2 = named_cocycle("beta2")
    sol = solve_coboundary(
        l1, beta2, Ansatz("affine", -1, pins={1: Fraction(0)}), range(1, 21)
    )
    assert sol.solved
    # gamma2(l_n) = (n+1)/2 l_{n-1} for n >= 2, gamma2(l_1) = 0
    assert sol.phi.rule.even == (Fraction(1, 2), Fraction(1, 2))
    assert sol.phi.rule.odd == (Fraction(1, 2), Fraction(1, 2))
    assert sol.phi.value(1).is_zero


def test_beta3_is_not_a_coboundary():
    l1, beta3 = named_cocycle("beta3")
    for weight in (-2, 0):
        sol = solve_coboundary(
            l1, beta3, Ansatz("per-index", weight), range(1, 25)
        )
        assert sol.status == "infeasible"
        assert "contradiction_at" in sol.certificate


def test_compare_classes_computed_witness():
    """The unique affine witness with pinned low indices, scalar 1/3.

    The windowed linear system pins the slope via the rows touching
    index 1; the solver re-verifies omega - d1 F = (1/3) beta3 on every
    window pair before returning.
    """
    l1, omega = named_cocycle("w1-order1")
    _, beta3 = named_cocycle("beta3")
    res = compare_classes(
        l1,
        omega,
        beta3,
        Ansatz("affine", -2, pins={1: Fraction(0), 2: Fraction(0)}),
        range(1, 25),
    )
    assert res.solved
    assert res.scalar == Fraction(1, 3)
    assert res.phi.rule.even == (Fraction(1, 6), Fraction(-2, 3))  # (m-4)/6
    assert res.phi.rule.odd == (Fraction(1, 6), Fraction(-1, 6))  # (m-1)/6
    assert res.phi.value(4).is_zero
    assert res.phi.value(6) == LieElement.basis(4, coeff=Fraction(1, 3))


def test_compare_classes_self_is_identity():
    l1, beta3 = named_cocycle("beta3")
    res = compare_classes(
        l1,
        beta3,
        beta3,
        Ansatz("affine", -2, pins={1: Fraction(0), 2: Fraction(0)}),
        range(1, 21),
    )
    assert res.solved and res.scalar == 1
    assert res.phi.rule.even == (0, 0) and res.phi.rule.odd == (0, 0)


def test_compare_against_zero_reduces_to_coboundary():
    w = witt()
    _, omega1 = named_cocycle("ds-order1")
    zero = Cochain(2, "adjoint", -2, (), DerivedRule(lambda n, m: LieElement.zero()))
    res = compare_classes(
        w, omega1, zero, Ansatz("parity-constant", -2), range(-10, 11)
    )
    assert res.solved
    assert res.phi.rule.even == (0, Fraction(-3))


#: The algebras of the recovery test, and the named cocycles over each.
ALGEBRAS = {"witt": witt, "virasoro": virasoro, "l1": l1_subalgebra}
BETAS = {
    "witt": ("ds-order1", "dinf-order2"),
    "l1": ("beta1", "beta2", "beta3", "w1-order1"),
}
_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def coboundary_problems(draw):
    """(algebra, omega, beta, ansatz, window): omega = d1 F0 + c0 * beta, F0 of the shape.

    F0 is a random rational map of the ansatz shape and weight, zero
    where it would map below the basis bound; beta is None (c0 = 0) or
    a named cocycle of the same algebra.
    """
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    algebra = ALGEBRAS[name]()
    shape, weight = draw(st.sampled_from(ANSATZ_SHAPES)), draw(st.integers(-3, 2))
    window = range(1, 15) if algebra.lower_bound else range(-7, 8)
    pinned = range(1, 1 - weight) if algebra.lower_bound else ()
    if shape == "per-index":
        rule = MapTableRule({
            n: LieElement.basis(n + weight, (), draw(_RATIONALS))
            for n in window
            if n not in pinned
        })
    else:
        even, odd = (
            (draw(_RATIONALS) if shape == "affine" else 0, draw(_RATIONALS)) for _ in "eo"
        )
        rule = AffineMapRule(weight, even, odd, dict.fromkeys(pinned, 0))
    d1 = differential(algebra, Cochain(1, "adjoint", weight, (), rule))
    if name not in BETAS or draw(st.booleans()):
        return algebra, d1, None, Ansatz(shape, weight), window
    beta, c0 = named_cocycle(draw(st.sampled_from(BETAS[name])))[1], draw(_RATIONALS)
    shifted = DerivedRule(lambda n, m: d1.value(n, m) + beta.value(n, m).scale(c0))
    omega = Cochain(2, "adjoint", None, (), shifted)
    return algebra, omega, beta, Ansatz(shape, weight), window


@settings(max_examples=40, deadline=None)
@given(coboundary_problems())
def test_solver_recovers_any_map_of_its_shape(problem):
    """omega = d1 F0 (+ c0 * beta) for F0 of the ansatz shape is solved, and holds.

    Random data drives the three shapes, the central equations of
    virasoro, the zero pins of l1 and the scale unknown of
    compare_classes.  omega has no index forms here, so every shape reads
    its equations off the window pairs and its certificate names the
    window.  A closed-shape map, defined everywhere, is then checked on the
    window widened by 8 on each side, a per-index map on the window pairs
    whose brackets stay in the window, the only pairs it models.
    """
    algebra, omega, beta, ansatz, window = problem
    if beta is None:
        result = solve_coboundary(algebra, omega, ansatz, window)
    else:
        result = compare_classes(algebra, omega, beta, ansatz, window)
    assert result.solved and result.certificate["window"] == [window[0], window[-1]]
    lo, hi = window[0], window[-1]
    covered = None
    if ansatz.shape == "per-index":

        def covered(n, m):
            brackets = basis_bracket(algebra, n, m).components
            return all(lo <= k <= hi for k in brackets if k != CENTRAL)

    else:
        lo, hi = max(lo - 8, algebra.lower_bound or lo - 8), hi + 8
    mismatches = coboundary_mismatches(
        algebra, result.phi, omega, beta, result.scalar, range(lo, hi + 1), covered
    )
    assert next(iter(mismatches), None) is None


def _pair_walk(c: Cochain) -> Cochain:
    """c with the same values and no index forms, so the solver walks every pair."""
    return Cochain(c.arity, c.mode, c.weight, c.params, DerivedRule(c.value))


def _solved(algebra, omega, beta, ansatz, window):
    """Status, map and scalar of a solve, or the class of the error it raises."""
    try:
        if beta is None:
            result = solve_coboundary(algebra, omega, ansatz, window)
        else:
            result = compare_classes(algebra, omega, beta, ansatz, window)
    except LiefamError as exc:
        return type(exc).__name__
    phi = result.phi and result.phi.to_json()
    return result.status, phi, result.scalar


def _closed_shape_cases():
    for name in NAMED_COCYCLES:
        algebra = named_cocycle(name)[0]
        betas = [None] + [b for b in NAMED_COCYCLES if named_cocycle(b)[0] == algebra]
        for beta, shape in itertools.product(betas, ("parity-constant", "affine")):
            yield name, beta, shape


@pytest.mark.parametrize("name, beta, shape", list(_closed_shape_cases()))
def test_class_residuals_solve_as_the_pair_walk(name, beta, shape):
    """Equations read off class residuals give the status, map and scalar that the
    equations of every window pair give, at every weight -4..0."""
    algebra, omega = named_cocycle(name)
    beta = beta and named_cocycle(beta)[1]
    window = range(1, 21) if algebra.lower_bound else range(-12, 13)
    for weight in range(-4, 1):
        ansatz = Ansatz(shape, weight)
        walked = _solved(
            algebra, _pair_walk(omega), beta and _pair_walk(beta), ansatz, window
        )
        assert _solved(algebra, omega, beta, ansatz, window) == walked, weight


def full_walk_system(algebra, omega, beta, ansatz_map, indices, covered):
    """Reference: `_build_system` reading the equations of every pair of the walk.

    The solver stops pulling pairs at its first contradiction; this keeps the
    walk it replaced, which reads every class residual and every pair.
    """
    ring = ansatz_map.params
    scale = None if beta is None else ParamPoly.var(ring, ("scale",))
    system = LinearSystem()

    def settle(residual, keys, parity, boundary):
        if boundary.failed:
            return None
        for tag, linear in class_coefficients(residual, keys, parity):
            cohomology._add_equation(system, linear, tag)
        return True

    walk = coboundary_mismatches(
        pullback(algebra, ring, None, algebra.name), ansatz_map, cohomology._over(omega, ring),
        cohomology._over(beta, ring), scale, indices, covered, settle=settle,
    )
    for _, (n, m), difference in walk:
        for idx in difference.support():
            cohomology._add_equation(
                system, difference.components[idx], {"pair": [n, m], "index": idx}
            )
    return system, walk


def _yardstick_solves():
    """(algebra, omega, beta, ansatz, window) of the yardstick's solve/compare matrix:
    every named cocycle, and every ordered pair of distinct named cocycles of one
    algebra, under every shape at weights -4..0 on -12..12, 1..20 and 3..11."""
    named = {name: named_cocycle(name) for name in NAMED_COCYCLES}
    pairs = [(name, None) for name in NAMED_COCYCLES] + [
        (omega, beta) for omega, beta in itertools.permutations(NAMED_COCYCLES, 2)
        if named[omega][0].name == named[beta][0].name
    ]
    windows = (range(-12, 13), range(1, 21), range(3, 12))
    for (omega, beta), shape, weight, window in itertools.product(
        pairs, ANSATZ_SHAPES, range(-4, 1), windows
    ):
        algebra, omega = named[omega]
        yield algebra, omega, beta and named[beta][1], Ansatz(shape, weight), window


def _solve_json(algebra, omega, beta, ansatz, window):
    """The solve's JSON, or the class and message of the error it raises."""
    try:
        if beta is None:
            return solve_coboundary(algebra, omega, ansatz, window).to_json()
        return compare_classes(algebra, omega, beta, ansatz, window).to_json()
    except LiefamError as exc:
        return type(exc).__name__, str(exc)


def test_a_solve_stops_at_its_first_contradiction(monkeypatch):
    """Over the yardstick's solve/compare matrix, the solver gives the verdict of
    the full walk: a solved or refused system the same JSON, an infeasible one the
    same certificate but for no more equations and the points it did not reach.  An
    infeasible solve evaluates no pair after the one that holds its contradiction,
    and none at all when a class equation holds it, and each point its certificate
    names as evaluated was evaluated."""
    cases = list(_yardstick_solves())
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_build_system", full_walk_system)
        reference = [_solve_json(*case) for case in cases]
    evaluated = []

    def recorded(*args, **kwargs):
        walk = coboundary_mismatches(*args, **kwargs)
        value = walk.value
        walk.value = lambda *pair: evaluated.append(pair) or value(*pair)
        return walk

    monkeypatch.setattr(cohomology, "coboundary_mismatches", recorded)
    statuses = []
    for case, full in zip(cases, reference):
        evaluated.clear()
        got = _solve_json(*case)
        statuses.append(got["status"] if isinstance(got, dict) else got[0])
        if not (isinstance(got, dict) and got["status"] == "infeasible"):
            assert got == full, case
            continue
        cert, full_cert = got["certificate"], full.pop("certificate")
        assert {**got, "certificate": None} == {**full, "certificate": None}
        assert cert["equations"] <= full_cert["equations"]
        reached = [tuple(p) for p in cert.pop("evaluated", [])]
        assert set(reached) <= set(evaluated)
        assert set(reached) <= {tuple(p) for p in full_cert.pop("evaluated", [])}
        del cert["equations"], full_cert["equations"]
        assert cert == full_cert, case
        at = cert["contradiction_at"]
        assert evaluated[-1:] == ([tuple(at["pair"])] if "pair" in at else []), case
    assert Counter(statuses) == {"infeasible": 760, "solved": 140}


# ---------------------------------------------------------------------------
# graded dimensions
# ---------------------------------------------------------------------------


def test_graded_tuples():
    assert graded_tuples(2, 5) == [(1, 4), (2, 3)]
    assert graded_tuples(3, 6) == [(1, 2, 3)]
    assert graded_tuples(2, 2) == []
    assert graded_tuples(0, 0) == [()]


def test_brute_force_matrix_oracle_s5_s6():
    # s=5: image of d1 is spanned by (-3, -1) over {(1,4),(2,3)}; d2 = 0
    cols = graded_differential_columns(1, 5)
    assert cols[(5,)] == {(1, 4): -3, (2, 3): -1}
    assert graded_differential_columns(2, 5) == {(1, 4): {}, (2, 3): {}}
    assert goncharova_dim(2, 5) == 1
    # s=6: ker d2 = span{2*(1,5) + 1*(2,4)} equals the image of d1
    cols = graded_differential_columns(2, 6)
    assert cols[(1, 5)] == {(1, 2, 3): 1}
    assert cols[(2, 4)] == {(1, 2, 3): -2}
    assert goncharova_dim(2, 6) == 0


def test_d_squared_is_zero_on_graded_slices():
    for q in (1, 2):
        for s in range(3, 14):
            first = graded_differential_columns(q, s)
            second = graded_differential_columns(q + 1, s)
            rows_next = graded_tuples(q + 2, s)
            for col, vec in first.items():
                composed = {}
                for mid, c in vec.items():
                    for row, c2 in second[mid].items():
                        composed[row] = composed.get(row, 0) + c * c2
                assert all(v == 0 for v in composed.values()), (q, s, col)
            assert all(len(r) == q + 2 for r in rows_next)


def test_goncharova_dimensions_match_closed_form():
    table = goncharova_table(3, 20)
    for (q, s), dim in table.items():
        assert dim == expected_goncharova(q, s), (q, s, dim)
    assert [s for s in range(1, 21) if table[(1, s)]] == [1, 2]
    assert [s for s in range(1, 21) if table[(2, s)]] == [5, 7]
    assert [s for s in range(1, 21) if table[(3, s)]] == [12, 15]


def test_goncharova_arity_guard():
    for q in (6, -1):
        with pytest.raises(ArityUnsupported):
            goncharova_dim(q, 10)


def test_goncharova_known_answers_past_q3():
    for s in range(1, 27):
        assert goncharova_dim(4, s) == expected_goncharova(4, s), s
    for s, want in ((34, 0), (35, 1), (40, 1)):
        assert goncharova_dim(5, s) == expected_goncharova(5, s) == want, s


def test_goncharova_table_takes_at_most_its_stated_smax():
    table = goncharova_table(1, GONCHAROVA_SMAX)
    assert [s for s in range(1, GONCHAROVA_SMAX + 1) if table[(1, s)]] == [1, 2]
    for s_max in (GONCHAROVA_SMAX + 1, 10**8):
        with pytest.raises(WindowTooLarge, match=f"smax <= {GONCHAROVA_SMAX}, got smax {s_max}"):
            goncharova_table(1, s_max)


def test_goncharova_table_refuses_a_qmax_past_its_cap_before_any_rank(monkeypatch):
    def refused(q, s):
        raise AssertionError(f"rank of d_{q} at s = {s} computed")

    monkeypatch.setattr(cohomology, "_graded_rank", refused)
    for q_max in (GONCHAROVA_QMAX + 1, 10**8):
        with pytest.raises(ArityUnsupported, match=f"implemented for q <= {GONCHAROVA_QMAX}$"):
            goncharova_table(q_max, 44)


def test_goncharova_table_computes_each_rank_once(monkeypatch):
    calls = []

    def counted(vectors):
        calls.append(1)
        return rank_of_vectors(vectors)

    monkeypatch.setattr(cohomology, "rank_of_vectors", counted)
    table = goncharova_table(3, 8)
    # d_0, ..., d_3 at each s; each dim H^q reads the ranks of d_q, d_(q-1).
    assert len(calls) == 4 * 8
    assert table == {(q, s): expected_goncharova(q, s) for q in (1, 2, 3) for s in range(1, 9)}
    calls.clear()
    goncharova_table(3, 8)
    assert len(calls) == 4 * 8  # nothing is kept between calls


def test_cochain_alternation():
    _, omega = named_cocycle("ds-order1")
    assert omega.value(4, 4).is_zero
    assert omega.value(4, 2) == omega.value(2, 4).scale(-1)
    with pytest.raises(ArityUnsupported):
        omega.value(1, 2, 3)


def test_cochain_json_round_trip():
    from liefam.cohomology import cochain_from_json

    _, omega = named_cocycle("ds-order1")
    back = cochain_from_json(omega.to_json())
    for n in range(-5, 6):
        for m in range(n + 1, 6):
            assert back.value(n, m) == omega.value(n, m)
    phi = affine_map(
        -2, (Fraction(1, 6), Fraction(-2, 3)), (Fraction(1, 6), Fraction(-1, 6)),
        pins={1: Fraction(0), 2: Fraction(0)},
    )
    back = cochain_from_json(phi.to_json())
    for n in range(1, 12):
        assert back.value(n) == phi.value(n)


def _l1_closed_shape_cases():
    """The closed-shape l1 solves and compares of the yardstick matrix, weights -4..0."""
    l1 = [name for name in NAMED_COCYCLES if named_cocycle(name)[0].lower_bound]
    pairs = [(name, None) for name in l1] + list(itertools.permutations(l1, 2))
    return list(itertools.product(pairs, ("parity-constant", "affine"), range(-4, 1)))


def test_closed_shapes_do_not_depend_on_the_window():
    """A closed shape proves every stratum of l1's domain, the zero pins of F and the
    exceptional rows included, so the window 3..11, which misses indices 1 and 2,
    gives the status, map and scalar of 1..20 for every closed-shape l1 solve and
    compare of the yardstick matrix."""
    statuses = []
    for (name, against), shape, weight in _l1_closed_shape_cases():
        algebra, omega = named_cocycle(name)
        beta = against and named_cocycle(against)[1]
        ansatz = Ansatz(shape, weight)
        got = _solved(algebra, omega, beta, ansatz, range(3, 12))
        assert got == _solved(algebra, omega, beta, ansatz, range(1, 21)), (name, against)
        statuses.append(got[0])
    assert len(statuses) == 160 and statuses.count("solved") == 12


def test_a_per_index_ansatz_takes_at_most_its_stated_window():
    l1, beta1 = named_cocycle("beta1")
    ansatz = Ansatz("per-index", -1)
    at_limit = range(1, PER_INDEX_MAX + 1)
    unknowns = cohomology._ansatz_cochain(l1, ansatz, at_limit, False).params
    assert len(unknowns) == PER_INDEX_MAX - 1  # F(v_1) is pinned: v_0 is not in l1
    for call in (
        lambda w: solve_coboundary(l1, beta1, ansatz, w),
        lambda w: compare_classes(l1, beta1, beta1, ansatz, w),
    ):
        with pytest.raises(WindowTooLarge):
            call(range(1, PER_INDEX_MAX + 2))
        with pytest.raises(WindowTooLarge):
            call(range(-5, 10**9))  # l1 starts at 1: 10**9 - 1 indices in its domain
    # the other shapes take no unknown per index
    assert solve_coboundary(l1, beta1, Ansatz("affine", -1), range(1, 10**9)).solved


def test_an_ansatz_takes_at_most_its_stated_zero_pins():
    """F is pinned to zero at each index it maps below the basis bound, one per
    unit of -weight, and an ansatz takes at most ZERO_PINS_MAX of them."""
    l1, beta3 = named_cocycle("beta3")
    at_limit = Ansatz("per-index", -ZERO_PINS_MAX)
    entries = cohomology._ansatz_cochain(l1, at_limit, range(1, 21), False).rule.entries
    assert entries.keys() == set(range(1, ZERO_PINS_MAX + 1))
    assert all(v.is_zero for v in entries.values())
    for shape, weight in itertools.product(ANSATZ_SHAPES, (-ZERO_PINS_MAX - 1, -10**14)):
        with pytest.raises(WindowTooLarge, match=f"at most {ZERO_PINS_MAX} zero pins"):
            solve_coboundary(l1, beta3, Ansatz(shape, weight), range(1, 21))
    # witt has no basis bound, so no index is pinned
    far = Ansatz("per-index", -ZERO_PINS_MAX - 1)
    entries = cohomology._ansatz_cochain(witt(), far, range(-3, 4), False).rule.entries
    assert entries.keys() == set(range(-3, 4))


# ---------------------------------------------------------------------------
# a deformation cocycle takes its family's Jacobi PASS
# ---------------------------------------------------------------------------

#: Windows "a" and "b" of the report pins: (no index bound, index bound 1).
ROUTE_WINDOWS = {"a": (range(-8, 9), range(1, 17)), "b": (range(-9, 13), range(1, 24))}


def walked(cochain):
    """The cochain with no `source`: `is_cocycle` walks d(c) as for any cochain."""
    return replace(cochain, source=None)


@pytest.fixture
def no_proved_roots(monkeypatch):
    """An empty record of proved roots, as in a fresh process."""
    monkeypatch.setattr(algebra_module, "_ROOT_PASSES", {})


@pytest.mark.parametrize("key", ROUTE_WINDOWS)
@pytest.mark.parametrize("name", NAMED_COCYCLES)
def test_a_named_cocycle_takes_its_familys_pass(no_proved_roots, name, key):
    """The route's verdict, status and witness are the walk's; its certificate
    names the family, the parameter and the order and carries the family's
    Jacobi certificate, and its count is the family's."""
    algebra, cochain = named_cocycle(name)
    window = ROUTE_WINDOWS[key][1 if algebra.lower_bound else 0]
    family, param, order, *_ = cochain.source
    route = is_cocycle(algebra, cochain, window).to_json()
    walk = is_cocycle(algebra, walked(cochain), window).to_json()
    assert {k: route.get(k) for k in ("check", "status", "witness")} == {
        k: walk.get(k) for k in ("check", "status", "witness")
    }
    assert route["status"] == "PASS" and "window" not in walk["certificate"]
    jacobi = verify_jacobi(family, window)
    assert route["certificate"] == {
        "coefficient_of": {"family": family.name, "parameter": param, "order": order},
        "jacobi": jacobi.certificate,
    }
    assert route["checked"] == jacobi.checked


def test_the_route_does_not_depend_on_what_ran_before(no_proved_roots):
    """A cold record, the roots proved first, or the families proved first: one
    report per named cocycle."""
    cocycles = [named_cocycle(name) for name in NAMED_COCYCLES]

    def reports():
        return [is_cocycle(a, c, range(1, 17) if a.lower_bound else range(-8, 9)).to_json()
                for a, c in cocycles]

    cold = reports()
    for fam in (elliptic(), *(formal_family(i) for i in (1, 2, 3))):
        verify_jacobi(fam, range(1, 5))
    assert reports() == cold
    for _, cochain in cocycles:
        verify_jacobi(cochain.source[0], range(1, 5))
    assert reports() == cold


def _doubled(rows):
    return tuple(RuleTerm(t.shift, t.a * 2, t.b * 2, t.d * 2) for t in rows)


def _edited_in_place():
    cochain = deformation_differential(d_line(0), "e1", 1)
    rows = cochain.rule.spec.rule
    rows["odd-even"] = _doubled(rows["odd-even"])
    return witt(), cochain


def _doubled_witt():
    w = witt()
    return replace(w, rule={**w.rule, "odd-even": _doubled(w.rule["odd-even"])}, name="witt|2")


def _on_n():
    """A family over a parameter named n: its Jacobi PASS holds on the window only."""
    n = ParamPoly.var(("n",), "n")
    return pullback(elliptic(), ("n",), {"e1": n, "e2": n * 2}, "on-n")


#: Cochains that `is_cocycle` walks, and the SHA-256 of the sorted report JSON
#: they had before the route existed, on -8..8 (1..16 with an index bound).
FALLBACKS = {
    "sign-flipped ds-order1": (
        lambda: (witt(), sign_flipped(named_cocycle("ds-order1")[1])),
        "FAIL", "de912db99ecd98ae675e41e2601da6a04964026445cd5eedae40571ec3e3c4de",
    ),
    "rows edited in place": (
        _edited_in_place,
        "FAIL", "dfecdceafa57c3f96aedfc93bc5f5b72f1276215aac73058645895daaa25402f",
    ),
    "central algebra": (
        lambda: (virasoro(), named_cocycle("ds-order1")[1]),
        "FAIL", "ca117cdc79f3c113eb41f26b73b9aca49dc646258b74cb0d96f3e82b30706b3a",
    ),
    "not the fibre": (
        lambda: (_doubled_witt(), named_cocycle("ds-order1")[1]),
        "FAIL", "c6842aa395fe361403a47b56bacfe33313bbe7792360b0c5a1d82c6b3f0c7f76",
    ),
    "order 2 over a nonzero order 1": (
        lambda: (witt(), deformation_differential(d_line(0), "e1", 2)),
        "PASS", "028e583275ea623ce47697fcb2bcfccfe888f4dfc1c80c9485179ef2db8aa10f",
    ),
    "corrupted family": (
        lambda: (d_infinity(), deformation_differential(corrupted_elliptic(), "e1", 1)),
        "FAIL", "d4d37a13c4c23a4a673a72afdfb2050a6706daeb63d1b7a8968badb1ec4a3252",
    ),
    "window-only family": (
        lambda: (witt(), deformation_differential(_on_n(), "n", 1)),
        "PASS", "7e9d309cb64c80a74c14e37d9b3ef857ed918040fd9f8746471cb172c9b7fafd",
    ),
    "family that leaves its domain": (
        lambda: (l1_subalgebra(), deformation_differential(restricted(d_line(0), 1), "e1", 1)),
        "PASS", "8c05672829710c9a3b1553479475c6b2b15524237556cbed88100c2095fb2959",
    ),
}


@pytest.mark.parametrize("case", FALLBACKS)
def test_the_other_cochains_are_walked_as_before(case):
    make, status, digest = FALLBACKS[case]
    algebra, cochain = make()
    window = range(1, 17) if algebra.lower_bound else range(-8, 9)
    data = is_cocycle(algebra, cochain, window).to_json()
    assert data == is_cocycle(algebra, walked(cochain), window).to_json()
    assert data["status"] == status
    assert hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest() == digest


def test_each_fallback_misses_one_condition():
    """The family of each fallback that has a source: its Jacobi report fails,
    holds on the window only or raises, or the cochain is not the first
    nonzero coefficient; the named cocycles' families all PASS."""
    assert not verify_jacobi(corrupted_elliptic(), range(-8, 9)).passed
    assert "window" in verify_jacobi(_on_n(), range(-8, 9)).certificate
    with pytest.raises(OutOfDomainIndex):
        verify_jacobi(restricted(d_line(0), 1), range(1, 17))
    rows = d_line(0).rule["even-even"]
    assert any(not t.a.coefficient_of("e1", 1).is_zero for t in rows)
    _, cochain = _edited_in_place()
    assert cochain.rule.spec.rule != cochain.source[3][1]


def test_a_proved_root_leaves_the_cocycle_no_stratum_to_prove(monkeypatch):
    """After verify_jacobi(formal-3), beta3's report is read off the record:
    no stratum of any identity is proved and no tuple evaluated."""
    l1, beta3 = named_cocycle("beta3")
    verify_jacobi(formal_family(3), range(1, 17))
    proofs, status = [], algebra_module._Plan._status
    monkeypatch.setattr(algebra_module._Plan, "_status",
                        lambda self, *a: proofs.append(a) or status(self, *a))
    report = is_cocycle(l1, beta3, range(1, 17))
    assert report.passed and report.certificate["coefficient_of"]["family"] == "formal-3"
    assert proofs == []
    assert is_cocycle(l1, walked(beta3), range(1, 17)).passed and proofs


def test_the_source_is_a_copy_of_the_family():
    """An in-place change of the family after the cochain was built reaches
    neither the cochain's source nor its report."""
    fam = formal_family(3)
    l1, beta3 = l1_subalgebra(), deformation_differential(fam, "t", 1)
    before = is_cocycle(l1, beta3, range(1, 17)).to_json()
    fam.exceptional[2] = _doubled(fam.exceptional[2])
    assert beta3.source[0].exceptional[2] != fam.exceptional[2]
    assert is_cocycle(l1, beta3, range(1, 17)).to_json() == before
    assert beta3.source[0] == formal_family(3)
    assert beta3 == deformation_differential(formal_family(3), "t", 1)
