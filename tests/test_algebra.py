"""Bracket engine: antisymmetry, Jacobi certification, specialization."""

import hashlib
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefam import algebra as algebra_module
from liefam import cohomology as cohomology_module
from liefam.algebra import (
    CENTRAL,
    INDEX_FORMS,
    PARITY_CLASSES,
    CentralDelta,
    CentralTable,
    FamilySpec,
    _Boundary,
    LieElement,
    RuleTerm,
    _bracket_sources,
    _identity,
    _jacobi_terms,
    _stratum,
    abelianization_codim,
    basis_bracket,
    bracket,
    grading_bounds,
    index_family,
    jacobiator,
    map_coefficients,
    restricted,
    specialize,
    verify_jacobi,
)
from liefam.cohomology import (
    AffineMapRule,
    Ansatz,
    Cochain,
    MapTableRule,
    PairRule,
    PairTableRule,
    _coboundary_identity,
    _verify_coboundary,
    compare_classes,
    differential,
    is_cocycle,
    solve_coboundary,
)
from liefam.errors import (
    MissingParameter,
    OutOfDomainIndex,
    ParameterMismatch,
    WindowTooSmall,
)
from liefam.families import (
    CATALOG,
    by_name,
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
from liefam.poly import ParamPoly
from liefam.suite import NAMED_COCYCLES, corrupted_elliptic, named_cocycle, sign_flipped
from liefam.suite import _residuals as suite_residuals
from liefam.suite import _stated_map as stated_map


def test_witt_brackets():
    w = witt()
    assert basis_bracket(w, 2, 3) == LieElement.basis(5)
    assert basis_bracket(w, -2, 5) == LieElement.basis(3, coeff=7)
    assert basis_bracket(w, 3, 3).is_zero
    assert basis_bracket(w, 0, 7) == LieElement.basis(7, coeff=7)


def test_virasoro_central_terms():
    v = virasoro()
    got = basis_bracket(v, 2, -2)
    assert got.coefficient(0) == -4
    assert got.coefficient(CENTRAL) == Fraction(-1, 2)
    assert basis_bracket(v, 1, -1) == LieElement.from_items((), [(0, -2)])
    # the central element is annihilated by everything
    x = LieElement.from_items((), [(CENTRAL, 1)])
    assert bracket(v, x, LieElement.basis(5)).is_zero


def test_elliptic_bracket_example():
    e = elliptic()
    got = basis_bracket(e, 1, 2)
    params = e.params
    e1 = ParamPoly.var(params, "e1")
    e2 = ParamPoly.var(params, "e2")
    q = (e1 - e2) * (e1 * 2 + e2)
    assert got.coefficient(3) == 1
    assert got.coefficient(-1) == -q
    assert got.support() == [-1, 3]


def test_bilinearity():
    w = witt()
    x = LieElement.from_items((), [(1, 2), (3, Fraction(1, 2))])
    y = LieElement.from_items((), [(-2, 1), (0, 5)])
    direct = bracket(w, x, y)
    expanded = LieElement.zero()
    for n, cn in x.components.items():
        for m, cm in y.components.items():
            expanded = expanded + basis_bracket(w, n, m).scale(cn * cm)
    assert direct == expanded


@pytest.mark.parametrize(
    "family", [witt(), virasoro(), elliptic(), three_point(), formal_family(2)]
)
def test_antisymmetry_on_random_pairs(family):
    rng = random.Random(7)
    lo = family.lower_bound or -9
    for _ in range(60):
        n = rng.randint(lo, 9)
        m = rng.randint(lo, 9)
        lhs = basis_bracket(family, n, m) + basis_bracket(family, m, n)
        assert lhs.is_zero, (family.name, n, m)


def test_parameter_mismatch_rejected():
    e = elliptic()
    x = LieElement.basis(1)  # parameter-free element
    with pytest.raises(ParameterMismatch):
        bracket(e, x, x)


def test_jacobiator_examples():
    assert jacobiator(witt(), 1, 2, 3).is_zero
    assert jacobiator(elliptic(), 1, 2, 4).is_zero
    assert jacobiator(virasoro(), 2, -3, 1).is_zero


def test_corrupted_family_fails_jacobi():
    bad = corrupted_elliptic()
    # the corruption only touches the even-even class; even indices form a
    # subalgebra that stays consistent, so mixed-parity triples are the
    # witnesses
    assert jacobiator(bad, 2, 4, 6).is_zero
    assert not jacobiator(bad, 2, 4, 5).is_zero
    assert not jacobiator(bad, 1, 2, 4).is_zero
    report = verify_jacobi(bad, range(-8, 9))
    assert report.status == "FAIL"
    assert report.witness is not None


def test_verify_jacobi_window_requirements():
    with pytest.raises(WindowTooSmall):
        verify_jacobi(witt(), range(-4, 5))
    report = verify_jacobi(witt(), range(-8, 9))
    assert report.passed and report.checked == 680


def test_grading_bounds():
    assert grading_bounds(witt()) == grading_bounds(virasoro())
    assert (grading_bounds(witt()).lower, grading_bounds(witt()).upper) == (0, 0)
    b = grading_bounds(elliptic())
    assert (b.lower, b.upper) == (-4, 0)
    b = grading_bounds(three_point())
    assert (b.lower, b.upper) == (-2, 0)
    b = grading_bounds(formal_family(1))
    assert (b.lower, b.upper) == (-1, 0)


@pytest.mark.parametrize("family", [elliptic(), three_point(), formal_family(3)])
def test_bracket_support_respects_grading(family):
    rng = random.Random(3)
    bounds = grading_bounds(family)
    lo = family.lower_bound or -8
    for _ in range(80):
        n, m = rng.randint(lo, 8), rng.randint(lo, 8)
        for idx in basis_bracket(family, n, m).support():
            if idx == CENTRAL:
                continue
            assert n + m + bounds.lower <= idx <= n + m + bounds.upper


def test_specialize_examples():
    ds = specialize(d_line(1), {"e1": 1})
    # (1-s)(2+s) = 0 at s = 1: no shift -4 term survives
    assert all(t.shift in (0, -2) for t in ds.rule["even-even"])
    dinf = specialize(d_line(Fraction(-1, 2)), {"e1": 2})
    shifts = {t.shift for t in dinf.rule["even-even"]}
    assert shifts == {0, -2, -4}
    with pytest.raises(MissingParameter):
        specialize(elliptic(), {"e1": 1})
    with pytest.raises(MissingParameter):
        specialize(witt(), {"zz": 1})


def test_specialize_commutes_with_bracket():
    e = elliptic()
    rng = random.Random(11)
    for _ in range(25):
        point = {
            "e1": Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            "e2": Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
        }
        n, m = rng.randint(-6, 6), rng.randint(-6, 6)
        sp = specialize(e, point)
        via_rule = basis_bracket(sp, n, m)
        symbolic = basis_bracket(e, n, m)
        assert via_rule == symbolic.map_params((), point)


def test_map_coefficients_keys_zero_terms_and_kept_fields():
    f2 = formal_family(2)
    copy = map_coefficients(f2, lambda key, shift, p: p, f2.params, "copy")
    assert copy.name == "copy" and copy.rule_signature() == f2.rule_signature()
    seen = set()

    def cut_shift_1(key, shift, p):
        seen.add(key)
        return p * 0 if shift == -1 else p

    cut = map_coefficients(f2, cut_shift_1, f2.params, "cut")
    # rows are keyed by parity class or by the exceptional index
    assert seen == {"odd-odd", "even-even", "odd-even", 1}
    assert [t.shift for t in cut.exceptional[1]] == [0]
    assert cut.lower_bound == 1
    vir = virasoro()
    assert map_coefficients(vir, lambda key, shift, p: p, (), "v").central == vir.central


def test_out_of_domain_errors():
    l1 = l1_subalgebra()
    with pytest.raises(OutOfDomainIndex):
        basis_bracket(l1, 0, 3)  # index 0 is not in the domain
    # w1: [V_1, V_2] only drops components whose coefficient vanishes
    w1 = w1_subalgebra()
    got = basis_bracket(w1, 1, 2)
    assert got == LieElement.basis(3, w1.params)
    # a truncation that is NOT a subalgebra raises instead of truncating
    from liefam.algebra import restricted
    from liefam.families import nodal

    bad = restricted(nodal(), 1)
    with pytest.raises(OutOfDomainIndex):
        basis_bracket(bad, 1, 2)  # (m-n-2) alpha2^2 lands on v_-1


def test_abelianization_codim():
    w1 = specialize(w1_subalgebra(), {"alpha2": 1})
    assert abelianization_codim(w1, 16) == (2, True)
    assert abelianization_codim(l1_subalgebra(), 16) == (2, True)
    f2 = specialize(formal_family(2), {"t": 1})
    f3 = specialize(formal_family(3), {"t": 1})
    assert abelianization_codim(f2, 16) == (1, True)
    assert abelianization_codim(f3, 16) == (1, True)
    with pytest.raises(WindowTooSmall):
        abelianization_codim(w1, 6)
    with pytest.raises(ValueError):
        abelianization_codim(specialize(witt(), {}), 16)


def test_family_json_shape():
    data = elliptic().to_json()
    assert data["family"] == "elliptic"
    assert data["params"] == ["e1", "e2"]
    assert set(data["rule"]) == {"odd-odd", "even-even", "odd-even"}
    shift, (a, b, d) = data["rule"]["odd-odd"][0]
    assert shift == 0 and (a, b, d) == ("-1", "1", "0")
    vir = virasoro().to_json()
    assert vir["central"]["kind"] == "delta"


def test_element_json():
    elem = basis_bracket(virasoro(), 2, -2)
    data = elem.to_json()
    assert data == {"components": [[0, "-4"], ["c", "-1/2"]]}
    assert LieElement.from_json((), data) == elem


def test_family_json_round_trip():
    from liefam.algebra import family_from_json
    from liefam.central import attach_central, central_table_from_residues

    for fam in [witt(), virasoro(), elliptic(), formal_family(2)]:
        back = family_from_json(fam.to_json())
        assert back.rule_signature() == fam.rule_signature()
        assert back.central == fam.central
    extended = attach_central(witt(), central_table_from_residues("witt", -6, 6))
    back = family_from_json(extended.to_json())
    for n in range(-6, 7):
        for m in range(-6, 7):
            assert back.central.value(n, m) == extended.central.value(n, m)


# ---------------------------------------------------------------------------
# the index-symbolic proofs against plain enumeration
# ---------------------------------------------------------------------------


def enumerated_jacobi(family, window):
    """verify_jacobi's report JSON by plain enumeration with the uncached jacobiator."""
    indices = sorted(n for n in window if family.in_domain(n))
    name = f"jacobi:{family.name}"
    checked = 0
    for n, m, k in itertools.combinations(indices, 3):
        checked += 1
        value = jacobiator(family, n, m, k)
        if not value.is_zero:
            witness = {"triple": [n, m, k], "value": value.to_json()}
            return {"check": name, "status": "FAIL", "checked": checked, "witness": witness}
    grid = {"odd": sum(n % 2 for n in indices), "even": sum(1 - n % 2 for n in indices)}
    certificate = {
        "window": [indices[0], indices[-1]], "degree_bound": 2, "grid_per_parity": grid
    }
    return {"check": name, "status": "PASS", "checked": checked, "certificate": certificate}


def reference_d1(algebra, c):
    """(n, m) -> F([v_n, v_m]) - [F(v_n), v_m] - [v_n, F(v_m)] for the 1-cochain F = c.

    Computed with LieElement arithmetic and `bracket`, independent of
    the term walks of the cohomology module.
    """

    def d1(n, m):
        inner = LieElement.zero(c.params)
        for key, coeff in basis_bracket(algebra, n, m).components.items():
            if key != CENTRAL:
                inner = inner + c.value(key).scale(coeff)
        left = bracket(algebra, c.value(n), LieElement.basis(m, c.params))
        right = bracket(algebra, LieElement.basis(n, c.params), c.value(m))
        return inner - left - right

    return d1


def reference_d2(algebra, c):
    """(n, m, k) -> (d2 c)(v_n, v_m, v_k) for an adjoint 2-cochain c, like `reference_d1`.

    The action of each index on c of the other two, then c on each
    bracket of two indices and the third, with alternating signs.
    """

    def d2(*xs):
        total = LieElement.zero(c.params)
        for i in range(3):
            rest = tuple(xs[j] for j in range(3) if j != i)
            acted = bracket(algebra, LieElement.basis(xs[i], c.params), c.value(*rest))
            total = total + (acted if i % 2 == 0 else -acted)
        for i, j in itertools.combinations(range(3), 2):
            (rest,) = [xs[t] for t in range(3) if t not in (i, j)]
            paired = LieElement.zero(c.params)
            for key, coeff in basis_bracket(algebra, xs[i], xs[j]).components.items():
                if key != CENTRAL:
                    paired = paired + c.value(key, rest).scale(coeff)
            total = total + (paired if (i + j) % 2 == 0 else -paired)
        return total

    return d2


def enumerated_cocycle(algebra, cochain, window):
    """is_cocycle's report JSON by plain enumeration of `reference_d1` or `reference_d2`."""
    indices = sorted(n for n in window if algebra.in_domain(n))
    d = (reference_d1 if cochain.arity == 1 else reference_d2)(algebra, cochain)
    name = f"cocycle:{cochain.label or 'cochain'}"
    checked = 0
    for tup in itertools.combinations(indices, cochain.arity + 1):
        checked += 1
        value = d(*tup)
        if not value.is_zero:
            witness = {"tuple": list(tup), "value": value.to_json()}
            return {"check": name, "status": "FAIL", "checked": checked, "witness": witness}
    certificate = {"window": [indices[0], indices[-1]], "degree_bound": 2}
    return {"check": name, "status": "PASS", "checked": checked, "certificate": certificate}


def outcome(report, *args):
    """The report's JSON, or the out-of-domain error it raises."""
    try:
        got = report(*args)
    except OutOfDomainIndex as exc:
        return ("OutOfDomainIndex", str(exc))
    return got if got is None or isinstance(got, dict) else got.to_json()


_RATIONALS = st.sampled_from([Fraction(v) for v in (-2, -1, 1, 2, 3)] + [Fraction(1, 2)])


@st.composite
def coefficients(draw, params):
    """A nonzero rational, or a rational plus a rational multiple of the parameter."""
    c = ParamPoly.const(params, draw(_RATIONALS))
    if params and draw(st.booleans()):
        c = c + ParamPoly.var(params, params[0]) * draw(_RATIONALS)
    return c


@st.composite
def rows(draw, params, same_parity):
    """Terms at one or two shifts; same-parity rows mostly antisymmetric."""
    zero = ParamPoly.const(params, 0)
    out = []
    shifts = st.lists(st.sampled_from([0, -1, -2, -3]), min_size=1, max_size=2, unique=True)
    for shift in draw(shifts):
        f = draw(coefficients(params))
        if same_parity and draw(st.integers(0, 2)):
            out.append(RuleTerm(shift, -f, f, zero))
        else:
            b, d = draw(coefficients(params)), draw(coefficients(params))
            out.append(RuleTerm(shift, -f, b, d))
    return tuple(out)


def _scale_one_term(draw, fam):
    rows_by_key = {**fam.rule, **fam.exceptional}
    keys = [(key, t.shift) for key, ts in rows_by_key.items() for t in ts]
    if not keys:
        return fam
    target = draw(st.sampled_from(keys))
    factor = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(-1, 2)]))
    return map_coefficients(
        fam, lambda key, shift, p: p * factor if (key, shift) == target else p,
        fam.params, fam.name + "|scaled",
    )


def _shift_constant(draw, fam):
    """Add a constant d to a same-parity term: the row stops being antisymmetric."""
    cls = draw(st.sampled_from(["odd-odd", "even-even"]))
    terms = fam.rule.get(cls, ())
    if not terms:
        return fam
    t = terms[0]
    bumped = RuleTerm(t.shift, t.a, t.b, t.d + draw(coefficients(fam.params)))
    rule = {**fam.rule, cls: (bumped,) + terms[1:]}
    return replace(fam, rule=rule, name=fam.name + "|d")


def _random_row(draw, fam):
    cls = draw(st.sampled_from(["odd-odd", "even-even", "odd-even"]))
    rule = {**fam.rule, cls: draw(rows(fam.params, cls != "odd-even"))}
    return replace(fam, rule=rule, name=fam.name + "|row")


def _exceptional_row(draw, fam):
    lo = fam.lower_bound if fam.lower_bound is not None else -3
    index = draw(st.integers(lo, lo + 4))
    zero, one = ParamPoly.const(fam.params, 0), ParamPoly.const(fam.params, 1)
    row = (RuleTerm(0, -one, one, zero),)  # the Witt row, (m - n) v_{n+m}
    if draw(st.booleans()):
        row += (RuleTerm(-1, zero, draw(coefficients(fam.params)), zero),)
    exceptional = {**fam.exceptional, index: row}
    return replace(fam, exceptional=exceptional, name=fam.name + "|exc")


def _lower_bound_1(draw, fam):
    return restricted(fam, 1)


def _central_delta(draw, fam):
    # a m^3 + b m is a 2-cocycle of the Witt algebra; an m^2 term is not
    a, b, c = draw(_RATIONALS), draw(_RATIONALS), draw(st.sampled_from([0, 0, 1]))
    central = CentralDelta((Fraction(0), b, Fraction(c), a))
    return replace(fam, central=central, name=fam.name + "|c")


def _central_table(draw, fam):
    """A table off the central delta's support, over a range that may be too short."""
    lo, hi = draw(st.sampled_from([(-60, 60), (-4, 20)]))
    pairs = st.tuples(st.integers(-3, 6), st.integers(1, 4)).map(lambda p: (p[0], sum(p)))
    entries = {pair: draw(_RATIONALS) for pair in draw(st.lists(pairs, max_size=2))}
    return replace(fam, central=CentralTable(entries, lo, hi), name=fam.name + "|table")


def shifted_witt(shift):
    """(m - n)(v_{n+m} + t v_{n+m+shift}): the fields z^(n+1) (1 + t z^shift) d/dz."""
    params = ("t",)
    zero, one, t = (ParamPoly.const(params, 0), ParamPoly.const(params, 1),
                    ParamPoly.var(params, "t"))
    row = (RuleTerm(0, -one, one, zero), RuleTerm(shift, -t, t, zero))
    rule = {cls: row for cls in PARITY_CLASSES}
    return FamilySpec(f"shifted-witt({shift})", params, rule)


EDITS = (_scale_one_term, _shift_constant, _random_row, _exceptional_row, _lower_bound_1,
         _central_delta, _central_table)
BASES = (witt, virasoro, three_point, nodal, l1_subalgebra, w1_subalgebra,
         lambda: formal_family(2), lambda: formal_family(3), lambda: shifted_witt(-3))


def edited(draw, fam, edits=EDITS):
    for edit in draw(st.lists(st.sampled_from(edits), max_size=2)):
        fam = edit(draw, fam)
    return fam


def windows(draw, fam):
    if fam.lower_bound is not None:
        return range(fam.lower_bound, fam.lower_bound + draw(st.sampled_from([16, 17])))
    lo = draw(st.integers(-9, -7))
    return range(lo, lo + 16)


def test_index_family_preconditions():
    assert index_family(elliptic()).params == ("e1", "e2", "n", "m", "k")
    # odd-even rows may be anything; a same-parity row must be antisymmetric
    assert index_family(three_point()) is not None
    w = witt()
    (t,) = w.rule["even-even"]
    bumped = replace(w, rule={**w.rule, "even-even": (RuleTerm(0, t.a, t.b, t.d + 1),)})
    assert index_family(bumped) is None
    skewed = replace(w, rule={**w.rule, "odd-odd": (RuleTerm(t.shift, t.a, t.b * 2, t.d),)})
    assert index_family(skewed) is None
    table = CentralTable({(1, 2): Fraction(1)}, -9, 9)
    assert index_family(replace(w, central=table)) is None
    clash = FamilySpec("clash", ("n",), {cls: () for cls in PARITY_CLASSES})
    assert index_family(clash) is None
    assert verify_jacobi(shifted_witt(-3), range(-8, 9)).passed
    with pytest.raises(OutOfDomainIndex):  # [v_1, v_2] = v_3 + t v_0 leaves n >= 1
        verify_jacobi(restricted(shifted_witt(-3), 1), range(1, 17))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_verify_jacobi_equals_plain_enumeration(data):
    fam = edited(data.draw, data.draw(st.sampled_from(BASES))())
    window = windows(data.draw, fam)
    assert outcome(verify_jacobi, fam, window) == outcome(enumerated_jacobi, fam, window)


def test_boundary_triples_are_evaluated():
    # p(m) = m^2 is not a 2-cocycle: Jacobi fails only on n + m + k = 0
    skew = replace(witt(), central=CentralDelta((Fraction(0), Fraction(0), Fraction(1))),
                   name="witt|m^2")
    report = verify_jacobi(skew, range(-8, 8))
    assert report.status == "FAIL" and sum(report.witness["triple"]) == 0
    assert report.to_json() == enumerated_jacobi(skew, range(-8, 8))
    # the central delta of the virasoro algebra also touches d2 there
    _, omega = named_cocycle("ds-order1")
    report = is_cocycle(virasoro(), omega, range(-8, 8))
    assert report.to_json() == enumerated_cocycle(virasoro(), omega, range(-8, 8))


@st.composite
def pair_rule_cocycles(draw):
    """(algebra, adjoint PairRule 2-cochain): a named cocycle or the bracket, edited."""
    if draw(st.booleans()):
        algebra, cochain = named_cocycle(draw(st.sampled_from(NAMED_COCYCLES)))
        spec = cochain.rule.spec
        if algebra.lower_bound is None and draw(st.booleans()):
            algebra = virasoro()  # its central delta touches d2
    else:
        algebra = draw(st.sampled_from((witt, virasoro, three_point, l1_subalgebra,
                                        w1_subalgebra, lambda: formal_family(2))))()
        spec = replace(algebra, central=None, name=algebra.name + "|bracket")
    edits = (_scale_one_term, _shift_constant, _random_row, _exceptional_row)
    spec = edited(draw, spec, edits)
    cochain = Cochain(2, "adjoint", None, algebra.params, PairRule(spec), label=spec.name)
    return algebra, cochain


@st.composite
def affine_cochains(draw):
    """(algebra, arity-1 affine map): the derivation ad v_w of the Witt rule, edited or not.

    F(v_n) = (n - w) v_{n+w} is a cocycle of witt and of l1 (for w >= 1),
    and fails on virasoro only where the central delta contributes.  An
    edited odd row may take a coefficient in the algebra's ring.
    """
    algebra = draw(st.sampled_from((witt, virasoro, l1_subalgebra, three_point)))()
    weight = draw(st.integers(-2, 3))
    even = odd = (Fraction(1), Fraction(-weight))
    if draw(st.booleans()):
        odd = (draw(_SMALL), draw(st.one_of(_SMALL, coefficients(algebra.params))))
    low = 1 if algebra.lower_bound else -3
    pins = draw(st.dictionaries(st.integers(low, 5), _SMALL, max_size=2))
    rule = AffineMapRule(weight, even, odd, pins)
    return algebra, Cochain(1, "adjoint", weight, algebra.params, rule, label="map")


@settings(max_examples=30, deadline=None)
@given(st.one_of(pair_rule_cocycles(), affine_cochains()), st.data())
def test_is_cocycle_equals_plain_enumeration(case, data):
    algebra, cochain = case
    window = windows(data.draw, algebra)
    assert outcome(is_cocycle, algebra, cochain, window) == outcome(
        enumerated_cocycle, algebra, cochain, window
    )


def test_differential_equals_reference():
    """The term walks of `differential` agree with `reference_d1` and `reference_d2`.

    The cases include a central algebra and a map whose values carry
    several components and a central one.
    """
    w, ds1 = named_cocycle("ds-order1")
    cocycles = [named_cocycle(name) for name in NAMED_COCYCLES]
    cocycles += [(w, sign_flipped(ds1)), (virasoro(), ds1)]
    table = MapTableRule({
        n: LieElement.from_items((), [(n - 2, n), (n + 1, Fraction(1, 2)), (CENTRAL, 1)])
        for n in range(-4, 6)
    })
    affine = AffineMapRule(-2, (Fraction(0), Fraction(-3)), (Fraction(0), Fraction(-3, 2)),
                           {0: Fraction(1)})
    maps = [(algebra, Cochain(1, "adjoint", None, (), rule))
            for algebra in (w, virasoro()) for rule in (table, affine)]
    for algebra, c in cocycles + maps:
        reference = (reference_d1 if c.arity == 1 else reference_d2)(algebra, c)
        d = differential(algebra, c)
        indices = range(1, 10) if algebra.lower_bound else range(-5, 6)
        for tup in itertools.combinations(indices, c.arity + 1):
            assert d.value(*tup) == reference(*tup), (algebra.name, c.rule, tup)


def enumerated_coboundary(algebra, phi, omega, beta, scalar, window):
    """_verify_coboundary's result for an affine map, by plain enumeration of `reference_d1`."""
    indices = sorted(n for n in window if algebra.in_domain(n))
    extended = [n for n in range(indices[0] - 4, indices[-1] + 5) if algebra.in_domain(n)]
    d1 = reference_d1(algebra, phi)
    for n, m in itertools.combinations(extended, 2):
        lhs = d1(n, m)
        rhs = omega.value(n, m)
        if beta is not None:
            rhs = rhs - beta.value(n, m).scale(scalar)
        if not (lhs - rhs).is_zero:
            return {"pair": [n, m], "difference": (lhs - rhs).to_json()}
    return None


_HALF = Fraction(1, 2)
#: (omega, beta, scalar, weight, even (a, d), odd (a, d), pins): coboundary
#: witnesses, so that most parity patterns are proved and only boundary
#: pairs are evaluated.
WITNESSES = (
    ("ds-order1", None, None, -2, (0, -3), (0, -3 * _HALF), {}),
    ("dinf-order2", None, None, -4, (0, 1), (0, _HALF), {}),
    ("beta2", None, None, -1, (_HALF, _HALF), (_HALF, _HALF), {1: 0}),
    ("w1-order1", "beta3", Fraction(1, 3), -2, (Fraction(1, 6), Fraction(-2, 3)),
     (Fraction(1, 6), Fraction(-1, 6)), {1: 0, 2: 0}),
    ("beta3", "beta3", Fraction(1), -2, (0, 0), (0, 0), {}),
)
_SMALL = st.sampled_from([Fraction(v) for v in (-2, -1, 0, 1, 2)] + [_HALF, Fraction(-4, 3)])


@st.composite
def coboundary_cases(draw):
    """(algebra, F, omega, beta, scalar): a witness, perturbed or not, or a random map."""
    omega_name, beta_name, scalar, weight, even, odd, pins = draw(st.sampled_from(WITNESSES))
    algebra, omega = named_cocycle(omega_name)
    if algebra.lower_bound is None and draw(st.booleans()):
        algebra = virasoro()  # its central delta touches d1
    low = 1 if algebra.lower_bound else -3
    pins = dict(pins)
    kind = draw(st.sampled_from(["witness", "pinned", "random"]))
    if kind == "random":  # weight in -4..2, a and d per parity
        weight = draw(st.integers(-4, 2))
        even = (draw(_SMALL), draw(_SMALL))
        odd = (draw(_SMALL), draw(_SMALL))
        pins = draw(st.dictionaries(st.integers(low, 5), _SMALL, max_size=3))
    elif kind == "pinned":  # one pin moved off the map: a mismatch at a boundary pair
        index = draw(st.integers(low, 5))
        a, d = odd if index % 2 else even
        pins[index] = pins.get(index, a * index + d) + draw(st.sampled_from([-1, _HALF, 2]))
    beta = None
    if beta_name is not None:
        beta = named_cocycle(beta_name)[1]
        if draw(st.booleans()):
            scalar = draw(_SMALL)
    rule = AffineMapRule(weight, tuple(map(Fraction, even)), tuple(map(Fraction, odd)),
                         {n: Fraction(v) for n, v in pins.items()})
    phi = Cochain(1, "adjoint", weight, algebra.params, rule, label="map")
    return algebra, phi, omega, beta, scalar


@settings(max_examples=30, deadline=None)
@given(coboundary_cases(), st.data())
def test_verify_coboundary_equals_plain_enumeration(case, data):
    algebra, phi, omega, beta, scalar = case
    window = windows(data.draw, algebra)
    args = (algebra, phi, omega, beta, scalar, window)
    # an affine map is its own ansatz cochain, one with no unknowns, and
    # covers every pair
    assert outcome(lambda *a: _verify_coboundary(a[0], phi, None, *a[1:]), *args) == outcome(
        enumerated_coboundary, *args
    )


def test_coboundary_witnesses_are_proved_per_parity_pattern():
    """Each witness of WITNESSES settles all four parity patterns of (n, m) symbolically."""
    patterns = list(itertools.product((0, 1), repeat=2))

    def prove(omega_name, beta_name, scalar, weight, even, odd, pins, algebra=None):
        named, omega = named_cocycle(omega_name)
        beta = None if beta_name is None else named_cocycle(beta_name)[1]
        phi = Cochain(1, "adjoint", weight, (), AffineMapRule(weight, even, odd, pins))
        return _coboundary_identity(algebra or named, phi, omega, beta, scalar)[1]

    for witness in WITNESSES:
        assert all(prove(*witness)(INDEX_FORMS[:2], p, _Boundary()) for p in patterns)
    # on virasoro the central delta only adds boundary pairs
    ds_order1 = prove(*WITNESSES[0], algebra=virasoro())
    assert all(ds_order1(INDEX_FORMS[:2], p, _Boundary()) for p in patterns)
    # a table-valued beta has no symbolic form
    _, omega = named_cocycle("ds-order1")
    phi = Cochain(1, "adjoint", -2, (), AffineMapRule(-2, (0, -3), (0, Fraction(-3, 2))))
    table = Cochain(2, "adjoint", -2, (), PairTableRule({}))
    assert _coboundary_identity(witt(), phi, omega, table, Fraction(1))[1] is None


def _proves():
    """(name, arity, prove) of Jacobi for every catalog family and of d of every named
    cocycle, plus d1 F - omega (+ c * beta) of every coboundary witness."""
    out = []
    for name in CATALOG:
        fam = by_name(name, s=3)
        out.append((name, 3, _identity(_jacobi_terms, _bracket_sources(fam), fam.params)[1]))
    for name in NAMED_COCYCLES:
        out.append((name, 3, differential(*named_cocycle(name)).rule.prove))
    for omega_name, beta_name, scalar, weight, even, odd, pins in WITNESSES:
        algebra, omega = named_cocycle(omega_name)
        beta = None if beta_name is None else named_cocycle(beta_name)[1]
        phi = Cochain(1, "adjoint", weight, (), AffineMapRule(weight, even, odd, pins))
        prove = _coboundary_identity(algebra, phi, omega, beta, scalar)[1]
        out.append((f"d1 F = {omega_name}", 2, prove))
    return out


def test_class_representatives_give_the_direct_entries():
    """The entries derived from a class representative, by permuting form coefficients,
    are those of a direct proof of each pattern, with no pin or one pinned slot."""
    for name, arity, prove in _proves():
        for pattern in itertools.product((0, 1), repeat=arity):
            for pin, e in [(None, None)] + [(i, e) for i in range(arity) for e in (1, 2)]:
                if pin is not None and pattern[pin] != e % 2:
                    continue
                kinds = tuple((0, e) if i == pin else (1, p) for i, p in enumerate(pattern))
                forms = [(0, 0, 0, e) if i == pin else INDEX_FORMS[i] for i in range(arity)]
                boundary = _Boundary()
                proved = prove(forms, pattern, boundary) and not boundary.failed
                direct = boundary.entries if proved else None
                assert _stratum(prove, kinds, {}) == direct, (name, kinds)


def evaluated(monkeypatch):
    """The tuples that `nonzero_tuples` evaluates from now on, in order."""
    seen, walk = [], algebra_module.nonzero_tuples

    def counting(indices, arity, prove, value):
        return walk(indices, arity, prove, lambda *tup: seen.append(tup) or value(*tup))

    for module in (algebra_module, cohomology_module):
        monkeypatch.setattr(module, "nonzero_tuples", counting)
    return seen


def test_pinned_strata_leave_no_tuple_to_evaluate(monkeypatch):
    """formal-2/3 and beta2/3 differ from a proved family only at one exceptional row;
    its stratum is proved once per class, so no triple is evaluated."""
    seen = evaluated(monkeypatch)
    for i in (2, 3):
        report = verify_jacobi(formal_family(i), range(1, 22))
        assert report.passed and report.checked == 1330
    for name in ("beta2", "beta3"):
        report = is_cocycle(*named_cocycle(name), range(1, 22))
        assert report.passed and report.checked == 1330
    assert seen == []


def test_closed_shape_solves_evaluate_only_the_doubly_pinned_pair(monkeypatch):
    """Criterion 4's solves read every equation off class residuals and evaluate no
    pair; criterion 5's compare evaluates only (1, 2), pinned at both indices, once
    for its equations and once in the re-check."""
    seen = evaluated(monkeypatch)
    w = witt()
    for name, weight in (("ds-order1", -2), ("dinf-order2", -4)):
        result = solve_coboundary(w, named_cocycle(name)[1], Ansatz("parity-constant", weight),
                                  range(-12, 13))
        assert result.solved
    assert seen == []
    algebra, omega = named_cocycle("w1-order1")
    ansatz = Ansatz("affine", -2, pins={1: Fraction(0), 2: Fraction(0)})
    result = compare_classes(algebra, omega, named_cocycle("beta3")[1], ansatz, range(1, 25))
    assert result.solved and result.scalar == Fraction(1, 3)
    assert seen == [(1, 2), (1, 2)]


def test_a_broken_stratum_gives_the_enumerated_witness(monkeypatch):
    """An exceptional-row edit that breaks Jacobi only on its stratum, index 2 of
    formal-3: the stratum's proof fails, its triples are evaluated, and the witness is
    the enumerated one.  Likewise for a tuple pinned at two exceptional rows."""
    fam = formal_family(3)
    t = ParamPoly.var(fam.params, "t")
    row = fam.exceptional[2] + (RuleTerm(0, t * 0, t * 0, t),)
    edited = replace(fam, exceptional={2: row}, name="formal-3|d")
    seen = evaluated(monkeypatch)
    report = verify_jacobi(edited, range(1, 22))
    assert report.to_json() == enumerated_jacobi(edited, range(1, 22))
    assert report.witness["triple"] == [1, 2, 3] and seen == [(1, 2, 3)]
    # two exceptional rows: [v_1, v_4] and [v_4, v_1] both take the row of 1, and
    # the triples pinned at both are evaluated; ad(v_1) is the Witt one plus the
    # derivation -2 * degree, so this is a semidirect product and Jacobi holds
    report = verify_jacobi(TWO_ROWS[0], range(1, 17))
    assert report.to_json() == enumerated_jacobi(TWO_ROWS[0], range(1, 17))
    assert report.passed


def _two_rows(base, name, rows):
    one, zero = ParamPoly.const((), 1), ParamPoly.const((), 0)
    witt_row = (RuleTerm(0, -one, one, zero),)
    extra = {"deg": RuleTerm(-1, zero, one * -2, zero), "d": RuleTerm(0, zero, zero, one),
             "m": RuleTerm(1, zero, one, zero)}
    exceptional = {n: witt_row + tuple(extra[x] for x in xs) for n, xs in rows.items()}
    return replace(base, exceptional=exceptional, name=name)


#: Specs with two exceptional rows: l1 with Witt rows at 1 and 4 plus -2m v_(n+m-1)
#: at 1, the same with v_(4+m) added at 4, and Witt with extra terms at 0 and 3.
TWO_ROWS = (
    _two_rows(l1_subalgebra(), "l1|exc", {1: ["deg"], 4: []}),
    _two_rows(l1_subalgebra(), "l1|exc2", {1: ["deg"], 4: ["d"]}),
    _two_rows(witt(), "witt|exc", {0: ["m"], 3: ["d"]}),
)


@pytest.mark.parametrize("family", TWO_ROWS, ids=lambda f: f.name)
def test_two_exceptional_rows_bracket_antisymmetrically(family):
    """A bracket of two exceptional indices takes the smaller one's row, either way
    round, and Jacobi is still decided as plain enumeration decides it."""
    window = range(1, 17) if family.lower_bound else range(-8, 9)
    for n, m in itertools.product(window, repeat=2):
        assert basis_bracket(family, n, m) == -basis_bracket(family, m, n), (n, m)
    assert verify_jacobi(family, window).to_json() == enumerated_jacobi(family, window)


def test_stated_map_fails_on_its_pinned_strata_only(monkeypatch):
    """Criterion 5's stated map: its pins at 1 and 2 are strata whose proofs fail, so
    exactly the 45 pairs touching 1 or 2 are evaluated, and all 45 fail."""
    _, omega = named_cocycle("w1-order1")
    _, beta3 = named_cocycle("beta3")
    window = range(1, 25)
    seen = evaluated(monkeypatch)
    residuals = suite_residuals(stated_map({1: 0, 2: 0}), omega, beta3, Fraction(1, 3), window)
    touching = {(n, m) for n, m in itertools.combinations(window, 2) if n in (1, 2)}
    assert set(residuals) == set(seen) == touching and len(touching) == 45
    seen.clear()
    assert not suite_residuals(stated_map({2: Fraction(-4, 3)}), omega, beta3,
                               Fraction(1, 3), window)
    assert seen == []


#: SHA-256 of the sorted report JSON, recorded when every triple was
#: enumerated; window "a" is -8..8 (1..16 with an index bound), "b" is
#: -9..12 (1..23).
REPORT_PINS = {
    "jacobi witt a": "5d6790f188ad542934cd490a4de82cff6ba11e4797ccc4f78509c5e59a137337",
    "jacobi virasoro a": "93b438ec8d06d9eb2f43828c8cd1d58a883ebff0d2836e88c4098fed5c1b3d74",
    "jacobi elliptic a": "452ca196b3e28da300e0bfc8be59354d7c6afcb22a643b6363d9f638e8b4907e",
    "jacobi d-infinity a": "edbdf19914b7e48c20cf5005cd4e2cdd6d79b7acf7df131f5d7fd1874be0f1ad",
    "jacobi three-point a": "6f920d670b15d2a738466f05746715a3ee7b389e3a85726ef554ab2f9a89aa96",
    "jacobi nodal a": "5af376b38819ac7cb13223cddd1052680d596846440c46b3562e74427fbbf221",
    "jacobi l1 a": "117aec880049b444d73ac7b66c517e54a330b563fafe611151e1b2d398824cc6",
    "jacobi w1 a": "60703bc927d57957ad200389b62ec3d19934f1b9e69add62d6687769a96b2947",
    "jacobi formal-1 a": "a844f870d6588ff6406cd3c525fe1a7bacf6f7fcd19a4746713d204e9742e9ec",
    "jacobi formal-2 a": "35b485360985a84ab9714bf47e96d950b783537de30ecc9ad8669c989cc8266d",
    "jacobi formal-3 a": "d056971b60a27a8c21c2716a8aeb535f12fa92e1ea7c664c25bf5f131e158c80",
    "jacobi d-line(s=0) a": "76c9f0c59fe436a86b017a5c79e3a14468750f76aa426d79bc529e4c5a6a7865",
    "jacobi d-line(s=1) a": "9a828aedecf68b57c541bf07ce19c7a2f9fe78b7957b682b4fb6b43151ae1e4b",
    "jacobi d-line(s=-2) a": "51781e1129a78cbe300c783b65091127c6060d0bb4cb3c13c02df07c101c96fb",
    "jacobi d-line(s=-1/2) a": "4ee918821fc7a2a477e0e37d8f1bef101d52368b9b20b2c3f8a0ac74c83edeb5",
    "jacobi d-line(s=3) a": "76421f796b3c2a2d7db0132af7106bbf88e3497a60208494e5b2d941f1c81c73",
    "jacobi elliptic|corrupted a": "5037b3330606cae6a86b95417f8e6995c70c6d67abc135e71993848fc53ac049",
    "cocycle ds-order1 a": "da5ff87243282c9bd408db618d977bf736b25b319d7c0629af60a850259ef369",
    "cocycle dinf-order2 a": "d1ee1122722aec134dcd543af502a08f7d11ae91d1faea47b5d6b72c15268c2a",
    "cocycle w1-order1 a": "c51d8fede453ba333dc369794c597670526348fcaea5665defb6ecfb243f6547",
    "cocycle beta1 a": "14cea574c3e19341c0c4105cd5a55db9b19fd0054fddb11594e8295ecec94628",
    "cocycle beta2 a": "b835de2e33bae3b65a54e4ecd5bc3dddf90c64398bc9567e03284f7caff303ff",
    "cocycle beta3 a": "475917ff92d5cf26be49d466af973f0571ea4bdd8a48b0d159db5a984f8ac6d0",
    "cocycle sign-flipped ds-order1 a": "de912db99ecd98ae675e41e2601da6a04964026445cd5eedae40571ec3e3c4de",
    "jacobi witt b": "9de3d08557c09fb8eae42e043325c60e9ed58cdb0ef9636adc6f232f07a9005e",
    "jacobi virasoro b": "02f8006c21a5db7b365eb6d875d8b0e051a236cef889c0ac9ab71c682a8609ba",
    "jacobi elliptic b": "1d2efd7b1b5ed3d4ba3ddd2f6bb14cb095f9e9802cb1b75b44c46f1402e49009",
    "jacobi d-infinity b": "bbf42b40ce82f66d60d173523b6a5aab6c17f7430ce44085b0b4eeeabc7cb868",
    "jacobi three-point b": "b5f54930505ad37d89b88bc9ea3a06a427b847cc31b9ac9010adee93d37f4223",
    "jacobi nodal b": "817180bb2848f3825583d5794b2536643b52bd08c4598cbc473e17a7d62bc074",
    "jacobi l1 b": "ce11e8979208f9fd7439eb4d27a4d2767ea25442e997695c0174e7818c8d4246",
    "jacobi w1 b": "3798e1f70c37b9945e7c61ffa7d517e1387a10c4ddadecab0bdf285ca909be38",
    "jacobi formal-1 b": "38904b6579c4eec77fe1b485510872971930977640efebac66c57393f02ad3b2",
    "jacobi formal-2 b": "f9f6844bb9a9b6f9de407ad1c9f700008bf92ea4f21671ae88a7ff98833b9071",
    "jacobi formal-3 b": "676b00e01ff526c8e677e1edba0d6913db2cf67cd8ac2fbfb05efff7bad389b2",
    "jacobi d-line(s=0) b": "0ef1df6a8d5f43c5ff2477d6dde37ee4f3b485f170508305aef6ab215d260483",
    "jacobi d-line(s=1) b": "016835acbc66ddcdc288836d6272d980188ced2f7ae8d0ae55b494f4309f6eb8",
    "jacobi d-line(s=-2) b": "1ccf7b23ffa0b718db6f9c5e1339da7298548abecca4e5a976e3a81ebce4db33",
    "jacobi d-line(s=-1/2) b": "eecc27764a65d18b18f2123b2b481c176e8941567d8f60630c12ec7263bb3bb2",
    "jacobi d-line(s=3) b": "9771209245f414ba48f7e9dd0c898613ea20cf5d7a7e35c367fb6e962574b948",
    "jacobi elliptic|corrupted b": "a7422d4297267179b68417ba9c640a4972b2b7221875fc0a727a280fdd52fea9",
    "cocycle ds-order1 b": "79b611d4836aeffcf19483c9c49fe65763fd7bea1c590371fcaf622e08c6e622",
    "cocycle dinf-order2 b": "a62a5ac62983ee4d7d49399dcb7d25b7b4f02ba80b46c3f2fe0efc372b867cde",
    "cocycle w1-order1 b": "dd40fe84d9a1b588ad0108103754c2bfcdb0e68d3e67d40c706cfe8600884c7a",
    "cocycle beta1 b": "d326c33f910aad8331b716251d896a443dd3138fc406ec11a895b6a6c1d18c17",
    "cocycle beta2 b": "9cc1af6da57547fc8f66469b8fc11bd59344bbb8c35db48d72a12c2ffad70789",
    "cocycle beta3 b": "aad0ee6ca709b0068c8cae60002c2d429d6308f47374d714fc0238d636b7226b",
    "cocycle sign-flipped ds-order1 b": "da542ab3172592080992f2cfc64b5afaf1a5f905dbea3137d955d43988bd62d0",
}
PIN_WINDOWS = {"a": (range(-8, 9), range(1, 17)), "b": (range(-9, 13), range(1, 24))}


def _digest(report):
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


def test_reports_are_pinned():
    fams = [witt(), virasoro(), elliptic(), d_infinity(), three_point(), nodal(),
            l1_subalgebra(), w1_subalgebra(), *(formal_family(i) for i in (1, 2, 3)),
            *(d_line(s) for s in (0, 1, -2, Fraction(-1, 2), 3)), corrupted_elliptic()]
    cocycles = [(name, *named_cocycle(name)) for name in NAMED_COCYCLES]
    w, omega = named_cocycle("ds-order1")
    cocycles.append(("sign-flipped ds-order1", w, sign_flipped(omega)))
    got = {}
    for key, (full, low) in PIN_WINDOWS.items():
        for fam in fams:
            window = low if fam.lower_bound else full
            got[f"jacobi {fam.name} {key}"] = _digest(verify_jacobi(fam, window))
        for name, algebra, cochain in cocycles:
            window = low if algebra.lower_bound else full
            got[f"cocycle {name} {key}"] = _digest(is_cocycle(algebra, cochain, window))
    assert got == REPORT_PINS
