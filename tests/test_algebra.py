"""Bracket engine: antisymmetry, Jacobi certification, specialization."""

import copy
import hashlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liefam import algebra as algebra_module
from liefam import cohomology as cohomology_module
from liefam.algebra import (
    CENTRAL,
    INDEX_FORMS,
    INDEX_VARS,
    PARITY_CLASSES,
    CentralDelta,
    FamilySpec,
    _affine_forms,
    _Boundary,
    LieElement,
    RuleTerm,
    _bracket_sources,
    _combinations,
    _identity,
    _jacobi_terms,
    _Plan,
    _union,
    abelianization_codim,
    basis_bracket,
    bracket,
    domain_indices,
    evaluate_pair_rule,
    family_from_json,
    grading_bounds,
    index_family,
    jacobiator,
    map_coefficients,
    nonzero_tuples,
    restricted,
    specialize,
    symbolic_pair_rule,
    verify_jacobi,
)
from liefam.cohomology import (
    AffineMapRule,
    Ansatz,
    Cochain,
    DerivedRule,
    MapTableRule,
    PairRule,
    _coboundary_identity,
    coboundary_mismatches,
    compare_classes,
    deformation_differential,
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
from liefam.linalg import rank_of_vectors
from liefam.moduli import rescale
from liefam.poly import ParamPoly, split
from liefam.suite import (
    NAMED_COCYCLES,
    SMOOTH_POINTS,
    corrupted_elliptic,
    criterion_1,
    default_window,
    named_cocycle,
    sign_flipped,
)
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


@given(
    st.integers(-5, 5), st.integers(0, 8), st.sets(st.integers(-10, 15), max_size=4),
    st.one_of(st.none(), st.integers(-6, 6)), st.integers(1, 3), st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_the_witness_walk_is_the_combinations_of_the_sorted_union(
    start, length, extra, low, arity, as_range
):
    indices = range(start, start + length)
    values = _union(indices if as_range else list(indices), extra, low)
    pool = sorted(v for v in set(indices) | extra if low is None or v >= low)
    assert list(_combinations(values, arity)) == list(itertools.combinations(pool, arity))


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_a_failing_walk_reads_only_the_start_of_its_window():
    """The witness search walks the window lazily, so a FAIL on 10^9 indices
    runs in 1 GiB of address space and names the witness of a small window."""
    code = textwrap.dedent("""
        import json
        from liefam.algebra import verify_jacobi
        from liefam.suite import corrupted_elliptic
        windows = (range(1, 10**9), range(1, 30))
        print(json.dumps([verify_jacobi(corrupted_elliptic(), w).to_json() for w in windows]))
    """)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    huge, small = json.loads(proc.stdout)
    assert huge == small
    assert huge["status"] == "FAIL" and huge["witness"]["triple"] == [1, 2, 3]


def test_verify_jacobi_certifies_the_domain_on_any_window():
    """No window size is required: Witt's eight parity classes are proved, no
    triple is evaluated, and the report is the same on every window."""
    report = verify_jacobi(witt(), range(-8, 9))
    assert report.passed and report.checked == 0
    assert report.certificate == {
        "proved": [{"class": c, "forms": ["n", "m", "k"]} for c in (
            "even-even-even", "even-even-odd", "even-odd-even", "even-odd-odd",
            "odd-even-even", "odd-even-odd", "odd-odd-even", "odd-odd-odd")],
        "evaluated": [],
    }
    for window in (range(-4, 5), range(3, 4), range(-40, 41)):
        assert verify_jacobi(witt(), window).to_json() == report.to_json()
    # virasoro's central delta is proved on its hyperplanes n + m + k = 0
    report = verify_jacobi(virasoro(), range(-8, 9))
    assert report.passed and report.checked == 0
    assert {"class": "even-even-even", "forms": ["n", "m", "-m - n"]} in (
        report.certificate["proved"]
    )


def test_defects_beyond_the_window_fail():
    """A defect outside the window is a FAIL: a Witt row at 40 whose Jacobi identity
    breaks fails on -8..8 at the first triple of the window and the pinned row, and
    a pin at 50 makes a solve on -12..12 infeasible on the stratum of 50."""
    bad = replace(witt(), exceptional={40: (RuleTerm(0, *(ParamPoly.const((), c)
                                                        for c in (-1, 1, 1))),)})
    report = verify_jacobi(bad, range(-8, 9))
    assert report.status == "FAIL" and report.witness["triple"] == [-8, -7, 40]
    assert not jacobiator(bad, -8, -7, 40).is_zero
    assert report.witness["value"] == jacobiator(bad, -8, -7, 40).to_json()
    _, omega = named_cocycle("ds-order1")
    result = solve_coboundary(witt(), omega, Ansatz("parity-constant", -2, pins={50: 7}),
                              range(-12, 13))
    assert result.status == "infeasible"
    assert result.certificate["contradiction_at"]["forms"] == ["50", "m"]


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


def test_map_coefficients_keeps_no_origin_or_record():
    """The images are no pullback of the family's root: a deformation
    coefficient, its sign flip, a corruption and a rescaling claim no origin,
    while `pullback` still records its own."""
    ds1 = deformation_differential(d_line(0), "e1", 1)
    line = d_line(0)
    mapped = [
        ds1.rule.spec,
        sign_flipped(ds1).rule.spec,
        corrupted_elliptic(),
        rescale(witt(), 4),
        map_coefficients(line, lambda key, shift, p: p, line.params, "copy"),
    ]
    assert line.origin is not None and line.record is not None
    assert all((fam.origin, fam.record) == (None, None) for fam in mapped)
    assert specialize(line, {"e1": 1}).record is not None


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


def codim_by_rank(family, n):
    """The codimension of the window n's commutator span, ranked on its own."""
    top = n - abs(grading_bounds(family).lower)
    vectors = []
    for a, b in itertools.combinations(range(1, n + 1), 2):
        comps = evaluate_pair_rule(family, a, b)
        if comps and max(idx for idx, _ in comps) <= top:
            vectors.append({idx: c.constant_value() for idx, c in comps})
    return top - rank_of_vectors(vectors)


def test_abelianization_codim_ranks_both_windows_in_one_system():
    """One elimination gives the codimensions of two independent ranks, at N and
    N + 4, for the four algebras of criterion 8."""
    for fam in (specialize(w1_subalgebra(), {"alpha2": 1}), l1_subalgebra(),
                specialize(formal_family(2), {"t": 1}), specialize(formal_family(3), {"t": 1})):
        for n in range(8, 25):
            first = codim_by_rank(fam, n)
            assert abelianization_codim(fam, n) == (first, first == codim_by_rank(fam, n + 4))


def test_abelianization_codim_adds_integral_brackets_as_ints(monkeypatch):
    """Criterion 8's algebras have integral brackets: each enters the elimination
    with int coefficients, so no denominator is cleared; a rational one still ranks."""
    seen, add = [], algebra_module.LinearSystem.add

    def recording(self, coeffs, rhs, tag=None):
        seen.extend(map(type, coeffs.values()))
        return add(self, coeffs, rhs, tag)

    monkeypatch.setattr(algebra_module.LinearSystem, "add", recording)
    for fam in (specialize(w1_subalgebra(), {"alpha2": 1}), l1_subalgebra(),
                specialize(formal_family(2), {"t": 1}), specialize(formal_family(3), {"t": 1})):
        abelianization_codim(fam, 16)
    assert seen and set(seen) == {int}
    fam = specialize(formal_family(2), {"t": Fraction(1, 2)})
    first = codim_by_rank(fam, 16)
    assert abelianization_codim(fam, 16) == (first, first == codim_by_rank(fam, 20))


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
    for fam in [witt(), virasoro(), elliptic(), formal_family(2)]:
        back = family_from_json(fam.to_json())
        assert back.rule_signature() == fam.rule_signature()
        assert back.central == fam.central


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


def verdict(report):
    """A report's JSON without its certificate and count of evaluated tuples."""
    data = report if isinstance(report, dict) else report.to_json()
    return {k: v for k, v in data.items() if k not in ("checked", "certificate")}


def outcome(report, *args):
    """The report's verdict, or the out-of-domain error it raises."""
    try:
        got = report(*args)
    except OutOfDomainIndex as exc:
        return ("OutOfDomainIndex", str(exc))
    return got if got is None else verdict(got)


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


def shifted_witt(shift):
    """(m - n)(v_{n+m} + t v_{n+m+shift}): the fields z^(n+1) (1 + t z^shift) d/dz."""
    params = ("t",)
    zero, one, t = (ParamPoly.const(params, 0), ParamPoly.const(params, 1),
                    ParamPoly.var(params, "t"))
    row = (RuleTerm(0, -one, one, zero), RuleTerm(shift, -t, t, zero))
    rule = {cls: row for cls in PARITY_CLASSES}
    return FamilySpec(f"shifted-witt({shift})", params, rule)


def _blind_term(draw, fam):
    """Add f (m - n) at a shift no class row has to every class row: a parity-blind
    rule stays blind, and an exceptional row that lacks the term now breaks Jacobi."""
    used = {t.shift for ts in fam.rule.values() for t in ts}
    shift = draw(st.sampled_from([j for j in range(-1, -7, -1) if j not in used]))
    f = draw(coefficients(fam.params))
    new = RuleTerm(shift, -f, f, ParamPoly.const(fam.params, 0))
    rule = {cls: fam.rule.get(cls, ()) + (new,) for cls in PARITY_CLASSES}
    return replace(fam, rule=rule, name=fam.name + "|blind")


EDITS = (_scale_one_term, _shift_constant, _random_row, _exceptional_row, _lower_bound_1,
         _central_delta, _blind_term)
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
    clash = FamilySpec("clash", ("n",), {cls: () for cls in PARITY_CLASSES})
    assert index_family(clash) is None
    assert verify_jacobi(shifted_witt(-3), range(-8, 9)).passed
    with pytest.raises(OutOfDomainIndex):  # [v_1, v_2] = v_3 + t v_0 leaves n >= 1
        verify_jacobi(restricted(shifted_witt(-3), 1), range(1, 17))


def index_forms():
    """An index form (cn, cm, ck, c): small coefficients of n, m, k and a constant."""
    return st.tuples(*(st.integers(-2, 2) for _ in range(3)), st.integers(-6, 6))


def form_value(form, point):
    return form[3] + sum(c * v for c, v in zip(form, point))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_coefficient_at_index_forms_is_its_value_at_the_integers(data):
    """A rule coefficient at index forms, and an affine map's image of a form, both
    built in one pass, are at integers (n, m, k) of the forms' parity pattern the
    values at the integers the forms take there."""
    draw = data.draw
    parity = draw(st.tuples(*[st.integers(0, 1)] * 3))
    point = tuple(2 * draw(st.integers(-4, 4)) + p for p in parity)
    x, y = draw(index_forms()), draw(index_forms())
    at = dict(zip(INDEX_VARS, point))
    params = draw(st.sampled_from(((), ("t",), ("e1", "e2"))))
    sign = draw(st.sampled_from((1, -1)))
    for t in draw(rows(params, draw(st.booleans()))):
        lifted = RuleTerm(t.shift, *(p.map_params(params + INDEX_VARS) for p in (t.a, t.b, t.d)))
        got = lifted.coefficient(x, y, sign).map_params(params, at)
        assert got == t.coefficient(form_value(x, point), form_value(y, point), sign)
    # F(v_x) = (a*x + d) v_{x + weight}: a generic form where its value is no pin,
    # a constant form at its integer, its pin included
    algebra = draw(st.sampled_from((witt, elliptic, l1_subalgebra)))()
    pair = st.tuples(coefficients(algebra.params), st.one_of(st.just(Fraction(0)), _RATIONALS))
    weight, even, odd = draw(st.integers(-3, 3)), draw(pair), draw(pair)
    pins = draw(st.dictionaries(st.integers(-6, 6), _RATIONALS, max_size=2))
    rule = AffineMapRule(weight, even, odd, pins)
    image = _affine_forms(algebra, rule)(parity, _Boundary())
    for form in (x, (0, 0, 0, x[3])):
        value = form_value(form, point)
        if value in pins and any(form[:3]):
            continue
        got = image(form)
        assert all(form_value(key, point) == value + weight for key, _ in got)
        expected = rule.coefficient(value)
        assert sum((c.map_params(algebra.params, at) for _, c in got), Fraction(0)) == expected


def test_rule_coefficients_at_forms_multiply_no_polynomials(monkeypatch):
    """symbolic_pair_rule and an affine map's image of a form build each coefficient
    by one combination of moved terms, at every parity pattern: no product of
    polynomials, which the patched ParamPoly._times would refuse."""
    families = [index_family(f()) for f in (elliptic, virasoro, lambda: formal_family(2))]
    forms = (*INDEX_FORMS, (0, 0, 0, 1), (1, 1, 0, 2), (0, -1, 1, -3))
    e1, e2 = (ParamPoly.var(elliptic().params, name) for name in ("e1", "e2"))
    rule = AffineMapRule(-2, (e1, Fraction(-3)), (e2 + Fraction(1, 2), e1), {0: Fraction(1)})
    images = _affine_forms(elliptic(), rule)

    def refuse(self, other):
        raise AssertionError("a product of polynomials while building a coefficient")

    monkeypatch.setattr(ParamPoly, "_times", refuse)
    in_the_indices = 0
    for parity in itertools.product((0, 1), repeat=3):
        terms = [t for family in families for x, y in itertools.permutations(forms, 2)
                 for t in symbolic_pair_rule(family, x, y, parity)]
        image = images(parity, _Boundary())
        terms += [t for form in forms for t in image(form)]
        in_the_indices += sum(any(split(e, 3)[1] for e in c.terms) for _, c in terms)
    assert in_the_indices  # the forms reach coefficients that hold n, m or k


def walked_domain(family, window, arity, prove, value):
    """The window and the pinned values `nonzero_tuples` walks besides it, in the
    family's domain: what plain enumeration reads to find the walk's first
    failing tuple, which may have a slot pinned outside the window."""
    try:
        extra = nonzero_tuples(domain_indices(family, window), arity, prove, value).extra
    except OutOfDomainIndex:  # the check raises it too, before any tuple is walked
        extra = set()
    return sorted(n for n in set(window) | extra if family.in_domain(n))


def jacobi_domain(family, window):
    value, prove = _identity(_jacobi_terms, _bracket_sources(family), family.params)
    return walked_domain(family, window, 3, prove, value)


def cocycle_domain(algebra, cochain, window):
    d = differential(algebra, cochain)
    return walked_domain(algebra, window, d.arity, d.rule.prove, d.value)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_verify_jacobi_equals_plain_enumeration(data):
    fam = edited(data.draw, data.draw(st.sampled_from(BASES))())
    window = windows(data.draw, fam)
    assert outcome(verify_jacobi, fam, window) == outcome(
        enumerated_jacobi, fam, jacobi_domain(fam, window)
    )


def nodal_with_two_witt_rows():
    """(nodal with the Witt row as exceptional row at 0 and at -3, its
    bracket as a 2-cochain), and the window -7..8: both fail first at the
    triple (-8, -7, -3), whose -8 is a pinned value of a stratum below the
    window.  Plain enumeration of the window alone answers (-7, -6, -3)."""
    zero, one = (ParamPoly.const(nodal().params, c) for c in (0, 1))
    row = (RuleTerm(0, -one, one, zero),)
    fam = replace(nodal(), exceptional={0: row, -3: row}, name="nodal|exc")
    spec = replace(fam, central=None, name="nodal|exc|bracket")
    bracket_cochain = Cochain(2, "adjoint", None, fam.params, PairRule(spec), label=spec.name)
    return (fam, bracket_cochain), range(-7, 9)


def test_a_witness_pinned_below_the_window_is_enumerated():
    (fam, bracket_cochain), window = nodal_with_two_witt_rows()
    report = verify_jacobi(fam, window)
    assert report.witness["triple"] == [-8, -7, -3]
    assert verdict(report) == outcome(enumerated_jacobi, fam, jacobi_domain(fam, window))
    assert enumerated_jacobi(fam, window)["witness"]["triple"] == [-7, -6, -3]
    # the bracket as a 2-cochain: its differential fails at the same triple
    report = is_cocycle(fam, bracket_cochain, window)
    assert report.witness["tuple"] == [-8, -7, -3]
    assert verdict(report) == outcome(
        enumerated_cocycle, fam, bracket_cochain, cocycle_domain(fam, bracket_cochain, window)
    )


def test_boundary_triples_are_evaluated():
    # p(m) = m^2 is not a 2-cocycle: Jacobi fails only on n + m + k = 0
    skew = replace(witt(), central=CentralDelta((Fraction(0), Fraction(0), Fraction(1))),
                   name="witt|m^2")
    report = verify_jacobi(skew, range(-8, 8))
    assert report.status == "FAIL" and sum(report.witness["triple"]) == 0
    assert verdict(report) == verdict(enumerated_jacobi(skew, range(-8, 8)))
    # the central delta of the virasoro algebra also touches d2 there
    _, omega = named_cocycle("ds-order1")
    report = is_cocycle(virasoro(), omega, range(-8, 8))
    assert verdict(report) == verdict(enumerated_cocycle(virasoro(), omega, range(-8, 8)))


@st.composite
def pair_rule_cocycles(draw):
    """(algebra, adjoint PairRule 2-cochain): a named cocycle or the bracket, edited.

    The algebra may carry an exceptional row of its own, so that strata
    pinned through the algebra's rows are walked; the bracket is then
    the edited algebra's own bracket.
    """
    if draw(st.booleans()):
        algebra, cochain = named_cocycle(draw(st.sampled_from(NAMED_COCYCLES)))
        spec = cochain.rule.spec
        if algebra.lower_bound is None and draw(st.booleans()):
            algebra = virasoro()  # its central delta touches d2
    else:
        algebra = draw(st.sampled_from((witt, virasoro, three_point, nodal, l1_subalgebra,
                                        w1_subalgebra, lambda: formal_family(2))))()
        spec = None
    if draw(st.booleans()):
        algebra = _exceptional_row(draw, algebra)
    if spec is None:
        spec = replace(algebra, central=None, name=algebra.name + "|bracket")
    edits = (_scale_one_term, _shift_constant, _random_row, _exceptional_row, _blind_term)
    spec = edited(draw, spec, edits)
    cochain = Cochain(2, "adjoint", None, algebra.params, PairRule(spec), label=spec.name)
    return algebra, cochain


@st.composite
def affine_cochains(draw):
    """(algebra, arity-1 affine map): the derivation ad v_w of the Witt rule, edited or not.

    F(v_n) = (n - w) v_{n+w} is a cocycle of witt and of l1 (for w >= 1),
    and fails on virasoro only where the central delta contributes.  An
    edited odd row may take a coefficient in the algebra's ring, and the
    algebra may carry an exceptional row of its own.
    """
    algebra = draw(st.sampled_from((witt, virasoro, l1_subalgebra, three_point, nodal)))()
    if draw(st.booleans()):
        algebra = _exceptional_row(draw, algebra)
    weight = draw(st.integers(-2, 3))
    even = odd = (Fraction(1), Fraction(-weight))
    if draw(st.booleans()):
        odd = (draw(_SMALL), draw(st.one_of(_SMALL, coefficients(algebra.params))))
    low = 1 if algebra.lower_bound else -3
    pins = draw(st.dictionaries(st.integers(low, 5), _SMALL, max_size=2))
    rule = AffineMapRule(weight, even, odd, pins)
    return algebra, Cochain(1, "adjoint", weight, algebra.params, rule, label="map")


@st.composite
def cocycle_cases(draw):
    """((algebra, cochain), window) of `pair_rule_cocycles` or `affine_cochains`."""
    case = draw(st.one_of(pair_rule_cocycles(), affine_cochains()))
    return case, windows(draw, case[0])


@settings(max_examples=30, deadline=None)
@given(cocycle_cases())
@example(nodal_with_two_witt_rows())  # a witness outside the window, rarely drawn
def test_is_cocycle_equals_plain_enumeration(case):
    (algebra, cochain), window = case
    assert outcome(is_cocycle, algebra, cochain, window) == outcome(
        enumerated_cocycle, algebra, cochain, cocycle_domain(algebra, cochain, window)
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


def enumerated_coboundary(algebra, phi, omega, beta, scalar, indices):
    """The first pair of `indices` where d1 F - omega + scalar * beta is not zero,
    with its value, by plain enumeration of `reference_d1`; None if there is none."""
    d1 = reference_d1(algebra, phi)
    for n, m in itertools.combinations(indices, 2):
        difference = d1(n, m) - omega.value(n, m)
        if beta is not None:
            difference = difference + beta.value(n, m).scale(scalar)
        if not difference.is_zero:
            return {"pair": [n, m], "difference": difference.to_json()}
    return None


def first_mismatch(algebra, phi, omega, beta, scalar, window):
    """(first, walk): `coboundary_mismatches`' first pair with its value, else its
    first failed stratum, else None; and the walk, whose pinned values it walked."""
    walk = coboundary_mismatches(algebra, phi, omega, beta, scalar, list(window))
    for _, pair, difference in walk:
        return {"pair": list(pair), "difference": difference.to_json()}, walk
    return ({"stratum": walk.failed[0]} if walk.failed else None), walk


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
def test_coboundary_walk_equals_plain_enumeration(case, data):
    """The walk's first mismatch is that of plain enumeration over the window and
    the pinned values of the strata it walks; with no failed stratum, plain
    enumeration finds no mismatch on the window widened by 8 on each side."""
    algebra, phi, omega, beta, scalar = case
    window = windows(data.draw, algebra)
    args = (algebra, phi, omega, beta, scalar)
    try:
        got, walk = first_mismatch(*args, window)
    except OutOfDomainIndex as exc:  # F leaves the basis domain where enumeration sees it
        assert outcome(enumerated_coboundary, *args, window) == ("OutOfDomainIndex", str(exc))
        return
    domain = [n for n in sorted(set(window) | walk.extra) if algebra.in_domain(n)]
    if got is None or "pair" in got:
        assert got == enumerated_coboundary(algebra, phi, omega, beta, scalar, domain)
    if not walk.failed:
        wide = [n for n in range(window[0] - 8, window[-1] + 9) if algebra.in_domain(n)]
        assert (got is None) == (enumerated_coboundary(algebra, phi, omega, beta, scalar,
                                                       wide) is None)


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
    table = Cochain(2, "adjoint", -2, (), DerivedRule(lambda n, m: LieElement.zero()))
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
    """The entries derived from a stratum's representative, by permuting form
    coefficients, are those of a direct proof of each pattern, with no pin or one
    pinned slot."""
    plans = {name: _Plan(range(1, 2), arity, prove, None) for name, arity, prove in _proves()}
    for name, arity, prove in _proves():
        for pattern in itertools.product((0, 1), repeat=arity):
            for pin, e in [(None, None)] + [(i, e) for i in range(arity) for e in (1, 2)]:
                if pin is not None and pattern[pin] != e % 2:
                    continue
                forms = tuple((0, 0, 0, e) if i == pin else INDEX_FORMS[i] for i in range(arity))
                parity = tuple(0 if i == pin else p for i, p in enumerate(pattern))
                parity += (0,) * (3 - arity)
                boundary = _Boundary()
                proved = prove(list(forms), parity, boundary) and not boundary.failed
                direct = boundary.entries if proved else None
                got = plans[name]._status(forms, parity)
                assert (None if got is None else set(got)) == direct, (name, forms, parity)


def class_proofs(prove, arity) -> int:
    """How many proofs a plan of `prove` makes of the stratum with every slot free."""
    plan = _Plan(range(1, 22), arity, prove, None)
    return sum(rep == INDEX_FORMS[:arity] for rep, _ in plan.proofs)


def per_class(monkeypatch):
    """From now on every identity is proved once per parity class: the `prove` of
    `_identity` is wrapped, which drops its `blind`."""
    real = algebra_module._identity

    def unblind(*args, **kwargs):
        value, prove = real(*args, **kwargs)
        return value, prove and (lambda *a: prove(*a))

    for module in (algebra_module, cohomology_module):
        monkeypatch.setattr(module, "_identity", unblind)


#: Every catalog family, d-line at criterion 1's slopes.
ONE_PROOF_FAMILIES = [by_name(name) for name in CATALOG if name != "d-line"] + [
    d_line(s) for s in (0, 1, -2, Fraction(-1, 2), 3)
]


def one_proof_reports(monkeypatch, window):
    """The JSON of verify_jacobi on ONE_PROOF_FAMILIES, each proved directly, not
    transported, and of is_cocycle on every named cocycle, from its family's
    PASS and by a walk of d(c) (its `source` dropped); `window(algebra)`."""
    out = []
    for fam in ONE_PROOF_FAMILIES:
        monkeypatch.setattr(algebra_module, "_ROOT_PASSES", {})
        out.append(verify_jacobi(fam, window(fam)).to_json())
    for name in NAMED_COCYCLES:
        algebra, cochain = named_cocycle(name)
        for c in (cochain, replace(cochain, source=None)):
            out.append(is_cocycle(algebra, c, window(algebra)).to_json())
    return out


@pytest.mark.parametrize("window", [
    default_window,
    lambda fam: range(1, 24) if fam.lower_bound else range(-9, 13),
], ids=["default", "-9..12"])
def test_one_proof_per_slot_pattern_gives_the_per_class_reports(monkeypatch, window):
    """A blind identity proved once per slot pattern reports what proofs of each
    parity class report, byte for byte: every stratum listed, every witness."""
    one_proof = one_proof_reports(monkeypatch, window)
    per_class(monkeypatch)
    assert one_proof_reports(monkeypatch, window) == one_proof


def test_formal_1_takes_one_class_proof():
    """formal-1's rows are one row of (m - n) terms, so its Jacobi identity reads no
    parity: one proof with every slot free covers the four classes of (n, m, k) up
    to permutation, which a per-class plan proves one by one."""
    fam = formal_family(1)
    prove = _identity(_jacobi_terms, _bracket_sources(fam), fam.params)[1]
    assert prove.blind and class_proofs(prove, 3) == 1
    assert class_proofs(lambda *a: prove(*a), 3) == 4


def _parity_read(fam, cls, edit, name):
    """fam with the terms of the class row `cls` replaced by edit(term)."""
    return replace(fam, rule={**fam.rule, cls: tuple(map(edit, fam.rule[cls]))}, name=name)


_T = ParamPoly.var(("t",), "t")
#: formal-1 edited so that its bracket reads the parity: d = t on the odd-even row,
#: and the shift -1 term of the even-even row scaled by 2.
PARITY_READ = (
    _parity_read(formal_family(1), "odd-even", lambda t: replace(t, d=t.d + _T), "formal-1|d"),
    _parity_read(formal_family(1), "even-even",
                 lambda t: replace(t, a=t.a * 2, b=t.b * 2) if t.shift == -1 else t,
                 "formal-1|scaled"),
)


@pytest.mark.parametrize("fam", PARITY_READ, ids=lambda f: f.name)
def test_a_rule_that_reads_the_parity_is_proved_per_class(fam):
    """Negative controls: neither edit counts as blind, and each is decided as plain
    enumeration decides it."""
    prove = _identity(_jacobi_terms, _bracket_sources(fam), fam.params)[1]
    assert not prove.blind and class_proofs(prove, 3) == 4
    window = default_window(fam)
    assert outcome(verify_jacobi, fam, window) == outcome(
        enumerated_jacobi, fam, jacobi_domain(fam, window)
    )


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
        assert report.passed and report.checked == 0
        assert {"class": "odd-even-even" if i == 2 else "even-odd-odd",
                "forms": [str(i - 1), "m", "k"]} in report.certificate["proved"]
    for name in ("beta2", "beta3"):
        algebra, cochain = named_cocycle(name)
        for c in (cochain, replace(cochain, source=None)):  # the family's PASS, a walk
            report = is_cocycle(algebra, c, range(1, 22))
            assert report.passed and report.checked == 0
    assert seen == []


def test_closed_shape_solves_evaluate_only_the_doubly_pinned_pair(monkeypatch):
    """Criterion 4's solves read every equation off class residuals and evaluate no
    pair; criterion 5's compare evaluates only (1, 2), pinned at both indices."""
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
    assert seen == [(1, 2)] and result.certificate["evaluated"] == [[1, 2]]


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
    assert verdict(report) == verdict(enumerated_jacobi(edited, range(1, 22)))
    assert report.witness["triple"] == [1, 2, 3] and seen == [(1, 2, 3)]
    # two exceptional rows: [v_1, v_4] and [v_4, v_1] both take the row of 1, and
    # the triples pinned at both are evaluated; ad(v_1) is the Witt one plus the
    # derivation -2 * degree, so this is a semidirect product and Jacobi holds
    report = verify_jacobi(TWO_ROWS[0], range(1, 17))
    assert verdict(report) == verdict(enumerated_jacobi(TWO_ROWS[0], range(1, 17)))
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
    assert verdict(verify_jacobi(family, window)) == verdict(enumerated_jacobi(family, window))


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


#: SHA-256 of the sorted report JSON; window "a" is -8..8 (1..16 with an
#: index bound), "b" is -9..12 (1..23).  Recorded when the certificates came
#: to list the strata proved over the whole domain; every status and witness
#: is the one recorded when every triple of the window was enumerated.  The
#: twelve "cocycle <named> a/b" entries were pinned again when a deformation
#: cocycle came to take its family's Jacobi PASS (`is_cocycle`): the status
#: stays PASS, and the certificate now names the family, the parameter and
#: the order and carries the family's Jacobi certificate, which holds on the
#: whole domain, so windows a and b give one digest.
REPORT_PINS = {
    "jacobi witt a": "9d6683aa70d55ccfe350c8fb45d1ac53d8760da2bdf71ce49484eb369be6b896",
    "jacobi virasoro a": "953c47a1bfc4801c04b53e7ecc9251525ab09716f8d33543c150c7629eabe2a2",
    "jacobi elliptic a": "68af06cd40a438942102b8bfd0cec29737da83525d1e0bf1ec41b7a873f45157",
    "jacobi d-infinity a": "d87483c7432c8924b23d9dd92f3c640edc058c6d5f3221e7383fd4d4d98200d1",
    "jacobi three-point a": "1838853b461dc5e4c60ed5ce40d5622173a4b60dece1e65f0ec163b2e893308d",
    "jacobi nodal a": "833e65be172809dca3fb0c6dd8c602d8258d0735680e270d2eade230a59d9fdb",
    "jacobi l1 a": "b66842702cfb3b3589f05aa18fbc0fe05e87d1b68844d7ad5a84ac574ea6d3ca",
    "jacobi w1 a": "da71310e4f604eb00f76b4ec738e5613ce7f933c7695e5518c19d12dc324df75",
    "jacobi formal-1 a": "ff6d75dd80e57bcb96e537032963702ba28753bcdb377fb270389fe6b5c82fdf",
    "jacobi formal-2 a": "b07fbb372144613c0cd1feb658e00dd719315b84aa60cdc3bc3054192a61dbd3",
    "jacobi formal-3 a": "47315adced777659f3657fc003c7a3c5723b0bc2958719bd43871a4cdd69f51e",
    "jacobi d-line(s=0) a": "4d8e9495bedcbc11f8cee11e00d830f88a6c76e513df5e492f28ee86a8bd6aa0",
    "jacobi d-line(s=1) a": "8a98c0769b03ae06c00a9f20853a4b150d218c46d5ab85c57190f4242df80042",
    "jacobi d-line(s=-2) a": "75c16c2aff8eb766c13024cf492941e875207906b523ea4eafc4482a34e9f6ca",
    "jacobi d-line(s=-1/2) a": "7a50a2b53788b31e313abdb44d93c491f8bc4486f0e8764a09b5e94dfeed79a9",
    "jacobi d-line(s=3) a": "2654d98e413c675b635bc9be70b64d731428bf9e1a06b7331c1e9077a9b01ed3",
    "jacobi elliptic|corrupted a": "5037b3330606cae6a86b95417f8e6995c70c6d67abc135e71993848fc53ac049",
    "cocycle ds-order1 a": "08e925ff992f3337e837fb815142bd05e3dac3b3450110a2123c7b5be1b16811",
    "cocycle dinf-order2 a": "f123b9505ad2fe8d3009cc36592ef4077661ce507757a1b1a39b3e40bab64a9e",
    "cocycle w1-order1 a": "539942dfe0a76a61193aae16b41159bf67888bb3498b96404f205df99aa30c88",
    "cocycle beta1 a": "648ef9effcf93ffa862724c06c58d02ee78852687ec117ba5411ac5256d4cf01",
    "cocycle beta2 a": "1c9571e83f5e818e640bd796bfd32cfba689ff695b37ad716cdb5dae745cf03e",
    "cocycle beta3 a": "e00ee8a6e5d847f1d9616854a8caa3f3a4df1c68417b788b18e40957b6480786",
    "cocycle sign-flipped ds-order1 a": "de912db99ecd98ae675e41e2601da6a04964026445cd5eedae40571ec3e3c4de",
    "jacobi witt b": "9d6683aa70d55ccfe350c8fb45d1ac53d8760da2bdf71ce49484eb369be6b896",
    "jacobi virasoro b": "953c47a1bfc4801c04b53e7ecc9251525ab09716f8d33543c150c7629eabe2a2",
    "jacobi elliptic b": "68af06cd40a438942102b8bfd0cec29737da83525d1e0bf1ec41b7a873f45157",
    "jacobi d-infinity b": "d87483c7432c8924b23d9dd92f3c640edc058c6d5f3221e7383fd4d4d98200d1",
    "jacobi three-point b": "1838853b461dc5e4c60ed5ce40d5622173a4b60dece1e65f0ec163b2e893308d",
    "jacobi nodal b": "833e65be172809dca3fb0c6dd8c602d8258d0735680e270d2eade230a59d9fdb",
    "jacobi l1 b": "b66842702cfb3b3589f05aa18fbc0fe05e87d1b68844d7ad5a84ac574ea6d3ca",
    "jacobi w1 b": "da71310e4f604eb00f76b4ec738e5613ce7f933c7695e5518c19d12dc324df75",
    "jacobi formal-1 b": "ff6d75dd80e57bcb96e537032963702ba28753bcdb377fb270389fe6b5c82fdf",
    "jacobi formal-2 b": "b07fbb372144613c0cd1feb658e00dd719315b84aa60cdc3bc3054192a61dbd3",
    "jacobi formal-3 b": "47315adced777659f3657fc003c7a3c5723b0bc2958719bd43871a4cdd69f51e",
    "jacobi d-line(s=0) b": "4d8e9495bedcbc11f8cee11e00d830f88a6c76e513df5e492f28ee86a8bd6aa0",
    "jacobi d-line(s=1) b": "8a98c0769b03ae06c00a9f20853a4b150d218c46d5ab85c57190f4242df80042",
    "jacobi d-line(s=-2) b": "75c16c2aff8eb766c13024cf492941e875207906b523ea4eafc4482a34e9f6ca",
    "jacobi d-line(s=-1/2) b": "7a50a2b53788b31e313abdb44d93c491f8bc4486f0e8764a09b5e94dfeed79a9",
    "jacobi d-line(s=3) b": "2654d98e413c675b635bc9be70b64d731428bf9e1a06b7331c1e9077a9b01ed3",
    "jacobi elliptic|corrupted b": "a7422d4297267179b68417ba9c640a4972b2b7221875fc0a727a280fdd52fea9",
    "cocycle ds-order1 b": "08e925ff992f3337e837fb815142bd05e3dac3b3450110a2123c7b5be1b16811",
    "cocycle dinf-order2 b": "f123b9505ad2fe8d3009cc36592ef4077661ce507757a1b1a39b3e40bab64a9e",
    "cocycle w1-order1 b": "539942dfe0a76a61193aae16b41159bf67888bb3498b96404f205df99aa30c88",
    "cocycle beta1 b": "648ef9effcf93ffa862724c06c58d02ee78852687ec117ba5411ac5256d4cf01",
    "cocycle beta2 b": "1c9571e83f5e818e640bd796bfd32cfba689ff695b37ad716cdb5dae745cf03e",
    "cocycle beta3 b": "e00ee8a6e5d847f1d9616854a8caa3f3a4df1c68417b788b18e40957b6480786",
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


#: Fibres of elliptic() whose Jacobi PASS `verify_jacobi` takes from the root.
TRANSPORTED = {
    "witt": witt,
    "three-point": three_point,
    "nodal": nodal,
    "d-infinity": d_infinity,
    **{f"d-line(s={s})": (lambda s=s: d_line(s)) for s in (0, 1, -2, Fraction(-1, 2), 3)},
    **{
        f"elliptic at {a}, {b}": (lambda a=a, b=b: specialize(elliptic(), {"e1": a, "e2": b}))
        for a, b in (*SMOOTH_POINTS[:2], (0, 0))
    },
}
TRANSPORT_WINDOWS = (range(-10, 11), range(-9, 13), range(3, 12))


@pytest.fixture
def walked(monkeypatch):
    """The check names `verify_jacobi` walks, from an empty memo of proved roots."""
    monkeypatch.setattr(algebra_module, "_ROOT_PASSES", {})
    names, real = [], algebra_module.certify
    monkeypatch.setattr(
        algebra_module, "certify", lambda name, *args: names.append(name) or real(name, *args)
    )
    return names


@pytest.mark.parametrize("make", TRANSPORTED.values(), ids=TRANSPORTED.keys())
def test_a_fibre_of_a_proved_root_takes_its_report(walked, make):
    """The transported report is the one a direct proof of the same rule, with
    no origin, gives; only the root and the direct proofs are walked."""
    fibre = make()
    assert fibre.origin[0].origin is None and fibre.origin[0].name == "elliptic"
    verify_jacobi(elliptic(), range(-1, 2))
    for window in TRANSPORT_WINDOWS:
        direct = verify_jacobi(family_from_json(fibre.to_json()), window)
        assert verify_jacobi(fibre, window).to_json() == direct.to_json()
    assert walked == ["jacobi:elliptic"] + [f"jacobi:{fibre.name}"] * 3


def test_a_plain_fibre_takes_no_pass_of_a_root_with_a_bound_or_central_rule(walked):
    """Roots with a basis bound or a central rule are recorded, but a plain
    fibre of one keys none of them: it is walked, and reports what a direct
    proof of its rows reports."""
    vir = replace(virasoro(), name="virasoro-root", origin=None, record=None)
    roots = [vir, formal_family(1)]
    assert all(root.origin is None for root in roots)
    fibres = [
        replace(algebra_module.pullback(vir, (), None, "vir-fibre"), central=None),
        replace(algebra_module.pullback(roots[1], ("t",), None, "f1-fibre"), lower_bound=None),
        replace(specialize(roots[1], {"t": 2}), lower_bound=None),
    ]
    for root in roots:
        verify_jacobi(root, range(1, 17))
    assert len(algebra_module._ROOT_PASSES) == 2
    for fibre in fibres:
        assert algebra_module._plain(fibre) and fibre.origin is not None and fibre.record is None
        direct = verify_jacobi(family_from_json(fibre.to_json()), range(-8, 9)).to_json()
        assert verify_jacobi(fibre, range(-8, 9)).to_json() == direct
    assert walked[len(roots):] == [f"jacobi:{f.name}" for f in fibres for _ in (0, 1)]


def test_jacobi_report_reads_the_record_of_every_proved_root(walked):
    """A family with the rows and central rule of a proved root, plain or not,
    takes its report under its own name; any other is verified."""
    formal = verify_jacobi(formal_family(2), range(1, 17))
    again = algebra_module.jacobi_report(replace(formal_family(2), name="f2"), range(1, 30))
    assert again.to_json() == {**formal.to_json(), "check": "jacobi:f2"}
    w1 = algebra_module.jacobi_report(w1_subalgebra(), range(1, 17))
    assert w1.passed and walked == ["jacobi:formal-2", "jacobi:w1"]
    with pytest.raises(WindowTooSmall):
        algebra_module.jacobi_report(formal_family(2), range(-5, 0))


def test_only_a_proved_root_is_transported(walked):
    """A fibre whose root was not proved is proved itself, and proves no root;
    a root is never served its own entry; virasoro's central rule is proved."""
    verify_jacobi(witt(), range(-8, 9))
    verify_jacobi(elliptic(), range(-8, 9))
    verify_jacobi(elliptic(), range(-8, 9))
    assert walked == ["jacobi:witt", "jacobi:elliptic", "jacobi:elliptic"]
    assert virasoro().origin is not None and verify_jacobi(virasoro(), range(-8, 9)).passed
    verify_jacobi(restricted(witt(), 1), range(1, 17))
    assert walked[3:] == ["jacobi:virasoro", "jacobi:witt[n>=1]"]


def test_a_stale_origin_is_proved_directly(walked):
    """A replace() keeps the origin of witt, but the corrupted rule is not the
    root's pullback: it FAILs with the witness it has in a cold process."""
    w = witt()
    rows = tuple(RuleTerm(t.shift, t.a * 2, t.b * 2, t.d * 2) for t in w.rule["odd-even"])
    bad = replace(w, rule={**w.rule, "odd-even": rows})
    assert bad.origin is w.origin
    cold = verify_jacobi(bad, range(-10, 11)).to_json()
    verify_jacobi(elliptic(), range(-1, 2))
    assert verify_jacobi(bad, range(-10, 11)).to_json() == cold
    assert cold["status"] == "FAIL" and cold["witness"]["triple"] == [-10, -9, -8]
    assert walked == ["jacobi:witt", "jacobi:elliptic", "jacobi:witt"]


def _doubled(rows):
    return tuple(RuleTerm(t.shift, t.a * 2, t.b * 2, t.d * 2) for t in rows)


def test_an_in_place_change_is_proved_directly(walked):
    """A fibre whose rows were changed in place after its pullback no longer
    matches its record: it is walked and FAILs as the stale origin does, and
    so is a pullback of it, which keeps no key."""
    verify_jacobi(elliptic(), range(-1, 2))
    w = witt()
    w.rule["odd-even"] = _doubled(w.rule["odd-even"])
    report = verify_jacobi(w, range(-10, 11)).to_json()
    assert report["status"] == "FAIL" and report["witness"]["triple"] == [-10, -9, -8]
    line = d_line(3)
    line.rule["odd-even"] = _doubled(line.rule["odd-even"])
    point = specialize(line, {"e1": 2})
    assert point.origin is not None and point.record is None
    direct = verify_jacobi(family_from_json(point.to_json()), range(-10, 11)).to_json()
    assert verify_jacobi(point, range(-10, 11)).to_json() == direct
    assert direct["status"] == "FAIL"
    assert walked == ["jacobi:elliptic", "jacobi:witt", f"jacobi:{point.name}", f"jacobi:{point.name}"]


def test_an_in_place_change_of_the_root_moves_no_record(walked):
    """The key is the root's signature when the pullback was made: a fibre
    taken before the root changed is still transported from an honest proof,
    one taken after is walked."""
    root = elliptic()
    before = specialize(root, {"e1": 0, "e2": 0})
    root.rule["odd-even"] = _doubled(root.rule["odd-even"])
    after = specialize(root, {"e1": 0, "e2": 0})
    assert not verify_jacobi(root, range(-10, 11)).passed
    assert verify_jacobi(before, range(-10, 11)).passed  # no proved root yet: walked
    verify_jacobi(elliptic(), range(-1, 2))
    assert verify_jacobi(before, range(-10, 11)).passed
    direct = verify_jacobi(family_from_json(after.to_json()), range(-10, 11)).to_json()
    assert verify_jacobi(after, range(-10, 11)).to_json() == direct
    name = before.name
    assert walked == ["jacobi:elliptic", f"jacobi:{name}", "jacobi:elliptic"] + [f"jacobi:{name}"] * 2


def test_report_json_is_a_copy():
    """Editing a report's JSON leaves the report as it was, and editing the
    report leaves JSON taken before as it was."""
    for report in (verify_jacobi(witt(), range(-8, 9)), verify_jacobi(corrupted_elliptic(), range(-8, 9))):
        expected = copy.deepcopy(report.to_json())
        data = report.to_json()
        for part in ("certificate", "witness"):
            if part in data:
                data[part].clear()
        assert report.to_json() == expected
        data = report.to_json()
        if report.certificate is not None:
            report.certificate["proved"].clear()
        if report.witness is not None:
            report.witness["triple"].append(0)
        assert data == expected


def test_a_transported_report_is_a_copy(walked):
    """Editing a returned report, the root's or a fibre's, changes no later report."""
    root = verify_jacobi(elliptic(), range(-1, 2))
    first = verify_jacobi(witt(), range(-10, 11))
    expected = copy.deepcopy(first.to_json())
    first.certificate["proved"].clear()
    first.certificate["evaluated"] = None
    root.certificate["proved"].append({"class": "edited"})
    assert verify_jacobi(witt(), range(-10, 11)).to_json() == expected
    assert walked == ["jacobi:elliptic"]


@pytest.mark.parametrize("make", TRANSPORTED.values(), ids=TRANSPORTED.keys())
def test_a_transport_builds_nothing(walked, monkeypatch, make):
    """With the root proved, a fibre's report is a comparison and a lookup: no
    pullback, ring map, signature or deep copy, and the JSON a direct proof gives."""
    fibre = make()
    verify_jacobi(elliptic(), range(-1, 2))
    expected = [
        verify_jacobi(family_from_json(fibre.to_json()), window).to_json()
        for window in TRANSPORT_WINDOWS
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a transport builds nothing")

    monkeypatch.setattr(algebra_module, "pullback", refuse)
    monkeypatch.setattr(algebra_module, "ring_map", refuse)
    monkeypatch.setattr(FamilySpec, "rule_signature", refuse)
    monkeypatch.setattr(copy, "deepcopy", refuse)
    assert [verify_jacobi(fibre, window).to_json() for window in TRANSPORT_WINDOWS] == expected
    assert walked == ["jacobi:elliptic"] + [f"jacobi:{fibre.name}"] * 3


@pytest.mark.parametrize("name", CATALOG)
def test_a_lift_has_no_origin(name):
    """The lift to Q[params, n, m, k] has the rows of the pullback that
    `index_family` used to build, and neither origin nor record."""
    fam = by_name(name, s=3)
    ring = fam.params + INDEX_VARS
    lift = algebra_module._extend(fam, ring)
    old = algebra_module.pullback(fam, ring, None, fam.name)
    assert lift == old and (lift.origin, lift.record) == (None, None)
    assert index_family(fam) in (None, lift)


def test_criterion_1_walks_only_what_is_not_a_fibre(walked):
    """elliptic() first: every other plain fibre takes its PASS by transport."""
    assert criterion_1().passed
    names = ["elliptic", "virasoro", "formal-1", "formal-2", "formal-3"]
    assert walked == [f"jacobi:{name}" for name in names]


def test_warm_passes_make_equal_calls(monkeypatch):
    """After one warm-up pass of the Jacobi and cocycle checks, two further
    passes call pullback, index_family, certify and ParamPoly.combination
    equally often: no memo is filled or consulted differently by pass."""
    families = [by_name(name, s=3) for name in CATALOG] + [d_line(Fraction(-1, 2))]
    families.append(specialize(elliptic(), dict(zip(("e1", "e2"), SMOOTH_POINTS[0]))))
    families.append(corrupted_elliptic())
    cocycles = [named_cocycle(name) for name in NAMED_COCYCLES]
    witt_algebra, ds1 = named_cocycle("ds-order1")
    cocycles.append((witt_algebra, sign_flipped(ds1)))

    def run():
        for fam in families:
            verify_jacobi(fam, default_window(fam))
        for algebra, cochain in cocycles:
            is_cocycle(algebra, cochain, default_window(algebra))

    run()
    counts = {}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return call

    for name in ("pullback", "index_family", "certify"):
        real = getattr(algebra_module, name)
        for module in (algebra_module, cohomology_module):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    combination = ParamPoly.combination
    monkeypatch.setattr(ParamPoly, "combination", staticmethod(counted("combination", combination)))
    passes = []
    for _ in range(2):
        counts.clear()
        run()
        passes.append(dict(counts))
    assert passes[0] == passes[1]
    assert passes[0]["index_family"] and passes[0]["combination"]
    assert 0 < passes[0]["certify"] < len(families) + len(cocycles)  # fibres are transported


def test_a_fibre_over_index_named_parameters_is_proved_directly(walked):
    """Its rule does not lift to Q[params, n, m, k], so it is evaluated on the window."""
    n = ParamPoly.var(("n",), "n")
    fibre = algebra_module.pullback(elliptic(), ("n",), {"e1": n, "e2": n * 2}, "on-n")
    verify_jacobi(elliptic(), range(-1, 2))
    report = verify_jacobi(fibre, range(-3, 4))
    assert report.passed and report.certificate["window"] == [-3, 3] and report.checked == 35
    assert walked == ["jacobi:elliptic", "jacobi:on-n"]


def test_the_report_does_not_depend_on_the_order(walked):
    """d-line(s=0) proved directly, then by transport, gives one report."""
    before = verify_jacobi(d_line(0), range(-9, 13)).to_json()
    verify_jacobi(elliptic(), range(-9, 13))
    assert verify_jacobi(d_line(0), range(-9, 13)).to_json() == before
    assert walked == ["jacobi:d-line(s=0)", "jacobi:elliptic"]


def test_origins_compose_to_the_root():
    """A nested pullback names elliptic() with the composite map, and a map
    that leaves a root parameter unused without an image records none."""
    point = specialize(d_line(3), {"e1": 2})
    root, params, images = point.origin
    assert root.name == "elliptic" and params == ()
    assert {r: p.constant_value() for r, p in images.items()} == {"e1": 2, "e2": 6}
    assert specialize(elliptic(), {"e1": 2, "e2": 6}).rule_signature()[1:] == (
        point.rule_signature()[1:]
    )
    one, zero = ParamPoly.const(("t",), 1), ParamPoly.const(("t",), 0)
    unused = FamilySpec("u", ("t",), {"even-even": (RuleTerm(0, -one, one, zero),)})
    assert algebra_module.pullback(unused, (), None, "u0").origin is None
