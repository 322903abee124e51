"""Bracket engine: antisymmetry, Jacobi certification, specialization."""

import random
from fractions import Fraction

import pytest

from liefam.algebra import (
    CENTRAL,
    LieElement,
    abelianization_codim,
    basis_bracket,
    bracket,
    grading_bounds,
    jacobiator,
    map_coefficients,
    specialize,
    verify_jacobi,
)
from liefam.errors import (
    MissingParameter,
    OutOfDomainIndex,
    ParameterMismatch,
    WindowTooSmall,
)
from liefam.families import (
    d_line,
    elliptic,
    formal_family,
    l1_subalgebra,
    three_point,
    virasoro,
    w1_subalgebra,
    witt,
)
from liefam.poly import ParamPoly
from liefam.suite import corrupted_elliptic


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
    assert basis_bracket(v, 1, -1) == LieElement.from_components((), [(0, -2)])
    # the central element is annihilated by everything
    x = LieElement.from_components((), [(CENTRAL, 1)])
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
    x = LieElement.from_components((), [(1, 2), (3, Fraction(1, 2))])
    y = LieElement.from_components((), [(-2, 1), (0, 5)])
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
        evaluated = LieElement.from_components(
            (), [(k, c.evaluate(point)) for k, c in symbolic.components.items()]
        )
        assert via_rule == evaluated


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
