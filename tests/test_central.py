"""Residue pairings: values, bilinearity, cocycle law, extensions."""

import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy

from liefam.central import (
    class_independence,
    finite_residue_sum,
    kn_cocycle,
    locality_bound,
    pairing_table,
    residue_cochain,
)
from liefam.cohomology import DerivedRule, is_cocycle
from liefam.errors import UpperBoundViolated
from liefam.families import by_name, virasoro, witt
from liefam.geometry import PARAMETRIZATIONS, FactoredLaurent, LaurentPoly, uniformize
from liefam.poly import ParamPoly

Z = sympy.Symbol("z")


def _sympy_finite_residues(fl: FactoredLaurent):
    """Sum of sympy.residue of `fl dz` at 0 and at the roots of z^2 - beta."""
    beta = sympy.Rational(str(fl.beta.constant_value()))
    expr = sum(
        sympy.Rational(str(c.constant_value())) * Z**d for d, c in fl.poly.components.items()
    ) * (Z**2 - beta) ** fl.exp
    poles = {sympy.Integer(0), sympy.sqrt(beta), -sympy.sqrt(beta)}
    return sum(sympy.residue(expr, Z, p) for p in poles)


def test_finite_residue_sum_cross_check():
    # for Laurent fields the finite residue sum is the z^-1 coefficient
    rng = random.Random(6)
    for _ in range(20):
        poly = LaurentPoly.from_items(
            (), [(rng.randint(-6, 6), rng.randint(-5, 5)) for _ in range(4)]
        )
        fl = FactoredLaurent(poly, ParamPoly.const((), 0), 0)
        assert finite_residue_sum(fl) == poly.coefficient(-1)
    # against sympy's residues at every finite pole, for rational, irrational
    # and imaginary roots of z^2 - beta; odd degrees give nonzero sums
    cases = [(beta, exp) for beta in (4, 2, -1, Fraction(1, 9)) for exp in (-2, -1)]
    nonzero = 0
    for beta, exp in cases + [(4, -3)]:
        poly = LaurentPoly.from_items(
            (), [(rng.randrange(-3, 7, 2), rng.randint(-5, 5)) for _ in range(3)]
        )
        fl = FactoredLaurent(poly, ParamPoly.const((), beta), exp)
        got = finite_residue_sum(fl).constant_value()
        want = sympy.expand(_sympy_finite_residues(fl))
        assert want == sympy.Rational(got.numerator, got.denominator), (beta, exp)
        nonzero += got != 0
    assert nonzero >= 5


def _product_pairing(e, f, connection):
    """Res[(1/2)(e''' f - e f''') - R (e' f - e f')] with the products written out."""
    e3 = e.derivative().derivative().derivative()
    f3 = f.derivative().derivative().derivative()
    integrand = (e3 * f - e * f3).scale(Fraction(1, 2))
    if connection is not None:
        r = FactoredLaurent(connection.map_params(e.poly.params), e.beta, 0)
        integrand = integrand - r * (e.derivative() * f - e * f.derivative())
    return finite_residue_sum(integrand)


@pytest.mark.parametrize("connection", [None, (1, -2), (1, 0)])
@pytest.mark.parametrize("family", sorted(PARAMETRIZATIONS))
def test_pairing_table_equals_the_product_formula(family, connection):
    """The one-operator-per-field kernel and its degree skip against the integrand
    multiplied out, on every pair; three-point reaches negative exponents."""
    r = None if connection is None else LaurentPoly.monomial((), connection[1], connection[0])
    window = range(1, 11) if family in ("l1", "w1") else range(-7, 8)
    fields = {n: uniformize(family, n) for n in window}
    pairs = [(n, m) for n in window for m in window if n < m]
    want = {(n, m): _product_pairing(fields[n], fields[m], r) for n, m in pairs}
    assert pairing_table(family, window, r) == {k: v for k, v in want.items() if not v.is_zero}
    assert all(kn_cocycle(fields[n], fields[m], r) == v for (n, m), v in want.items())
    gamma = residue_cochain(family, r)
    assert all(gamma.value(m, n) == -v for (n, m), v in want.items())


@pytest.mark.parametrize("connection", [None, LaurentPoly.monomial((), 0)])
def test_pairing_table_works_per_index_not_per_pair(monkeypatch, connection):
    """Two parity shapes are realized and each index gets its three derivatives;
    the 210 pairs of the window make no field work of their own."""
    from liefam import geometry

    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    monkeypatch.setattr(geometry, "realize", counted("realize", geometry.realize))
    derivative = counted("derivative", geometry.FactoredLaurent.derivative)
    monkeypatch.setattr(geometry.FactoredLaurent, "derivative", derivative)
    table = pairing_table("witt", range(-10, 11), connection)
    assert calls["realize"] == 2
    assert calls["derivative"] <= 3 * 21
    assert len(table) == (9 if connection is None else 18)


def test_witt_pairing_values():
    table = pairing_table("witt", range(-10, 11))
    assert all(n + m == 0 for n, m in table)
    for (n, m), value in table.items():
        assert value == Fraction(n**3 - n)
    assert (-1, 1) not in table  # n^3 - n vanishes there
    assert table[(-5, 5)] == -120


def test_witt_pairing_is_minus_twelve_times_central_rule():
    vir = virasoro().central
    table = pairing_table("witt", range(-10, 11))
    for (n, m), value in table.items():
        assert value == Fraction(-12) * vir.value(n, m)


def test_locality_bounds():
    assert locality_bound("witt", range(-10, 11)).lower == 0
    shifted = locality_bound(
        "witt", range(-8, 9), connection=LaurentPoly.monomial((), -2)
    )
    assert shifted.lower == 0
    constant = locality_bound(
        "witt", range(-8, 9), connection=LaurentPoly.monomial((), 0)
    )
    assert constant.lower == -2  # the connection term adds support at n+m = -2


def test_criterion_6_builds_one_pairing_table(monkeypatch):
    """Criterion 6 reads its table off `locality_bound`; its details are unchanged."""
    from liefam import central
    from liefam.suite import criterion_6

    calls, build = [], central.pairing_table
    monkeypatch.setattr(
        central, "pairing_table", lambda *args: calls.append(args[0]) or build(*args)
    )
    result = criterion_6()
    assert calls == ["witt"]
    assert result.passed and result.details == {
        "support_pairs": 9,
        "support_on_zero_sum": True,
        "values_n3_minus_n": True,
        "proportionality_-12": True,
        "locality_M": 0,
    }


def test_nodal_fields_are_factored():
    """uniformize moves every factor z^2 - alpha2 into the exponent: index 2k is
    z^(2k-3) (z^2 - alpha2)^2 and index 2k+1 is z^(2k) (z^2 - alpha2).  The nodal
    `central cocycle` outputs stay pinned in tests/test_cli.py."""
    alpha2 = ParamPoly.var(("alpha2",), "alpha2")
    for k in range(-4, 5):
        for n, degree, exp in ((2 * k, 2 * k - 3, 2), (2 * k + 1, 2 * k, 1)):
            field = uniformize("nodal", n)
            assert field.poly == LaurentPoly.monomial(("alpha2",), degree)
            assert (field.beta, field.exp) == (alpha2, exp)


def test_three_point_pairing_exceeds_degree_zero():
    """The symmetric-points basis spreads the pairing above n+m = 0.

    gamma(V_-6, V_8) = -672 alpha2 (cross-checked against an independent
    computer-algebra residue computation), so the upper-bound guard
    fires; the two-point realizations are the ones with bound 0.
    """
    a2 = ParamPoly.var(("alpha2",), "alpha2")
    e = uniformize("three-point", -6)
    f = uniformize("three-point", 8)
    assert kn_cocycle(e, f) == a2 * -672
    with pytest.raises(UpperBoundViolated):
        locality_bound("three-point", range(-8, 9))


def test_pairing_bilinearity_and_antisymmetry():
    rng = random.Random(8)
    fields = {n: uniformize("witt", n) for n in range(-6, 7)}
    for _ in range(20):
        n, m = rng.randint(-6, 6), rng.randint(-6, 6)
        gnm = kn_cocycle(fields[n], fields[m])
        gmn = kn_cocycle(fields[m], fields[n])
        assert (gnm + gmn).is_zero
    # bilinearity over a random combination
    comb = FactoredLaurent(
        fields[2].poly.scale(3) + fields[-4].as_laurent(0).scale(-2),
        fields[2].beta,
        0,
    )
    lhs = kn_cocycle(comb, fields[-2])
    rhs = kn_cocycle(fields[2], fields[-2]) * 3 + kn_cocycle(fields[-4], fields[-2]) * -2
    assert lhs == rhs


def test_two_cocycle_condition_on_random_triples():
    from liefam.algebra import basis_bracket

    w = witt()
    fields = {n: uniformize("witt", n) for n in range(-9, 10)}

    def gamma_elem(elem, k):
        total = ParamPoly.const((), 0)
        for idx, coeff in elem.components.items():
            total = total + kn_cocycle(fields[idx], fields[k]) * coeff
        return total

    rng = random.Random(10)
    for _ in range(15):
        n, m, k = (rng.randint(-4, 4) for _ in range(3))
        total = (
            gamma_elem(basis_bracket(w, n, m), k)
            + gamma_elem(basis_bracket(w, m, k), n)
            + gamma_elem(basis_bracket(w, k, n), m)
        )
        assert total.is_zero, (n, m, k)


def test_class_independence_witnesses():
    zero = LaurentPoly.zero(())
    lam, report = class_independence(zero, zero, range(-10, 11))
    assert report.passed and lam == {}
    lam, report = class_independence(
        LaurentPoly.monomial((), 0), zero, range(-10, 11)
    )
    assert report.passed and lam == {-2: 1}
    lam, report = class_independence(
        LaurentPoly.monomial((), -1), zero, range(-10, 11)
    )
    assert report.passed and lam == {-1: 1}


@pytest.mark.parametrize("connection", [None, (1, -2)])
@pytest.mark.parametrize("family", ["witt", "three-point", "nodal", "l1", "w1"])
def test_residue_cochain_is_a_two_cocycle(family, connection):
    """The extension by gamma_R satisfies the Jacobi identity exactly when
    d(gamma_R) = 0, given that the family does: `is_cocycle` checks it on every
    triple of the family's default window, with no table range to outrun."""
    from liefam.suite import default_window

    r = None if connection is None else LaurentPoly.monomial((), connection[1], connection[0])
    spec = by_name(family)
    window = default_window(spec)
    report = is_cocycle(spec, residue_cochain(family, r), window)
    assert report.passed, report.to_json()
    assert report.checked == len(list(itertools.combinations(window, 3)))


def test_a_pairing_that_is_not_a_cocycle_fails():
    """Witt's pairing plus m^2 on n + m = 0 is not a 2-cocycle, so the extension
    by it breaks the Jacobi identity; the first failing triple is the witness."""
    gamma = residue_cochain("witt")
    bump = DerivedRule(lambda n, m: gamma.value(n, m) + m * m * (n + m == 0))
    report = is_cocycle(witt(), replace(gamma, rule=bump), range(-8, 9))
    assert report.status == "FAIL"
    assert report.witness == {"tuple": [-8, 1, 7], "value": "-42"}
