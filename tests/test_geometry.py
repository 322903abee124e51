"""The vector-field oracle: realizations, brackets, basis re-expansion."""

import random
from fractions import Fraction

import pytest
import sympy

from liefam.algebra import FamilySpec, RuleTerm, specialize
from liefam.errors import UnsupportedFamily
from liefam.families import elliptic, nodal, three_point, w1_subalgebra, witt
from liefam.geometry import (
    CubicField,
    FactoredLaurent,
    LaurentPoly,
    divide_laurent,
    expand_in_candidates,
    realize,
    verify_against_geometry,
    vf_bracket,
    vf_bracket_cubic,
)
from liefam.poly import ParamPoly


def laurent(fl: FactoredLaurent) -> LaurentPoly:
    return fl.as_laurent(0) if fl.exp >= 0 else fl.as_laurent(fl.exp)


def test_witt_realization_bracket():
    # [z^2 d/dz, z^3 d/dz] = z^4 d/dz, i.e. [l_1, l_2] = l_3
    e, f = realize("witt", 1), realize("witt", 2)
    got = vf_bracket(e, f)
    assert got.as_laurent(0) == LaurentPoly.monomial((), 4)


def test_three_point_odd_pair():
    # [V_1, V_3] = 2 V_4 in the z-realization
    e, f = realize("three-point", 1), realize("three-point", 3)
    got = vf_bracket(e, f)
    v4 = realize("three-point", 4)
    floor = min(got.exp, v4.exp)
    assert got.as_laurent(floor) == v4.as_laurent(floor).scale(2)


def test_factored_laurent_derivative():
    # d/dz [ z (z^2-a)^2 ] = (z^2-a)^2 + 4 z^2 (z^2-a)
    beta = ParamPoly.var(("alpha2",), "alpha2")
    fl = FactoredLaurent(LaurentPoly.monomial(("alpha2",), 1), beta, 2)
    got = fl.derivative().as_laurent(0)
    z2 = LaurentPoly.from_items(("alpha2",), [(2, 1), (0, -beta)])
    want = z2 * z2 + LaurentPoly.monomial(("alpha2",), 2, 4) * z2
    assert got == want


def test_vf_bracket_jacobi_random_fields():
    rng = random.Random(2)
    beta = ParamPoly.var(("alpha2",), "alpha2")

    def rand_field():
        poly = LaurentPoly.from_items(
            ("alpha2",),
            [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)],
        )
        return FactoredLaurent(poly, beta, rng.randint(-2, 2))

    from liefam.geometry import vf_bracket_factored as br

    for _ in range(15):
        e, f, g = rand_field(), rand_field(), rand_field()
        total = br(br(e, f), g) + br(br(f, g), e) + br(br(g, e), f)
        assert total.is_zero


def realize_at(n, point):
    """The elliptic field of index n mapped to the fibre at `point`."""
    field = realize("elliptic", n)
    return CubicField(*(p.map_params((), point) for p in (field.a, field.b, field.f)))


def test_elliptic_pair_matches_rule_at_sample():
    # [V_1, V_2] = V_3 - (e1-e2)(2e1+e2) V_-1, checked in the function field
    e1, e2 = Fraction(1), Fraction(2)
    point = {"e1": e1, "e2": e2}
    fam = specialize(elliptic(), point)
    got = vf_bracket(realize_at(1, point), realize_at(2, point))
    v3 = realize_at(3, point)
    vm1 = realize_at(-1, point)
    q = (e1 - e2) * (2 * e1 + e2)
    want_b = v3.b - vm1.b * q
    assert got.a.is_zero and (got.b - want_b).is_zero


@pytest.mark.parametrize("family", [witt(), three_point(), nodal(), w1_subalgebra()])
def test_symbolic_oracle_passes(family):
    window = range(1, 9) if family.lower_bound == 1 else range(-5, 6)
    report = verify_against_geometry(family, window)
    assert report.passed, report.witness


def test_elliptic_oracle_at_fixed_samples():
    report = verify_against_geometry(elliptic(), range(-4, 5))
    assert report.passed, report.witness


def test_corrupted_rule_fails_with_witness():
    fam = elliptic()
    rule = dict(fam.rule)
    rule["even-even"] = tuple(
        RuleTerm(t.shift, t.a * 2, t.b * 2, t.d * 2) if t.shift == -4 else t
        for t in rule["even-even"]
    )
    bad = FamilySpec(name="elliptic|bad", params=fam.params, rule=rule)
    report = verify_against_geometry(bad, range(-4, 5))
    assert not report.passed
    assert report.witness["mismatches"]


def test_expansion_is_triangular_and_unique():
    cands = [
        (4, LaurentPoly.from_items((), [(4, 1), (0, 3)])),
        (2, LaurentPoly.from_items((), [(2, 2)])),
        (0, LaurentPoly.from_items((), [(0, 1)])),
    ]
    target = LaurentPoly.from_items((), [(4, 2), (2, 4), (0, 11)])
    coeffs, rest = expand_in_candidates(target, cands)
    assert rest.is_zero
    assert coeffs[4] == 2 and coeffs[2] == 2 and coeffs[0] == 5
    # colliding top degrees are rejected (uniqueness guard)
    with pytest.raises(ValueError):
        expand_in_candidates(target, cands + [(9, cands[0][1])])


def test_division_by_f_is_exact_or_leaves_a_remainder():
    f = realize("elliptic", 1).f
    q = LaurentPoly.from_items(f.params, [(-2, 3), (1, ParamPoly.var(f.params, "e1"))])
    quotient, rest = divide_laurent(q * f, f)
    assert rest.is_zero and quotient == q
    u = LaurentPoly.monomial(f.params, 1)
    quotient, rest = divide_laurent(q * f + u, f)
    assert not rest.is_zero and rest.max_degree() < min(q.components) + f.max_degree()


def test_division_remainder_is_reported_as_witness(monkeypatch):
    # a bracket whose division by f leaves a remainder fails with it
    import liefam.geometry as geometry

    real = geometry.vf_bracket_cubic

    def off_by_u(e, g):
        got, rest = real(e, g)
        return got, rest + LaurentPoly.monomial(rest.params, 1)

    monkeypatch.setattr(geometry, "vf_bracket_cubic", off_by_u)
    report = verify_against_geometry(elliptic(), range(0, 3))
    assert not report.passed
    assert "unexpanded_remainder" in report.witness["mismatches"][0]


def test_realize_rejects_unknown():
    # the elliptic field is symbolic in e1, e2
    assert realize("elliptic", 1).f.params == ("e1", "e2")
    with pytest.raises(UnsupportedFamily):
        realize("nope", 1)


# ---------------------------------------------------------------------------
# sympy reference for the genus-one bracket
# ---------------------------------------------------------------------------

U, Y = sympy.symbols("u Y")

#: (e1, e2): three smooth fibres, a nodal one and the cusp.
FIBRES = [
    (Fraction(1), Fraction(2)),
    (Fraction(1), Fraction(-3)),
    (Fraction(-1, 2), Fraction(3, 4)),
    (Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(0)),
]


def _sympy_laurent(poly: LaurentPoly, point) -> sympy.Expr:
    at_point = poly.map_params((), point)
    return sum(
        (sympy.Rational(str(c.constant_value())) * U**d for d, c in at_point.components.items()),
        sympy.Integer(0),
    )


def _sympy_bracket(x, y, f):
    """[x d/du, y d/du] with x, y polynomial in Y, reduced by Y^2 = f.

    d/du acts by the chain rule with Y' = f'/(2Y) = f' Y / (2f).
    """

    def d(g):
        return sympy.diff(g, U) + sympy.diff(g, Y) * sympy.diff(f, U) * Y / (2 * f)

    coeffs = sympy.expand(x * d(y) - y * d(x)).as_poly(Y).all_coeffs()[::-1]
    free = sum((c * f**j for j, c in enumerate(coeffs[0::2])), sympy.Integer(0))
    with_y = sum((c * f**j for j, c in enumerate(coeffs[1::2])), sympy.Integer(0))
    return free, with_y


@pytest.mark.parametrize(
    "e1, e2", FIBRES, ids=["smooth-1,2", "smooth-1,-3", "smooth--1/2,3/4", "nodal", "cusp"]
)
def test_cubic_bracket_matches_sympy_reference(e1, e2):
    point = {"e1": e1, "e2": e2}
    a, b = sympy.Rational(str(e2 - e1)), sympy.Rational(str(-2 * e1 - e2))
    f = 4 * U * (U - a) * (U - b)
    window = range(-3, 4)

    def field(n):
        k, odd = divmod(n, 2)
        return U**k * Y if odd else 2 * U ** (k - 1) * (U - a) * (U - b)

    fields = {n: realize("elliptic", n) for n in window}
    for n in window:
        got = fields[n]
        assert sympy.cancel(
            _sympy_laurent(got.a, point) + _sympy_laurent(got.b, point) * Y - field(n)
        ) == 0
    parities = set()
    for n in window:
        for m in window:
            if n == m:
                continue
            parities.add((n % 2, m % 2))
            got, rest = vf_bracket_cubic(fields[n], fields[m])
            assert rest.is_zero
            free, with_y = _sympy_bracket(field(n), field(m), f)
            assert sympy.cancel(free - _sympy_laurent(got.a, point)) == 0, (n, m)
            assert sympy.cancel(with_y - _sympy_laurent(got.b, point)) == 0, (n, m)
    assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}
