"""The vector-field oracle: realizations, brackets, basis re-expansion."""

import itertools
import json
import os
import resource
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
import sympy

from liefam.algebra import (
    FamilySpec,
    RuleTerm,
    domain_pairs,
    evaluate_pair_rule,
    grading_bounds,
    specialize,
)
from liefam.errors import ParameterMismatch, UnsupportedFamily
from liefam.families import FIBRES, by_name, elliptic
from liefam.geometry import (
    PARAMETRIZATIONS,
    CubicField,
    FactoredLaurent,
    LaurentPoly,
    divide_laurent,
    expand_in_candidates,
    realize,
    uniformize,
    verify_against_geometry,
    vf_bracket_cubic,
)
from liefam.poly import ParamPoly
from liefam.suite import corrupted_elliptic


def test_witt_realization_bracket():
    # [l_1, l_2] = l_3 on the cusp Y^2 = 4u^3: [Y d/du, 2u^2 d/du] = u Y d/du
    got, rest = vf_bracket_cubic(realize("witt", 1), realize("witt", 2))
    assert rest.is_zero and got.a.is_zero
    assert got.b == realize("witt", 3).b == LaurentPoly.monomial((), 1)


def test_three_point_odd_pair():
    # [V_1, V_3] = 2 V_4 on the fibre Y^2 = 4u^2(u + alpha2)
    got, rest = vf_bracket_cubic(realize("three-point", 1), realize("three-point", 3))
    assert rest.is_zero and got.b.is_zero
    assert got.a == realize("three-point", 4).a.scale(2)


def test_factored_laurent_derivative():
    # d/dz [ z (z^2-a)^2 ] = (z^2-a)^2 + 4 z^2 (z^2-a)
    beta = ParamPoly.var(("alpha2",), "alpha2")
    fl = FactoredLaurent(LaurentPoly.monomial(("alpha2",), 1), beta, 2)
    got = fl.derivative().as_laurent(0)
    z2 = LaurentPoly.from_items(("alpha2",), [(2, 1), (0, -beta)])
    want = z2 * z2 + LaurentPoly.monomial(("alpha2",), 2, 4) * z2
    assert got == want


def realize_at(n, point):
    """The elliptic field of index n mapped to the fibre at `point`."""
    field = realize("elliptic", n)
    return CubicField(*(p.map_params((), point) for p in (field.a, field.b, field.f)))


def test_elliptic_pair_matches_rule_at_sample():
    # [V_1, V_2] = V_3 - (e1-e2)(2e1+e2) V_-1, checked in the function field
    e1, e2 = Fraction(1), Fraction(2)
    point = {"e1": e1, "e2": e2}
    fam = specialize(elliptic(), point)
    got, rest = vf_bracket_cubic(realize_at(1, point), realize_at(2, point))
    assert rest.is_zero
    v3 = realize_at(3, point)
    vm1 = realize_at(-1, point)
    q = (e1 - e2) * (2 * e1 + e2)
    want_b = v3.b - vm1.b * q
    assert got.a.is_zero and (got.b - want_b).is_zero


@pytest.mark.parametrize("name", sorted(FIBRES))
def test_symbolic_oracle_passes(name):
    family = by_name(name)
    window = range(1, 9) if family.lower_bound == 1 else range(-5, 6)
    report = verify_against_geometry(family, window)
    assert report.passed, report.witness


def test_elliptic_oracle_at_fixed_samples():
    report = verify_against_geometry(elliptic(), range(-4, 5))
    assert report.passed, report.witness


@pytest.mark.parametrize("name, shift", [("elliptic", -4), ("three-point", -2)])
def test_corrupted_rule_fails_with_witness(name, shift):
    fam = by_name(name)
    rule = dict(fam.rule)
    rule["even-even"] = tuple(
        RuleTerm(t.shift, t.a * 2, t.b * 2, t.d * 2) if t.shift == shift else t
        for t in rule["even-even"]
    )
    bad = FamilySpec(name=f"{name}|bad", params=fam.params, rule=rule)
    report = verify_against_geometry(bad, range(-4, 5))
    assert not report.passed
    assert report.checked == 1  # the walk stops at its first failing pair
    value = report.witness["value"]
    assert report.witness["pair"] == [-4, -2] and value["geometric"] != value["algebraic"]


def enumerated(family, window):
    """The first failing pair of the window for the oracle, found by brute force.

    Each field is `realize`d at its integer index, each pair of the window
    is bracketed by `vf_bracket_cubic` in `itertools.combinations` order,
    and the bracket is re-expanded by `expand_in_candidates` in the fields
    n + m + j, j within the grading bounds.  Returns the `verify_against_
    geometry` witness of the first pair whose bracket leaves a remainder or
    differs from the rule, with "remainder" for the value of a remainder,
    or None when every pair matches.
    """
    base = family.name.split("|")[0]
    bounds = grading_bounds(family)
    for n, m in itertools.combinations(domain_pairs(family, window), 2):
        got, rest = vf_bracket_cubic(realize(base, n), realize(base, m))
        span = range(n + m + bounds.lower, n + m + bounds.upper + 1)
        geometric, remainders = {}, [rest]
        for part, odd in (("a", 0), ("b", 1)):
            cands = [(i, getattr(realize(base, i), part)) for i in span if i % 2 == odd]
            coeffs, left = expand_in_candidates(getattr(got, part), cands)
            geometric.update(coeffs)
            remainders.append(left)
        if not all(r.is_zero for r in remainders):
            return {"pair": [n, m], "value": "remainder"}
        expected = dict(evaluate_pair_rule(family, n, m))
        if geometric != expected:
            return {"pair": [n, m], "value": {
                "geometric": {str(i): c.to_json() for i, c in sorted(geometric.items())},
                "algebraic": {str(i): c.to_json() for i, c in sorted(expected.items())},
            }}
    return None


def oracle_families():
    """Every FIBRES family, and elliptic and three-point with one term doubled."""
    for name in sorted(FIBRES):
        yield name, by_name(name)
    for name in ("elliptic", "three-point"):
        fam = by_name(name)
        for cls, terms in sorted(fam.rule.items()):
            for i, t in enumerate(terms):
                doubled = RuleTerm(t.shift, t.a * 2, t.b * 2, t.d * 2)
                rule = {**fam.rule, cls: terms[:i] + (doubled,) + terms[i + 1 :]}
                bad = FamilySpec(name=f"{name}|bad", params=fam.params, rule=rule)
                yield f"{name}:{cls}:{t.shift}", bad


@pytest.mark.parametrize("window", [range(-6, 7), range(1, 10)], ids=["-6..6", "1..9"])
@pytest.mark.parametrize(
    "family", [f for _, f in oracle_families()], ids=[k for k, _ in oracle_families()]
)
def test_class_proofs_match_plain_enumeration(family, window):
    report = verify_against_geometry(family, window).to_json()
    certificate = report.pop("certificate", None)
    assert report.get("witness") == enumerated(family, window)
    assert report["status"] == ("PASS" if family.name in FIBRES else "FAIL")
    if certificate is not None:  # a PASS proves every class and evaluates no pair
        assert report["checked"] == 0 and certificate["evaluated"] == []
        assert len(certificate["proved"]) == 4


def counted_brackets(monkeypatch):
    import liefam.geometry as geometry

    calls = []
    real = geometry.vf_bracket_cubic

    def counting(e, g):
        calls.append((e, g))
        return real(e, g)

    monkeypatch.setattr(geometry, "vf_bracket_cubic", counting)
    return calls


@pytest.mark.parametrize("window", [range(-6, 7), range(-40, 41)], ids=["-6..6", "-40..40"])
def test_an_elliptic_pass_brackets_once_per_parity_class(monkeypatch, window):
    calls = counted_brackets(monkeypatch)
    assert verify_against_geometry(elliptic(), window).passed
    assert len(calls) == 3


def test_a_failing_class_is_evaluated_pair_by_pair(monkeypatch):
    # criterion 9: the even-even class fails, so its pairs of -4..4 are bracketed
    # until the first, (-4, -2), fails
    calls = counted_brackets(monkeypatch)
    report = verify_against_geometry(corrupted_elliptic(), range(-4, 5))
    assert not report.passed and report.checked == 1
    assert len(calls) == 3 + 1


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_a_failing_oracle_stops_at_its_first_pair():
    """The walk of a failing class stops at its first witness, so a window of
    2 * 10^9 indices FAILs in 1 GiB of address space after one bracket."""
    code = textwrap.dedent("""
        import json
        from liefam.geometry import verify_against_geometry
        from liefam.suite import corrupted_elliptic
        windows = (range(-10**9, 10**9), range(-10**9, -10**9 + 3))
        print(json.dumps([verify_against_geometry(corrupted_elliptic(), w).to_json()
                          for w in windows]))
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
    assert huge["status"] == "FAIL" and huge["checked"] == 1
    assert huge["witness"]["pair"] == [-10**9, -10**9 + 2]


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
    assert report.witness["pair"] == [0, 1]
    assert "unexpanded_remainder" in report.witness["value"]


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
POINTS = [
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
    "e1, e2", POINTS, ids=["smooth-1,2", "smooth-1,-3", "smooth--1/2,3/4", "nodal", "cusp"]
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


# ---------------------------------------------------------------------------
# sympy reference for the genus-zero parametrizations
# ---------------------------------------------------------------------------

T, ALPHA2 = sympy.symbols("t alpha2")

#: Genus-zero fibre -> ((e1, e2), u(t), Y(t)), written out independently.
CLASSICAL_FIBRES = {
    "witt": ((0, 0), T**2, 2 * T**3),
    "three-point": ((ALPHA2 / 3, ALPHA2 / 3), T**2 - ALPHA2, 2 * T * (T**2 - ALPHA2)),
    "nodal": ((-2 * ALPHA2 / 3, ALPHA2 / 3), T**2, 2 * T * (T**2 - ALPHA2)),
}


def classical_field(family, n):
    """The coefficient of d/dz of the classical z-field of index n, z = t."""
    k, odd = divmod(n, 2)
    z, b = T, T**2 - ALPHA2
    if family == "witt":
        return z ** (n + 1)
    if family == "three-point":
        return b ** (k + 1) if odd else z * b**k
    return z ** (2 * k) * b if odd else z ** (2 * k - 3) * b**2


def _sympy_param(c: ParamPoly) -> sympy.Expr:
    symbols = [sympy.Symbol(p) for p in c.params]
    return sum(
        (
            sympy.Rational(str(coeff)) * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
            for exps, coeff in c.sorted_terms()
        ),
        sympy.Integer(0),
    )


def _sympy_field(fl: FactoredLaurent) -> sympy.Expr:
    poly = sum((_sympy_param(c) * T**d for d, c in fl.poly.components.items()), sympy.Integer(0))
    return poly * (T**2 - _sympy_param(fl.beta)) ** fl.exp


@pytest.mark.parametrize("family", sorted(CLASSICAL_FIBRES))
def test_parametrization_lies_on_the_fibre(family):
    (e1, e2), u_t, y_t = CLASSICAL_FIBRES[family]
    u = sympy.Symbol("u")
    f = 4 * u * (u - (e2 - e1)) * (u - (-2 * e1 - e2))
    assert sympy.expand(y_t**2 - f.subs(u, u_t)) == 0
    p, q, beta = PARAMETRIZATIONS[family]
    beta = sympy.Symbol(beta) if beta else 0
    assert sympy.expand(T**p * (T**2 - beta) ** q - u_t) == 0
    got = realize(family, 1).f
    got_f = sum((_sympy_param(c) * u**d for d, c in got.components.items()), sympy.Integer(0))
    assert sympy.expand(got_f - f) == 0


@pytest.mark.parametrize("family", sorted(CLASSICAL_FIBRES))
def test_uniformize_gives_the_classical_fields(family):
    for n in range(-7, 8):
        got = _sympy_field(uniformize(family, n))
        assert sympy.cancel(got - classical_field(family, n)) == 0, n


@pytest.mark.parametrize("family", sorted(CLASSICAL_FIBRES))
def test_z_brackets_of_uniformized_fields_follow_the_rule(family):
    """e f' - f e' re-expands in the uniformized basis exactly as the rule says."""
    spec = by_name(family)
    fields = {n: _sympy_field(uniformize(family, n)) for n in range(-12, 9)}
    for n, m in itertools.combinations(range(-4, 5), 2):
        e, f = fields[n], fields[m]
        bracket = e * sympy.diff(f, T) - f * sympy.diff(e, T)
        expected = sum(
            (_sympy_param(c) * fields[i] for i, c in evaluate_pair_rule(spec, n, m)),
            sympy.Integer(0),
        )
        assert sympy.cancel(bracket - expected) == 0, (n, m)


def test_uniformize_needs_a_genus_zero_fibre():
    for family in ("elliptic", "d-infinity"):
        with pytest.raises(ParameterMismatch):
            uniformize(family, 1)
    with pytest.raises(UnsupportedFamily):
        uniformize("virasoro", 1)
