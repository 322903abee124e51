"""Ring axioms and exact serialization of the polynomial kernel and its keyed sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefam.algebra import CENTRAL, LieElement, verify_jacobi
from liefam.errors import MissingParameter, ParameterMismatch
from liefam.families import witt
from liefam.geometry import LaurentPoly, divide_laurent
from liefam.poly import ParamPoly, rat, rat_str

PARAMS = ("e1", "e2")


def coefficients():
    return st.fractions(
        min_value=-9, max_value=9, max_denominator=6
    )


def polys():
    term = st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients()
    )
    return st.lists(term, max_size=5).map(
        lambda items: ParamPoly.from_terms(PARAMS, items)
    )


@given(polys(), polys(), polys())
@settings(max_examples=120, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys())
@settings(max_examples=60, deadline=None)
def test_no_stored_zeros_and_additive_inverse(p):
    assert all(c != 0 for c in p.terms.values())
    assert (p - p).is_zero
    assert (p + (-p)).is_zero


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_homomorphism(p, q):
    point = {"e1": Fraction(2, 3), "e2": Fraction(-5)}

    def at(x):
        return x.map_params((), point)

    assert at(p * q) == at(p) * at(q)
    assert at(p + q) == at(p) + at(q)


def test_rat_parsing_and_formatting():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)
    assert rat_str(Fraction(-1, 2)) == "-1/2"
    assert rat_str(Fraction(8, 4)) == "2"
    with pytest.raises(TypeError):
        rat(0.5)  # floats are banned everywhere


def test_var_and_arithmetic():
    e1 = ParamPoly.var(PARAMS, "e1")
    e2 = ParamPoly.var(PARAMS, "e2")
    q = (e1 - e2) * (e1 * 2 + e2)
    assert q == e1 * e1 * 2 - e1 * e2 - e2 * e2
    assert q.map_params((), {"e1": 1, "e2": 1}) == 0
    with pytest.raises(MissingParameter):
        ParamPoly.var(PARAMS, "t")
    with pytest.raises(ParameterMismatch):
        q.map_params((), {"e1": 1})


def test_parameter_rings_do_not_mix():
    a = ParamPoly.var(("s",), "s")
    b = ParamPoly.var(("t",), "t")
    with pytest.raises(ParameterMismatch):
        a + b


def test_coefficient_extraction():
    e1 = ParamPoly.var(("e1",), "e1")
    p = e1 * e1 * 3 + e1 * 2 - 7
    assert p.coefficient_of("e1", 2) == ParamPoly.const((), 3)
    assert p.coefficient_of("e1", 1) == ParamPoly.const((), 2)
    assert p.coefficient_of("e1", 0) == ParamPoly.const((), -7)
    assert p.coefficient_of("e1", 5).is_zero


@given(polys())
@settings(max_examples=60, deadline=None)
def test_power_is_repeated_multiplication(p):
    expected = ParamPoly.const(PARAMS, 1)
    for e in range(7):
        assert p**e == expected, e
        expected = expected * p
    with pytest.raises(ValueError):
        p ** -1


def test_substitute_composition():
    s = ParamPoly.var(("s",), "s")
    g = (1 - s) * (2 + s)
    image = g.map_params(("s",), {"s": -1 - s})
    assert image == g  # (1-s)(2+s) is invariant under s -> -1-s
    e1, e2 = (ParamPoly.var(PARAMS, name) for name in PARAMS)
    p = e1 * e1 * e2 * 3 - e2 + 5
    # a parameter without an image stays itself
    assert p.map_params(PARAMS, {"e2": e1 * 2}) == e1 * e1 * e1 * 6 - e1 * 2 + 5
    assert p.map_params(PARAMS, {}) == p


def test_lift_and_drop():
    s = ParamPoly.var(("s",), "s")
    lifted = s.map_params(("e1", "s"))
    assert lifted.params == ("e1", "s")
    assert lifted.map_params(("s",)) == s
    with pytest.raises(ParameterMismatch):
        lifted.map_params(("e1",))  # s still occurs


def small_polys(params):
    term = st.tuples(st.tuples(*(st.integers(0, 2) for _ in params)), coefficients())
    return st.lists(term, max_size=3).map(
        lambda items: ParamPoly.from_terms(params, items)
    )


@given(polys(), polys(), small_polys(("s", "t")), small_polys(("s", "t")))
@settings(max_examples=40, deadline=None)
def test_map_params_is_a_ring_map(p, q, image1, image2):
    # Q[e1, e2] -> Q[s, t] along e1 -> image1, e2 -> image2, then at a point
    ring, point = ("s", "t"), {"s": Fraction(-1, 2), "t": Fraction(3)}
    images = {"e1": image1, "e2": image2}

    def f(x):
        return x.map_params(ring, images)

    assert f(p + q) == f(p) + f(q)
    assert f(p * q) == f(p) * f(q)
    composed = {name: image.map_params((), point) for name, image in images.items()}
    assert f(p).map_params((), point) == p.map_params((), composed)


def test_json_round_trip():
    e1 = ParamPoly.var(PARAMS, "e1")
    p = e1 * e1 * Fraction(3, 2) - 7
    data = p.to_json()
    assert ParamPoly.from_json(PARAMS, data) == p
    assert ParamPoly.const(PARAMS, Fraction(5, 3)).to_json() == "5/3"


# -- the coefficient invariant: an int when integral, else a Fraction ----------

SCALARS = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))


def stored_form(p: ParamPoly) -> bool:
    """Every stored coefficient is an int, or a Fraction with denominator > 1."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1)
        for c in p.terms.values()
    )


def as_text(c) -> str:
    """c as an unreduced "p/q" string, so that parsing has to reduce it."""
    c = rat(c)
    return f"{2 * c.numerator}/{2 * c.denominator}"


@st.composite
def leaves(draw):
    """(polynomial, reference): a constructor's result and its value at a point."""
    kind = draw(st.sampled_from(["const", "var", "from_terms", "from_json"]))
    if kind == "const":
        value = draw(st.one_of(SCALARS, SCALARS.map(as_text)))
        return ParamPoly.const(PARAMS, value), lambda pt: rat(value)
    if kind == "var":
        name = draw(st.sampled_from(PARAMS))
        return ParamPoly.var(PARAMS, name), lambda pt: pt[name]
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    items = draw(st.lists(st.tuples(exps, SCALARS), max_size=4))

    def ref(pt):
        terms = (rat(c) * pt["e1"] ** a * pt["e2"] ** b for (a, b), c in items)
        return sum(terms, Fraction(0))

    if kind == "from_terms":
        return ParamPoly.from_terms(PARAMS, items), ref
    data = [[as_text(c), list(e)] for e, c in items]
    return ParamPoly.from_json(PARAMS, data), ref


def combined(children):
    """One ring operation, or substitution, applied to (polynomial, reference) pairs."""

    def binary(args):
        name, (p, rp), (q, rq) = args
        if name == "+":
            return p + q, lambda pt: rp(pt) + rq(pt)
        if name == "-":
            return p - q, lambda pt: rp(pt) - rq(pt)
        return p * q, lambda pt: rp(pt) * rq(pt)

    def scalar(args):
        (p, rp), c, left = args
        return (c * p if left else p * c), lambda pt: rat(c) * rp(pt)

    def power(args):
        (p, rp), k = args
        return p**k, lambda pt: rp(pt) ** k

    def substituted(args):
        (p, rp), (q, rq) = args
        image = p.map_params(PARAMS, {"e1": q})
        return image, lambda pt: rp({"e1": rq(pt), "e2": pt["e2"]})

    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children).map(binary),
        st.tuples(children, SCALARS, st.booleans()).map(scalar),
        st.tuples(children, st.integers(0, 3)).map(power),
        st.tuples(children, children).map(substituted),
        children.map(lambda x: (-x[0], lambda pt: -x[1](pt))),
    )


POINTS = st.fixed_dictionaries(
    {name: st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))
     for name in PARAMS}
)


@given(st.recursive(leaves(), combined, max_leaves=6), st.lists(POINTS, min_size=2, max_size=2))
@settings(max_examples=150, deadline=None)
def test_coefficients_are_ints_unless_a_denominator_is_real(expr, points):
    p, ref = expr
    assert stored_form(p)
    top = max((exps[0] for exps in p.terms), default=0)
    parts = [p.coefficient_of("e1", k) for k in range(top + 1)]
    assert all(stored_form(c) for c in parts)
    for pt in points:
        value = p.map_params((), pt)
        assert stored_form(value)
        assert type(value.constant_value()) is Fraction
        assert value.constant_value() == ref(pt)
        # p = sum_k coefficient_of(e1, k) * e1**k, in plain Fraction arithmetic
        rebuilt = sum(
            (c.map_params((), {"e2": pt["e2"]}).constant_value() * Fraction(pt["e1"]) ** k
             for k, c in enumerate(parts)),
            Fraction(0),
        )
        assert rebuilt == ref(pt)


def test_integral_jacobi_check_builds_no_fraction(monkeypatch):
    """Witt's structure constants are integers, so certifying Jacobi needs no Fraction."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    report = verify_jacobi(witt(), range(-8, 9))
    assert report.status == "PASS"
    assert built == []


# ---------------------------------------------------------------------------
# keyed sums: LaurentPoly over Q[a] and LieElement
# ---------------------------------------------------------------------------

RING = ("a",)


def a_polys():
    term = st.tuples(st.tuples(st.integers(0, 2)), coefficients())
    return st.lists(term, max_size=3).map(lambda items: ParamPoly.from_terms(RING, items))


def laurents(degrees=st.integers(-3, 3)):
    return st.lists(st.tuples(degrees, a_polys()), max_size=4).map(
        lambda items: LaurentPoly.from_items(RING, items)
    )


@given(laurents(), laurents(), laurents())
@settings(max_examples=80, deadline=None)
def test_laurent_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (q + r) * p == q * p + r * p


@given(laurents(), a_polys())
@settings(max_examples=60, deadline=None)
def test_keyed_sums_store_no_zeros_and_cancel(p, c):
    x = LieElement(RING, dict(p.components))
    for elem in (p, p.scale(c), p * p, x, x.scale(c)):
        assert all(not v.is_zero for v in elem.components.values())
        assert (elem + (-elem)).is_zero
        assert (elem - elem).is_zero


KEYS = st.sampled_from([-2, -1, 0, 1, 3, CENTRAL])
ELEMENT_ITEMS = st.lists(st.tuples(KEYS, coefficients()), max_size=6)


def reference_sum(*item_lists):
    """Plain-dict sum of (key, Fraction) items, zero sums dropped."""
    total = {}
    for items in item_lists:
        for key, value in items:
            total[key] = total.get(key, Fraction(0)) + value
    return {key: value for key, value in total.items() if value != 0}


def as_element(ref: dict) -> LieElement:
    return LieElement((), {k: ParamPoly.const((), v) for k, v in ref.items()})


@given(ELEMENT_ITEMS, ELEMENT_ITEMS, coefficients())
@settings(max_examples=100, deadline=None)
def test_lie_element_matches_a_dict_reference(xs, ys, factor):
    x, y = LieElement.from_items((), xs), LieElement.from_items((), ys)
    assert x == as_element(reference_sum(xs))
    assert x + y == as_element(reference_sum(xs, ys))
    assert -x == as_element(reference_sum([(k, -v) for k, v in xs]))
    assert x - y == as_element(reference_sum(xs, [(k, -v) for k, v in ys]))
    assert x.scale(factor) == as_element(reference_sum([(k, v * factor) for k, v in xs]))
    for key in (-2, 0, CENTRAL, 7):
        assert x.coefficient(key) == ParamPoly.const((), reference_sum(xs).get(key, 0))


def test_keyed_sums_refuse_mixed_rings():
    a = ParamPoly.var(RING, "a")
    with pytest.raises(ParameterMismatch):
        LieElement.basis(1, RING, a) + LieElement.basis(1)
    with pytest.raises(ParameterMismatch):
        LaurentPoly.monomial(RING, 1, a) + LaurentPoly.monomial((), 1)
    with pytest.raises(ParameterMismatch):
        LaurentPoly.monomial(RING, 1, a) * LaurentPoly.monomial((), 1)
    assert LieElement.basis(1) != LaurentPoly.monomial((), 1)


@given(laurents(), laurents(st.integers(-2, 1)), st.integers(0, 3), coefficients())
@settings(max_examples=80, deadline=None)
def test_division_peels_to_the_remainder(num, low, top, lead):
    # a divisor with the constant leading coefficient `lead` at degree top
    lead = lead or Fraction(1)
    den = low + LaurentPoly.monomial(RING, top + 2, lead)
    quotient, rest = divide_laurent(num, den)
    assert quotient * den + rest == num
    quotient, rest = divide_laurent(num * den, den)
    assert rest.is_zero and quotient == num
