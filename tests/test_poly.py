"""Ring axioms and exact serialization of the polynomial kernel and its keyed sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefam.algebra import CENTRAL, LieElement
from liefam.errors import MissingParameter, ParameterMismatch
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
