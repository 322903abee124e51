"""Ring axioms and exact serialization of the polynomial kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefam.errors import MissingParameter, ParameterMismatch
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
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


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
    assert q.evaluate({"e1": 1, "e2": 1}) == 0
    with pytest.raises(MissingParameter):
        ParamPoly.var(PARAMS, "t")
    with pytest.raises(MissingParameter):
        q.evaluate({"e1": 1})


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
    image = g.substitute({"s": -1 - s})
    assert image == g  # (1-s)(2+s) is invariant under s -> -1-s
    e1, e2 = (ParamPoly.var(PARAMS, name) for name in PARAMS)
    p = e1 * e1 * e2 * 3 - e2 + 5
    # a parameter without an image stays itself
    assert p.substitute({"e2": e1 * 2}) == e1 * e1 * e1 * 6 - e1 * 2 + 5
    assert p.substitute({}) == p


def test_lift_and_drop():
    s = ParamPoly.var(("s",), "s")
    lifted = s.lift(("e1", "s"))
    assert lifted.params == ("e1", "s")
    assert lifted.drop_params(["e1"]) == s
    with pytest.raises(ParameterMismatch):
        lifted.substitute({}).drop_params(["s"])  # s still occurs


def test_json_round_trip():
    e1 = ParamPoly.var(PARAMS, "e1")
    p = e1 * e1 * Fraction(3, 2) - 7
    data = p.to_json()
    assert ParamPoly.from_json(PARAMS, data) == p
    assert ParamPoly.const(PARAMS, Fraction(5, 3)).to_json() == "5/3"
