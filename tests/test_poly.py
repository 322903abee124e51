"""Ring axioms and exact serialization of the polynomial kernel and its keyed sums."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefam.algebra import CENTRAL, LieElement, verify_jacobi
from liefam.errors import ExponentOutOfRange, MissingParameter, ParameterMismatch
from liefam.families import witt
from liefam.geometry import LaurentPoly, divide_laurent
from liefam.poly import GUARD, ParamPoly, rat, rat_str, ring_map

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


def images_over(ring):
    """The image of a parameter: a rational, or a small polynomial over `ring`."""
    return st.one_of(coefficients(), small_polys(ring))


@given(polys(), polys(), st.data())
@settings(max_examples=60, deadline=None)
def test_map_params_is_a_ring_map(p, q, data):
    """One compiled map respects sums and products; mapping along A and then B is
    mapping along the composite images, as `pullback` composes a fibre's origin;
    and a parameter with neither an image nor a namesake raises exactly when a
    term of the mapped polynomial holds it."""
    mid, low = ("e2", "s"), ("s",)  # e2 and s may go to their namesakes

    def some_images(names, ring):
        return {name: data.draw(images_over(ring)) for name in names if data.draw(st.booleans())}

    a = ring_map(PARAMS, mid, {"e1": data.draw(images_over(mid)), **some_images(["e2"], mid)})
    b = ring_map(mid, low, {"e2": data.draw(images_over(low)), **some_images(["s"], low)})
    assert a(p + q) == a(p) + a(q)
    assert a(p * q) == a(p) * a(q)
    composite = {r: b(a(ParamPoly.var(PARAMS, r))) for r in PARAMS}
    assert b(a(p)) == ring_map(PARAMS, low, composite)(p) == p.map_params(low, composite)
    # Q[e1, e2] -> Q[s] with some images: no parameter has a namesake there
    images = some_images(PARAMS, low)
    held = {name for e, _ in p.sorted_terms() for name, x in zip(PARAMS, e) if x}
    c = ring_map(PARAMS, low, images)
    if held <= images.keys():
        expected = ParamPoly.const(low, 0)
        for exps, coeff in p.sorted_terms():
            term = ParamPoly.const(low, coeff)
            for name, x in zip(PARAMS, exps):
                image = images[name] if x else 1
                term = term * (image if isinstance(image, ParamPoly) else ParamPoly.const(low, image)) ** x
            expected = expected + term
        assert c(p) == expected
    else:
        with pytest.raises(ParameterMismatch):
            c(p)
    with pytest.raises(ParameterMismatch):
        c(ParamPoly.const(low, 1))  # a polynomial over another ring


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
    top = max((exps[0] for exps, _ in p.sorted_terms()), default=0)
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
# packed monomials against a dense exponent-tuple model
# ---------------------------------------------------------------------------


def model(items) -> dict:
    """The dense model of a polynomial: exponent tuple -> nonzero Fraction."""
    out = {}
    for e, c in items:
        out[tuple(e)] = out.get(tuple(e), 0) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def model_product(x: dict, y: dict) -> dict:
    return model(
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in x.items()
        for e2, c2 in y.items()
    )


def model_text(params, m: dict) -> str:
    """`ParamPoly.__str__` of the model: terms by ascending exponent tuple."""
    parts = []
    for e, c in sorted(m.items()):
        factors = [p if k == 1 else f"{p}^{k}" for p, k in zip(params, e) if k]
        if not factors:
            parts.append(rat_str(c))
        else:
            head = {1: "", -1: "-"}.get(c, rat_str(c) + "*")
            parts.append(head + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def agrees(p: ParamPoly, params, m: dict) -> None:
    """p is the model's polynomial over `params`, in every view of it."""
    zero = (0,) * len(params)
    assert p.params == params
    assert p.sorted_terms() == sorted(m.items())
    assert str(p) == model_text(params, m)
    assert p.is_constant == (m.keys() <= {zero})
    expected_json = (
        rat_str(m.get(zero, Fraction(0)))
        if m.keys() <= {zero}
        else [[rat_str(c), list(e)] for e, c in sorted(m.items())]
    )
    assert p.to_json() == expected_json
    assert ParamPoly.from_json(params, expected_json) == p
    rebuilt = ParamPoly.from_terms(params, reversed(list(m.items())))
    assert rebuilt == p and hash(rebuilt) == hash(p)


#: Exponents near a quarter of the guard, so that a product of two monomials
#: or a cube fills the top of a field without reaching the guard.
EXPONENTS = st.one_of(st.integers(1, 3), st.integers(GUARD // 4 - 3, GUARD // 4 - 1))


@st.composite
def rings(draw):
    """(params, items, items): a ring of 0-70 parameters and two term lists."""
    params = tuple(f"x{i}" for i in range(draw(st.integers(0, 70))))

    def exponent_vector(positions):
        e = [0] * len(params)
        for i, k in positions.items():
            e[i] = k
        return tuple(e)

    positions = (
        st.dictionaries(st.integers(0, len(params) - 1), EXPONENTS, max_size=3)
        if params else st.just({})
    )
    term = st.tuples(positions.map(exponent_vector), coefficients())
    return params, draw(st.lists(term, max_size=4)), draw(st.lists(term, max_size=4))


@given(rings(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_packed_ring_operations_match_the_model(ring, k):
    params, xs, ys = ring
    x, y = ParamPoly.from_terms(params, xs), ParamPoly.from_terms(params, ys)
    mx, my = model(xs), model(ys)
    agrees(x, params, mx)
    agrees(x + y, params, model([*mx.items(), *my.items()]))
    agrees(x - y, params, model([*mx.items(), *((e, -c) for e, c in my.items())]))
    agrees(-x, params, {e: -c for e, c in mx.items()})
    agrees(x * y, params, model_product(mx, my))
    power = model([((0,) * len(params), 1)])
    for _ in range(k):
        power = model_product(power, mx)
    agrees(x**k, params, power)
    assert (x == y) == (mx == my)


@given(rings(), st.data())
@settings(max_examples=150, deadline=None)
def test_packed_changes_of_ring_match_the_model(ring, data):
    params, xs, _ = ring
    x, mx = ParamPoly.from_terms(params, xs), model(xs)
    wider = params + ("y0", "y1")
    agrees(x.map_params(wider), wider, {e + (0, 0): c for e, c in mx.items()})
    moved = tuple(data.draw(st.permutations(params)))
    agrees(
        x.map_params(moved), moved,
        {tuple(e[params.index(p)] for p in moved): c for e, c in mx.items()},
    )
    if not params:
        return
    fixed = data.draw(st.lists(st.sampled_from(params), unique=True, max_size=3))
    # 2 and 1/2 only where exponents are small: near the guard their powers
    # have more digits than `str` converts
    small = {p for j, p in enumerate(params) if all(e[j] <= 3 for e in mx)}
    values = {p: [0, 1, -1, 2, Fraction(1, 2)] if p in small else [0, 1, -1] for p in fixed}
    point = {p: data.draw(st.sampled_from(values[p])) for p in fixed}
    rest = tuple(p for p in params if p not in point)
    agrees(
        x.map_params(rest, point), rest,
        model(
            (
                tuple(k for p, k in zip(params, e) if p not in point),
                c * math.prod(Fraction(point[p]) ** k for p, k in zip(params, e) if p in point),
            )
            for e, c in mx.items()
        ),
    )
    i = data.draw(st.integers(0, len(params) - 1))
    power = data.draw(st.sampled_from(sorted({0, *(e[i] for e in mx)})))
    agrees(
        x.coefficient_of(params[i], power), params[:i] + params[i + 1:],
        {e[:i] + e[i + 1:]: c for e, c in mx.items() if e[i] == power},
    )


@given(st.integers(1, 70), st.data())
@settings(max_examples=100, deadline=None)
def test_a_product_reaching_the_guard_raises(arity, data):
    params = tuple(f"x{i}" for i in range(arity))
    i = data.draw(st.integers(0, arity - 1))
    low = st.integers(0, GUARD // 2 - 1)
    e1 = [data.draw(low) for _ in params]
    e2 = [data.draw(low) for _ in params]
    e1[i] = data.draw(st.integers(1, GUARD - 1))
    x = ParamPoly.from_terms(params, [(e1, 3)])
    for top in (GUARD - 1, GUARD):  # the field's sum just below the guard, then at it
        e2[i] = top - e1[i]
        y = ParamPoly.from_terms(params, [(e2, Fraction(1, 2))])
        if top < GUARD:
            agrees(x * y, params, {tuple(a + b for a, b in zip(e1, e2)): Fraction(3, 2)})
        else:
            with pytest.raises(ExponentOutOfRange):
                x * y
    with pytest.raises(ExponentOutOfRange):
        ParamPoly.var(params, params[i]) ** GUARD


@given(st.integers(1, 70), st.data())
@settings(max_examples=60, deadline=None)
def test_a_linear_form_reads_each_parameter(arity, data):
    params = tuple(f"x{i}" for i in range(arity))
    nonzero = coefficients().filter(bool)
    coeffs = data.draw(st.dictionaries(st.sampled_from(params), nonzero, max_size=5))
    const = data.draw(coefficients())
    p = ParamPoly.const(params, const)
    for name, c in coeffs.items():
        p = p + ParamPoly.var(params, name) * c
    assert p.linear_form() == (coeffs, const)
    square = ParamPoly.var(params, data.draw(st.sampled_from(params))) ** 2
    with pytest.raises(ValueError):
        (p * p + square).linear_form()


@pytest.mark.parametrize("exponent", [-1, GUARD, GUARD + 5])
def test_from_terms_refuses_an_exponent_out_of_range(exponent):
    with pytest.raises(ExponentOutOfRange):
        ParamPoly.from_terms(PARAMS, [((1, exponent), 2)])
    with pytest.raises(ExponentOutOfRange):
        ParamPoly.from_json(PARAMS, [["2", [exponent, 0]]])
    assert ParamPoly.from_terms(PARAMS, [((GUARD - 1, 0), 2)]).sorted_terms() == [
        ((GUARD - 1, 0), 2)
    ]


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
