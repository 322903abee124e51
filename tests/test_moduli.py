"""Modular quantities, fiber taxonomy, rescaling isomorphisms."""

import random
from fractions import Fraction

import pytest

from liefam.algebra import specialize
from liefam.errors import DegenerateLine, OddShiftNotRescalable
from liefam.families import d_line, elliptic, formal_family, three_point, virasoro
from liefam.moduli import (
    INFINITE_SLOPE,
    CurveParams,
    classify_fiber,
    j_of_line,
    rescale,
    symbolic_invariants,
)
from liefam.poly import ParamPoly


def test_curve_params_invariants():
    p = CurveParams(Fraction(1), Fraction(2))
    assert p.e3 == -3
    assert p.g2 == -4 * (2 - 3 - 6)
    assert p.g3 == -24
    assert p.discriminant == 16 * 1 * 16 * 25
    assert p.g2**3 - 27 * p.g3**2 == p.discriminant


def test_symbolic_discriminant_identity():
    g2, g3, disc = symbolic_invariants()
    assert g2**3 - g3 * g3 * 27 == disc


def test_j_values():
    assert j_of_line(INFINITE_SLOPE) == 1728
    assert j_of_line(0) == 1728
    assert j_of_line(Fraction(3, 2)) == Fraction(740772, 49)
    with pytest.raises(DegenerateLine):
        j_of_line(1)
    with pytest.raises(DegenerateLine):
        j_of_line(Fraction(-1, 2))


def test_j_line_matches_curve_params():
    rng = random.Random(12)
    for _ in range(20):
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if s in (1, -2, Fraction(-1, 2)):
            continue
        assert j_of_line(s) == CurveParams(Fraction(1), s).j
        assert j_of_line(s) == j_of_line(-1 - s)


def test_line_partner():
    s = ParamPoly.var(("s",), "s")
    assert ((1 - s) * (2 + s)).map_params(("s",), {"s": -1 - s}) == (1 - s) * (2 + s)


def test_classify_fiber_taxonomy():
    assert classify_fiber(0, 0).kind == "cuspidal"
    assert classify_fiber(1, 1).subcase == "IIb"  # e1 = e2
    assert classify_fiber(2, -4).subcase == "IIb"  # e1 = e3 (s = -2)
    assert classify_fiber(1, Fraction(-1, 2)).subcase == "IIa"  # e2 = e3
    smooth = classify_fiber(1, 2)
    assert smooth.kind == "smooth" and smooth.j == CurveParams(1, 2).j


def test_nodal_exactly_on_three_lines():
    rng = random.Random(13)
    for _ in range(40):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        s = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        fiber = classify_fiber(a, s * a)
        if s in (1, -2, Fraction(-1, 2)):
            assert fiber.kind == "nodal"
        else:
            assert fiber.kind == "smooth"


def test_rescale_normalizes_the_line():
    f4 = specialize(d_line(3), {"e1": 4})
    f1 = specialize(d_line(3), {"e1": 1})
    assert rescale(f4, Fraction(1, 4)).rule_signature()[1:] == f1.rule_signature()[1:]


def test_rescale_identifies_three_point_with_s1_line():
    # alpha = sqrt(e1) alone does not match; the squared rescale by 3 does
    tp = specialize(three_point(), {"alpha2": 1})
    ds1 = specialize(d_line(1), {"e1": 1})
    assert tp.rule_signature()[1:] != ds1.rule_signature()[1:]
    assert rescale(tp, 3).rule_signature()[1:] == ds1.rule_signature()[1:]


def test_rescale_inverse_and_identity():
    fam = specialize(elliptic(), {"e1": 2, "e2": 5})
    lam2 = Fraction(2, 7)
    back = rescale(rescale(fam, lam2), 1 / lam2)
    assert back.rule_signature()[1:] == fam.rule_signature()[1:]
    same = rescale(fam, 1)
    assert same.rule_signature()[1:] == fam.rule_signature()[1:]


def test_rescale_commutes_with_specialization():
    rng = random.Random(14)
    for _ in range(10):
        s = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        a = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        lam2 = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        left = specialize(rescale(d_line(s), lam2), {"e1": a})
        right = specialize(d_line(s), {"e1": lam2 * a})
        assert left.rule_signature()[1:] == right.rule_signature()[1:]


def test_rescale_rejects_odd_shifts():
    with pytest.raises(OddShiftNotRescalable):
        rescale(specialize(formal_family(1), {"t": 1}), 4)


def test_rescale_keeps_central_delta():
    scaled = rescale(virasoro(), 9)
    assert scaled.central == virasoro().central
