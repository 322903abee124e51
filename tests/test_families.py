"""Catalog constructors reproduce the closed-form structure equations."""

import hashlib
import random
from fractions import Fraction

import pytest

from liefam.algebra import basis_bracket, specialize, verify_jacobi
from liefam.cli import main
from liefam.errors import UnsupportedFamily
from liefam.families import (
    CATALOG,
    by_name,
    d_infinity,
    d_line,
    elliptic,
    formal_family,
    nodal,
    three_point,
    virasoro,
    w1_subalgebra,
    witt,
)
from liefam.moduli import classify_fiber, j_of_line
from liefam.poly import ParamPoly


def coeffs(family, n, m):
    return {k: v for k, v in basis_bracket(family, n, m).components.items()}


def test_elliptic_structure_rows():
    e = elliptic()
    params = e.params
    e1 = ParamPoly.var(params, "e1")
    e2 = ParamPoly.var(params, "e2")
    q = (e1 - e2) * (e1 * 2 + e2)
    assert coeffs(e, 1, 3) == {4: ParamPoly.const(params, 2)}
    got = coeffs(e, 2, 4)
    assert got[6] == 2 and got[4] == e1 * 6 and got[2] == q * 2
    got = coeffs(e, 1, 4)
    assert got[5] == 3 and got[3] == e1 * 6 and got[1] == q


def test_d_line_coefficients():
    ds = d_line(Fraction(-1, 2))
    e1 = ParamPoly.var(("e1",), "e1")
    got = coeffs(ds, 2, 4)
    assert got[2] == e1 * e1 * Fraction(9, 2)  # (9/4)*(m-n) at m-n = 2
    assert coeffs(d_line(1), 2, 4).get(2) is None  # (1-s) = 0 kills shift -4
    got = coeffs(d_infinity(), 2, 4)
    e2 = ParamPoly.var(("e2",), "e2")
    assert got == {6: ParamPoly.const(("e2",), 2), 2: -(e2 * e2) * 2}


def test_three_point_rows():
    tp = three_point()
    a2 = ParamPoly.var(("alpha2",), "alpha2")
    assert coeffs(tp, 1, 2) == {3: ParamPoly.const(("alpha2",), 1)}
    got = coeffs(tp, 2, 4)
    assert got == {6: ParamPoly.const(("alpha2",), 2), 4: a2 * 2}
    assert coeffs(tp, 1, 3) == {4: ParamPoly.const(("alpha2",), 2)}


def test_nodal_rows():
    nd = nodal()
    a2 = ParamPoly.var(("alpha2",), "alpha2")
    assert coeffs(nd, 1, 3) == {4: ParamPoly.const(("alpha2",), 2)}
    got = coeffs(nd, 2, 4)
    assert got[6] == 2 and got[4] == a2 * -4 and got[2] == a2 * a2 * 2


def test_nodal_substitution_reaches_the_fixed_line():
    # alpha2 -> -(3/2) e1 turns the nodal rule into the s = -1/2 line rule
    nd = nodal()
    ds = d_line(Fraction(-1, 2))
    image = {"alpha2": ParamPoly.var(("e1",), "e1") * Fraction(-3, 2)}
    for cls in ("even-even", "odd-even", "odd-odd"):
        got = {
            t.shift: tuple(x.map_params(("e1",), image) for x in (t.a, t.b, t.d))
            for t in nd.rule[cls]
        }
        want = {t.shift: (t.a, t.b, t.d) for t in ds.rule[cls]}
        assert got == want


def test_formal_family_rows():
    f1 = formal_family(1)
    t = ParamPoly.var(("t",), "t")
    got = coeffs(f1, 1, 2)
    assert got[3] == 1 and got[2] == t
    f3 = formal_family(3)
    got = coeffs(f3, 2, 5)
    assert got[7] == 3 and got[5] == t * 5
    f2 = formal_family(2)
    assert coeffs(f2, 3, 4) == {7: ParamPoly.const(("t",), 1)}
    got = coeffs(f2, 1, 5)
    assert got[6] == 4 and got[5] == t * 5
    # antisymmetric extension of the exceptional row
    got = coeffs(f2, 2, 1)
    assert got[3] == -1 and got[2] == t * -2
    with pytest.raises(UnsupportedFamily):
        formal_family(4)


def test_catalog_jacobi_symbolic():
    for name in CATALOG:
        fam = by_name(name, s=3) if name == "d-line" else by_name(name)
        window = range(1, 17) if fam.lower_bound == 1 else range(-8, 9)
        assert verify_jacobi(fam, window).passed, name


def test_specialize_elliptic_origin_is_witt():
    sp = specialize(elliptic(), {"e1": 0, "e2": 0})
    assert sp.rule_signature()[1:] == witt().rule_signature()[1:]


def test_d_line_matches_elliptic_specialization():
    rng = random.Random(5)
    for _ in range(10):
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        s = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        left = specialize(d_line(s), {"e1": a})
        right = specialize(elliptic(), {"e1": a, "e2": s * a})
        assert left.rule_signature()[1:] == right.rule_signature()[1:]


@pytest.mark.parametrize(
    "family, sample, point, fibre",
    [
        (witt(), {}, (0, 0), {"kind": "cuspidal"}),
        (three_point(), {"alpha2": 3}, (1, 1), {"kind": "nodal", "subcase": "IIb"}),
        (nodal(), {"alpha2": Fraction(-3, 2)}, (1, Fraction(-1, 2)),
         {"kind": "nodal", "subcase": "IIa"}),
        (d_infinity(), {"e2": 1}, (0, 1), {"kind": "smooth", "j": "1728"}),
        *(
            (d_line(s), {"e1": 1}, (1, s), {"kind": "smooth", "j": str(j_of_line(s))})
            for s in (Fraction(0), Fraction(3), Fraction(5, 7), Fraction(-4, 3))
        ),
    ],
    ids=["witt", "three-point", "nodal", "d-infinity", "d-line-0", "d-line-3",
         "d-line-5/7", "d-line--4/3"],
)
def test_derived_family_lands_on_its_fibre(family, sample, point, fibre):
    # the family at the sample is elliptic() at the point, of the named fibre type
    e1, e2 = point
    here = specialize(family, sample)
    there = specialize(elliptic(), {"e1": e1, "e2": e2})
    assert here.rule_signature()[1:] == there.rule_signature()[1:]
    assert classify_fiber(e1, e2).to_json() == fibre


def test_shift4_coefficient_line_symmetry():
    s = ParamPoly.var(("s",), "s")
    g = (1 - s) * (2 + s)
    assert g.map_params(("s",), {"s": -1 - s}) == g


def test_w1_is_positive_part_of_three_point():
    w1 = w1_subalgebra()
    assert w1.lower_bound == 1
    assert w1.rule_signature()[1] == three_point().rule_signature()[1]


def test_by_name_errors():
    with pytest.raises(UnsupportedFamily):
        by_name("unknown")
    with pytest.raises(UnsupportedFamily):
        by_name("d-line")  # missing slope


def test_virasoro_values_on_the_diagonal():
    v = virasoro()
    for n in range(-6, 7):
        got = basis_bracket(v, n, -n)
        expected = Fraction(n**3 - n, 12) * -1  # (1/12)(m^3 - m) at m = -n
        if n == 0:
            assert got.is_zero
            continue
        assert got.coefficient("c") == expected


#: SHA-256 of the stdout of `liefam --json families dump --family <entry>`
#: for every catalog entry, recorded from the hand-typed constructors that
#: the derived ones (one builder, substitution into elliptic) replaced.
CATALOG_DUMP_SHA256 = {
    "d-infinity": "d1dc6dda2d212627e92fe5dd3af823d6f0b868013b49fb78255139f4a87003d7",
    "d-line --s 0": "f88a06d36488e734a557d9cfef510feb42938b8bd901bae6a707ac0b3719ec87",
    "d-line --s 3": "661b59288eebdcb0856527a8ddd6e8589a796f400fed38f1f1cced2fff57b4f6",
    "d-line --s -1/2": "829822993167b838d8c6fc176371a248e012f9590c21e8402db39e6a1eae7ed3",
    "d-line --s 1": "eb2e5400c74ccb05dae9a7f035f556e206503c5f82e3104ca1b9fd4d880e7f43",
    "d-line --s -2": "8fc6fa9b201694003c852d99d1ea1f822bad712dc2eef969352b996cf439447b",
    "d-line --s 5/7": "f5dda523d2dc67505226a29fe7bb31729f40dcd91f557f8c78446b0f86553c51",
    "elliptic": "87e1cc77c936f1958904d7fbc1c12db5bcb7f56d0440293b3774fa17ea046260",
    "formal-1": "be3fea09526e07a2cb61044766f661b131e03853e934dbd88a662c20ddead17d",
    "formal-2": "655155475e7587bc143372ecd5bc863e6f0107599a1d18902ee494ec03c20dc5",
    "formal-3": "5c16d3958258e9d64ad30064b955d6a889484303c8fe423dc236309d044e7699",
    "l1": "f748b8b147f67da0e9a56427191388817700efa41b18de7306b7c4ed813e5bcd",
    "nodal": "ab4cb1014b7c6aa36ee0bd9cac1f207635ac680df570b4966c68071d554328d0",
    "three-point": "eeab01117c96948867529f865b487a7fe11e335d6910ec71b04934f5c82a7dd6",
    "virasoro": "23b05c3349dad748971a4d44496bb5d419e37d777a47531f4ca9fcee4a9f343c",
    "w1": "6559497d1d52ab45c3b6d0d04a2decc83a906cb5200a067c717fb4f922ce9987",
    "witt": "a4a2f8614abbc334215501d81fc18daf3fbc492477be632ed3e729ee08b4dec7",
}


@pytest.mark.parametrize("entry", sorted(CATALOG_DUMP_SHA256))
def test_catalog_dump_is_pinned(capsys, entry):
    assert main(["--json", "families", "dump", "--family", *entry.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_DUMP_SHA256[entry]
