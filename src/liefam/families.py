"""Constructors for every algebra family in the catalog.

All rules are stored in the canonical normal form of `algebra.FamilySpec`:
per parity class a list of (degree shift, affine coefficient) pairs, plus
exceptional rows for the two formal families whose deformation touches a
single row.  Parameters enter only through the polynomial combinations
that actually appear (alpha2 stands for the square of the double point
coordinate; alpha never occurs alone).

Most of the catalog is derived, not typed out.  elliptic() is the
Krichever-Novikov family over Q[e1, e2] on the degenerating cubic, and
witt, three-point, nodal, d-line(s) and d-infinity are its pullbacks
along (e1, e2) = (0, 0), (alpha2/3, alpha2/3), (-2*alpha2/3, alpha2/3),
(e1, s*e1) and (0, e2): the cusp, the nodal lines s = 1 (IIb) and
s = -1/2 (IIa), a line through the origin and the vertical line.  Each
records it as its `origin`, so elliptic()'s Jacobi PASS certifies them.
`FIBRES` holds the images of all but d-line.  virasoro is witt with a
central rule; l1 and w1 restrict witt and three-point to the indices
>= 1.  Only the formal families are written term by term.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .algebra import CentralDelta, FamilySpec, pullback, restricted, term
from .errors import UnsupportedFamily
from .poly import ParamPoly, rat


def _mn_terms(params, shifts_factors):
    """Terms with coefficient factor*(m - n) at the given shifts."""
    out = []
    for shift, factor in shifts_factors:
        out.append(term(params, shift, a=-factor, b=factor, d=0))
    return tuple(out)


def elliptic() -> FamilySpec:
    """Two-parameter family of vector fields on the plane cubic.

    Shifts 0, -2, -4 with coefficients f_w = 1, 3*e1, (e1-e2)(2*e1+e2);
    the third root is eliminated via e3 = -(e1+e2) so the coefficient
    ring is Q[e1, e2].  Same-parity pairs get f_w*(m - n) at every shift,
    the odd-even row f_w*(m - n + w/2), and the odd-odd row only the
    shift-0 term.
    """
    params = ("e1", "e2")
    e1, e2 = ParamPoly.var(params, "e1"), ParamPoly.var(params, "e2")
    shifted = [
        (0, ParamPoly.const(params, 1)), (-2, e1 * 3), (-4, (e1 - e2) * (e1 * 2 + e2))
    ]
    same = _mn_terms(params, shifted)
    mixed = tuple(term(params, w, a=-f, b=f, d=f * (w // 2)) for w, f in shifted)
    return FamilySpec(
        name="elliptic",
        params=params,
        rule={"odd-odd": same[:1], "even-even": same, "odd-even": mixed},
    )


_THIRD = ParamPoly.var(("alpha2",), "alpha2") * Fraction(1, 3)

#: Catalog name -> (params, images) of its fibre: the family is elliptic()
#: pulled back along (e1, e2) -> images in Q[params], and `geometry.realize`
#: maps the elliptic fields the same way.  l1, w1 restrict witt, three-point.
FIBRES = {
    "elliptic": (("e1", "e2"), {}),
    "witt": ((), {"e1": 0, "e2": 0}),
    "l1": ((), {"e1": 0, "e2": 0}),
    "three-point": (("alpha2",), {"e1": _THIRD, "e2": _THIRD}),
    "w1": (("alpha2",), {"e1": _THIRD, "e2": _THIRD}),
    "nodal": (("alpha2",), {"e1": _THIRD * -2, "e2": _THIRD}),
    "d-infinity": (("e2",), {"e1": 0}),
}


def witt() -> FamilySpec:
    """[v_n, v_m] = (m - n) v_{n+m}: the cuspidal fibre (e1, e2) = (0, 0)."""
    return pullback(elliptic(), *FIBRES["witt"], "witt")


def virasoro() -> FamilySpec:
    """Witt rule plus the central pairing (1/12)(m^3 - m) on n + m = 0."""
    return replace(
        witt(),
        name="virasoro",
        central=CentralDelta(
            (Fraction(0), Fraction(-1, 12), Fraction(0), Fraction(1, 12))
        ),
    )


def d_line(s) -> FamilySpec:
    """Restriction of the elliptic family to the line e2 = s*e1.

    One parameter e1; the shift -4 coefficient becomes e1^2 (1-s)(2+s),
    and its term drops out on the degenerate lines s = 1 and s = -2.
    """
    s = rat(s)
    e1 = ParamPoly.var(("e1",), "e1")
    return pullback(elliptic(), ("e1",), {"e2": e1 * s}, f"d-line(s={s})")


def d_infinity() -> FamilySpec:
    """The vertical line e1 = 0: shift -4 coefficient -e2^2, no shift -2."""
    return pullback(elliptic(), *FIBRES["d-infinity"], "d-infinity")


def three_point() -> FamilySpec:
    """Genus-zero algebra with poles at two symmetric points and infinity.

    The fibre (alpha2/3, alpha2/3) on the nodal line s = 1 (subcase IIb):
    the shift -2 coefficient is alpha2 and the shift -4 term vanishes.
    """
    return pullback(elliptic(), *FIBRES["three-point"], "three-point")


def nodal() -> FamilySpec:
    """Witt subalgebra of fields vanishing at the two symmetric points.

    The fibre (-2*alpha2/3, alpha2/3) on the nodal line s = -1/2 (subcase
    IIa).  The shifted coefficients are -2*alpha2 and alpha2^2, as forced
    by the realization v_{2k} = l_{2k} - 2*alpha2*l_{2k-2} +
    alpha2^2*l_{2k-4} (the geometry module re-derives them from the
    vector fields).
    """
    return pullback(elliptic(), *FIBRES["nodal"], "nodal")


def l1_subalgebra() -> FamilySpec:
    """Witt vectors of index >= 1 (fields vanishing to order >= 2 at 0)."""
    return restricted(witt(), 1, name="l1")


def w1_subalgebra() -> FamilySpec:
    """Positive part of the three-point algebra (indices >= 1)."""
    return restricted(three_point(), 1, name="w1")


def formal_family(i: int) -> FamilySpec:
    """Three one-parameter families deforming the index >= 1 subalgebra L1.

    Family 1 shifts every row by t*(m-n) at degree -1; families 2 and 3
    deform only the row of index 1 resp. 2 by t*m at the matching shift.
    Their first-order cocycles beta1, beta2 are coboundaries on L1: the
    affine solve of weight -1 gives F(v_n) = ((n - 1)/2) v_(n-1) resp.
    ((n + 1)/2) v_(n-1), with F(v_1) = 0.  beta3 is not one (criterion 5).
    """
    if i not in (1, 2, 3):
        raise UnsupportedFamily(f"formal family index must be 1, 2 or 3, got {i}")
    params = ("t",)
    t_var = ParamPoly.var(params, "t")
    one = ParamPoly.const(params, 1)
    if i == 1:
        rule_terms = _mn_terms(params, [(0, one), (-1, t_var)])
        exceptional = {}
    else:
        rule_terms = _mn_terms(params, [(0, one)])
        row = (term(params, 0, a=-1, b=1, d=0), term(params, 1 - i, b=t_var))
        exceptional = {i - 1: row}
    return FamilySpec(
        name=f"formal-{i}",
        params=params,
        rule={cls: rule_terms for cls in ("odd-odd", "even-even", "odd-even")},
        exceptional=exceptional,
        lower_bound=1,
    )


#: Catalog: name -> (constructor, names of required constructor arguments).
CATALOG = {
    "witt": (witt, ()),
    "virasoro": (virasoro, ()),
    "elliptic": (elliptic, ()),
    "d-line": (d_line, ("s",)),
    "d-infinity": (d_infinity, ()),
    "three-point": (three_point, ()),
    "nodal": (nodal, ()),
    "l1": (l1_subalgebra, ()),
    "w1": (w1_subalgebra, ()),
    "formal-1": (lambda: formal_family(1), ()),
    "formal-2": (lambda: formal_family(2), ()),
    "formal-3": (lambda: formal_family(3), ()),
}


def by_name(name: str, **kwargs) -> FamilySpec:
    if name not in CATALOG:
        raise UnsupportedFamily(
            f"unknown family {name!r}; known: {', '.join(sorted(CATALOG))}"
        )
    ctor, required = CATALOG[name]
    missing = [a for a in required if a not in kwargs]
    if missing:
        raise UnsupportedFamily(f"family {name!r} needs arguments {missing}")
    return ctor(**{k: kwargs[k] for k in required})
