"""Independent geometric oracle: brackets of realized vector fields.

Genus zero works symbolically in the ring Q[alpha2][z, 1/z, (z^2-alpha2)^-1]
via a factored Laurent representation.  Genus one works symbolically too,
on Y^2 = f(u) = 4u(u-a)(u-b) with a = e2 - e1 and b = e3 - e1 (u the
coordinate recentered at the finite marked point): a field is
(A + B*Y) d/du with A, B in Q[e1, e2][u, 1/u], so each bracket is checked
once as an identity over Q[e1, e2], which holds on every fibre, the
nodal and cuspidal ones included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    CheckReport,
    FamilySpec,
    domain_indices,
    evaluate_pair_rule,
    grading_bounds,
)
from .errors import ParameterMismatch, UnsupportedFamily
from .families import by_name
from .poly import KeyedSum, ParamPoly, accumulate

# ---------------------------------------------------------------------------
# Laurent polynomials with polynomial parameter coefficients
# ---------------------------------------------------------------------------


class LaurentPoly(KeyedSum):
    """Finitely supported integer-power series sum c_d * z^d."""

    __slots__ = ()

    def max_degree(self) -> int:
        return max(self.components)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._check(other)
        return LaurentPoly(
            self.params,
            accumulate(
                (d1 + d2, c1 * c2)
                for d1, c1 in self.components.items()
                for d2, c2 in other.components.items()
            ),
        )

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly(self.params, {d + k: c for d, c in self.components.items()})

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly(
            self.params, {d - 1: c * d for d, c in self.components.items() if d != 0}
        )

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(
            f"({c})*z^{d}" for d, c in sorted(self.components.items(), reverse=True)
        )


# ---------------------------------------------------------------------------
# factored fields P(z) * (z^2 - beta)^e  (genus zero)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactoredLaurent:
    """Laurent polynomial times an integer power of the quadratic z^2-beta."""

    poly: LaurentPoly
    beta: ParamPoly
    exp: int

    def _check(self, other: "FactoredLaurent"):
        if other.beta != self.beta:
            raise ParameterMismatch("fields over different quadratic factors")

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def base(self) -> LaurentPoly:
        return LaurentPoly.from_items(
            self.poly.params, [(2, 1), (0, -self.beta)]
        )

    def as_laurent(self, floor: int) -> LaurentPoly:
        """Expand poly * (z^2-beta)^(exp-floor); needs exp >= floor.

        A vanishing beta makes the base the monomial z^2, for which any
        integer power stays Laurent.
        """
        k = self.exp - floor
        if self.beta.is_zero:
            return self.poly.shift(2 * k)
        if k < 0:
            raise ValueError("cannot expand below the common factor exponent")
        out = self.poly
        base = self.base()
        for _ in range(k):
            out = out * base
        return out

    def __mul__(self, other: "FactoredLaurent") -> "FactoredLaurent":
        self._check(other)
        return FactoredLaurent(self.poly * other.poly, self.beta, self.exp + other.exp)

    def __add__(self, other: "FactoredLaurent") -> "FactoredLaurent":
        self._check(other)
        floor = min(self.exp, other.exp)
        return FactoredLaurent(
            self.as_laurent(floor) + other.as_laurent(floor), self.beta, floor
        )

    def __neg__(self) -> "FactoredLaurent":
        return FactoredLaurent(-self.poly, self.beta, self.exp)

    def __sub__(self, other: "FactoredLaurent") -> "FactoredLaurent":
        return self + (-other)

    def scale(self, factor) -> "FactoredLaurent":
        return FactoredLaurent(self.poly.scale(factor), self.beta, self.exp)

    def derivative(self) -> "FactoredLaurent":
        # (P b^e)' = (P' b + e P b') b^(e-1), with b' = 2z
        p = self.poly.derivative() * self.base()
        if self.exp:
            p = p + self.poly.shift(1).scale(2 * self.exp)
        return FactoredLaurent(p, self.beta, self.exp - 1)


def vf_bracket_factored(e: FactoredLaurent, f: FactoredLaurent) -> FactoredLaurent:
    """Coefficient of [e d/dz, f d/dz] = (e f' - f e') d/dz, kept factored."""
    e._check(f)
    p1, p2 = e.poly, f.poly
    wron = p1 * p2.derivative() - p2 * p1.derivative()
    poly = wron * e.base()
    if f.exp != e.exp:
        poly = poly + (p1 * p2).shift(1).scale(2 * (f.exp - e.exp))
    return FactoredLaurent(poly, e.beta, e.exp + f.exp - 1)


# ---------------------------------------------------------------------------
# fields (A + B*Y) d/du on the cubic Y^2 = f(u)  (genus one)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubicField:
    """Coefficient A + B*Y of a field on Y^2 = f(u), with A, B, f Laurent in u."""

    a: LaurentPoly
    b: LaurentPoly
    f: LaurentPoly


def divide_laurent(num: LaurentPoly, den: LaurentPoly):
    """(quotient, remainder) of num / den, peeled from the top degree.

    den needs a constant leading coefficient.  A Laurent quotient has
    degrees from min(num) - min(den) to max(num) - max(den), so num is
    re-expanded in those shifts of den; num / den is Laurent exactly
    when the remainder is zero.
    """
    if num.is_zero:
        return LaurentPoly.zero(num.params), num
    low = min(num.components) - min(den.components)
    shifts = range(low, num.max_degree() - den.max_degree() + 1)
    coeffs, rest = expand_in_candidates(num, [(d, den.shift(d)) for d in shifts])
    return LaurentPoly(num.params, coeffs), rest


def vf_bracket_cubic(e: CubicField, g: CubicField):
    """[(A1 + B1 Y) d/du, (A2 + B2 Y) d/du] and the remainder of its division by f.

    With Y' = f' Y / (2f) the Y-free part is A1 A2' - A2 A1' + (B1 B2' - B2 B1') f
    and the Y part A1 B2' - A2 B1' + B1 A2' - B2 A1' + (A1 B2 - A2 B1) f' / (2f);
    that last quotient is Laurent exactly when the returned remainder is zero.
    """
    a1, b1, a2, b2, f = e.a, e.b, g.a, g.b, e.f
    da1, db1, da2, db2 = a1.derivative(), b1.derivative(), a2.derivative(), b2.derivative()
    quotient, rest = divide_laurent((a1 * b2 - a2 * b1) * f.derivative(), f)
    return (
        CubicField(
            a1 * da2 - a2 * da1 + (b1 * db2 - b2 * db1) * f,
            a1 * db2 - a2 * db1 + b1 * da2 - b2 * da1 + quotient.scale(Fraction(1, 2)),
            f,
        ),
        rest,
    )


# ---------------------------------------------------------------------------
# vector fields and realizations
# ---------------------------------------------------------------------------


def vf_bracket(e, f):
    """Coefficient of [e, f] = (e f' - f e') d/dz, exact in the realization's ring."""
    if isinstance(e, FactoredLaurent) and isinstance(f, FactoredLaurent):
        return vf_bracket_factored(e, f)
    if isinstance(e, CubicField) and isinstance(f, CubicField):
        got, rest = vf_bracket_cubic(e, f)
        if not rest.is_zero:
            raise ValueError(f"the bracket leaves the Laurent ring: remainder {rest}")
        return got
    raise ParameterMismatch("fields over different coordinate rings")


GENUS0_FAMILIES = ("witt", "l1", "three-point", "w1", "nodal")


def realize(family: str, n: int):
    """The coefficient of the explicit vector field carrying basis index n.

    A FactoredLaurent in z for the genus-zero families (symbolic in
    alpha2 for three-point, w1 and nodal); a CubicField in u over
    Q[e1, e2] for elliptic, whose fibre at a point is its image under
    `KeyedSum.map_params`.  witt: l_n = z^(n+1) d/dz.  three-point
    even/odd: z (z^2-alpha2)^k resp. (z^2-alpha2)^(k+1) times d/dz.
    nodal: z^(2k-3) (z^2-alpha2)^2 resp. z^(2k) (z^2-alpha2) times d/dz.
    elliptic, in u = X - e1 on Y^2 = f(u) = 4u(u-a)(u-b) with a = e2 - e1,
    b = e3 - e1:  u^k Y d/du for index 2k+1 and 2 u^(k-1) (u-a) (u-b) d/du
    for index 2k.
    """
    if family in ("witt", "l1"):
        return FactoredLaurent(LaurentPoly.monomial((), n + 1), ParamPoly.const((), 0), 0)
    k, odd = divmod(n, 2)
    if family in ("three-point", "w1", "nodal"):
        beta = ParamPoly.var(("alpha2",), "alpha2")
        if family == "nodal":
            degree, exp = (2 * k, 1) if odd else (2 * k - 3, 2)
        else:
            degree, exp = (0, k + 1) if odd else (1, k)
        return FactoredLaurent(LaurentPoly.monomial(beta.params, degree), beta, exp)
    if family == "elliptic":
        params = ("e1", "e2")
        e1, e2 = ParamPoly.var(params, "e1"), ParamPoly.var(params, "e2")
        a, b = e2 - e1, -e1 * 2 - e2
        quad = LaurentPoly.from_items(params, [(2, 1), (1, -(a + b)), (0, a * b)])
        f = quad.shift(1).scale(4)
        zero = LaurentPoly.zero(params)
        if odd:
            return CubicField(zero, LaurentPoly.monomial(params, k), f)
        return CubicField(quad.shift(k - 1).scale(2), zero, f)
    raise UnsupportedFamily(f"no realization for family {family!r}")


# ---------------------------------------------------------------------------
# basis re-expansion and the verification loop
# ---------------------------------------------------------------------------


def expand_in_candidates(target: LaurentPoly, candidates):
    """Write target as a combination of candidate Laurent polynomials.

    The candidates must have pairwise distinct top degrees with constant
    leading coefficients; the expansion then peels coefficients from the
    top down, which is an exact triangular solve (unique whenever it
    exists).  Returns (coefficients by index, remainder).
    """
    order = sorted(
        ((cand.max_degree(), idx, cand) for idx, cand in candidates if not cand.is_zero),
        reverse=True,
    )
    degrees = [d for d, _, _ in order]
    if len(set(degrees)) != len(degrees):
        raise ValueError("candidate top degrees collide; expansion not triangular")
    coeffs = {}
    rest = target
    for top, idx, cand in order:
        lead = cand.coefficient(top)
        if not lead.is_constant:
            raise ValueError(f"candidate v_{idx} has non-constant leading term")
        c = rest.coefficient(top) * (Fraction(1) / lead.constant_value())
        if c.is_zero:
            continue
        coeffs[idx] = c
        rest = rest - cand.scale(c)
    return coeffs, rest


def _mismatch(family, n, m, coeffs, remainders):
    """None when the bracket re-expands exactly to the rule, else a witness."""
    if any(not rest.is_zero for rest in remainders):
        return {"pair": [n, m], "unexpanded_remainder": " | ".join(map(str, remainders))}
    expected = dict(evaluate_pair_rule(family, n, m))
    if coeffs == expected:
        return None
    return {
        "pair": [n, m],
        "geometric": {str(i): c.to_json() for i, c in sorted(coeffs.items())},
        "algebraic": {str(i): c.to_json() for i, c in sorted(expected.items())},
    }


def _pair_check_symbolic(family, n, m, fields, bounds):
    got = vf_bracket(fields[n], fields[m])
    cand = []
    floor = got.exp
    for idx in range(n + m + bounds.lower, n + m + bounds.upper + 1):
        if idx not in fields:
            continue
        cand.append((idx, fields[idx]))
        floor = min(floor, fields[idx].exp)
    laurent_cands = [(idx, fl.as_laurent(floor)) for idx, fl in cand]
    coeffs, rest = expand_in_candidates(got.as_laurent(floor), laurent_cands)
    return _mismatch(family, n, m, coeffs, [rest])


def _pair_check_cubic(family, n, m, fields, bounds):
    """The Y-free part re-expands in the even fields, the Y part in the odd ones."""
    got, rest = vf_bracket_cubic(fields[n], fields[m])
    even_cands, odd_cands = [], []
    for idx in range(n + m + bounds.lower, n + m + bounds.upper + 1):
        if idx % 2:
            odd_cands.append((idx, fields[idx].b))
        else:
            even_cands.append((idx, fields[idx].a))
    coeffs_a, rest_a = expand_in_candidates(got.a, even_cands)
    coeffs_b, rest_b = expand_in_candidates(got.b, odd_cands)
    return _mismatch(family, n, m, {**coeffs_a, **coeffs_b}, [rest_a, rest_b, rest])


def verify_against_geometry(family: FamilySpec, window) -> CheckReport:
    """Check that realized vector-field brackets reproduce the family rule.

    Every bracket of realized basis fields is re-expanded in the realized
    basis by an exact triangular solve over the candidate index window
    given by the grading bounds, then compared coefficient-by-coefficient
    with the closed-form rule.  Both oracles are symbolic in the family's
    parameters, so a PASS is an identity on every fibre, singular ones
    included.
    """
    base = family.name.split("|")[0]
    bounds = grading_bounds(family)
    indices = domain_indices(family, window)
    lo = 2 * indices[0] + bounds.lower
    hi = 2 * indices[-1] + bounds.upper
    full = [
        i
        for i in range(min(lo, indices[0]), max(hi, indices[-1]) + 1)
        if family.in_domain(i)
    ]
    if base not in GENUS0_FAMILIES and base != "elliptic":
        raise UnsupportedFamily(f"no geometric oracle for {family.name!r}")
    oracle_params = by_name(base).params
    if family.params != oracle_params:
        raise UnsupportedFamily(
            f"the {base} oracle works over the parameters {list(oracle_params)}, "
            f"but {family.name} is over {list(family.params)}; check the "
            f"unspecialized family {base} instead"
        )
    check = _pair_check_symbolic if base in GENUS0_FAMILIES else _pair_check_cubic
    fields = {i: realize(base, i) for i in full}
    witnesses = []
    pairs = []
    for n, m in itertools.combinations(indices, 2):
        bad = check(family, n, m, fields, bounds)
        pairs.append([n, m, "PASS" if bad is None else "FAIL"])
        if bad is not None:
            witnesses.append(bad)

    return CheckReport(
        name=f"geometry:{family.name}",
        status="PASS" if not witnesses else "FAIL",
        checked=len(pairs),
        witness={"mismatches": witnesses[:5]} if witnesses else None,
        certificate={
            "window": [indices[0], indices[-1]],
            "candidates": [bounds.lower, bounds.upper],
            "pairs": pairs,
        },
    )
