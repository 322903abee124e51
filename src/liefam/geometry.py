"""Independent geometric oracle: brackets of realized vector fields.

Every family in `families.FIBRES` is realized on its fibre of the cubic
Y^2 = f(u) = 4u(u-a)(u-b), a = e2 - e1, b = e3 - e1 (u the coordinate
recentered at the finite marked point): a field is (A + B*Y) d/du with
A, B Laurent in u over the fibre's ring, the image of one elliptic field
over Q[e1, e2].  The field of index 2K + e is u^K times the K = 0 field
of parity e, so with K symbolic one bracket and one re-expansion check a
whole parity class: one identity per parity class over Q[params, n, m].
One kernel brackets symbolic and integer indices alike, an integer index
being its parity shape at an integer base exponent.  A PASS holds for
every pair of indices: each class is proved, and only the pairs at the
bound of the basis domain are bracketed at their integers; a failing
class is bracketed pair by pair on the window, and its first failing
pair is the witness.  The elliptic PASS holds on every fibre, the nodal
and cuspidal ones included.

The residue pairings of `central` need the genus-zero fields in a global
coordinate t.  `uniformize` pulls a realization back along the
parametrization u = t^p (t^2 - beta)^q, Y = 2t(t^2 - beta) of its fibre
and keeps it as a Laurent polynomial in t times a power of t^2 - beta.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import (
    CheckReport,
    FamilySpec,
    certify,
    domain_pairs,
    evaluate_pair_rule,
    grading_bounds,
    rule_prover,
)
from .errors import ParameterMismatch, UnsupportedFamily
from .families import FIBRES
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

    def derivative(self, base=0) -> "LaurentPoly":
        """z^(-base) * (z^base * self)': c*z^d goes to c*(base + d)*z^(d-1).

        The exponent `base` is an integer or an element of the coefficient
        ring, the affine exponent of a field with a symbolic index.
        """
        return LaurentPoly(
            self.params,
            accumulate((d - 1, c * (base + d)) for d, c in self.components.items()),
        )

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(
            f"({c})*z^{d}" for d, c in sorted(self.components.items(), reverse=True)
        )


# ---------------------------------------------------------------------------
# factored fields P(t) * (t^2 - beta)^e  (genus zero, for the residue pairing)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactoredLaurent:
    """Laurent polynomial times an integer power of the quadratic t^2-beta."""

    poly: LaurentPoly
    beta: ParamPoly
    exp: int

    def _check(self, other: "FactoredLaurent"):
        if other.beta != self.beta:
            raise ParameterMismatch("fields over different quadratic factors")

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


# ---------------------------------------------------------------------------
# fields (A + B*Y) d/du on the cubic Y^2 = f(u)  (genus one)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubicField:
    """Coefficient u^base * (A + B*Y) of a field on Y^2 = f(u), with A, B, f Laurent in u.

    `base` is 0 for an integer index; for a symbolic one it is the affine
    exponent, an element of the coefficient ring, and A, B hold the
    integer offsets from it.
    """

    a: LaurentPoly
    b: LaurentPoly
    f: LaurentPoly
    base: int | ParamPoly = 0

    def shift(self, k: int) -> "CubicField":
        """u^k times the field."""
        return replace(self, a=self.a.shift(k), b=self.b.shift(k))


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
    Each derivative takes its field's base exponent, every product term
    has the exponent e.base + g.base, and f has none, so the division and
    the result work on the integer offsets alone.
    """
    a1, b1, a2, b2, f = e.a, e.b, g.a, g.b, e.f
    da1, db1 = a1.derivative(e.base), b1.derivative(e.base)
    da2, db2 = a2.derivative(g.base), b2.derivative(g.base)
    quotient, rest = divide_laurent((a1 * b2 - a2 * b1) * f.derivative(), f)
    return (
        CubicField(
            a1 * da2 - a2 * da1 + (b1 * db2 - b2 * db1) * f,
            a1 * db2 - a2 * db1 + b1 * da2 - b2 * da1 + quotient.scale(Fraction(1, 2)),
            f,
            e.base + g.base,
        ),
        rest,
    )


# ---------------------------------------------------------------------------
# vector fields and realizations
# ---------------------------------------------------------------------------


def realize(family: str, n: int) -> CubicField:
    """The field carrying basis index n, on the family's fibre of the cubic.

    In u = X - e1 on Y^2 = f(u) = 4u(u-a)(u-b) with a = e2 - e1 and
    b = e3 - e1: u^k Y d/du for index 2k+1 and 2 u^(k-1) (u-a) (u-b) d/du
    for index 2k, u^k times the field of index 1 resp. 0, over Q[e1, e2]
    and mapped along the family's `families.FIBRES` images by
    `KeyedSum.map_params`.
    """
    if family not in FIBRES:
        raise UnsupportedFamily(f"no realization for family {family!r}")
    params = ("e1", "e2")
    e1, e2 = ParamPoly.var(params, "e1"), ParamPoly.var(params, "e2")
    a, b = e2 - e1, -e1 * 2 - e2
    quad = LaurentPoly.from_items(params, [(2, 1), (1, -(a + b)), (0, a * b)])
    k, odd = divmod(n, 2)
    zero = LaurentPoly.zero(params)
    parts = (zero, LaurentPoly.monomial(params, 0)) if odd else (quad.shift(-1).scale(2), zero)
    shape = CubicField(*(p.map_params(*FIBRES[family]) for p in (*parts, quad.shift(1).scale(4))))
    return shape.shift(k)


#: Genus-zero fibre -> (p, q, beta) of its parametrization
#: u = t^p (t^2 - beta)^q, Y = 2t(t^2 - beta); beta is a parameter or None for 0.
PARAMETRIZATIONS = {
    "witt": (2, 0, None),
    "l1": (2, 0, None),
    "nodal": (2, 0, "alpha2"),
    "three-point": (0, 1, "alpha2"),
    "w1": (0, 1, "alpha2"),
}


def uniformize(family: str, n: int) -> FactoredLaurent:
    """`realize(family, n)` in the fibre's global coordinate t, for `central`.

    With du/dt = 2t, (A + B*Y) d/du = (A / (2t) + B (t^2 - beta)) d/dt.
    The classical fields, z = t: witt, l1: l_n = z^(n+1) d/dz; three-point,
    w1: z (z^2-alpha2)^k resp. (z^2-alpha2)^(k+1) d/dz for index 2k resp.
    2k+1; nodal: z^(2k-3) (z^2-alpha2)^2 resp. z^(2k) (z^2-alpha2) d/dz.
    elliptic and d-infinity have no such parametrization.  The largest
    power of t^2 - beta that divides the sum is moved into the exponent.
    The field of index 2k + e is u^k = t^(pk) (t^2 - beta)^(qk) times its
    parity shape, the field of index e, so `central` uniformizes two.
    """
    field = realize(family, n)
    if family not in PARAMETRIZATIONS:
        raise ParameterMismatch("the residue pairing works on genus-zero fields")
    p, q, name = PARAMETRIZATIONS[family]
    params = field.f.params
    beta = ParamPoly.var(params, name) if name else ParamPoly.const(params, 0)
    pieces = [
        FactoredLaurent(LaurentPoly.monomial(params, p * d - 1, c * Fraction(1, 2)), beta, q * d)
        for d, c in field.a.components.items()
    ] + [
        FactoredLaurent(LaurentPoly.monomial(params, p * d, c), beta, q * d + 1)
        for d, c in field.b.components.items()
    ]
    field = functools.reduce(FactoredLaurent.__add__, pieces)
    while not (beta.is_zero or field.poly.is_zero):
        quotient, rest = divide_laurent(field.poly, field.base())
        if not rest.is_zero:
            break
        field = FactoredLaurent(quotient, beta, field.exp + 1)
    return field


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


def _class_bracket(base: str, params, shifts):
    """[v_x, v_y] of realized fields, re-expanded in the candidates x + y + j.

    The field of index x = 2K + odd is u^K times `realize(base, odd)`, its
    K = 0 shape, so it is that shape with the base exponent K = (x - odd)/2:
    an integer over Q[params] for an integer index, an element of the ring
    of x for a polynomial one, as in a class proof over Q[params, n, m, k].
    The candidate x + y + j, of parity p, j in `shifts`, is its shape
    shifted by (odd_x + odd_y + j - p)/2 from the bracket's base.  The
    Y-free part re-expands in the even candidates, the Y part in the odd
    ones.  Returns the coefficients by shift j, and the remainders of the
    two re-expansions and of the bracket's division by f as one string, or
    None when they all vanish; their degrees are offsets from the base.
    """

    @functools.cache
    def shape(odd, ring) -> CubicField:
        real = realize(base, odd)
        return CubicField(*(p.map_params(ring) for p in (real.a, real.b, real.f)))

    def field(z, odd) -> CubicField:
        if isinstance(z, int):
            return replace(shape(odd, params), base=(z - odd) // 2)
        return replace(shape(odd, z.params), base=(z - odd) * Fraction(1, 2))

    def bracket(x, y, odd_x, odd_y):
        e = field(x, odd_x)
        got, rest = vf_bracket_cubic(e, field(y, odd_y))
        cands = ([], [])
        for j in shifts:
            odd, offset = (odd_x + odd_y + j) % 2, (odd_x + odd_y + j) // 2
            cands[odd].append((j, shape(odd, e.f.params).shift(offset)))
        coeffs_a, rest_a = expand_in_candidates(got.a, [(j, c.a) for j, c in cands[0]])
        coeffs_b, rest_b = expand_in_candidates(got.b, [(j, c.b) for j, c in cands[1]])
        remainders = [rest_a, rest_b, rest]
        exact = all(r.is_zero for r in remainders)
        return {**coeffs_a, **coeffs_b}, None if exact else " | ".join(map(str, remainders))

    return bracket


def verify_against_geometry(family: FamilySpec, window) -> CheckReport:
    """Check that realized vector-field brackets reproduce the family rule.

    One kernel, `_class_bracket`, brackets the fields of two indices and
    re-expands the bracket in the candidates n + m + j, j within the
    grading bounds, by an exact triangular solve.  Over Q[params, n, m]
    the indices of a parity class are symbolic, so one bracket compared
    with the rule at the index forms (`algebra.rule_prover`) proves the
    class.  `algebra.certify` reports: a PASS holds for every pair of the
    domain, each class proved where its keys and candidates are in the
    basis domain and off the exceptional rows, and the finitely many
    pairs where they are not bracketed at their integers by the same
    kernel.  A failing class is walked over the window in
    `itertools.combinations` order, and the first pair whose bracket
    leaves a remainder or differs from the rule is the witness.  Both
    sides are symbolic in the parameters, so a PASS holds on every fibre,
    singular ones included.
    """
    base = family.name.split("|")[0]
    if base not in FIBRES:
        raise UnsupportedFamily(f"no geometric oracle for {family.name!r}")
    oracle_params = FIBRES[base][0]
    if family.params != oracle_params:
        raise UnsupportedFamily(
            f"the {base} oracle works over the parameters {list(oracle_params)}, "
            f"but {family.name} is over {list(family.params)}; check the "
            f"unspecialized family {base} instead"
        )
    indices = domain_pairs(family, window)
    bounds = grading_bounds(family)
    shifts = range(bounds.lower, bounds.upper + 1)
    bracket = _class_bracket(base, family.params, shifts)

    def exact(*args):
        coeffs, rest = bracket(*args)
        return None if rest else coeffs

    def mismatch(n, m):
        coeffs, rest = bracket(n, m, n % 2, m % 2)
        if rest:
            return {"unexpanded_remainder": rest}
        geometric = {n + m + j: c for j, c in coeffs.items()}
        expected = dict(evaluate_pair_rule(family, n, m))
        if geometric == expected:
            return None
        return {
            "geometric": {str(i): c.to_json() for i, c in sorted(geometric.items())},
            "algebraic": {str(i): c.to_json() for i, c in sorted(expected.items())},
        }

    prove = rule_prover(family, shifts, exact)
    report = certify(f"geometry:{family.name}", indices, 2, prove, mismatch, "pair")
    if report.passed:
        report.certificate = {"candidates": [bounds.lower, bounds.upper], **report.certificate}
    return report
