"""Independent geometric oracle: brackets of realized vector fields.

Genus zero works symbolically in the ring Q[alpha2][z, 1/z, (z^2-alpha2)^-1]
via a factored Laurent representation; genus one works in the function
field of the cubic at exact rational parameter points, with elements kept
as a + b*Y over the fraction field of Q[u] (u the coordinate recentered at
the finite marked point) and Y^2 reduced eagerly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import CheckReport, FamilySpec, evaluate_pair_rule, grading_bounds, specialize
from .errors import (
    DivisionByZeroFunction,
    ParameterMismatch,
    TooFewSamples,
    UnsupportedFamily,
    WindowTooSmall,
)
from .families import by_name
from .poly import ParamPoly, rat

# ---------------------------------------------------------------------------
# Laurent polynomials with polynomial parameter coefficients
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Finitely supported integer-power series sum c_d * z^d."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: tuple[str, ...], coeffs: dict):
        self.params = params
        self.coeffs = coeffs

    @classmethod
    def zero(cls, params=()) -> "LaurentPoly":
        return cls(tuple(params), {})

    @classmethod
    def monomial(cls, params, degree: int, coeff=1) -> "LaurentPoly":
        params = tuple(params)
        c = coeff if isinstance(coeff, ParamPoly) else ParamPoly.const(params, coeff)
        if c.is_zero:
            return cls(params, {})
        return cls(params, {degree: c})

    @classmethod
    def from_items(cls, params, items) -> "LaurentPoly":
        params = tuple(params)
        coeffs = {}
        for degree, c in items:
            if not isinstance(c, ParamPoly):
                c = ParamPoly.const(params, c)
            s = coeffs.get(degree)
            s = c if s is None else s + c
            if s.is_zero:
                coeffs.pop(degree, None)
            else:
                coeffs[degree] = s
        return cls(params, coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, degree: int) -> ParamPoly:
        return self.coeffs.get(degree, ParamPoly.const(self.params, 0))

    def max_degree(self) -> int:
        return max(self.coeffs)

    def _check(self, other: "LaurentPoly"):
        if other.params != self.params:
            raise ParameterMismatch(
                f"Laurent rings differ: {self.params} vs {other.params}"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        coeffs = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = coeffs.get(d)
            s = c if s is None else s + c
            if s.is_zero:
                coeffs.pop(d, None)
            else:
                coeffs[d] = s
        return LaurentPoly(self.params, coeffs)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.params, {d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            self._check(other)
            coeffs = {}
            for d1, c1 in self.coeffs.items():
                for d2, c2 in other.coeffs.items():
                    d = d1 + d2
                    s = coeffs.get(d)
                    p = c1 * c2
                    s = p if s is None else s + p
                    if s.is_zero:
                        coeffs.pop(d, None)
                    else:
                        coeffs[d] = s
            return LaurentPoly(self.params, coeffs)
        return self.scale(other)

    def scale(self, factor) -> "LaurentPoly":
        if not isinstance(factor, ParamPoly):
            factor = ParamPoly.const(self.params, factor)
        if factor.is_zero:
            return LaurentPoly(self.params, {})
        return LaurentPoly(
            self.params, {d: c * factor for d, c in self.coeffs.items()}
        )

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly(self.params, {d + k: c for d, c in self.coeffs.items()})

    def lift_params(self, params: tuple[str, ...]) -> "LaurentPoly":
        if self.params == params:
            return self
        return LaurentPoly(params, {d: c.lift(params) for d, c in self.coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        coeffs = {}
        for d, c in self.coeffs.items():
            if d != 0:
                coeffs[d - 1] = c * d
        return LaurentPoly(self.params, coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.params == other.params and self.coeffs == other.coeffs

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(
            f"({c})*z^{d}" for d, c in sorted(self.coeffs.items(), reverse=True)
        )

    __repr__ = __str__


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
# univariate rational functions over Q (genus one)
# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over Fraction (ascending coefficients)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls([rat(c)])

    @classmethod
    def x_power(cls, k: int, c=1) -> "Poly":
        return cls([0] * k + [rat(c)])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def leading(self) -> Fraction:
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Poly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise DivisionByZeroFunction("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d = other.degree()
        lead = other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            factor = rem[-1] / lead
            q[k] = factor
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= factor * b
            rem.pop()
        return Poly(q), Poly(rem)

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        if a.is_zero:
            return a
        return a * (1 / a.leading())

    def derivative(self) -> "Poly":
        return Poly([c * (i + 1) for i, c in enumerate(self.coeffs[1:], 0)])

    def shift_origin(self, p: Fraction) -> "Poly":
        """Coefficients of self(p + t) as a polynomial in t."""
        out = Poly([])
        base = Poly([1])
        shift = Poly([p, 1])
        for c in self.coeffs:
            out = out + base * c
            base = base * shift
        return out

    def evaluate(self, x: Fraction) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(
            f"{c}*u^{i}" for i, c in enumerate(self.coeffs) if c != 0
        )

    __repr__ = __str__


class RationalFunc:
    """Reduced fraction of univariate polynomials over Q, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        den = Poly([1]) if den is None else den
        if den.is_zero:
            raise DivisionByZeroFunction("zero denominator")
        if num.is_zero:
            self.num, self.den = Poly([]), Poly([1])
            return
        g = num.gcd(den)
        if g.degree() > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.leading()
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        self.num, self.den = num, den

    @classmethod
    def zero(cls) -> "RationalFunc":
        return cls(Poly([]))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "RationalFunc") -> "RationalFunc":
        return RationalFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunc":
        return RationalFunc(-self.num, self.den)

    def __sub__(self, other: "RationalFunc") -> "RationalFunc":
        return self + (-other)

    def __mul__(self, other) -> "RationalFunc":
        if isinstance(other, (int, Fraction)):
            return RationalFunc(self.num * other, self.den)
        return RationalFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunc") -> "RationalFunc":
        if other.is_zero:
            raise DivisionByZeroFunction("division by the zero function")
        return RationalFunc(self.num * other.den, self.den * other.num)

    def derivative(self) -> "RationalFunc":
        return RationalFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def to_laurent(self) -> LaurentPoly:
        """Convert when the denominator is a pure power u^k."""
        k = self.den.degree()
        if any(c != 0 for c in self.den.coeffs[:-1]):
            raise ValueError(f"denominator {self.den} is not a monomial")
        return LaurentPoly.from_items(
            (), [(i - k, c) for i, c in enumerate(self.num.coeffs) if c != 0]
        )

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"

    __repr__ = __str__


@dataclass(frozen=True)
class CurveFunction:
    """Element a + b*Y of the function field, with Y^2 = f(u)."""

    a: RationalFunc
    b: RationalFunc
    f: Poly

    def __add__(self, other: "CurveFunction") -> "CurveFunction":
        return CurveFunction(self.a + other.a, self.b + other.b, self.f)

    def __neg__(self) -> "CurveFunction":
        return CurveFunction(-self.a, -self.b, self.f)

    def __sub__(self, other: "CurveFunction") -> "CurveFunction":
        return self + (-other)

    def __mul__(self, other: "CurveFunction") -> "CurveFunction":
        ff = RationalFunc(self.f)
        return CurveFunction(
            self.a * other.a + self.b * other.b * ff,
            self.a * other.b + self.b * other.a,
            self.f,
        )

    def derivative(self) -> "CurveFunction":
        # Y' = f'/(2Y) = f' Y / (2f)
        fprime_over_2f = RationalFunc(self.f.derivative(), self.f * 2)
        return CurveFunction(
            self.a.derivative(),
            self.b.derivative() + self.b * fprime_over_2f,
            self.f,
        )

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero


def vf_bracket_curve(e: CurveFunction, f: CurveFunction) -> CurveFunction:
    return e * f.derivative() - f * e.derivative()


# ---------------------------------------------------------------------------
# vector fields and realizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    """Coefficient function of a field written as coeff * d/dz (or d/du)."""

    coeff: object  # FactoredLaurent | CurveFunction
    coordinate: str = "z"


def vf_bracket(e: VectorField, f: VectorField) -> VectorField:
    """[e, f] = (e f' - f e') d/dz, exact in the realization's ring."""
    if isinstance(e.coeff, FactoredLaurent) and isinstance(f.coeff, FactoredLaurent):
        return VectorField(vf_bracket_factored(e.coeff, f.coeff), e.coordinate)
    if isinstance(e.coeff, CurveFunction) and isinstance(f.coeff, CurveFunction):
        return VectorField(vf_bracket_curve(e.coeff, f.coeff), e.coordinate)
    raise ParameterMismatch("fields over different coordinate rings")


GENUS0_FAMILIES = ("witt", "l1", "three-point", "w1", "nodal")


def _symbolic_alpha2(value):
    if value is None:
        return ParamPoly.var(("alpha2",), "alpha2")
    if isinstance(value, ParamPoly):
        return value
    return ParamPoly.const((), rat(value))


def realize(family: str, n: int, alpha2=None, e1=None, e2=None) -> VectorField:
    """The explicit vector field carrying basis index n.

    witt: l_n = z^(n+1) d/dz.  three-point even/odd:
    z (z^2-alpha2)^k resp. (z^2-alpha2)^(k+1) times d/dz.  nodal:
    z^(2k-3) (z^2-alpha2)^2 resp. z^(2k) (z^2-alpha2) times d/dz.
    elliptic (rational e1, e2), in u = X - e1:  u^k Y d/du for index 2k+1
    and 2 u^(k-1) (u-(e2-e1)) (u-(e3-e1)) d/du for index 2k.
    """
    base = family.split("|")[0]
    if base in ("witt", "l1"):
        params = () if alpha2 is None else _symbolic_alpha2(alpha2).params
        return VectorField(
            FactoredLaurent(
                LaurentPoly.monomial(params, n + 1),
                ParamPoly.const(params, 0),
                0,
            )
        )
    if base in ("three-point", "w1"):
        beta = _symbolic_alpha2(alpha2)
        k, odd = divmod(n, 2)
        if odd:
            return VectorField(
                FactoredLaurent(LaurentPoly.monomial(beta.params, 0), beta, k + 1)
            )
        return VectorField(
            FactoredLaurent(LaurentPoly.monomial(beta.params, 1), beta, k)
        )
    if base == "nodal":
        beta = _symbolic_alpha2(alpha2)
        k, odd = divmod(n, 2)
        if odd:
            return VectorField(
                FactoredLaurent(LaurentPoly.monomial(beta.params, 2 * k), beta, 1)
            )
        return VectorField(
            FactoredLaurent(LaurentPoly.monomial(beta.params, 2 * k - 3), beta, 2)
        )
    if base == "elliptic":
        if e1 is None or e2 is None:
            raise UnsupportedFamily("elliptic realization needs rational e1, e2")
        e1, e2 = rat(e1), rat(e2)
        root_a = e2 - e1
        root_b = (-e1 - e2) - e1
        f = Poly([0, 1]) * Poly([-root_a, 1]) * Poly([-root_b, 1]) * 4
        k, odd = divmod(n, 2)
        if odd:
            b = (
                RationalFunc(Poly.x_power(k))
                if k >= 0
                else RationalFunc(Poly([1]), Poly.x_power(-k))
            )
            return VectorField(CurveFunction(RationalFunc.zero(), b, f), "u")
        quad = Poly([-root_a, 1]) * Poly([-root_b, 1]) * 2
        a = (
            RationalFunc(quad * Poly.x_power(k - 1))
            if k >= 1
            else RationalFunc(quad, Poly.x_power(1 - k))
        )
        return VectorField(CurveFunction(a, RationalFunc.zero(), f), "u")
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
    got = vf_bracket(fields[n], fields[m]).coeff
    cand = []
    floor = got.exp
    for idx in range(n + m + bounds.lower, n + m + bounds.upper + 1):
        if idx not in fields:
            continue
        cand.append((idx, fields[idx].coeff))
        floor = min(floor, fields[idx].coeff.exp)
    laurent_cands = [(idx, fl.as_laurent(floor)) for idx, fl in cand]
    coeffs, rest = expand_in_candidates(got.as_laurent(floor), laurent_cands)
    return _mismatch(family, n, m, coeffs, [rest])


def _pair_check_elliptic(family, n, m, fields, bounds):
    got = vf_bracket(fields[n], fields[m]).coeff
    even_cands, odd_cands = [], []
    for idx in range(n + m + bounds.lower, n + m + bounds.upper + 1):
        if idx % 2:
            odd_cands.append((idx, fields[idx].coeff.b.to_laurent()))
        else:
            even_cands.append((idx, fields[idx].coeff.a.to_laurent()))
    coeffs_a, rest_a = expand_in_candidates(got.a.to_laurent(), even_cands)
    coeffs_b, rest_b = expand_in_candidates(got.b.to_laurent(), odd_cands)
    return _mismatch(family, n, m, {**coeffs_a, **coeffs_b}, [rest_a, rest_b])


#: Distinct smooth (e1, e2) pairs on the draw grid of random_smooth_points:
#: 51 distinct values p/q (p in -9..9, q in 1..4), 2,482 ordered pairs of
#: them with e1, e2 and e3 = -(e1 + e2) pairwise distinct.
SMOOTH_GRID_POINTS = 2482


def random_smooth_points(count: int, seed: int):
    """Deterministic rational (e1, e2) samples with all three roots distinct."""
    if count > SMOOTH_GRID_POINTS:
        raise TooFewSamples(
            f"asked for {count} sample points; the draw grid has only "
            f"{SMOOTH_GRID_POINTS} smooth ones"
        )
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < count:
        e1 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        e2 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        e3 = -e1 - e2
        if e1 == e2 or e1 == e3 or e2 == e3:
            continue
        if (e1, e2) in seen:
            continue
        seen.add((e1, e2))
        out.append((e1, e2))
    return out


def verify_against_geometry(
    family: FamilySpec,
    window,
    samples=None,
    seed: int = 1,
    sample_count: int = 8,
) -> CheckReport:
    """Check that realized vector-field brackets reproduce the family rule.

    Every bracket of realized basis fields is re-expanded in the realized
    basis by an exact triangular solve over the candidate index window
    given by the grading bounds, then compared coefficient-by-coefficient
    with the closed-form rule.
    """
    base = family.name.split("|")[0]
    bounds = grading_bounds(family)
    indices = sorted(n for n in window if family.in_domain(n))
    if not indices:
        raise WindowTooSmall(
            f"no index of the window lies in the domain of {family.name}"
        )
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
    checked = 0
    witnesses = []
    pair_status = {}

    if base in GENUS0_FAMILIES:
        fields = {i: realize(base, i) for i in full}
        cases = [(family, fields, _pair_check_symbolic, None)]
    else:
        if samples is None:
            samples = random_smooth_points(sample_count, seed)
        if len(samples) < 3:
            raise TooFewSamples("need at least 3 sample points off the degenerate lines")
        cases = (
            (
                specialize(family, {"e1": e1, "e2": e2}),
                {i: realize("elliptic", i, e1=e1, e2=e2) for i in full},
                _pair_check_elliptic,
                [str(e1), str(e2)],
            )
            for e1, e2 in samples
        )
    for fam, fields, check, sample in cases:
        for n, m in itertools.combinations(indices, 2):
            bad = check(fam, n, m, fields, bounds)
            checked += 1
            pair_status[(n, m)] = pair_status.get((n, m), True) and bad is None
            if bad is not None:
                if sample is not None:
                    bad["sample"] = sample
                witnesses.append(bad)

    status = "PASS" if not witnesses else "FAIL"
    return CheckReport(
        name=f"geometry:{family.name}",
        status=status,
        checked=checked,
        witness={"mismatches": witnesses[:5]} if witnesses else None,
        certificate={
            "window": [indices[0], indices[-1]],
            "candidates": [bounds.lower, bounds.upper],
            "pairs": [
                [n, m, "PASS" if ok else "FAIL"]
                for (n, m), ok in sorted(pair_status.items())
            ],
        },
    )
