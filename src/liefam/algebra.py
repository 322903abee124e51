"""Almost-graded Lie algebra engine with exact structure constants.

A family is a bracket rule in a fixed normal form: for each parity class
of an index pair (n, m) a finite list of degree shifts, each carrying a
coefficient affine in n and m with polynomial parameter dependence.
Antisymmetry holds by construction (rules are stated for n < m, or for
first-argument-odd in the mixed class, and extended by sign), so Jacobi
is the only identity that needs certification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import (
    MissingParameter,
    OutOfDomainIndex,
    ParameterMismatch,
    WindowTooSmall,
)
from .linalg import rank_of_vectors
from .poly import ParamPoly, rat, rat_str

#: Basis key of the central element (degree 0 by convention).
CENTRAL = "c"

PARITY_CLASSES = ("odd-odd", "even-even", "odd-even")


def parity_class(n: int, m: int) -> str:
    if n % 2:
        return "odd-odd" if m % 2 else "odd-even"
    return "odd-even" if m % 2 else "even-even"


# ---------------------------------------------------------------------------
# rule terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleTerm:
    """One output component: coefficient (a*n + b*m + d) at index n+m+shift."""

    shift: int
    a: ParamPoly
    b: ParamPoly
    d: ParamPoly

    def coefficient(self, n: int, m: int) -> ParamPoly:
        return self.a * n + self.b * m + self.d

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero and self.d.is_zero

    def to_json(self):
        return [self.shift, [self.a.to_json(), self.b.to_json(), self.d.to_json()]]


def term(params, shift, a=0, b=0, d=0) -> RuleTerm:
    """Build a RuleTerm, coercing scalars into the parameter ring."""
    params = tuple(params)

    def wrap(x):
        return x if isinstance(x, ParamPoly) else ParamPoly.const(params, x)

    return RuleTerm(shift, wrap(a), wrap(b), wrap(d))


# ---------------------------------------------------------------------------
# central rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentralDelta:
    """Pairing supported on n + m = 0 with value p(m), p an odd polynomial.

    `poly` lists the coefficients of p by ascending power of m.  Values
    are produced in normalized order (n < m) and extended by sign, so the
    resulting pairing is antisymmetric regardless of p.
    """

    poly: tuple[Fraction, ...]

    def value(self, n: int, m: int):
        if n + m != 0 or n == m:
            return Fraction(0)
        arg = max(n, m)
        v = sum(
            (c * Fraction(arg) ** k for k, c in enumerate(self.poly)), Fraction(0)
        )
        return v if n < m else -v

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.poly)

    def to_json(self):
        return {"kind": "delta", "poly": [rat_str(c) for c in self.poly]}


@dataclass(frozen=True)
class CentralTable:
    """Explicit antisymmetric pairing table, valid on a finite index range."""

    entries: dict  # (n, m) with n < m -> Fraction | ParamPoly
    lo: int
    hi: int

    def value(self, n: int, m: int):
        if n == m:
            return Fraction(0)
        if not (self.lo <= n <= self.hi and self.lo <= m <= self.hi):
            raise OutOfDomainIndex(
                f"central table only covers [{self.lo}, {self.hi}], got ({n}, {m})"
            )
        if n < m:
            return self.entries.get((n, m), Fraction(0))
        return -self.entries.get((m, n), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries.values())

    def to_json(self):
        return {
            "kind": "table",
            "range": [self.lo, self.hi],
            "entries": [
                [n, m, v.to_json() if isinstance(v, ParamPoly) else rat_str(v)]
                for (n, m), v in sorted(self.entries.items())
                if v != 0
            ],
        }


# ---------------------------------------------------------------------------
# family specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Closed-form bracket rule for an almost-graded Lie algebra family."""

    name: str
    params: tuple[str, ...]
    rule: dict  # parity class -> tuple[RuleTerm, ...]
    exceptional: dict = field(default_factory=dict)  # first index -> terms
    lower_bound: int | None = None
    central: CentralDelta | CentralTable | None = None

    def in_domain(self, n: int) -> bool:
        return self.lower_bound is None or n >= self.lower_bound

    def rule_signature(self):
        """Canonical content of the rule, for structural comparison."""

        def sig(terms):
            return tuple(
                sorted(
                    (t.shift, t.a.sorted_terms(), t.b.sorted_terms(), t.d.sorted_terms())
                    for t in terms
                    if not t.is_zero
                )
            )

        return (
            self.params,
            tuple((cls, sig(self.rule.get(cls, ()))) for cls in PARITY_CLASSES),
            tuple(sorted((n, sig(ts)) for n, ts in self.exceptional.items())),
            self.lower_bound,
        )

    def to_json(self):
        data = {
            "family": self.name,
            "params": list(self.params),
            "rule": {
                cls: [t.to_json() for t in self.rule.get(cls, ()) if not t.is_zero]
                for cls in PARITY_CLASSES
            },
        }
        if self.exceptional:
            data["exceptional"] = {
                str(n): [t.to_json() for t in ts]
                for n, ts in sorted(self.exceptional.items())
            }
        data["domain"] = (
            "all-integers"
            if self.lower_bound is None
            else {"min": self.lower_bound}
        )
        if self.central is not None:
            data["central"] = self.central.to_json()
        return data


def family_from_json(data: dict) -> FamilySpec:
    """Rebuild a FamilySpec from its documented JSON form."""
    params = tuple(data["params"])

    def terms(items):
        return tuple(
            RuleTerm(
                int(shift),
                ParamPoly.from_json(params, a),
                ParamPoly.from_json(params, b),
                ParamPoly.from_json(params, d),
            )
            for shift, (a, b, d) in items
        )

    domain = data.get("domain", "all-integers")
    central = None
    payload = data.get("central")
    if payload is not None:
        if payload["kind"] == "delta":
            central = CentralDelta(tuple(rat(c) for c in payload["poly"]))
        else:
            central = CentralTable(
                entries={
                    (int(n), int(m)): (
                        ParamPoly.from_json(params, v)
                        if isinstance(v, list)
                        else rat(v)
                    )
                    for n, m, v in payload["entries"]
                },
                lo=payload["range"][0],
                hi=payload["range"][1],
            )
    return FamilySpec(
        name=data["family"],
        params=params,
        rule={cls: terms(data["rule"].get(cls, ())) for cls in PARITY_CLASSES},
        exceptional={
            int(n): terms(ts) for n, ts in data.get("exceptional", {}).items()
        },
        lower_bound=None if domain == "all-integers" else int(domain["min"]),
        central=central,
    )


def evaluate_pair_rule(family: FamilySpec, n: int, m: int):
    """Vector components of [v_n, v_m] as a list of (index, coefficient).

    Components whose affine coefficient evaluates to zero are dropped; a
    nonzero component below the basis lower bound raises OutOfDomainIndex
    (silent truncation would break Jacobi).
    """
    if n == m:
        return []
    if n in family.exceptional:
        sign, terms, args = 1, family.exceptional[n], (n, m)
    elif m in family.exceptional:
        sign, terms, args = -1, family.exceptional[m], (m, n)
    else:
        cls = parity_class(n, m)
        terms = family.rule.get(cls, ())
        if cls == "odd-even":
            sign, args = (1, (n, m)) if n % 2 else (-1, (m, n))
        else:
            sign, args = (1, (n, m)) if n < m else (-1, (m, n))
    out = {}
    for t in terms:
        coeff = t.coefficient(*args)
        if coeff.is_zero:
            continue
        if sign < 0:
            coeff = -coeff
        idx = n + m + t.shift
        if not family.in_domain(idx):
            raise OutOfDomainIndex(
                f"[v_{n}, v_{m}] in {family.name} hits v_{idx} below the "
                f"basis bound {family.lower_bound} with coefficient {coeff}"
            )
        acc = out.get(idx)
        out[idx] = coeff if acc is None else acc + coeff
    return [(idx, c) for idx, c in out.items() if not c.is_zero]


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class LieElement:
    """Finite linear combination of basis vectors v_n and the central c."""

    __slots__ = ("params", "components")

    def __init__(self, params: tuple[str, ...], components: dict):
        self.params = params
        self.components = components

    @classmethod
    def zero(cls, params=()) -> "LieElement":
        return cls(tuple(params), {})

    @classmethod
    def basis(cls, n, params=(), coeff=1) -> "LieElement":
        params = tuple(params)
        c = coeff if isinstance(coeff, ParamPoly) else ParamPoly.const(params, coeff)
        if c.is_zero:
            return cls(params, {})
        return cls(params, {n: c})

    @classmethod
    def from_components(cls, params, items) -> "LieElement":
        params = tuple(params)
        comps = {}
        for key, coeff in items:
            if not isinstance(coeff, ParamPoly):
                coeff = ParamPoly.const(params, coeff)
            s = comps.get(key)
            s = coeff if s is None else s + coeff
            if s.is_zero:
                comps.pop(key, None)
            else:
                comps[key] = s
        return cls(params, comps)

    @property
    def is_zero(self) -> bool:
        return not self.components

    def support(self):
        return sorted(
            (k for k in self.components if k != CENTRAL)
        ) + ([CENTRAL] if CENTRAL in self.components else [])

    def coefficient(self, key) -> ParamPoly:
        return self.components.get(key, ParamPoly.const(self.params, 0))

    def __add__(self, other: "LieElement") -> "LieElement":
        if other.params != self.params:
            raise ParameterMismatch(
                f"elements over different rings: {self.params} vs {other.params}"
            )
        comps = dict(self.components)
        for key, coeff in other.components.items():
            s = comps.get(key)
            s = coeff if s is None else s + coeff
            if s.is_zero:
                comps.pop(key, None)
            else:
                comps[key] = s
        return LieElement(self.params, comps)

    def __neg__(self) -> "LieElement":
        return LieElement(self.params, {k: -c for k, c in self.components.items()})

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-other)

    def scale(self, factor) -> "LieElement":
        if not isinstance(factor, ParamPoly):
            factor = ParamPoly.const(self.params, factor)
        if factor.is_zero:
            return LieElement(self.params, {})
        comps = {}
        for key, coeff in self.components.items():
            s = coeff * factor
            if not s.is_zero:
                comps[key] = s
        return LieElement(self.params, comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        return self.params == other.params and self.components == other.components

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for key in self.support():
            name = "c" if key == CENTRAL else f"v_{key}"
            parts.append(f"({self.components[key]})*{name}")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self):
        return {
            "components": [
                ["c" if k == CENTRAL else k, self.coefficient(k).to_json()]
                for k in self.support()
            ]
        }

    @classmethod
    def from_json(cls, params, data) -> "LieElement":
        params = tuple(params)
        return cls.from_components(
            params,
            (
                (CENTRAL if k == "c" else int(k), ParamPoly.from_json(params, v))
                for k, v in data["components"]
            ),
        )


# ---------------------------------------------------------------------------
# bracket, Jacobi, certification
# ---------------------------------------------------------------------------


def basis_bracket(family: FamilySpec, n: int, m: int) -> LieElement:
    """[v_n, v_m] for basis indices, including any central contribution."""
    for idx in (n, m):
        if not family.in_domain(idx):
            raise OutOfDomainIndex(
                f"index {idx} below basis bound {family.lower_bound} of {family.name}"
            )
    items = list(evaluate_pair_rule(family, n, m))
    if family.central is not None and n != m:
        v = family.central.value(n, m)
        if not isinstance(v, ParamPoly):
            v = ParamPoly.const(family.params, v)
        if not v.is_zero:
            items.append((CENTRAL, v))
    return LieElement.from_components(family.params, items)


def bracket(family: FamilySpec, x: LieElement, y: LieElement) -> LieElement:
    """Bilinear antisymmetric extension of the family rule."""
    for elem in (x, y):
        if elem.params != family.params:
            raise ParameterMismatch(
                f"element parameters {elem.params} differ from family "
                f"parameters {family.params}"
            )
    out = LieElement.zero(family.params)
    for nk, nc in x.components.items():
        if nk == CENTRAL:
            continue
        for mk, mc in y.components.items():
            if mk == CENTRAL:
                continue
            out = out + basis_bracket(family, nk, mk).scale(nc * mc)
    return out


def jacobiator(family: FamilySpec, n: int, m: int, k: int) -> LieElement:
    """[[v_n,v_m],v_k] + [[v_m,v_k],v_n] + [[v_k,v_n],v_m]."""
    total = LieElement.zero(family.params)
    for a, b, c in ((n, m, k), (m, k, n), (k, n, m)):
        total = total + bracket(
            family, basis_bracket(family, a, b), LieElement.basis(c, family.params)
        )
    return total


class _PairCache:
    """Memoized basis brackets for a fixed family."""

    def __init__(self, family: FamilySpec):
        self.family = family
        self.cache = {}

    def get(self, n: int, m: int) -> LieElement:
        key = (n, m)
        elem = self.cache.get(key)
        if elem is None:
            elem = basis_bracket(self.family, n, m)
            self.cache[key] = elem
        return elem


def _cached_jacobiator(cache: _PairCache, n: int, m: int, k: int) -> LieElement:
    family = cache.family
    total = LieElement.zero(family.params)
    for a, b, c in ((n, m, k), (m, k, n), (k, n, m)):
        inner = cache.get(a, b)
        for idx, coeff in inner.components.items():
            if idx == CENTRAL:
                continue
            total = total + cache.get(idx, c).scale(coeff)
    return total


@dataclass
class CheckReport:
    """Outcome of a certification run, JSON-serializable."""

    name: str
    status: str  # "PASS" | "FAIL"
    checked: int
    witness: dict | None = None
    certificate: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json(self):
        data = {"check": self.name, "status": self.status, "checked": self.checked}
        if self.witness is not None:
            data["witness"] = self.witness
        if self.certificate is not None:
            data["certificate"] = self.certificate
        return data


def _require_window(family: FamilySpec, window, minimum=8):
    window = [n for n in window if family.in_domain(n)]
    odd = sum(1 for n in window if n % 2)
    even = len(window) - odd
    if odd < minimum or even < minimum:
        raise WindowTooSmall(
            f"need at least {minimum} indices per parity class, "
            f"got {odd} odd / {even} even"
        )
    return sorted(window)


def verify_jacobi(family: FamilySpec, window) -> CheckReport:
    """Certify the Jacobi identity on every index triple in the window.

    Rule coefficients are affine in the pair indices, so each Jacobiator
    component is, per parity class of (n, m, k), a polynomial of total
    degree <= 2 in the indices; vanishing on a grid with >= 3 distinct
    values per variable and class then certifies identical vanishing.
    The window is required to supply >= 8 values per parity class.
    """
    indices = _require_window(family, window)
    cache = _PairCache(family)
    checked = 0
    for n, m, k in itertools.combinations(indices, 3):
        value = _cached_jacobiator(cache, n, m, k)
        checked += 1
        if not value.is_zero:
            return CheckReport(
                name=f"jacobi:{family.name}",
                status="FAIL",
                checked=checked,
                witness={"triple": [n, m, k], "value": value.to_json()},
            )
    return CheckReport(
        name=f"jacobi:{family.name}",
        status="PASS",
        checked=checked,
        certificate={
            "window": [indices[0], indices[-1]],
            "degree_bound": 2,
            "grid_per_parity": {
                "odd": sum(1 for n in indices if n % 2),
                "even": sum(1 for n in indices if not n % 2),
            },
        },
    )


# ---------------------------------------------------------------------------
# specialization, grading, rescaling helpers
# ---------------------------------------------------------------------------


def map_coefficients(family: FamilySpec, fn, params, name: str) -> FamilySpec:
    """The family with each rule-term coefficient p replaced by fn(key, shift, p).

    `key` is the parity class of a rule row or the first index of an
    exceptional row, and `params` is the ring the images live in.  Terms
    whose three coefficients all map to zero are dropped; the basis bound
    and the central rule are kept.
    """

    def rows(table):
        out = {}
        for key, terms in table.items():
            mapped = (
                RuleTerm(t.shift, *(fn(key, t.shift, p) for p in (t.a, t.b, t.d)))
                for t in terms
            )
            out[key] = tuple(t for t in mapped if not t.is_zero)
        return out

    return replace(
        family,
        name=name,
        params=tuple(params),
        rule=rows(family.rule),
        exceptional=rows(family.exceptional),
    )


def specialize(
    family: FamilySpec, assignment: dict, partial: bool = False
) -> FamilySpec:
    """Evaluate the rule at a rational parameter point.

    Evaluation commutes with the bracket.  With `partial=False` the
    assignment must cover every parameter.
    """
    assignment = {k: rat(v) for k, v in assignment.items()}
    unknown = [k for k in assignment if k not in family.params]
    if unknown:
        raise MissingParameter(f"{unknown} are not parameters of {family.name}")
    missing = [p for p in family.params if p not in assignment]
    if missing and not partial:
        raise MissingParameter(f"no value for parameters {missing}")
    point = {k: ParamPoly.const(family.params, v) for k, v in assignment.items()}
    label = ",".join(f"{k}={rat_str(v)}" for k, v in sorted(assignment.items()))
    return map_coefficients(
        family,
        lambda key, shift, p: p.substitute(point).drop_params(assignment),
        missing,
        f"{family.name}|{label}",
    )


@dataclass(frozen=True)
class GradingBounds:
    lower: int
    upper: int


def grading_bounds(family: FamilySpec) -> GradingBounds:
    """Exact min/max degree shift carrying a not-identically-zero coefficient."""
    shifts = set()
    for terms in list(family.rule.values()) + list(family.exceptional.values()):
        shifts.update(t.shift for t in terms if not t.is_zero)
    if family.central is not None and not family.central.is_zero:
        if isinstance(family.central, CentralDelta):
            shifts.add(0)  # supported on n + m = 0, central degree 0
        else:
            shifts.update(
                -(n + m) for (n, m), v in family.central.entries.items() if v != 0
            )
    if not shifts:
        return GradingBounds(0, 0)
    return GradingBounds(min(shifts), max(shifts))


def restricted(family: FamilySpec, lower_bound: int, name: str | None = None) -> FamilySpec:
    """The subalgebra spanned by basis vectors with index >= lower_bound."""
    return replace(
        family, name=name or f"{family.name}[n>={lower_bound}]", lower_bound=lower_bound
    )


def abelianization_codim(family: FamilySpec, n_max: int) -> tuple[int, bool]:
    """Codimension of the commutator span in a stabilizing window.

    Spans all brackets [v_n, v_m] with 1 <= n < m <= N whose full support
    lies inside [1, N - |R|] (R the lower grading shift) and returns the
    codimension of that span there, plus a flag telling whether the value
    agrees for N and N + 4.
    """
    if family.lower_bound != 1:
        raise ValueError("commutator codimension needs a basis domain n >= 1")
    if family.params:
        raise MissingParameter(
            f"specialize {family.name} before computing the codimension"
        )
    if n_max < 8:
        raise WindowTooSmall("need N >= 8")

    depth = abs(grading_bounds(family).lower)

    def codim(N: int) -> int:
        top = N - depth
        vectors = []
        for n in range(1, N + 1):
            for m in range(n + 1, N + 1):
                comps = evaluate_pair_rule(family, n, m)
                if not comps:
                    continue
                if max(idx for idx, _ in comps) > top:
                    continue
                vectors.append({idx: c.constant_value() for idx, c in comps})
        return top - rank_of_vectors(vectors)

    first = codim(n_max)
    return first, first == codim(n_max + 4)
