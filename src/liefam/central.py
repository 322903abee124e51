"""Residue-based pairings on genus-zero vector fields.

A residue pairing has one representation: `residue_cochain` gives it as
a trivial 2-cochain of the family, whose values are computed on demand
and never stored in a window.  The central extension by it satisfies the
Jacobi identity exactly when the cochain is a 2-cocycle, which
`cohomology.is_cocycle` checks; `pairing_table`, `locality_bound` and
`class_independence` read its values.

The pairing of two fields e, f (written as functions of the quasi-global
coordinate) is the sum of the residues at all finite poles of
    (1/2)(e''' f - e f''') - R (e' f - e f')
with R a Laurent-polynomial quadratic-differential representative.  That
is the residue of L_R(e) f, L_R(e) = e''' - 2 R e' - R' e: the two differ
by the derivative of R e f - (1/2)(e'' f - e' f' + e f''), and an exact
rational differential has residue zero at every point.  The sum over the
finite poles is minus the residue at infinity, exact even with a symbolic
double-point parameter.  No normalization factor is applied;
proportionality constants against closed-form central rules are
reported, not fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, inf

from .algebra import CheckReport, FamilySpec, domain_pairs, evaluate_pair_rule
from .cohomology import Cochain, DerivedRule
from .errors import UnsupportedFamily, UpperBoundViolated
from .families import CATALOG, by_name, witt
from .geometry import PARAMETRIZATIONS, FactoredLaurent, LaurentPoly, uniformize
from .linalg import LinearSystem
from .poly import ParamPoly, rat_str


def _residue(x: LaurentPoly, y: LaurentPoly, beta: ParamPoly, exp: int) -> ParamPoly:
    """Sum of the residues of x y (t^2 - beta)^exp dt over all finite points.

    Minus the residue at infinity: the term t^d of x y meets the term
    binom(exp, i) (-beta)^i t^(2 exp - 2i) at 1/t for i = (d + 2 exp + 1)/2,
    with i <= exp when exp >= 0 and i = 0 when beta = 0.  Only those terms
    are formed; a pair whose degrees reach none of them is skipped outright.
    """
    total = ParamPoly.const(x.params, 0)
    low, top = -2 * exp - 1, 0 if beta.is_zero else (exp if exp >= 0 else inf)
    if x.is_zero or y.is_zero or x.max_degree() + y.max_degree() < low:
        return total
    if min(x.components) + min(y.components) > low + 2 * top:
        return total
    for dx, cx in x.components.items():
        for dy, cy in y.components.items():
            i, odd = divmod(dx + dy - low, 2)
            if odd or not 0 <= i <= top:
                continue
            binom = comb(exp, i) if exp >= 0 else (-1) ** i * comb(i - exp - 1, i)
            total = total + cx * cy * binom * (-beta) ** i
    return total


def finite_residue_sum(field: FactoredLaurent) -> ParamPoly:
    """Sum of residues of `field dz` over all finite points (`_residue` with y = 1)."""
    one = LaurentPoly.monomial(field.poly.params, 0)
    return _residue(field.poly, one, field.beta, field.exp)


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------


def _operator(e: FactoredLaurent, connection: LaurentPoly | None) -> FactoredLaurent:
    """L_R(e) = e''' - 2 R e' - R' e, the field's side of the pairing."""
    e1 = e.derivative()
    out = e1.derivative().derivative()
    if connection is not None and not connection.is_zero:
        r = connection.map_params(e.poly.params)
        out = out - FactoredLaurent(r * e1.poly, e.beta, e1.exp).scale(2)
        out = out - FactoredLaurent(r.derivative() * e.poly, e.beta, e.exp)
    return out


def kn_cocycle(e: FactoredLaurent, f: FactoredLaurent, connection: LaurentPoly | None = None):
    """Residue pairing of two genus-zero fields, with connection term R.

    gamma_R(e, f) = Res[L_R(e) f] exactly: the integrand differs from
    L_R(e) f by an exact differential, which has no residue.
    """
    e._check(f)
    op = _operator(e, connection)
    return _residue(op.poly, f.poly, f.beta, op.exp + f.exp)


def _residue_cochain(family: str, connection: LaurentPoly | None) -> tuple[FamilySpec, Cochain]:
    """(spec, gamma_R): the catalog family and `residue_cochain(family, connection)`.

    The field of index 2k + e is u^k = t^(pk) (t^2 - beta)^(qk) times
    `uniformize(family, e)`.  Each index gets its field and L_R once, the
    first time a pair reads them, and each pair one residue coefficient;
    the rule's `fn` is that kernel, for n < m.  A family built from
    arguments (d-line) has no realization; a family with no genus-zero
    realization raises at the first value, not here.
    """
    if CATALOG.get(family, (None, ()))[1]:
        raise UnsupportedFamily(f"no realization for family {family!r}")
    spec = by_name(family)
    shape = cache(lambda odd: uniformize(family, odd))

    @cache
    def field(n: int) -> FactoredLaurent:
        k, odd = divmod(n, 2)
        base = shape(odd)
        p, q, _ = PARAMETRIZATIONS[family]
        return FactoredLaurent(base.poly.shift(p * k), base.beta, base.exp + q * k)

    operator = cache(lambda n: _operator(field(n), connection))

    def value(n: int, m: int) -> ParamPoly:
        e, f = operator(n), field(m)
        return _residue(e.poly, f.poly, f.beta, e.exp + f.exp)

    rule = DerivedRule(value, "residue pairing")
    return spec, Cochain(2, "trivial", None, spec.params, rule, label=f"residue:{family}")


def residue_cochain(family: str, connection: LaurentPoly | None = None) -> Cochain:
    """gamma_R(v_n, v_m) = Res[L_R(v_n) v_m] on the family's fields, as a trivial 2-cochain.

    The extension of the family by a center c with [v_n, v_m] gaining
    gamma_R(v_n, v_m) c satisfies the Jacobi identity exactly when
    d(gamma_R) = 0, given that the family does: the extension's
    Jacobiator is the family's plus d(gamma_R), up to sign, times c.  So
    `is_cocycle(by_name(family), residue_cochain(family), window)` checks
    the extension on every triple of the window, with no table range.
    """
    return _residue_cochain(family, connection)[1]


def pairing_table(family: str, window, connection: LaurentPoly | None = None) -> dict:
    """gamma(v_n, v_m) for all n < m in the window's part of the family's domain.

    The values are those of `residue_cochain`, read from its kernel.
    Zero values are omitted.  A window with no pair in the domain raises
    WindowTooSmall (its empty table would claim a vacuous support), and a
    family built from arguments (d-line) has no realization.
    """
    spec, gamma = _residue_cochain(family, connection)
    indices = domain_pairs(spec, window)
    value = gamma.rule.fn
    pairs = ((n, m, value(n, m)) for i, n in enumerate(indices) for m in indices[i + 1 :])
    return {(n, m): v for n, m, v in pairs if not v.is_zero}


@dataclass
class LocalityReport:
    family: str
    lower: int  # minimal n+m carrying a nonzero value (0 if support empty)
    support: dict

    def to_json(self):
        return {
            "family": self.family,
            "M": self.lower,
            "support": [
                [n, m, v.to_json()] for (n, m), v in sorted(self.support.items())
            ],
        }


def locality_bound(
    family: str,
    window,
    connection: LaurentPoly | None = None,
) -> LocalityReport:
    """Minimal M with gamma(v_n, v_m) != 0 implying M <= n+m <= 0.

    Raises UpperBoundViolated for a nonzero value above n+m = 0.  For the
    three-point and nodal bases that is geometry, not a fault (ROADMAP
    item 4): three-point's gamma(V_-6, V_8) is -672 alpha2.
    """
    table = pairing_table(family, window, connection)
    lower = 0
    for (n, m), value in table.items():
        if n + m > 0:
            raise UpperBoundViolated(
                f"gamma(v_{n}, v_{m}) = {value} with n+m = {n + m} > 0"
            )
        lower = min(lower, n + m)
    return LocalityReport(family=family, lower=lower, support=table)


def class_independence(
    r1: LaurentPoly, r2: LaurentPoly, window
) -> tuple[dict | None, CheckReport]:
    """Witness that two connection choices differ by a scalar coboundary.

    Solves (gamma_{R1} - gamma_{R2})(e_n, e_m) = lam([e_n, e_m]) for a
    linear functional lam on the Witt window; inconsistency is reported
    as a failing check (it would contradict connection independence).
    """
    spec = witt()
    indices = domain_pairs(spec, window)
    gammas = [residue_cochain(spec.name, r).rule.fn for r in (r1, r2)]
    system = LinearSystem()
    pairs = 0
    for i, n in enumerate(indices):
        for m in indices[i + 1 :]:
            delta = gammas[0](n, m) - gammas[1](n, m)
            coeffs = {
                ("lam", idx): c.constant_value()
                for idx, c in evaluate_pair_rule(spec, n, m)
            }
            system.add(coeffs, delta.constant_value(), tag={"pair": [n, m]})
            pairs += 1
    if not system.consistent:
        tag, residual = system.inconsistency
        return None, CheckReport(
            name=f"class-independence:{spec.name}",
            status="FAIL",
            checked=pairs,
            witness={"contradiction_at": tag, "residual": rat_str(residual)},
        )
    values = system.solution(list(system.rows))
    lam = {key[1]: v for key, v in values.items() if v != 0}
    return lam, CheckReport(
        name=f"class-independence:{spec.name}",
        status="PASS",
        checked=pairs,
        certificate={"lambda_support": sorted(lam)},
    )
