"""Residue-based pairings on genus-zero vector fields.

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

from dataclasses import dataclass, replace
from math import comb, inf

from .algebra import (
    CentralTable,
    CheckReport,
    FamilySpec,
    domain_pairs,
    evaluate_pair_rule,
)
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


def pairing_table(family: str, window, connection: LaurentPoly | None = None) -> dict:
    """gamma(v_n, v_m) for all n < m in the window's part of the family's domain.

    The field of index 2k + e is u^k = t^(pk) (t^2 - beta)^(qk) times
    `uniformize(family, e)`; each index gets its L_R once and each pair
    one residue coefficient.  Zero values are omitted.  A window with no
    pair in the domain raises WindowTooSmall (its empty table would claim
    a vacuous support), and a family built from arguments (d-line) has
    no realization.
    """
    if CATALOG.get(family, (None, ()))[1]:
        raise UnsupportedFamily(f"no realization for family {family!r}")
    indices = domain_pairs(by_name(family), window)
    shapes = [uniformize(family, odd) for odd in (0, 1)]
    p, q, _ = PARAMETRIZATIONS[family]
    fields = {}
    for n in indices:
        k, shape = n // 2, shapes[n % 2]
        fields[n] = FactoredLaurent(shape.poly.shift(p * k), shape.beta, shape.exp + q * k)
    ops = {n: _operator(field, connection) for n, field in fields.items()}
    table = {}
    for i, n in enumerate(indices):
        for m in indices[i + 1 :]:
            f = fields[m]
            value = _residue(ops[n].poly, f.poly, f.beta, ops[n].exp + f.exp)
            if not value.is_zero:
                table[(n, m)] = value
    return table


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
    tables = [pairing_table(spec.name, indices, r) for r in (r1, r2)]
    zero = ParamPoly.const((), 0)
    system = LinearSystem()
    pairs = 0
    for i, n in enumerate(indices):
        for m in indices[i + 1 :]:
            delta = tables[0].get((n, m), zero) - tables[1].get((n, m), zero)
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


def central_table_from_residues(
    family: str,
    lo: int,
    hi: int,
    connection: LaurentPoly | None = None,
) -> CentralTable:
    """Explicit central rule computed from the residue pairing."""
    table = pairing_table(family, range(lo, hi + 1), connection)
    entries = {key: v.constant_value() if v.is_constant else v for key, v in table.items()}
    return CentralTable(entries=entries, lo=lo, hi=hi)


def attach_central(spec: FamilySpec, table: CentralTable, name=None) -> FamilySpec:
    """Extend a family by a one-dimensional center with the given pairing."""
    return replace(spec, name=name or f"{spec.name}+center", central=table)
