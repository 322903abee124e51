"""Residue-based pairings on genus-zero vector fields.

The pairing of two fields e, f (written as functions of the quasi-global
coordinate) is the sum of the residues at all finite poles of
    (1/2)(e''' f - e f''') - R (e' f - e f')
with R a Laurent-polynomial quadratic-differential representative.  The
integration cycle separates the finite poles from infinity, so the sum is
computed as minus the residue at infinity, which stays exact even with a
symbolic double-point parameter.  No normalization factor is applied;
proportionality constants against closed-form central rules are
reported, not fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import (
    CentralTable,
    CheckReport,
    FamilySpec,
    domain_pairs,
    evaluate_pair_rule,
)
from .errors import UnsupportedFamily, UpperBoundViolated
from .families import CATALOG, by_name, witt
from .geometry import FactoredLaurent, LaurentPoly, uniformize
from .linalg import LinearSystem
from .poly import ParamPoly, rat_str


def _binomial(e: int, i: int) -> Fraction:
    """Generalized binomial coefficient for integer (possibly negative) e."""
    out = Fraction(1)
    for j in range(i):
        out *= Fraction(e - j, j + 1)
    return out


def finite_residue_sum(field: FactoredLaurent) -> ParamPoly:
    """Sum of residues of `field dz` over all finite points.

    Equal to the coefficient of 1/z in the expansion at infinity (the
    global residue sum of a rational differential vanishes).  Exact for a
    symbolic quadratic factor: (z^2-beta)^e expands binomially at
    infinity and only one term can hit 1/z per monomial.
    """
    params = field.poly.params
    total = ParamPoly.const(params, 0)
    e = field.exp
    for d, coeff in field.poly.components.items():
        num = d + 2 * e + 1
        if num % 2 or num < 0:
            continue
        i = num // 2
        total = total + coeff * _binomial(e, i) * ((-field.beta) ** i)
    return total


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------


def kn_cocycle(
    e: FactoredLaurent, f: FactoredLaurent, connection: LaurentPoly | None = None
):
    """Residue pairing of two genus-zero fields, with connection term R."""
    e3 = e.derivative().derivative().derivative()
    f3 = f.derivative().derivative().derivative()
    integrand = (e3 * f - e * f3).scale(Fraction(1, 2))
    if connection is not None and not connection.is_zero:
        first = e.derivative() * f - e * f.derivative()
        rterm = FactoredLaurent(connection.map_params(e.poly.params), e.beta, 0) * first
        integrand = integrand - rterm
    return finite_residue_sum(integrand)


def pairing_table(family: str, window, connection: LaurentPoly | None = None) -> dict:
    """gamma(v_n, v_m) for all n < m in the window's part of the family's domain.

    The fields are `geometry.uniformize`'s; zero values are omitted.  A
    window with no pair in the domain raises WindowTooSmall (its empty
    table would claim a vacuous support), and a family built from
    arguments (d-line) has no realization.
    """
    if CATALOG.get(family, (None, ()))[1]:
        raise UnsupportedFamily(f"no realization for family {family!r}")
    indices = domain_pairs(by_name(family), window)
    fields = {n: uniformize(family, n) for n in indices}
    table = {}
    for i, n in enumerate(indices):
        for m in indices[i + 1 :]:
            value = kn_cocycle(fields[n], fields[m], connection)
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
    item 9): three-point's gamma(V_-6, V_8) is -672 alpha2.
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
    unknowns = [u for u in system.rows]
    values = system.solution(unknowns)
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
    entries = {}
    for (n, m), value in table.items():
        entries[(n, m)] = (
            value.constant_value() if value.is_constant else value
        )
    return CentralTable(entries=entries, lo=lo, hi=hi)


def attach_central(spec: FamilySpec, table: CentralTable, name=None) -> FamilySpec:
    """Extend a family by a one-dimensional center with the given pairing."""
    return replace(spec, name=name or f"{spec.name}+center", central=table)
