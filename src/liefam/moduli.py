"""Parameter geometry of the cubic family: invariants, fibers, rescalings.

A point (e1, e2) determines the cubic Y^2 = 4(X-e1)(X-e2)(X-e3) with
e3 = -(e1+e2).  Fibers degenerate exactly on the three lines e2 = s*e1
with s in {1, -2, -1/2} (node) and at the origin (cusp).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import FamilySpec, map_coefficients
from .errors import DegenerateLine, LiefamError, OddShiftNotRescalable
from .poly import ParamPoly, rat, rat_str

#: Slope of the vertical line e1 = 0.
INFINITE_SLOPE = "inf"


def _invariants(e1, e2):
    """(g2, g3, discriminant) of Y^2 = 4(X-e1)(X-e2)(X-e3), e3 = -(e1+e2).

    The same formula serves rational points and the polynomial ring Q[e1, e2].
    """
    e3 = -(e1 + e2)
    g2 = (e1 * e2 + e1 * e3 + e2 * e3) * -4
    g3 = e1 * e2 * e3 * 4
    disc = ((e1 - e2) ** 2) * ((e1 - e3) ** 2) * ((e2 - e3) ** 2) * 16
    return g2, g3, disc


@dataclass(frozen=True)
class CurveParams:
    """An (e1, e2) point with derived modular quantities."""

    e1: Fraction
    e2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "e1", rat(self.e1))
        object.__setattr__(self, "e2", rat(self.e2))

    @property
    def e3(self) -> Fraction:
        return -self.e1 - self.e2

    @property
    def g2(self) -> Fraction:
        return _invariants(self.e1, self.e2)[0]

    @property
    def g3(self) -> Fraction:
        return _invariants(self.e1, self.e2)[1]

    @property
    def discriminant(self) -> Fraction:
        return _invariants(self.e1, self.e2)[2]

    @property
    def j(self) -> Fraction:
        disc = self.discriminant
        if disc == 0:
            raise DegenerateLine("j is defined on smooth fibers only")
        return 1728 * self.g2**3 / disc

    def to_json(self):
        data = {
            "e1": rat_str(self.e1),
            "e2": rat_str(self.e2),
            "e3": rat_str(self.e3),
            "g2": rat_str(self.g2),
            "g3": rat_str(self.g3),
            "discriminant": rat_str(self.discriminant),
        }
        if self.discriminant != 0:
            data["j"] = rat_str(self.j)
        return data


@dataclass(frozen=True)
class FiberClass:
    kind: str  # "smooth" | "nodal" | "cuspidal"
    subcase: str | None = None  # "IIa" | "IIb" for nodal fibers
    j: Fraction | None = None

    def to_json(self):
        data = {"kind": self.kind}
        if self.subcase:
            data["subcase"] = self.subcase
        if self.j is not None:
            data["j"] = rat_str(self.j)
        return data


def classify_fiber(e1, e2) -> FiberClass:
    """Cusp at the origin; node when exactly two roots meet; else smooth.

    Subcase IIa: the marked point stays away from the node (e2 = e3);
    subcase IIb: the node swallows the marked point (e1 = e2 or e1 = e3).
    """
    p = CurveParams(rat(e1), rat(e2))
    if p.e1 == 0 and p.e2 == 0:
        return FiberClass(kind="cuspidal")
    if p.e2 == p.e3 and p.e1 != p.e2:
        return FiberClass(kind="nodal", subcase="IIa")
    if p.e1 == p.e2 or p.e1 == p.e3:
        return FiberClass(kind="nodal", subcase="IIb")
    return FiberClass(kind="smooth", j=p.j)


def j_of_line(s) -> Fraction:
    """Modular parameter of the (constant-j) line e2 = s*e1.

    The j of the point (1, s) on the line, or of (0, 1) on the vertical
    line; it is 1728 * 4 (1+s+s^2)^3 / ((1-s)^2 (2+s)^2 (1+2s)^2).
    """
    if s == INFINITE_SLOPE:
        return CurveParams(0, 1).j
    s = rat(s)
    if s in (Fraction(1), Fraction(-2), Fraction(-1, 2)):
        raise DegenerateLine(f"slope {s} lies on a degenerate line")
    return CurveParams(1, s).j


def symbolic_invariants() -> tuple[ParamPoly, ParamPoly, ParamPoly]:
    """(g2, g3, discriminant) as polynomials in (e1, e2), e3 eliminated."""
    params = ("e1", "e2")
    return _invariants(ParamPoly.var(params, "e1"), ParamPoly.var(params, "e2"))


def rescale(family: FamilySpec, lam2) -> FamilySpec:
    """Conjugate by v_n -> (lam^-n) v_n at the rule level.

    The coefficient at degree shift w picks up the factor lam2^(-w/2);
    only even shifts are reachable without a square root of lam2.  A
    central delta sits at total degree 0 and is kept unchanged.
    """
    lam2 = rat(lam2)
    if lam2 == 0:
        raise LiefamError("rescaling factor must be nonzero")

    def scale(key, shift, p):
        if shift % 2:
            raise OddShiftNotRescalable(
                f"shift {shift} in {family.name} needs a square root"
            )
        return p * lam2 ** (-shift // 2)

    name = f"{family.name}~lam2={rat_str(lam2)}"
    return map_coefficients(family, scale, family.params, name)
