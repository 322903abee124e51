"""liefam: exact-arithmetic toolkit for almost-graded Lie algebra families.

Constructs the Witt/Virasoro algebras and their relatives living on
degenerating cubic curves, certifies their algebraic identities against
an independent vector-field oracle, and carries out the associated
cohomological computations (cocycles, coboundary witnesses, graded
dimension tables, residue-based central extensions) over exact rationals.
"""

__version__ = "0.1.0"

from .algebra import (
    CENTRAL,
    CentralDelta,
    CheckReport,
    FamilySpec,
    GradingBounds,
    LieElement,
    RuleTerm,
    abelianization_codim,
    basis_bracket,
    bracket,
    grading_bounds,
    jacobiator,
    restricted,
    specialize,
    verify_jacobi,
)
from .cohomology import (
    Ansatz,
    Cochain,
    compare_classes,
    deformation_differential,
    differential,
    goncharova_dim,
    goncharova_table,
    is_cocycle,
    solve_coboundary,
)
from .poly import ParamPoly, rat, rat_str

__all__ = [
    "CENTRAL",
    "Ansatz",
    "CentralDelta",
    "CheckReport",
    "Cochain",
    "FamilySpec",
    "GradingBounds",
    "LieElement",
    "ParamPoly",
    "RuleTerm",
    "abelianization_codim",
    "basis_bracket",
    "bracket",
    "compare_classes",
    "deformation_differential",
    "differential",
    "goncharova_dim",
    "goncharova_table",
    "grading_bounds",
    "is_cocycle",
    "jacobiator",
    "rat",
    "rat_str",
    "restricted",
    "solve_coboundary",
    "specialize",
    "verify_jacobi",
]
