"""Exact linear algebra over the rationals by fraction-free elimination.

Rows are sparse dicts keyed by arbitrary hashable unknown ids, with
rational entries.  `LinearSystem` clears an equation's denominators once,
when it is added, and then works on integer rows only.  A row is reduced
against a stored row with pivot entry p by cross-multiplying,
row = p*row - c*prow, where c is the row's entry at the pivot and p and c
are first divided by their gcd.  A row is divided by its content when it
is stored, so stored rows are primitive with a positive pivot entry.
This is fraction-free elimination in the sense of Bareiss (1968), with
one gcd per stored row in place of his exact division by the previous
pivot.  The graded differentials of the cohomology module have small
integer entries, so `rank_of_vectors` builds no Fraction for them, where
Gauss-Jordan built one, with its own gcd, per arithmetic operation.

The pivot of a stored row is chosen by a rule that `LinearSystem` takes
as an argument.  Solves that carry a certificate keep the default, the
least key of the reduced row by `repr`, since their pivots, free
unknowns and particular solutions depend on it.  A rank does not depend
on pivot order, so `rank_of_vectors` picks the key of the reduced row
that it saw last among the input vectors.  On Goncharova's graded
differentials that key is the sparse end of the row: at q = 4, s = 35
the stored rows fall from 7,183 nonzeros to 3,180, their largest entry
from 101 to 44 bits, and the unit pivots rise from 0 to 38 of 116.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm


def _rational(value):
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


#: The certificate pivot rule: the least key of the reduced row by `repr`.
_least_by_repr = partial(min, key=repr)


class LinearSystem:
    """Incremental echelon form with inconsistency tracking.

    Equations are inserted one at a time.  Each accepted equation is
    stored as a primitive integer row under its pivot, `pivot(row)` of
    the reduced row, by default its least key by `repr`; stored rows
    vanish at the pivots of every row stored before them, and nothing is
    back-substituted into them later.  The first equation that reduces
    to `0 = c` with `c != 0` is recorded with its residual c as the
    inconsistency witness, which makes infeasibility certificates point
    at a concrete equation.

    Certificates are those of Gauss-Jordan elimination with the same
    pivot rule.  Walking the stored pivots in insertion order turns an
    equation into the unique vector of (equation + span of the stored
    rows) that vanishes at every stored pivot, times a positive integer
    scale that `add` tracks exactly.  So the reduced support, and with
    it the pivot, the rank and the residual of an inconsistent equation,
    do not depend on the arithmetic, and neither does the solution once
    its free unknowns are fixed.
    """

    def __init__(self, pivot=_least_by_repr):
        self.pivot = pivot
        # pivot id -> (integer row without the pivot, pivot entry > 0, rhs)
        self.rows = {}
        self.inconsistency = None  # (tag, residual) of first bad equation
        self.equations = 0  # equations added

    def add(self, coeffs: dict, rhs, tag=None) -> None:
        self.equations += 1
        terms = [(k, _rational(v)) for k, v in coeffs.items() if v != 0]
        rhs = _rational(rhs)
        scale = lcm(rhs.denominator, *(v.denominator for _, v in terms))
        row = {k: v.numerator * (scale // v.denominator) for k, v in terms}
        b = rhs.numerator * (scale // rhs.denominator)
        # (row, b) is `scale` times the equation as reduced so far.
        for pivot, (prow, p, pb) in self.rows.items():
            c = row.pop(pivot, None)
            if c is None:
                continue
            g = gcd(p, c)
            a, c = p // g, c // g
            if a != 1:
                for k in row:
                    row[k] *= a
                b *= a
                scale *= a
            for k, v in prow.items():
                s = row.get(k, 0) - c * v
                if s:
                    row[k] = s
                else:
                    del row[k]
            b -= c * pb
        if not row:
            if b and self.inconsistency is None:
                self.inconsistency = (tag, Fraction(b, scale))
            return
        pivot = self.pivot(row)
        g = gcd(b, *row.values())
        if row[pivot] < 0:
            g = -g
        if g != 1:
            row = {k: v // g for k, v in row.items()}
            b //= g
        p = row.pop(pivot)
        self.rows[pivot] = (row, p, b)

    @property
    def consistent(self) -> bool:
        return self.inconsistency is None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def free_unknowns(self, unknowns) -> list:
        return [u for u in unknowns if u not in self.rows]

    def solution(self, unknowns, free_value=Fraction(0)) -> dict:
        """Particular solution with free unknowns set to `free_value`.

        Unknowns outside `unknowns` and off the pivots count as 0.  Keys
        come in order: free unknowns, then pivots in insertion order.
        """
        if not self.consistent:
            raise ValueError("system is inconsistent")
        values = {u: Fraction(free_value) for u in self.free_unknowns(unknowns)}
        known = dict(values)
        for pivot, (row, p, b) in reversed(self.rows.items()):
            known[pivot] = Fraction(
                b - sum(v * known.get(k, 0) for k, v in row.items()), p
            )
        values.update((pivot, known[pivot]) for pivot in self.rows)
        return values


def rank_of_vectors(vectors) -> int:
    """Rank of a family of sparse dict-vectors over the rationals.

    Keys may be any hashable values.  Each key is numbered the first time
    a vector shows it, and a row's pivot is its key that was seen last.
    That is safe because the rank does not depend on pivot order, and it
    keeps the stored rows sparse: at q = 4, s = 35 of the graded
    differentials they hold 3,180 nonzeros of at most 44 bits, where the
    `repr` rule stored 7,183 of up to 101 bits.
    """
    seen = {}
    system = LinearSystem(pivot=partial(max, key=seen.__getitem__))
    for vec in vectors:
        for k in vec:
            seen.setdefault(k, len(seen))
        system.add(vec, 0)
    return system.rank
