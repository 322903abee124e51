"""Exact linear algebra over the rationals by fraction-free elimination.

`LinearSystem` numbers its unknowns: an unknown id, any hashable value,
gets the next integer the first time an equation shows it, and rows are
sparse dicts from those numbers to integers.  An equation's denominators
are cleared once, when it is added (an integer equation has none), and
the work after that is on integer rows only.  A row is reduced against a
stored row with pivot entry p by cross-multiplying, row = p*row - c*prow,
where c is the row's entry at the pivot and p and c are first divided by
their gcd.  A row is divided by its content when it is stored, so stored
rows are primitive with a positive pivot entry.  This is fraction-free
elimination in the sense of Bareiss (1968), with one gcd per stored row
in place of his exact division by the previous pivot.  The graded
differentials of the cohomology module have small integer entries, so
`rank_of_vectors` builds no Fraction for them.

A row is reduced only by the stored rows whose pivots it holds, in the
order they were stored: their slots wait in a heap, and a reduction that
brings in the pivot of a later stored row pushes that row's slot.  A
stored row vanishes at the pivots of the rows stored before it, so no
reduction brings back a pivot already passed, and the reductions are
those of a scan over every stored row, in the same order.  At q = 4,
s = 35 of the graded differentials (185 vectors into 192 keys, rank 116)
that scan visits a stored row 13,063 times to reduce 2,179 times; the
heap pops 2,254 slots.

The pivot of a stored row is chosen by a rule that `LinearSystem` takes
as an argument.  Solves that carry a certificate keep the default, the
unknown whose id is least by `repr`, since their pivots, free unknowns
and particular solutions depend on it.  A rank does not depend on pivot
order, so `rank_of_vectors` picks the largest number, the key that it
saw last.  On Goncharova's graded differentials that key is the sparse
end of the row: at q = 4, s = 35 the stored rows fall from 7,183
nonzeros to 3,180 (pivot entries not counted), their largest entry from
101 to 44 bits, and the unit pivots rise from 0 to 38 of 116.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def _rational(value):
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


class LinearSystem:
    """Incremental echelon form with inconsistency tracking.

    Equations are inserted one at a time.  Each accepted equation is
    stored as a primitive integer row under its pivot, `pivot(row)` of
    the reduced row keyed by unknown numbers, by default the unknown
    whose id is least by `repr`, each id's repr computed once.  Numbers
    are given in first-seen order, so `pivot=max` picks the unknown seen
    last.  Stored rows vanish at the pivots of every row stored before
    them, and nothing is back-substituted into them later.  The first
    equation that reduces to `0 = c` with `c != 0` is recorded with its
    residual c as the inconsistency witness, which makes infeasibility
    certificates point at a concrete equation.  `rows` reads the stored
    rows by unknown id.

    Certificates are those of Gauss-Jordan elimination with the same
    pivot rule.  Reducing by the stored pivots in insertion order turns
    an equation into the unique vector of (equation + span of the stored
    rows) that vanishes at every stored pivot, times a positive integer
    scale that `add` tracks exactly.  So the reduced support, and with
    it the pivot, the rank and the residual of an inconsistent equation,
    do not depend on the arithmetic, and neither does the solution once
    its free unknowns are fixed.
    """

    def __init__(self, pivot=None):
        self.pivot = pivot
        self._number = {}  # unknown id -> number, given in first-seen order
        self._ids = []  # number -> unknown id
        self._reprs = []  # number -> repr of its id, filled by the repr rule
        self._slot = []  # number -> index of the stored row it pivots, or None
        # (pivot, integer row without the pivot, pivot entry > 0, rhs) by number
        self._stored = []
        self.inconsistency = None  # (tag, residual) of first bad equation
        self.equations = 0  # equations added

    def add(self, coeffs: dict, rhs, tag=None) -> None:
        self.equations += 1
        number, ids, slot, stored = self._number, self._ids, self._slot, self._stored
        row = {}
        for k, v in coeffs.items():
            n = number.get(k)
            if n is None:
                n = number[k] = len(ids)
                ids.append(k)
                slot.append(None)
            if v:
                row[n] = v
        if type(rhs) is int and all(type(v) is int for v in row.values()):
            scale, b = 1, rhs
        else:
            row = {n: _rational(v) for n, v in row.items()}
            rhs = _rational(rhs)
            scale = lcm(rhs.denominator, *(v.denominator for v in row.values()))
            row = {n: v.numerator * (scale // v.denominator) for n, v in row.items()}
            b = rhs.numerator * (scale // rhs.denominator)
        # (row, b) is `scale` times the equation as reduced so far.  `heap`
        # holds the slots of the stored pivots the row holds, and may hold
        # a slot whose pivot has cancelled since it was pushed.
        heap = [i for i in map(slot.__getitem__, row) if i is not None]
        heapify(heap)
        while heap:
            pivot, prow, p, pb = stored[heappop(heap)]
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
                old = row.get(k)
                if old is None:
                    row[k] = -c * v
                    i = slot[k]
                    if i is not None:
                        heappush(heap, i)
                else:
                    s = old - c * v
                    if s:
                        row[k] = s
                    else:
                        del row[k]
            b -= c * pb
        if not row:
            if b and self.inconsistency is None:
                self.inconsistency = (tag, Fraction(b, scale))
            return
        pivot = (self.pivot or self._least_by_repr)(row)
        g = gcd(b, *row.values())
        if row[pivot] < 0:
            g = -g
        if g != 1:
            row = {k: v // g for k, v in row.items()}
            b //= g
        p = row.pop(pivot)
        slot[pivot] = len(stored)
        stored.append((pivot, row, p, b))

    def _least_by_repr(self, row):
        """The certificate pivot rule: the number whose id is least by `repr`."""
        reprs = self._reprs
        reprs += map(repr, self._ids[len(reprs) :])
        return min(row, key=reprs.__getitem__)

    @property
    def rows(self) -> Mapping:
        """The stored rows by pivot id, in insertion order.

        Each reads as (row by id without the pivot, pivot entry > 0, rhs).
        """
        return _Rows(self)

    @property
    def consistent(self) -> bool:
        return self.inconsistency is None

    @property
    def rank(self) -> int:
        return len(self._stored)

    def _is_pivot(self, u) -> bool:
        n = self._number.get(u)
        return n is not None and self._slot[n] is not None

    def free_unknowns(self, unknowns) -> list:
        return [u for u in unknowns if not self._is_pivot(u)]

    def solution(self, unknowns, free_value=Fraction(0)) -> dict:
        """Particular solution with free unknowns set to `free_value`.

        Unknowns outside `unknowns` and off the pivots count as 0.  Keys
        come in order: free unknowns, then pivots in insertion order.
        """
        if not self.consistent:
            raise ValueError("system is inconsistent")
        values = {u: Fraction(free_value) for u in self.free_unknowns(unknowns)}
        number, ids = self._number, self._ids
        known = {number[u]: v for u, v in values.items() if u in number}
        for pivot, row, p, b in reversed(self._stored):
            known[pivot] = Fraction(
                b - sum(v * known.get(k, 0) for k, v in row.items()), p
            )
        values.update((ids[pivot], known[pivot]) for pivot, *_ in self._stored)
        return values


class _Rows(Mapping):
    """The stored rows of a `LinearSystem`, read by unknown id."""

    __slots__ = ("_system",)

    def __init__(self, system):
        self._system = system

    def __len__(self):
        return len(self._system._stored)

    def __iter__(self):
        ids = self._system._ids
        return (ids[pivot] for pivot, *_ in self._system._stored)

    def __contains__(self, u):
        return self._system._is_pivot(u)

    def __getitem__(self, u):
        system = self._system
        if not system._is_pivot(u):
            raise KeyError(u)
        _, row, p, b = system._stored[system._slot[system._number[u]]]
        ids = system._ids
        return {ids[k]: v for k, v in row.items()}, p, b


def rank_of_vectors(vectors) -> int:
    """Rank of a family of sparse dict-vectors over the rationals.

    Keys may be any hashable values.  The system numbers each key the
    first time a vector shows it, and a row's pivot is its largest
    number, the key that was seen last.  That is safe because the rank
    does not depend on pivot order, and it keeps the stored rows sparse:
    at q = 4, s = 35 of the graded differentials they hold 3,180
    nonzeros of at most 44 bits, where the `repr` rule stored 7,183 of
    up to 101 bits.
    """
    system = LinearSystem(pivot=max)
    for vec in vectors:
        system.add(vec, 0)
    return system.rank
