"""Exact elimination: rank, pivots, solutions and inconsistency witnesses.

`LinearSystem` eliminates fraction-free on integer rows.  Its results must
be those of plain Fraction Gauss-Jordan elimination with the same pivot
rule (the least key of the reduced row by `repr`), which `GaussJordan`
below keeps as the reference, and its ranks must agree with sympy.
`rank_of_vectors` pivots on the key it saw last instead, and must give
the rank of the `repr` rule.  `LinearSystem` numbers its unknowns and
visits only the stored pivots a row holds; `ScanEveryRow` keeps the scan
over every stored row that it replaced, and under either pivot rule the
two must store the same rows and give the same witness and solution.
"""

import gc
import weakref
from fractions import Fraction
from functools import partial
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liefam import linalg
from liefam.cohomology import Ansatz, compare_classes, graded_differential_columns
from liefam.linalg import LinearSystem, rank_of_vectors
from liefam.suite import named_cocycle


class GaussJordan:
    """Reference: Fraction Gauss-Jordan, rows kept fully reduced."""

    def __init__(self):
        self.rows = {}  # pivot -> (row without pivot, rhs)
        self.inconsistency = None

    def add(self, coeffs, rhs, tag=None):
        row = {k: Fraction(v) for k, v in coeffs.items() if v != 0}
        rhs = Fraction(rhs)
        for pivot, (prow, prhs) in self.rows.items():
            c = row.pop(pivot, 0)
            for k, v in prow.items():
                row[k] = row.get(k, 0) - c * v
            rhs -= c * prhs
            row = {k: v for k, v in row.items() if v != 0}
        if not row:
            if rhs != 0 and self.inconsistency is None:
                self.inconsistency = (tag, rhs)
            return
        pivot = sorted(row, key=repr)[0]
        c = row.pop(pivot)
        row = {k: v / c for k, v in row.items()}
        rhs /= c
        for opivot, (orow, orhs) in self.rows.items():
            oc = orow.pop(pivot, 0)
            for k, v in row.items():
                orow[k] = orow.get(k, 0) - oc * v
            self.rows[opivot] = ({k: v for k, v in orow.items() if v != 0}, orhs - oc * rhs)
        self.rows[pivot] = (row, rhs)

    def solution(self, unknowns):
        values = {u: Fraction(0) for u in unknowns if u not in self.rows}
        for pivot, (row, rhs) in self.rows.items():
            values[pivot] = rhs - sum(v * values.get(k, 0) for k, v in row.items())
        return values


class ScanEveryRow:
    """Reference: fraction-free elimination keyed by unknown ids.

    Each equation visits every stored row in insertion order and reduces
    by those whose pivot it holds.  `pivot(row)` picks the pivot of a
    reduced row by id.
    """

    def __init__(self, pivot=partial(min, key=repr)):
        self.pivot = pivot
        self.rows = {}  # pivot id -> (integer row without the pivot, p > 0, rhs)
        self.inconsistency = None

    def add(self, coeffs, rhs, tag=None):
        terms = [(k, Fraction(v)) for k, v in coeffs.items() if v != 0]
        rhs = Fraction(rhs)
        scale = lcm(rhs.denominator, *(v.denominator for _, v in terms))
        row = {k: v.numerator * (scale // v.denominator) for k, v in terms}
        b = rhs.numerator * (scale // rhs.denominator)
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
        row = {k: v // g for k, v in row.items()}
        p = row.pop(pivot)
        self.rows[pivot] = (row, p, b // g)

    def solution(self, unknowns):
        values = {u: Fraction(0) for u in unknowns if u not in self.rows}
        known = dict(values)
        for pivot, (row, p, b) in reversed(self.rows.items()):
            known[pivot] = Fraction(b - sum(v * known.get(k, 0) for k, v in row.items()), p)
        values.update((pivot, known[pivot]) for pivot in self.rows)
        return values


# Mixed key types whose repr order differs from any numeric order
# ("-3" < "0" < "10" < "2" < "(" < "'").
KEYS = [0, 2, 10, -3, ("idx", 1), ("idx", -2), ("even", "a"), "x"]
COEFF = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def equations(draw):
    """Sparse equations, some of them combinations of earlier ones.

    A combination repeats or depends on earlier rows; its right-hand side
    is shifted now and then, which makes the system inconsistent.
    """
    eqs = []
    for _ in range(draw(st.integers(1, 8))):
        if eqs and draw(st.booleans()):
            row, rhs = {}, Fraction(0)
            for i in draw(st.lists(st.integers(0, len(eqs) - 1), min_size=1, max_size=3)):
                c = draw(COEFF)
                for k, v in eqs[i][0].items():
                    row[k] = row.get(k, 0) + c * v
                rhs += c * eqs[i][1]
            rhs += draw(st.sampled_from([0, 0, 1, Fraction(-2, 3)]))
        else:
            row = draw(st.dictionaries(st.sampled_from(KEYS), COEFF, max_size=5))
            rhs = draw(COEFF)
        eqs.append((row, rhs))
    return eqs


@st.composite
def graded_equations(draw):
    """Columns of a graded differential, shuffled, with small right-hand sides.

    They are long and fill in, so a reduction often brings in the pivot
    of a later row, or cancels one that an earlier reduction brought in.
    """
    q, s = draw(st.integers(1, 3)), draw(st.integers(1, 14))
    rnd = draw(st.randoms(use_true_random=False))
    eqs = []
    for vec in graded_differential_columns(q, s).values():
        items = list(vec.items())
        rnd.shuffle(items)
        eqs.append((dict(items), rnd.choice([0, 0, 0, 1, -2])))
    rnd.shuffle(eqs)
    return eqs


def build(cls, eqs):
    system = cls()
    for i, (row, rhs) in enumerate(eqs):
        system.add(row, rhs, tag=i)
    return system


def matrix(eqs, with_rhs=False):
    return sympy.Matrix(
        [
            [sympy.Rational(row.get(k, 0)) for k in KEYS]
            + ([sympy.Rational(rhs)] if with_rhs else [])
            for row, rhs in eqs
        ]
    )


@settings(max_examples=100, deadline=None)
@given(equations())
def test_rank_matches_sympy(eqs):
    system = build(LinearSystem, eqs)
    assert system.rank == matrix(eqs).rank()
    assert rank_of_vectors(row for row, _ in eqs) == system.rank


@settings(max_examples=100, deadline=None)
@given(equations(), st.lists(st.sampled_from(KEYS), unique=True), COEFF)
def test_solution_satisfies_every_equation(eqs, extra, free_value):
    system = build(LinearSystem, eqs)
    if not system.consistent:
        return
    unknowns = sorted({k for row, _ in eqs for k in row} | set(extra), key=repr)
    values = system.solution(unknowns, free_value)
    assert all(isinstance(v, Fraction) for v in values.values())
    for u in system.free_unknowns(unknowns):
        assert values[u] == free_value
    for row, rhs in eqs:
        assert sum(v * values.get(k, 0) for k, v in row.items()) == rhs


@settings(max_examples=100, deadline=None)
@given(equations(), st.lists(st.sampled_from(KEYS), unique=True))
def test_same_pivots_witness_and_solution_as_gauss_jordan(eqs, unknowns):
    system = build(LinearSystem, eqs)
    reference = build(GaussJordan, eqs)
    assert list(system.rows) == list(reference.rows)
    # Each pivot is the least key by repr of its row as it was reduced,
    # and each stored row is primitive with a positive pivot entry.
    for pivot, (row, p, b) in system.rows.items():
        assert all(repr(pivot) < repr(k) for k in row)
        assert p > 0 and gcd(p, b, *row.values()) == 1
    assert system.inconsistency == reference.inconsistency
    if system.inconsistency is not None:
        tag, residual = system.inconsistency
        assert isinstance(residual, Fraction) and residual != 0
        # The first inconsistent equation is where the augmented rank
        # first exceeds the coefficient rank.
        first = next(
            i
            for i in range(1, len(eqs) + 1)
            if matrix(eqs[:i], True).rank() > matrix(eqs[:i]).rank()
        )
        assert tag == first - 1
    else:
        # Same values in the same key order: free unknowns, then pivots.
        assert list(system.solution(unknowns).items()) == list(
            reference.solution(unknowns).items()
        )


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(equations(), graded_equations()),
    st.lists(st.sampled_from(KEYS), unique=True),
    st.booleans(),
)
def test_the_kernel_reduces_as_the_scan_over_every_stored_row(eqs, unknowns, last_seen):
    """Both pivot rules: the least id by repr, and `rank_of_vectors`' rule,
    the id seen last, which the kernel reads as the largest number."""
    seen = {}
    reference = ScanEveryRow(partial(max, key=seen.__getitem__)) if last_seen else ScanEveryRow()
    system = LinearSystem(pivot=max) if last_seen else LinearSystem()
    for i, (row, rhs) in enumerate(eqs):
        for k in row:
            seen.setdefault(k, len(seen))
        reference.add(row, rhs, tag=i)
        system.add(row, rhs, tag=i)
    assert list(system.rows.items()) == list(reference.rows.items())
    assert len(system.rows) == system.rank == len(reference.rows)
    assert system.inconsistency == reference.inconsistency
    if system.consistent:
        unknowns += [k for row, _ in eqs for k in row]
        assert list(system.solution(unknowns).items()) == list(
            reference.solution(unknowns).items()
        )


@pytest.mark.parametrize("pivot, pivots", [(None, ["a", "b"]), (max, ["b", "c"])])
def test_a_system_is_freed_by_reference_counting(pivot, pivots):
    system = LinearSystem(pivot)
    system.add({"a": 1, "b": 2}, 1)
    system.add({"b": Fraction(1, 2), "c": 1}, 0)
    assert list(system.rows) == pivots and len(system.rows) == 2
    assert all(u in system.rows for u in pivots) and "z" not in system.rows
    ref = weakref.ref(system)
    gc.disable()
    try:
        del system
        assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 20), st.randoms(use_true_random=False))
def test_last_seen_pivots_give_the_repr_rank_on_graded_columns(q, s, rnd):
    vectors = []
    for vec in graded_differential_columns(q, s).values():
        items = list(vec.items())
        rnd.shuffle(items)
        vectors.append(dict(items))
    rnd.shuffle(vectors)
    system = LinearSystem()
    for vec in vectors:
        system.add(vec, 0)
    assert rank_of_vectors(vectors) == system.rank


def test_rank_of_vectors_pivots_on_the_key_seen_last(monkeypatch):
    systems = []

    class Recorded(LinearSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    monkeypatch.setattr(linalg, "LinearSystem", Recorded)
    assert rank_of_vectors([{"a": 1, "b": 1}, {"b": 1, "c": 2}, {"a": 1, "c": -2}]) == 2
    assert list(systems[0].rows) == ["b", "c"]


def test_default_pivot_is_least_key_by_repr():
    # repr order: "'x'" < "(1, 2)" < "-3" < "10" < "2"
    system = LinearSystem()
    system.add({2: 1, 10: 1, -3: 1, (1, 2): 1, "x": 1}, 0)
    system.add({2: 1, 10: 2, -3: 3, (1, 2): 5}, 0)
    system.add({2: 1, 10: 1}, 1)
    assert list(system.rows) == ["x", (1, 2), 10]
    assert all(repr(p) < repr(k) for p, (row, _, _) in system.rows.items() for k in row)


def test_rational_and_dependent_rows():
    system = LinearSystem()
    system.add({"b": Fraction(1, 2), "a": Fraction(-1, 3)}, Fraction(1, 6), tag="e1")
    system.add({"a": 2, "b": -3}, -1, tag="e2")  # -6 * e1
    system.add({"a": 0, "c": Fraction(3, 4)}, 3, tag="e3")
    system.add({"a": 1, "b": Fraction(-3, 2)}, 0, tag="e4")  # -3 * e1, rhs off by 1/2
    system.add({"c": 1}, 0, tag="e5")  # contradicts e3; not the first
    assert list(system.rows) == ["a", "c"]
    assert system.inconsistency == ("e4", Fraction(1, 2))
    assert not system.consistent
    assert system.free_unknowns(["a", "b", "c"]) == ["b"]


def test_solution_key_order_and_outside_columns():
    system = LinearSystem()
    system.add({"y": 1, "z": 2}, 3)
    system.add({"x": 2, "z": -1}, 1)
    # "z" is neither a pivot nor among the unknowns, so it counts as 0.
    assert list(system.solution(["x", "w"]).items()) == [
        ("w", 0),
        ("y", 3),
        ("x", Fraction(1, 2)),
    ]
    assert system.solution(["x", "z"], free_value=1) == {
        "z": 1,
        "y": 1,
        "x": 1,
    }


def test_compare_classes_certificates_pinned():
    """Witnesses of one infeasible and one under-determined solve."""
    l1, omega = named_cocycle("w1-order1")
    _, beta3 = named_cocycle("beta3")
    res = compare_classes(l1, omega, beta3, Ansatz("parity-constant", -2), range(1, 25))
    classes = [{"class": c, "forms": ["n", "m"]}
               for c in ("even-even", "even-odd", "odd-even", "odd-odd")]
    pinned = [("even-even", ["n", "2"]), ("even-even", ["2", "m"]), ("even-odd", ["n", "1"]),
              ("even-odd", ["2", "m"]), ("odd-even", ["1", "m"]), ("odd-even", ["n", "2"]),
              ("odd-odd", ["n", "1"]), ("odd-odd", ["1", "m"])]
    assert res.to_json() == {
        "status": "infeasible",
        "certificate": {
            # the class equations are inconsistent, so the pair (1, 2) is not
            # evaluated and its equation not read
            "equations": 15,
            "proved": classes + [{"class": c, "forms": f} for c, f in pinned],
            "evaluated": [],
            "contradiction_at": {
                "class": "odd-even", "forms": ["1", "m"], "index": "-1 + m", "monomial": "1"
            },
            "residual": "1/2",
        },
    }
    res = compare_classes(
        l1, omega, beta3, Ansatz("per-index", -2), range(3, 11)
    )
    assert res.solved and res.scalar == 0
    assert res.certificate == {
        "equations": 6,
        "free_unknowns": ["('idx', 8)", "('idx', 9)", "('scale',)"],
        "window": [3, 10],
    }
    assert res.phi.to_json()["rule"]["entries"] == {
        "4": {"components": [[2, "-2/5"]]},
        "5": {"components": [[3, "4/5"]]},
        "6": {"components": [[4, "-2"]]},
        "7": {"components": [[5, "2/5"]]},
        "10": {"components": [[8, "1/5"]]},
    }
