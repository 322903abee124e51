"""Cochains, differentials, coboundary solving, graded dimension tables.

Cochains carry trivial or adjoint coefficients.  The arity-1 -> arity-2
adjoint differential uses the deformation-theory coboundary convention
    (d1 F)(x, y) = F([x, y]) - [F(x), y] - [x, F(y)],
all other arities use the standard alternating-sum convention; every
composite of two consecutive differentials vanishes either way.

`_d1_terms` is the one place the d1 convention lives, `_d_terms` the
one place the alternating sum does, for every arity and both modes: a
trivial cochain enters the walk with its scalar values on the central
key, which no index acts on, so the same sum is its differential.
`_coboundary_terms`, which extends `_d1_terms`, is the one statement of
d1 F + c * beta = omega.  `algebra._identity` evaluates and proves each
walk over the algebra's bracket and the cochains (`_source`), for
`differential`, `is_cocycle` and `coboundary_mismatches`.  The coboundary
ansatz is an adjoint 1-cochain over Q[unknowns], so `_build_system` reads
its equations off `coboundary_mismatches` over that ring, a closed shape's
off the residual of each parity class and stratum of the whole domain, and
the solved map is the same cochain at the solution.  A proved check is a
statement about the whole algebra: its window only bounds the search for
a failing tuple, and holds the unknowns of a per-index ansatz and the
tuples of cochains with no index forms, whose statements hold on it.

A deformation cocycle is not walked at all when it need not be: the
t^k coefficient of a family's Jacobiator is -d of its t^k coefficient
over the fibre t = 0, once the lower orders vanish, so `is_cocycle` takes
the family's Jacobi PASS (`algebra.jacobi_report`) for a cochain that
`deformation_differential` built and that still has the rows it recorded.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, partial

from .algebra import (
    CENTRAL,
    CheckReport,
    FamilySpec,
    LieElement,
    PARITY_CLASSES,
    _affine_forms,
    _bracket_sources,
    _extend,
    _identity,
    _parity_blind,
    _proof_key,
    _row_signature,
    _scaled_source,
    _vanishes,
    bracket,  # noqa: F401  perfbench's tracer tests check this imported binding
    certify,
    class_coefficients,
    domain_indices,
    evaluate_pair_rule,
    jacobi_report,
    map_coefficients,
    nonzero_tuples,
)
from .errors import (
    ArityUnsupported,
    LiefamError,
    MissingParameter,
    OutOfDomainIndex,
    ParameterMismatch,
    WindowTooLarge,
    WindowTooSmall,
)
from .linalg import LinearSystem, rank_of_vectors
from .poly import ParamPoly, rat, rat_str

# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------


def _sort_sign(indices):
    """(sign, sorted tuple); sign 0 when an index repeats."""
    indices = list(indices)
    sign = 1
    for i in range(1, len(indices)):
        j = i
        while j > 0 and indices[j - 1] > indices[j]:
            indices[j - 1], indices[j] = indices[j], indices[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(indices)):
        if indices[i - 1] == indices[i]:
            return 0, tuple(indices)
    return sign, tuple(indices)


@dataclass(frozen=True)
class AffineMapRule:
    """Closed-form linear map v_n -> (a*n + d) v_{n+weight}, per parity.

    `pins` overrides the affine coefficient at exceptional low indices
    (the toolkit pins 0 automatically when n+weight falls below the basis
    domain).  (a, d) are rationals, or ring elements for the coboundary
    ansatz.
    """

    weight: int
    even: tuple  # (a, d)
    odd: tuple
    pins: dict = field(default_factory=dict)

    def coefficient(self, n: int):
        if n in self.pins:
            return self.pins[n]
        a, d = self.odd if n % 2 else self.even
        return a * n + d

    def to_json(self):
        return {
            "kind": "affine-map",
            "weight": self.weight,
            "even": [rat_str(self.even[0]), rat_str(self.even[1])],
            "odd": [rat_str(self.odd[0]), rat_str(self.odd[1])],
            "pins": {str(n): rat_str(v) for n, v in sorted(self.pins.items())},
        }


@dataclass(frozen=True)
class MapTableRule:
    """Explicit arity-1 values: index -> LieElement (adjoint) or ParamPoly (trivial)."""

    entries: dict

    def to_json(self):
        out = {str(n): v.to_json() for n, v in sorted(self.entries.items())}
        return {"kind": "map-table", "entries": out}


@dataclass(frozen=True)
class PairRule:
    """Closed-form alternating 2-cochain in the family normal form."""

    spec: FamilySpec  # rule/exceptional reused; central ignored, in values and forms

    def to_json(self):
        return {"kind": "pair-rule", **self.spec.to_json()}


@dataclass(frozen=True)
class DerivedRule:
    """Cochain values fn(*indices), and a `prove` of their vanishing or None."""

    fn: object
    note: str = ""
    prove: object = None


@dataclass(frozen=True)
class Cochain:
    """Alternating multilinear map given by a finite or closed-form table.

    `source`, set by `deformation_differential`, records the family the
    cochain is a coefficient of; like `FamilySpec.record` it is left out
    of comparison and JSON, and `replace` keeps it.
    """

    arity: int
    mode: str  # "trivial" | "adjoint"
    weight: int | None
    params: tuple[str, ...]
    rule: object
    label: str = ""
    source: tuple | None = field(default=None, compare=False, repr=False)

    def _zero(self):
        if self.mode == "adjoint":
            return LieElement.zero(self.params)
        return ParamPoly.const(self.params, 0)

    def value(self, *indices):
        if len(indices) != self.arity:
            raise ArityUnsupported(
                f"cochain has arity {self.arity}, got {len(indices)} arguments"
            )
        sign, sorted_idx = _sort_sign(indices)
        if sign == 0:
            return self._zero()
        raw = self._value_sorted(sorted_idx)
        if sign < 0:
            raw = -raw if isinstance(raw, ParamPoly) else raw.scale(-1)
        return raw

    def _value_sorted(self, idx):
        rule = self.rule
        if isinstance(rule, AffineMapRule):
            (n,) = idx
            return LieElement.basis(n + rule.weight, self.params, rule.coefficient(n))
        if isinstance(rule, MapTableRule):
            (n,) = idx
            return rule.entries.get(n, self._zero())
        if isinstance(rule, PairRule):
            n, m = idx
            return LieElement.from_items(
                self.params, evaluate_pair_rule(rule.spec, n, m)
            )
        if isinstance(rule, DerivedRule):
            return rule.fn(*idx)
        raise ArityUnsupported(f"no evaluation for rule {type(rule).__name__}")

    def to_json(self):
        data = {
            "arity": self.arity,
            "mode": self.mode,
            "weight": self.weight,
            "params": list(self.params),
        }
        if self.label:
            data["label"] = self.label
        if hasattr(self.rule, "to_json"):
            data["rule"] = self.rule.to_json()
        return data


def cochain_from_json(data: dict) -> Cochain:
    """Rebuild a serialized cochain (pair-rule, affine-map, or map-table).

    A rule kind that does not fit the arity and mode raises LiefamError.
    """
    from .algebra import family_from_json

    params = tuple(data["params"])
    arity, mode = int(data["arity"]), data["mode"]
    if mode not in ("trivial", "adjoint"):
        raise ArityUnsupported(f"unknown coefficient mode {mode!r}")
    payload = data["rule"]
    kind = payload["kind"]
    shapes = {"pair-rule": (2, "adjoint"), "affine-map": (1, "adjoint")}
    shapes["map-table"] = (1, mode)
    if kind in shapes and shapes[kind] != (arity, mode):
        raise LiefamError(
            f"a {kind} cochain has (arity, mode) {shapes[kind]}, not {(arity, mode)}"
        )
    if kind == "pair-rule":
        rule = PairRule(family_from_json(payload))
    elif kind == "affine-map":
        rule = AffineMapRule(
            weight=int(payload["weight"]),
            even=(rat(payload["even"][0]), rat(payload["even"][1])),
            odd=(rat(payload["odd"][0]), rat(payload["odd"][1])),
            pins={int(k): rat(v) for k, v in payload.get("pins", {}).items()},
        )
    elif kind == "map-table":
        entries = {}
        for k, v in payload["entries"].items():
            if isinstance(v, dict) != (mode == "adjoint"):  # element or scalar
                raise LiefamError(f"map-table value {v!r} does not fit {mode} mode")
            entries[int(k)] = (
                LieElement.from_json(params, v)
                if isinstance(v, dict)
                else ParamPoly.from_json(params, v)
            )
        rule = MapTableRule(entries)
    else:
        raise ArityUnsupported(f"cannot deserialize cochain rule kind {kind!r}")
    return Cochain(
        arity=arity,
        mode=mode,
        weight=data.get("weight"),
        params=params,
        rule=rule,
        label=data.get("label", ""),
    )


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------


def _source(algebra: FamilySpec, c: Cochain):
    """The cochain c as a source of `algebra._identity`.

    Its values are computed once per index tuple.  An adjoint value gives
    its components, a trivial one its scalar on the CENTRAL key, which no
    index acts on.  A pair-rule cochain over the algebra's ring has the
    index forms of its family's bracket without the central rule, which
    its values ignore too; an affine map has those of
    `algebra._affine_forms`, whether its coefficients are rationals or the
    unknowns of an ansatz; any other cochain has none.
    """
    if c.mode == "trivial":
        return cache(lambda *idx: [(CENTRAL, c.value(*idx))]), None
    forms, rule = None, c.rule
    if c.params == algebra.params:
        if isinstance(rule, PairRule) and rule.spec.params == c.params:
            forms = _bracket_sources(replace(rule.spec, central=None))[0][1]
        elif isinstance(rule, AffineMapRule):
            forms = _affine_forms(algebra, rule)
    return cache(lambda *idx: c.value(*idx).components.items()), forms


def _d1_terms(inner, outer, image, n, m):
    """The terms of (d1 F)(v_n, v_m) = F([v_n, v_m]) - [F(v_n), v_m] - [v_n, F(v_m)].

    This is the one statement of the deformation-theory convention of d1.
    `inner(x, y)` and `outer(x, y)` give the (key, coefficient) terms of
    [v_x, v_y], as in `algebra._jacobi_terms`, and `image(x)` those of
    F(v_x); keys are integers or index forms, and image coefficients may
    be linear forms, so they are multiplied on the left.  Central keys
    are skipped before F or a bracket acts on them.
    """
    for key, coeff in inner(n, m):
        if key != CENTRAL:
            for out, f in image(key):
                yield out, f * coeff
    for x, y, left in ((n, m, True), (m, n, False)):
        for key, f in image(x):
            if key != CENTRAL:
                for out, coeff in outer(key, y) if left else outer(y, key):
                    yield out, f * -coeff


def _coboundary_terms(inner, outer, image, minus_omega, c_beta, n, m):
    """The terms of (d1 F + c * beta - omega)(v_n, v_m).

    This is the one statement of the coboundary identity
    d1 F + c * beta = omega: the walk `_d1_terms(inner, outer, image, n,
    m)`, then the terms of omega scaled by -1 and those of beta scaled by
    c (`algebra._scaled_source`; `_NO_BETA` when there is no beta).
    """
    yield from _d1_terms(inner, outer, image, n, m)
    yield from minus_omega(n, m)
    yield from c_beta(n, m)


def _d_terms(inner, outer, value, *xs):
    """The terms of (d c)(v_x0, ..., v_xq) for a q-cochain c, as an alternating sum.

    First each index x_i acts on c of the others, with sign (-1)^i; then
    c is applied to each bracket [v_xi, v_xj], i < j, and the remaining
    indices, with sign (-1)^(i+j).  `value(*keys)` gives the (key,
    coefficient) terms of c, and `inner`, `outer` those of brackets as in
    `algebra._jacobi_terms`.  Central keys are skipped before an index or
    c acts on them, so a trivial cochain, whose values are on CENTRAL
    (`_source`), has only the bracket terms: -c([v_x, v_y]) at arity 1.
    """
    for i, x in enumerate(xs):
        for key, coeff in value(*xs[:i], *xs[i + 1 :]):
            if key != CENTRAL:
                for out, acted in outer(x, key):
                    term = coeff * acted
                    yield out, term if i % 2 == 0 else -term
    for i, j in itertools.combinations(range(len(xs)), 2):
        rest = [xs[t] for t in range(len(xs)) if t not in (i, j)]
        for key, coeff in inner(xs[i], xs[j]):
            if key != CENTRAL:
                for out, paired in value(key, *rest):
                    term = coeff * paired
                    yield out, term if (i + j) % 2 == 0 else -term


def differential(algebra: FamilySpec, c: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential of a cochain over the algebra.

    One walk of `algebra._identity` over the algebra's bracket and c
    (`_source`): `_d1_terms` for an adjoint 1-cochain, `_d_terms` for
    every other arity and mode, with its `prove` kept in the derived rule.
    A trivial d(c) reads its scalar values back off the CENTRAL key.
    """
    if c.params != algebra.params:
        raise ParameterMismatch(
            f"cochain over {c.params} vs algebra over {algebra.params}"
        )
    walk = _d1_terms if (c.mode, c.arity) == ("adjoint", 1) else _d_terms
    sources = (*_bracket_sources(algebra), _source(algebra, c))
    value, prove = _identity(walk, sources, c.params)
    read = value if c.mode == "adjoint" else lambda *xs: value(*xs).coefficient(CENTRAL)
    return Cochain(c.arity + 1, c.mode, None, c.params, DerivedRule(read, f"d{c.arity}", prove))


def is_cocycle(algebra: FamilySpec, c: Cochain, window) -> CheckReport:
    """Certify d(c) = 0 on every index tuple of the algebra's domain.

    A coefficient mu_k of a family mu_t = mu_0 + t^k mu_k + ... whose
    Jacobi identity holds for every t is a cocycle of mu_0: the t^k
    coefficient of the Jacobiator of mu_t is -d(mu_k), once the t^j
    coefficients vanish for 0 < j < k.  So when c is such a coefficient
    (`deformation_differential`) and `_family_pass` finds the family's
    Jacobi PASS on its whole domain for the algebra mu_0, that PASS is
    c's: the report names the family, the parameter and the order, carries
    the family's Jacobi certificate and counts its evaluated triples.

    Every other cochain is walked.  `differential` gives d(c) with the
    proof of `algebra._identity`.  For an adjoint `PairRule` 2-cochain or
    affine map over the algebra's ring, d(c) is proved once per parity
    class and per stratum where a slot is pinned to an exceptional row or
    a pin, or set by a hyperplane (`algebra.nonzero_tuples`), so a PASS
    holds on the whole domain; a residual that is not zero is a FAIL,
    witnessed by the first failing tuple over the window and the
    stratum's pinned values.  Any other cochain is evaluated on the
    window's tuples, and its PASS holds there.  When neither the
    algebra's bracket nor c reads the parity pattern (a blind bracket and
    pair rule, an affine map with `even == odd`), d(c) is the same
    polynomial at every pattern and is proved once per slot pattern
    (`algebra._identity`); the certificate still lists every stratum.
    """
    indices = domain_indices(algebra, window)
    name = f"cocycle:{c.label or 'cochain'}"
    if (report := _family_pass(algebra, c, window, name)) is not None:
        return report
    d = differential(algebra, c)
    return certify(name, indices, d.arity, d.rule.prove, d.value, "tuple")


def _family_pass(algebra: FamilySpec, c: Cochain, window, name) -> CheckReport | None:
    """c's PASS from the Jacobi PASS of the family it is a coefficient of, or None.

    It applies when c is an adjoint 2-cochain whose rows are still those
    its `source` recorded, the coefficients of t^j, 0 < j < k, vanish in
    the recorded family, the algebra's bracket is the family's at t = 0
    (`_bracket_key`), neither has a central rule, and the family's
    Jacobi report (`algebra.jacobi_report`) is a PASS on its whole
    domain.  None sends c to the walk: a report that fails, holds on the
    window only or raises, rows edited in place, another algebra, or a
    cochain with no source, such as `cochain_from_json`'s.
    """
    if c.source is None or (c.arity, c.mode) != (2, "adjoint") or not isinstance(c.rule, PairRule):
        return None
    family, param, order, rows, fibre = c.source
    spec = c.rule.spec
    if _pair_rows(spec) != rows or c.params != spec.params:
        return None
    if family.central is not None or _bracket_key(algebra) != fibre:  # the key holds the central rule
        return None
    terms = (t for table in (family.rule, family.exceptional) for ts in table.values() for t in ts)
    if any(not p.coefficient_of(param, j).is_zero
           for t in terms for p in (t.a, t.b, t.d) for j in range(1, order)):
        return None
    try:
        jacobi = jacobi_report(family, window)
    except LiefamError:
        return None
    if not jacobi.passed or "window" in jacobi.certificate:
        return None
    certificate = {
        "coefficient_of": {"family": family.name, "parameter": param, "order": order},
        "jacobi": jacobi.certificate,
    }
    return CheckReport(name, "PASS", jacobi.checked, certificate=certificate)


# ---------------------------------------------------------------------------
# deformation differentials
# ---------------------------------------------------------------------------


def deformation_differential(family: FamilySpec, param: str, order: int) -> Cochain:
    """Coefficient of param**order in the family rule, as an adjoint 2-cochain.

    Its `source` records where it came from, for `is_cocycle`: (family,
    param, order, rows, fibre), with the family's rows copied, the rows
    the cochain was built with (`_pair_rows`), and the `_bracket_key` of
    the fibre param = 0, the algebra the cochain deforms.
    """
    if param not in family.params:
        raise MissingParameter(f"{param!r} is not a parameter of {family.name}")
    reduced = tuple(p for p in family.params if p != param)

    def coefficient(power, name):
        return map_coefficients(
            family, lambda key, shift, p: p.coefficient_of(param, power), reduced, name
        )

    spec = replace(coefficient(order, f"{family.name}:d[{param}^{order}]"), central=None)
    shifts = set()
    for ts in list(spec.rule.values()) + list(spec.exceptional.values()):
        shifts.update(t.shift for t in ts)
    weight = shifts.pop() if len(shifts) == 1 else None
    copied = replace(family, rule=dict(family.rule), exceptional=dict(family.exceptional))
    fibre = _bracket_key(coefficient(0, f"{family.name}|{param}=0"))
    source = (copied, param, order, _pair_rows(spec), fibre)
    return Cochain(2, "adjoint", weight, reduced, PairRule(spec), label=spec.name, source=source)


def _pair_rows(spec: FamilySpec) -> tuple:
    """A copy of the rows a pair-rule cochain's values read."""
    return spec.params, dict(spec.rule), dict(spec.exceptional), spec.lower_bound, spec.central


def _bracket_key(family: FamilySpec) -> tuple:
    """`algebra._proof_key` of the family's bracket: exceptional rows that only
    restate the class row are dropped.  A row restates it when the class rows
    are one antisymmetric row (`_parity_blind`) and it has that row's nonzero
    terms, so [v_e, v_m] is the class row's at every m; formal-2 and formal-3
    at t = 0 keep such a row, (m - n) at index 1 and 2."""
    if family.exceptional and _parity_blind(family):
        row = _row_signature(family.rule.get(PARITY_CLASSES[0], ()))
        kept = {e: ts for e, ts in family.exceptional.items() if _row_signature(ts) != row}
        family = replace(family, exceptional=kept)
    return _proof_key(family)


# ---------------------------------------------------------------------------
# coboundary ansatz solving
# ---------------------------------------------------------------------------

ANSATZ_SHAPES = ("parity-constant", "affine", "per-index")
#: The most window indices a per-index ansatz takes, one unknown each; a
#: solve that stays consistent evaluates every pair of the window, half a
#: million at this size, and an infeasible one stops at its contradiction.
PER_INDEX_MAX = 1000
#: The most indices an ansatz pins to zero because F maps them below the
#: basis bound, one per unit of -weight.  Each is a stratum of a closed
#: shape's proof: beta3's affine solve on 1..20 took 0.45 s at weight -64,
#: 4.2 s at -200 and 18 s at -400 (2 shared cores, Python 3.11.7).
ZERO_PINS_MAX = 64
#: The largest smax a Goncharova table takes.  Its cost grows steeply with
#: s: at qmax 5 a table took 0.2 s at smax 35, 6-9 s at 48 and 51 s at 56
#: (2 shared cores, Python 3.11.7).
GONCHAROVA_SMAX = 48
#: The largest q of a graded dimension, and of a table's qmax.
GONCHAROVA_QMAX = 5


@dataclass(frozen=True)
class Ansatz:
    """Shape of the unknown linear map F in d1 F (+ c * beta) = omega.

    parity-constant: one unknown per parity; affine: (a*n + d) per parity;
    per-index: one unknown per index of the solve window, at most
    PER_INDEX_MAX indices, and F is not modeled outside the window and
    its pins.  `pins` forces stated coefficients; indices whose image
    would leave the basis domain are pinned to zero automatically.
    """

    shape: str
    weight: int
    pins: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.shape not in ANSATZ_SHAPES:
            raise ValueError(f"unknown ansatz shape {self.shape!r}")


@dataclass
class SolveResult:
    status: str  # "solved" | "infeasible"
    phi: Cochain | None
    scalar: Fraction | None
    certificate: dict

    @property
    def solved(self) -> bool:
        return self.status == "solved"

    def to_json(self):
        data = {"status": self.status, "certificate": self.certificate}
        if self.phi is not None:
            data["phi"] = self.phi.to_json()
        if self.scalar is not None:
            data["scalar"] = rat_str(self.scalar)
        return data


def _ansatz_cochain(algebra, ansatz: Ansatz, indices, scaled: bool) -> Cochain:
    """The ansatz F as an adjoint 1-cochain over Q[unknowns].

    Each unknown is a ring parameter named by its id: ('even', 'a') and
    ('even', 'd') per parity for the closed shapes, ('idx', i) per
    unpinned window index for per-index, and ('scale',), the c of
    c * beta, when `scaled`.  The pins are the ansatz pins and a zero
    pin at each index F maps below the basis bound; a pin at an index
    outside the basis domain, or a nonzero pin that F maps below it,
    raises OutOfDomainIndex.  A per-index window of more than PER_INDEX_MAX
    indices, or more than ZERO_PINS_MAX zero pins, raises WindowTooLarge.
    """
    w, lb = ansatz.weight, algebra.lower_bound
    if ansatz.shape == "per-index" and len(indices) > PER_INDEX_MAX:
        raise WindowTooLarge(
            f"a per-index ansatz takes at most {PER_INDEX_MAX} window indices, "
            f"one unknown each; the window has {len(indices)} in the domain of {algebra.name}"
        )
    pins = {i: Fraction(v) for i, v in ansatz.pins.items()}
    for i, v in pins.items():
        if not algebra.in_domain(i):
            raise OutOfDomainIndex(
                f"pin F(v_{i}) = {v}: v_{i} is outside the basis domain of "
                f"{algebra.name}, which starts at v_{lb}"
            )
        if v and lb is not None and i + w < lb:
            raise OutOfDomainIndex(f"pin F(v_{i}) = {v} maps outside the basis domain")
    if lb is not None and -w > ZERO_PINS_MAX:
        raise WindowTooLarge(
            f"an ansatz takes at most {ZERO_PINS_MAX} zero pins, one per index F maps "
            f"below the basis bound; weight {w} maps {-w} indices of {algebra.name} below v_{lb}"
        )
    pins.update(dict.fromkeys(range(lb, lb - w) if lb is not None else (), Fraction(0)))
    if ansatz.shape == "per-index":
        unknowns = [("idx", i) for i in indices if i not in pins]
    else:
        names = "ad" if ansatz.shape == "affine" else "d"
        unknowns = [(parity, u) for parity in ("even", "odd") for u in names]
    ring = tuple(unknowns) + ((("scale",),) if scaled else ())
    var = partial(ParamPoly.var, ring)
    if ansatz.shape == "per-index":
        coeffs = {**{i: var(("idx", i)) for _, i in unknowns}, **pins}
        zero = LieElement.zero(ring)  # shared by the zero pins, however many
        rule = MapTableRule({
            i: zero if c == 0 else LieElement.basis(i + w, ring, c)
            for i, c in coeffs.items()
        })
    else:
        zero = ParamPoly.const(ring, 0)
        even, odd = (
            (var((parity, "a")) if "a" in names else zero, var((parity, "d")))
            for parity in ("even", "odd")
        )
        rule = AffineMapRule(w, even, odd, pins)
    return Cochain(1, "adjoint", w, ring, rule)


def _covers(algebra, ansatz: Cochain):
    """(n, m) -> whether the ansatz has an entry at every index of [v_n, v_m], or None.

    None for an affine map, which is defined everywhere.  A per-index
    ansatz has its entries where it models F: on the window, at its pins
    and where F maps below the basis bound.
    """
    if not isinstance(ansatz.rule, MapTableRule):
        return None
    entries = ansatz.rule.entries
    return lambda n, m: all(i in entries for i, _ in evaluate_pair_rule(algebra, n, m))


def _over(c: Cochain | None, ring) -> Cochain | None:
    """c over Q[ring]: a pair rule lifted whole (`_extend`), which keeps its
    index forms, any other cochain re-embedded value by value, with no
    symbolic form."""
    if c is None:
        return None
    if isinstance(c.rule, PairRule):
        spec = c.rule.spec
        rule = PairRule(_extend(spec, ring))
    else:
        rule = DerivedRule(lambda *idx: c.value(*idx).map_params(ring))
    return Cochain(c.arity, c.mode, c.weight, ring, rule)


def _add_equation(system: LinearSystem, linear: ParamPoly, tag) -> None:
    """Add linear = 0 to the system, `linear` a linear form over Q[unknowns]."""
    coeffs, const = linear.linear_form()
    system.add(coeffs, -const, tag=tag)


def _build_system(algebra, omega, beta, ansatz_map, indices, covered):
    """(system, walk): the exact linear system for d1 F (+ c * beta) = omega.

    F is `ansatz_map`, the `_ansatz_cochain` over Q[unknowns], and c the
    unknown ('scale',); the algebra, omega and beta (`_over`) are lifted
    to that ring.  `coboundary_mismatches` walks d1 F + c * beta - omega
    per stratum of the algebra's domain over Q[unknowns, n, m, k]; once a
    stratum is accepted (every source has index forms and no constant of
    the walk is forbidden), each output form and monomial of its residual
    gives one equation (`class_coefficients`), which a global solution
    satisfies as it satisfies the identity at infinitely many generic
    pairs.  Each pair no proof covers that `covered` accepts is evaluated,
    and each output index of a nonzero difference gives one equation, in
    `LieElement.support` order (central last): pairs pinned at both
    indices, and the window pairs of an unaccepted stratum, every one when
    the ansatz is per-index or omega or beta has no index forms.

    No pair is pulled from the walk once the system is inconsistent: its
    first inconsistent equation is its witness, and no later equation can
    make it consistent again.  So an infeasible system counts the equations
    read up to the pair that holds its contradiction, and reads no pair
    when a class equation holds it; `walk.certificate()` names only the
    points the walk reached.
    """
    ring = ansatz_map.params
    scale = None if beta is None else ParamPoly.var(ring, ("scale",))
    lifted = _extend(algebra, ring)
    system = LinearSystem()

    def settle(residual, keys, parity, boundary) -> bool:
        if boundary.failed:
            return None
        for tag, linear in class_coefficients(residual, keys, parity):
            _add_equation(system, linear, tag)
        return True

    walk = coboundary_mismatches(
        lifted, ansatz_map, _over(omega, ring), _over(beta, ring), scale, indices,
        covered, settle=settle,
    )
    pairs = iter(walk)
    while system.consistent and (item := next(pairs, None)):
        _, (n, m), difference = item
        for idx in difference.support():
            _add_equation(system, difference.components[idx], {"pair": [n, m], "index": idx})
    return system, walk


def _at_solution(ansatz_map: Cochain, values: dict) -> Cochain:
    """The ansatz cochain at the solution: each unknown u goes to values[u]."""
    rule = ansatz_map.rule
    if isinstance(rule, MapTableRule):
        entries = ((i, v.map_params((), values)) for i, v in rule.entries.items())
        rule = MapTableRule({i: v for i, v in entries if not v.is_zero})
    else:
        even, odd = (
            tuple(x.map_params((), values).constant_value() for x in pair)
            for pair in (rule.even, rule.odd)
        )
        rule = replace(rule, even=even, odd=odd)
    return replace(ansatz_map, params=(), rule=rule, label="solved-map")


#: The beta of d1 F = omega: a source with no terms.
_NO_BETA = (lambda n, m: (), lambda parity, boundary: lambda x, y: ())


def _coboundary_identity(algebra, phi, omega, beta, scalar, settle=_vanishes):
    """(value, prove) of `algebra._identity` for d1 F + scalar * beta = omega.

    The walk is `_coboundary_terms` over the algebra's bracket, F = phi,
    omega scaled by -1 and beta by `scalar` (`_NO_BETA` for beta None);
    `settle` is that of `_identity`.
    """
    minus_omega = _scaled_source(_source(algebra, omega), -1)
    c_beta = _NO_BETA if beta is None else _scaled_source(_source(algebra, beta), scalar)
    sources = (*_bracket_sources(algebra), _source(algebra, phi), minus_omega, c_beta)
    return _identity(_coboundary_terms, sources, algebra.params, settle)


def coboundary_mismatches(
    algebra, phi, omega, beta, scalar, indices, covered=None, settle=_vanishes
):
    """The walk of (checked, (n, m), d1 F - omega + scalar * beta) where it is not zero.

    The walk is `algebra.nonzero_tuples` over the pairs n < m, with
    `indices` its window; a pair that `covered` rejects counts as zero,
    and beta None drops its term.  A value is `_coboundary_identity`'s,
    and so is `settle`.  For an affine map F against adjoint pair-rule
    cochains over the algebra's ring, the difference is proved per
    stratum of the whole domain; any other map is evaluated pair by pair
    on the window.
    """
    value, prove = _coboundary_identity(algebra, phi, omega, beta, scalar, settle)
    zero = LieElement.zero(algebra.params)

    def difference(n, m):
        if covered is not None and not covered(n, m):
            return zero
        return value(n, m)

    return nonzero_tuples(indices, 2, prove, difference)


def _solve(algebra, omega, beta, ansatz, window) -> SolveResult:
    if algebra.params:
        raise MissingParameter("coboundary solving needs a parameter-free algebra")
    for c in filter(None, (omega, beta)):
        if (c.arity, c.mode) != (2, "adjoint"):
            raise ArityUnsupported(
                "coboundary solving needs an adjoint 2-cochain; the cocycle is a "
                f"{c.arity}-cochain with {c.mode} coefficients"
            )
    indices = domain_indices(algebra, window)
    ansatz_map = _ansatz_cochain(algebra, ansatz, indices, beta is not None)
    covered = _covers(algebra, ansatz_map)
    if covered and not any(itertools.starmap(covered, itertools.combinations(indices, 2))):
        raise WindowTooSmall(
            "the window gives no equation: no pair of its indices has F modeled "
            "at both and at every index of their bracket"
        )
    system, walk = _build_system(algebra, omega, beta, ansatz_map, indices, covered)
    certificate = {"equations": system.equations, **walk.certificate()}
    if not system.consistent:
        tag, residual = system.inconsistency
        certificate.update(contradiction_at=tag, residual=rat_str(residual))
        return SolveResult("infeasible", None, None, certificate)
    unknowns = ansatz_map.params
    values = system.solution(unknowns)
    scalar = values.get(("scale",)) if beta is not None else None
    certificate["free_unknowns"] = [repr(u) for u in system.free_unknowns(unknowns)]
    return SolveResult("solved", _at_solution(ansatz_map, values), scalar, certificate)


def solve_coboundary(
    algebra: FamilySpec, omega: Cochain, ansatz: Ansatz, window
) -> SolveResult:
    """Solve d1 F = omega within the ansatz shape, or certify infeasibility.

    `_build_system` gives the equations.  For a closed shape they are read
    off the residual of each parity class of (n, m) and each stratum of
    the algebra's domain, plus those of the pairs with both indices
    pinned, whatever the window.  An inconsistent system is a global
    non-coboundary certificate for the ansatz shape, and a solution
    satisfies every equation, so it is a global one; the certificate
    lists the strata proved and the pinned pairs evaluated, and counts the
    equations read.  A per-index ansatz reads the equations of the window
    pairs it covers (a window with none raises WindowTooSmall), and its
    certificate names the window.  A solution holds on that window.  An
    inconsistent per-index system is a global certificate too: any map of
    the shape on the whole basis, with the same pins, would satisfy the
    window's equations, since each involves F only where the ansatz models
    it.

    The solve stops at the first contradiction (`_build_system`): an
    infeasible certificate counts the equations read up to it, and its
    contradiction, residual, strata and window are those of reading every
    pair.
    """
    return _solve(algebra, omega, None, ansatz, window)


def compare_classes(
    algebra: FamilySpec,
    omega: Cochain,
    beta: Cochain,
    ansatz: Ansatz,
    window,
) -> SolveResult:
    """Find (F, c) with omega - d1 F = c * beta, or certify infeasibility.

    The system is that of `solve_coboundary`, with the unknown c; beta,
    like omega, gives a closed shape's class residuals when it is a pair
    rule, and leaves every window pair to be evaluated when it is not.
    """
    return _solve(algebra, omega, beta, ansatz, window)


# ---------------------------------------------------------------------------
# graded cohomology of the index >= 1 subalgebra (trivial coefficients)
# ---------------------------------------------------------------------------


def graded_tuples(q: int, s: int):
    """Strictly increasing q-tuples of indices >= 1 with sum s."""
    if q <= 0:
        return [()] if (q, s) == (0, 0) else []
    out = []

    def rec(prefix, start, remaining, slots):
        if slots == 1:
            if remaining >= start:
                out.append(prefix + (remaining,))
            return
        # The largest v that leaves room for slots - 1 larger indices.
        for v in range(start, (remaining - slots * (slots - 1) // 2) // slots + 1):
            rec(prefix + (v,), v + 1, remaining - v, slots - 1)

    rec((), 1, s, q)
    return out


def graded_differential_columns(q: int, s: int):
    """Image vectors of the basis cochains of C^q_(s) under the differential.

    Returns a dict column-tuple -> sparse row dict over C^(q+1)_(s)
    tuples, using the standard alternating-sum convention for trivial
    coefficients and the bracket [l_a, l_b] = (b - a) l_{a+b}.
    """
    cols = {tup: {} for tup in graded_tuples(q, s)}
    positions = list(itertools.combinations(range(q + 1), 2))
    for row in graded_tuples(q + 1, s):
        for i, j in positions:
            a, b = row[i], row[j]
            rest = row[:i] + row[i + 1 : j] + row[j + 1 :]
            merged = a + b
            p = bisect_left(rest, merged)
            if p < len(rest) and rest[p] == merged:
                continue
            # No other merge of `row` gives this column, so each entry is
            # written once.
            cols[rest[:p] + (merged,) + rest[p:]][row] = b - a if (i + j + p) % 2 == 0 else a - b
    return cols


def _graded_rank(q: int, s: int) -> int:
    """The rank of the differential C^q_(s) -> C^(q+1)_(s)."""
    return rank_of_vectors(v for v in graded_differential_columns(q, s).values() if v)


def goncharova_dim(q: int, s: int, rank=_graded_rank) -> int:
    """dim H^q_(s) of the index >= 1 subalgebra with trivial coefficients.

    `rank(q, s)` gives the rank of the differential leaving C^q_(s).
    """
    if q < 0 or q > GONCHAROVA_QMAX:
        raise ArityUnsupported(f"graded dimensions implemented for q <= {GONCHAROVA_QMAX}")
    rank_prev = rank(q - 1, s) if q >= 1 else 0
    return len(graded_tuples(q, s)) - rank(q, s) - rank_prev


def goncharova_table(q_max: int, s_max: int) -> dict:
    """Table of graded cohomology dimensions for q <= q_max, 1 <= s <= s_max.

    The rank of d_q enters dim H^q and dim H^(q+1), so each is computed
    once per call; nothing is kept between calls.  A q_max or s_max below
    1 would give an empty table and raises WindowTooSmall; an s_max above
    GONCHAROVA_SMAX raises WindowTooLarge, and a q_max above
    GONCHAROVA_QMAX raises ArityUnsupported, before any rank is computed.
    """
    if q_max < 1 or s_max < 1:
        raise WindowTooSmall(
            f"the table needs qmax >= 1 and smax >= 1, got qmax {q_max} and smax {s_max}"
        )
    if s_max > GONCHAROVA_SMAX:
        raise WindowTooLarge(f"the table takes smax <= {GONCHAROVA_SMAX}, got smax {s_max}")
    if q_max > GONCHAROVA_QMAX:
        raise ArityUnsupported(f"graded dimensions implemented for q <= {GONCHAROVA_QMAX}")
    rank = cache(_graded_rank)
    return {
        (q, s): goncharova_dim(q, s, rank)
        for q in range(1, q_max + 1)
        for s in range(1, s_max + 1)
    }


def expected_goncharova(q: int, s: int) -> int:
    """Closed form: dimension 1 exactly at s = (3q^2 +- q)/2."""
    return 1 if 2 * s in (3 * q * q + q, 3 * q * q - q) else 0
