"""Almost-graded Lie algebra engine with exact structure constants.

A family is a bracket rule in a fixed normal form: for each parity class
of an index pair (n, m) a finite list of degree shifts, each carrying a
coefficient affine in n and m with polynomial parameter dependence.
Antisymmetry holds by construction (rules are stated for n < m, or for
first-argument-odd in the mixed class, and extended by sign), so Jacobi
is the only identity that needs certification.

An identity is proved per parity pattern of the indices, or once per
slot pattern when no rule reads the parity (`_parity_blind`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, lru_cache, partial

from .errors import (
    LiefamError,
    MissingParameter,
    OutOfDomainIndex,
    ParameterMismatch,
    WindowTooSmall,
)
from .linalg import LinearSystem
from .poly import KeyedSum, ParamPoly, accumulate, pack, rat, rat_str, ring_map, split

#: Basis key of the central element (degree 0 by convention).
CENTRAL = "c"

PARITY_CLASSES = ("odd-odd", "even-even", "odd-even")


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

    def coefficient(self, n, m, sign: int = 1) -> ParamPoly:
        """sign * (a*n + b*m + d), sign +-1, built in one pass by `ParamPoly.combination`.

        n and m are integers, or index forms over a ring that ends with
        INDEX_VARS, whose entries scale the terms of a and b moved by the
        monomials n, m, k and 1: no product of polynomials is formed.
        """
        if type(n) is tuple:
            items = _form_items(sign, (self.a, n), (self.b, m), (self.d, (0, 0, 0, 1)))
        else:
            items = ((self.a, 0, sign * n), (self.b, 0, sign * m), (self.d, 0, sign))
        return ParamPoly.combination(self.d.params, items)

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


# ---------------------------------------------------------------------------
# family specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Closed-form bracket rule for an almost-graded Lie algebra family.

    `origin`, set by `pullback`, is (root, params, images): the rule is
    that of pullback(root, params, images), for a root with no origin.
    `record`, set with it, is (key, rows): the root's key (`_root_key`)
    and a copy of the (params, rule, exceptional) the pullback built, both
    taken when it was made, so no later in-place change of the root or of
    this family moves them.  Both are left out of comparison and JSON;
    `replace` keeps them and `map_coefficients` clears them, so
    `verify_jacobi` compares the rows with the record before it transports
    the root's PASS.

    `central` is the one closed-form central rule, a `CentralDelta`.  A
    residue pairing is not a rule of the family: it is a trivial
    2-cochain (`central.residue_cochain`), and its extension satisfies
    the Jacobi identity exactly when `cohomology.is_cocycle` passes it.
    """

    name: str
    params: tuple[str, ...]
    rule: dict  # parity class -> tuple[RuleTerm, ...]
    exceptional: dict = field(default_factory=dict)  # first index -> terms
    lower_bound: int | None = None
    central: CentralDelta | None = None
    origin: tuple | None = field(default=None, compare=False, repr=False)
    record: tuple | None = field(default=None, compare=False, repr=False)

    def in_domain(self, n: int) -> bool:
        return self.lower_bound is None or n >= self.lower_bound

    def rule_signature(self):
        """Canonical content of the rule, for structural comparison.

        Coefficients are read as packed monomials, which sort as their
        exponent tuples do, so two signatures are comparable within one ring.
        """
        return (
            self.params,
            tuple((cls, _row_signature(self.rule.get(cls, ()))) for cls in PARITY_CLASSES),
            tuple(sorted((n, _row_signature(ts)) for n, ts in self.exceptional.items())),
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


def _row_signature(terms) -> tuple:
    """The nonzero terms of a row as sorted tuples of shift and packed coefficients."""
    return tuple(
        sorted(
            (t.shift, *(tuple(sorted(p.terms.items())) for p in (t.a, t.b, t.d)))
            for t in terms
            if not t.is_zero
        )
    )


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
        if payload["kind"] != "delta":
            raise LiefamError(f"unknown central rule kind {payload['kind']!r}; known: delta")
        central = CentralDelta(tuple(rat(c) for c in payload["poly"]))
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


def _pair_row(family: FamilySpec, n, m, odd_n: bool, odd_m: bool, n_first: bool):
    """(sign, terms, args): the rule row that states [v_n, v_m], and how.

    The row of an exceptional index wins, the smaller one's when both
    are; otherwise the parity class decides.  A row is stated for one
    orientation of the pair, `args`: its exceptional index first, odd
    index first in the odd-even class, the smaller index first
    (`n_first`) within a parity class, and `sign` is -1 when that
    orientation swaps n and m.  So [v_m, v_n] = -[v_n, v_m] for every
    rule.
    """
    exceptional = family.exceptional
    if n in exceptional and (m not in exceptional or n < m):
        return 1, exceptional[n], (n, m)
    if m in exceptional:
        return -1, exceptional[m], (m, n)
    if odd_n != odd_m:
        terms = family.rule.get("odd-even", ())
        return (1, terms, (n, m)) if odd_n else (-1, terms, (m, n))
    terms = family.rule.get("odd-odd" if odd_n else "even-even", ())
    return (1, terms, (n, m)) if n_first else (-1, terms, (m, n))


def evaluate_pair_rule(family: FamilySpec, n: int, m: int):
    """Vector components of [v_n, v_m] as a list of (index, coefficient).

    Components whose affine coefficient evaluates to zero are dropped; a
    nonzero component below the basis lower bound raises OutOfDomainIndex
    (silent truncation would break Jacobi).
    """
    if n == m:
        return []
    sign, terms, args = _pair_row(family, n, m, n % 2 == 1, m % 2 == 1, n < m)
    items = []
    for t in terms:
        coeff = t.coefficient(*args, sign)
        if coeff.is_zero:
            continue
        idx = n + m + t.shift
        if not family.in_domain(idx):
            raise OutOfDomainIndex(
                f"[v_{n}, v_{m}] in {family.name} hits v_{idx} below the "
                f"basis bound {family.lower_bound} with coefficient {coeff}"
            )
        items.append((idx, coeff))
    return list(accumulate(items).items())


# ---------------------------------------------------------------------------
# index-symbolic evaluation
# ---------------------------------------------------------------------------

#: Index variables of the symbolic proofs.  A basis key is then an index
#: form (cn, cm, ck, c), standing for cn*n + cm*m + ck*k + c.
INDEX_VARS = ("n", "m", "k")
INDEX_FORMS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
#: The packed monomials n, m, k and 1 of a ring that ends with INDEX_VARS,
#: one per entry of an index form.
_FORM_KEYS = (*(pack(form[:3]) for form in INDEX_FORMS), 0)


def _form_items(sign, *pairs):
    """The `ParamPoly.combination` items of the sum of sign * poly * form
    over (poly, form) pairs."""
    return [(poly, key, sign * c) for poly, form in pairs for key, c in zip(_FORM_KEYS, form) if c]


def _form_parity(form, parity) -> bool:
    """Whether the form is odd when (n, m, k) has the parities `parity` (1 = odd);
    the parity of k is read only when the form holds k."""
    odd = form[0] * parity[0] + form[1] * parity[1] + form[3]
    return (odd + form[2] * parity[2] if form[2] else odd) % 2 == 1


def _form_poly(ring, form) -> ParamPoly:
    """The form as a polynomial over `ring`, whose last variables are n, m, k."""
    return ParamPoly(ring, {key: c for key, c in zip(_FORM_KEYS, form) if c})


def _form_sum(x, y, shift=0):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3] + shift)


def _constant(form) -> bool:
    """Whether the form names one integer: a pinned slot, or a key of it alone."""
    return not (form[0] or form[1] or form[2])


def symbolic_pair_rule(family: FamilySpec, x, y, parity):
    """[v_x, v_y] term by term, for index forms x and y of one parity pattern.

    `family` must be over a ring that ends with INDEX_VARS (see
    `index_family`), and `parity` gives the parities of (n, m, k), 1 for
    odd.  The row and its orientation are chosen as `evaluate_pair_rule`
    chooses them, with two differences that make the result the integer
    one only at generic keys: a form is never an exceptional index unless
    it is a constant, which is read as its integer, and a same-parity row
    is taken in the orientation (x, y), which agrees with the integer rule
    on both sides of x = y exactly when the row is antisymmetric (a = -b,
    d = 0).  Returns one (x + y + shift, coefficient in Q[params, n, m,
    k]) pair per term of the row, zero coefficients included, so that a
    caller sees every index the row can reach.  Each coefficient is built
    in one pass from the forms (`RuleTerm.coefficient`).
    """
    keys = (f[3] if _constant(f) else f for f in (x, y))  # a constant is its integer
    sign, terms, _ = _pair_row(family, *keys, _form_parity(x, parity), _form_parity(y, parity), True)
    first, second = (x, y) if sign > 0 else (y, x)
    return [(_form_sum(x, y, t.shift), t.coefficient(first, second, sign)) for t in terms]


def index_family(family: FamilySpec) -> FamilySpec | None:
    """The family over Q[params, n, m, k], or None when no proof applies.

    Index-symbolic proofs need every same-parity row to be antisymmetric
    as a polynomial (a = -b, d = 0), parameter names apart from the
    index variables and no central delta whose p is not odd: on n + m = 0
    a delta's value is p(m) exactly when p is odd.  The lift (`_extend`)
    has no origin: no report is transported over a ring with n, m or k.
    """
    odd = family.central is None or not any(family.central.poly[0::2])
    if set(INDEX_VARS) & set(family.params) or not odd:
        return None
    if not all(_antisymmetric(family.rule.get(cls, ())) for cls in ("odd-odd", "even-even")):
        return None
    return _extend(family, family.params + INDEX_VARS)


def _antisymmetric(terms) -> bool:
    """Whether a = -b and d = 0 in every term: both orientations agree."""
    return all(t.d.is_zero and (t.a + t.b).is_zero for t in terms)


def _parity_blind(family: FamilySpec) -> bool:
    """Whether the bracket at index forms reads no parity: the class rows are
    one `_antisymmetric` row, and an exceptional row is read at constants."""
    row = family.rule.get(PARITY_CLASSES[0], ())
    return _antisymmetric(row) and all(family.rule.get(cls, ()) == row for cls in PARITY_CLASSES)


class _Boundary:
    """Where the tuples of one stratum stop being generic.

    Each entry (form, forbidden, lower) says that the symbolic evaluation
    is the integer one only where the form's value avoids the set
    `forbidden` and is at least `lower`, a basis bound (None: no bound).
    A form is (cn, cm, ck, c) over the index variables n, m, k.  A
    constant form records no entry: if it violates one, `failed` leaves
    the stratum unproved.
    """

    def __init__(self):
        self.entries = set()
        self.failed = False

    def add(self, form, forbidden=(), lower=None):
        if not _constant(form):
            if forbidden or lower is not None:
                self.entries.add((form, frozenset(forbidden), lower))
        elif form[3] in forbidden or (lower is not None and form[3] < lower):
            self.failed = True

    def key(self, family: FamilySpec, *forms):
        """The forms are basis keys of `family`: one forbidden set, its
        exceptional indices, for them all; a constant takes its exceptional
        row and is checked only against the basis bound."""
        forbidden = frozenset(family.exceptional)
        for form in forms:
            self.add(form, () if _constant(form) else forbidden, family.lower_bound)

    def pair(self, family: FamilySpec, x, y, parity, outer=False):
        """`symbolic_pair_rule` with its keys recorded and zero terms dropped;
        `outer` keeps a central delta's term p(y), its value where x + y is
        the zero form for odd p (`index_family`), and elsewhere records that
        x + y avoids 0."""
        out = []
        if outer and family.central is not None and not family.central.is_zero:
            total = _form_sum(x, y)
            if total == (0, 0, 0, 0):
                value, point = ParamPoly.const(family.params, 0), _form_poly(family.params, y)
                for c in reversed(family.central.poly):
                    value = value * point + c
                out.append((CENTRAL, value))
            else:
                self.add(total, (0,))
        terms = [(key, c) for key, c in symbolic_pair_rule(family, x, y, parity) if not c.is_zero]
        self.key(family, x, y, *(key for key, _ in terms))
        return out + terms


@lru_cache(maxsize=4096)
def _form_text(form) -> str:
    return str(_form_poly(INDEX_VARS, form))


def _tag(forms, parity) -> dict:
    """The name of a stratum: the parity and the index form of each slot."""
    return {
        "class": "-".join("odd" if _form_parity(f, parity) else "even" for f in forms),
        "forms": [_form_text(f) for f in forms],
    }


def _rename(form, perm):
    """The form with the coefficient of variable j moved to variable perm[j]."""
    out = [0, 0, 0, form[3]]
    for j, p in enumerate(perm):
        out[p] = form[j]
    return tuple(out)


@lru_cache(maxsize=4096)
def _canonical(forms, parity):
    """((forms, parity), perm): the representative of a stratum, and the slot
    permutation that takes the stratum to it, renaming variable j to perm[j].
    A blind plan passes parity (0, 0, 0): one representative per slot pattern."""
    best = None
    for perm in itertools.permutations(range(len(forms))):
        moved, par = [None] * len(forms), [0, 0, 0]
        for i, f in enumerate(forms):
            moved[perm[i]], par[perm[i]] = _rename(f, perm), parity[i]
        if best is None or (tuple(moved), tuple(par)) < best[0]:
            best = (tuple(moved), tuple(par)), perm
    return best


def _cut(forms, parity, form, value, point):
    """The stratum of the tuples of (forms, parity) where `form` takes `value`.

    Over Z (`point` None) the form's last variable of coefficient +-1 is
    set to an affine form of the others: a pin, or a hyperplane.  Over
    [lower, oo) each variable of `point` is pinned to its value there.
    Returns (forms, parity), () if that holds no tuple (another parity,
    two slots equal), None if no variable has coefficient +-1.  Slot j is
    free when its form is INDEX_FORMS[j]; an unused variable has parity 0.
    """
    if point is None:
        units = [i for i in range(3) if form[i] in (1, -1)]
        if not units:
            return None
        j, c = units[-1], form[units[-1]]
        expr = tuple(0 if i == j else -c * form[i] for i in range(3))
        subs = [(j, expr + (c * (value - form[3]),))]
    else:
        subs = [(j, (0, 0, 0, x)) for j, x in point.items()]
    forms, parity = list(forms), list(parity)
    for j, expr in subs:
        if _form_parity(expr, parity) != parity[j]:
            return ()
        forms = [tuple(0 if i == j else a + f[j] * b for i, (a, b) in enumerate(zip(f, expr)))
                 for f in forms]
        parity[j] = 0
    if len(set(forms)) < len(forms):
        return ()
    return tuple(forms), tuple(parity)


class _Chain:
    """The ascending sequences `parts`, each above the last, read as one."""

    def __init__(self, *parts):
        self.parts = parts

    def __len__(self):
        return sum(map(len, self.parts))

    def __getitem__(self, i):
        for part in self.parts:
            if i < len(part):
                return part[i]
            i -= len(part)
        raise IndexError(i)


def _union(indices, extra, low):
    """The ascending union of the ascending `indices` and the set `extra`,
    from `low` on (None: no bound); a step-1 range stays a range."""
    extra = {v for v in extra if low is None or v >= low}
    if not (isinstance(indices, range) and indices.step == 1):
        return sorted(extra.union(v for v in indices if low is None or v >= low))
    window = indices if low is None else range(max(indices.start, low), indices.stop)
    return _Chain(
        sorted(v for v in extra if v < window.start),
        window,
        sorted(v for v in extra if v >= max(window.start, window.stop)),
    )


def _combinations(values, r):
    """`itertools.combinations(values, r)`, in its order, without copying the
    sequence `values`, so a walk that stops early reads only its start."""

    def tails(start, r):
        if not r:
            yield ()
            return
        for i in range(start, len(values) - r + 1):
            head = values[i]
            for tail in tails(i + 1, r - 1):
                yield (head, *tail)

    return tails(0, r)


class _Plan:
    """The strata of one identity over its whole index domain; see `nonzero_tuples`.

    `strata` maps each stratum, (forms, parity), to its entries if it is
    proved, False if its residual is not zero, and None if no proof
    applies: a source without index forms, a constant key below the basis
    bound, or an entry that no cut resolves.  `points` are the tuples
    with every slot pinned.
    """

    def __init__(self, indices, arity, prove, value):
        self.indices, self.arity, self.prove, self.value = indices, arity, prove, value
        self.blind = getattr(prove, "blind", False)
        self.proofs, self.strata, self.points, self.evaluated = {}, {}, set(), 0
        self.violations = {}  # _violations(*key) by key, for the strata several cuts reach
        self.reached = []  # the points evaluated, in walk order
        pad = (0,) * (3 - arity)
        classes = [(INDEX_FORMS[:arity], p + pad) for p in itertools.product((0, 1), repeat=arity)]
        lows = [low for c in classes for *_, low in self._status(*c) or () if low is not None]
        self.lower = max(lows, default=None)
        for c in classes:
            self._expand(*c)
        self.failed = [_tag(*k) for k, s in self.strata.items() if s is False]
        self.open = [_tag(*k) for k, s in self.strata.items() if s is None]
        unproved = [forms for (forms, _), s in self.strata.items() if not isinstance(s, tuple)]
        self.extra = {f[3] for forms in unproved for f in forms if _constant(f)}.union(*self.points)

    def _status(self, forms, parity):
        if (forms, parity) not in self.strata:
            (rep, par), perm = _canonical(forms, (0, 0, 0) if self.blind else parity)
            if (rep, par) not in self.proofs:
                boundary = _Boundary()
                proved = self.prove and self.prove(list(rep), par, boundary)
                entries = sorted(boundary.entries, key=lambda e: (e[0], sorted(e[1]), repr(e[2])))
                self.proofs[rep, par] = None if boundary.failed else proved and tuple(entries)
            inverse = sorted(range(len(perm)), key=perm.__getitem__)
            got = self.proofs[rep, par]
            self.strata[forms, parity] = got if not isinstance(got, tuple) else tuple(
                (_rename(form, inverse), f, low) for form, f, low in got
            )
        return self.strata[forms, parity]

    def _violations(self, parity, form, forbidden, lower):
        """(value, point) for each violation of the entry, point None over Z."""
        if self.lower is None:
            return [(e, None) for e in sorted(forbidden)]
        top = max(forbidden) if lower is None else max((*forbidden, lower - 1))
        slack = top - form[3] - self.lower * (form[0] + form[1] + form[2])
        if slack < 0 <= min(form[:3]):  # its least value, at the bound, is above top
            return []
        involved = [j for j in range(3) if form[j]]
        ranges = [
            range(self.lower + (parity[j] - self.lower) % 2, self.lower + slack // form[j] + 1, 2)
            for j in involved
        ]
        if min(form[:3]) < 0 or math.prod(map(len, ranges)) > 20_000:
            return None  # a weight or pin far beyond any window: left to the window
        out = []
        for xs in itertools.product(*ranges):
            v = form[3] + sum(form[j] * x for j, x in zip(involved, xs))
            if v in forbidden or (lower is not None and v < lower):
                out.append((v, dict(zip(involved, xs))))
        return out

    def _expand(self, forms, parity):
        for form, forbidden, lower in self._status(forms, parity) or ():
            key = parity, form, forbidden, lower
            if key not in self.violations:
                self.violations[key] = self._violations(*key)
            found = self.violations[key]
            subs = [_cut(forms, parity, form, *v) for v in found or ()]
            if found is None or None in subs:
                self.strata[forms, parity] = None  # an entry that no cut resolves
                return
            for sub in filter(None, subs):
                if all(map(_constant, sub[0])):
                    self.points.add(tuple(sorted(f[3] for f in sub[0])))
                elif sub not in self.strata:
                    self._expand(*sub)

    def covered(self, tup) -> bool:
        """Whether the tuple is generic in a proved stratum that holds it."""
        forms = INDEX_FORMS[: self.arity]
        parity = tuple(v % 2 for v in tup) + (0,) * (3 - self.arity)
        while True:
            entries = self.strata.get((forms, parity))
            if not isinstance(entries, tuple):
                return False
            at = {j: tup[j] for j in range(self.arity) if forms[j] == INDEX_FORMS[j]}
            for form, forbidden, lower in entries:
                v = form[3] + sum(form[j] * x for j, x in at.items())
                if v in forbidden or (lower is not None and v < lower):
                    point = None if self.lower is None else {j: at[j] for j in at if form[j]}
                    sub = _cut(forms, parity, form, v, point)
                    if not sub:
                        return False
                    forms, parity = sub
                    break
            else:
                return True

    def __iter__(self):
        """(checked, tuple, value) at each nonzero value; see `nonzero_tuples`."""
        self.evaluated, self.reached = 0, []
        if self.failed or self.open:
            values = _union(self.indices, self.extra, self.lower)
            tuples = (tup for tup in _combinations(values, self.arity) if not self.covered(tup))
        else:
            tuples = sorted(self.points)
        for tup in tuples:
            self.evaluated += 1
            if tup in self.points:
                self.reached.append(tup)
            v = self.value(*tup)
            if v is not None and not getattr(v, "is_zero", False):
                yield self.evaluated, tup, v

    def certificate(self) -> dict:
        """The strata proved and the points evaluated, those a walk that
        stopped early did not reach left out; with a stratum left without
        proof, also the window whose tuples were evaluated instead."""
        window = {"window": [self.indices[0], self.indices[-1]]}
        if self.prove is None:
            return window
        proved = [_tag(*k) for k, s in self.strata.items() if isinstance(s, tuple)]
        data = {"proved": proved, "evaluated": [list(p) for p in sorted(self.reached)]}
        return {**data, "open": self.open, **window} if self.open else data


def nonzero_tuples(indices, arity: int, prove, value) -> _Plan:
    """The `arity`-tuples of the index domain where value(*tuple) is not zero.

    Iterating the result yields (checked, tuple, value) at each nonzero
    value, `checked` counting the tuples evaluated so far.  A value is a
    sum with `is_zero`, or a check's witness, None when the check holds.

    `prove(forms, parity, boundary)` says whether the identity holds at
    the index forms `forms` when n, m, k have the parities `parity` (None:
    no proof applies), and records in the `_Boundary` where that stops
    being the integer identity.  The identities alternate in their index
    arguments, and so does their symbolic evaluation (`index_family`,
    `_pair_row`), so a stratum is proved once per representative under
    slot permutations (`_canonical`), and once per slot pattern when
    `prove.blind` says its residual is that of every parity pattern.  A
    stratum is a parity class, or a part of one where slots are affine
    forms of the others.  Each violation of a proved stratum's entries is
    a stratum again (`_cut`): over Z one per forbidden value, a pin or a
    hyperplane; over [lower, oo), for the largest lower bound a class
    records, one per violating point of the entry's variables, finitely
    many as every coefficient is nonnegative there.  Each cut frees one
    variable fewer, so what is left is finitely many tuples with every
    slot pinned.  When every stratum is proved only those are evaluated,
    and the identity holds on the whole domain exactly when they vanish.

    Otherwise the tuples over the window `indices` and the pinned values
    of the failed or unproved strata are walked in `itertools.combinations`
    order, lazily, so a walk that stops at its first witness reads only
    the start of a range window, and each one not generic in a proved
    stratum is evaluated, so a failing tuple has its free slots in the
    window.  `failed` and `open`
    name those strata, and `certificate()` what was proved and evaluated.
    """
    return _Plan(indices, arity, prove, value)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class LieElement(KeyedSum):
    """Finite linear combination of basis vectors v_n and the central c."""

    __slots__ = ()

    @classmethod
    def basis(cls, n, params=(), coeff=1) -> "LieElement":
        return cls.monomial(params, n, coeff)

    def support(self):
        return sorted(
            (k for k in self.components if k != CENTRAL)
        ) + ([CENTRAL] if CENTRAL in self.components else [])

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for key in self.support():
            name = "c" if key == CENTRAL else f"v_{key}"
            parts.append(f"({self.components[key]})*{name}")
        return " + ".join(parts)

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
        return cls.from_items(
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
        v = ParamPoly.const(family.params, family.central.value(n, m))
        if not v.is_zero:
            items.append((CENTRAL, v))
    return LieElement.from_items(family.params, items)


def bracket(family: FamilySpec, x: LieElement, y: LieElement) -> LieElement:
    """Bilinear antisymmetric extension of the family rule."""
    for elem in (x, y):
        if elem.params != family.params:
            raise ParameterMismatch(
                f"element parameters {elem.params} differ from family "
                f"parameters {family.params}"
            )
    return LieElement.from_items(
        family.params,
        (
            (key, coeff * (nc * mc))
            for nk, nc in x.components.items()
            if nk != CENTRAL
            for mk, mc in y.components.items()
            if mk != CENTRAL
            for key, coeff in basis_bracket(family, nk, mk).components.items()
        ),
    )


def jacobiator(family: FamilySpec, n: int, m: int, k: int) -> LieElement:
    """[[v_n,v_m],v_k] + [[v_m,v_k],v_n] + [[v_k,v_n],v_m]."""
    total = LieElement.zero(family.params)
    for a, b, c in ((n, m, k), (m, k, n), (k, n, m)):
        total = total + bracket(
            family, basis_bracket(family, a, b), LieElement.basis(c, family.params)
        )
    return total


def _jacobi_terms(inner, outer, n, m, k):
    """The terms of [[v_n, v_m], v_k] + [[v_m, v_k], v_n] + [[v_k, v_n], v_m].

    `inner(x, y)` and `outer(x, y)` give the (key, coefficient) terms of
    [v_x, v_y]; keys are integers or index forms.  The central term of an
    inner bracket is skipped, since the central element brackets to zero.
    """
    for a, b, c in ((n, m, k), (m, k, n), (k, n, m)):
        for key, coeff in inner(a, b):
            if key != CENTRAL:
                for out, value in outer(key, c):
                    yield out, coeff * value


def _bracket_sources(family: FamilySpec):
    """(inner, outer): the bracket of `family` as two sources on one memo.

    A source is one input of a walk, an (at, forms) pair; see `_identity`.
    The index forms lift the family by `index_family` once, the first
    time a pattern is proved, and are None where no proof applies.
    `outer`, for brackets whose central term a walk keeps, also records
    that the forms avoid the support of a nonzero central delta.
    """
    at = cache(lambda x, y: basis_bracket(family, x, y).components.items())
    lift = cache(partial(index_family, family))
    blind = _parity_blind(family)

    def source(outer):
        def forms(parity, boundary):
            lifted = lift()
            return lifted and partial(boundary.pair, lifted, parity=parity, outer=outer)

        forms.blind = blind
        return at, forms

    return source(False), source(True)


def _lift(ring, x) -> ParamPoly:
    """A rational, or an element of a ring that `ring` extends, over `ring`."""
    return x.map_params(ring) if isinstance(x, ParamPoly) else ParamPoly.const(ring, x)


def _affine_forms(algebra: FamilySpec, rule):
    """The index forms of an affine map F(v_x) = (a*x + d) v_{x + weight}.

    `rule` gives `weight`, (a, d) per parity as `even` and `odd`, chosen
    by the parity of the form, and `pins`.  a and d are rationals, or
    elements of Q[algebra.params]: a coboundary ansatz is an affine map
    over Q[unknowns] on the algebra lifted to that ring.  Each argument
    of F is recorded with the pinned indices as forbidden values, and its
    image with the basis bound of `algebra`, except a constant, which
    takes its integer value, its pin included (a bracket of its image
    records the image's domain).
    """
    w = rule.weight
    ring = algebra.params + INDEX_VARS
    lift = partial(_lift, ring)
    even, odd = (tuple(map(lift, pair)) for pair in (rule.even, rule.odd))
    pins = frozenset(rule.pins)  # one set for every walk, however many pins

    def forms(parity, boundary):
        def image(form):
            if _constant(form):
                f = lift(rule.coefficient(form[3]))
            else:
                boundary.add(form, pins)
                boundary.add(_form_sum(form, (0, 0, 0, w)), (), algebra.lower_bound)
                a, d = odd if _form_parity(form, parity) else even
                f = ParamPoly.combination(ring, _form_items(1, (a, form), (d, (0, 0, 0, 1))))
            return [] if f.is_zero else [(_form_sum(form, (0, 0, 0, w)), f)]

        return image

    forms.blind = rule.even == rule.odd
    return forms


def _scaled_source(source, scale):
    """The source times `scale`, on the left: a rational, or an element of
    Q[params] such as the unknown c of c * beta, lifted to Q[params, n, m, k]
    for the forms."""

    def times(terms, scale):
        return terms and (lambda *keys: [(k, scale * c) for k, c in terms(*keys)])

    at, forms = source
    if forms is None:
        return times(at, scale), None
    lifted = _lift(scale.params + INDEX_VARS, scale) if isinstance(scale, ParamPoly) else scale

    def scaled(parity, boundary):
        return times(forms(parity, boundary), lifted)

    scaled.blind = forms.blind
    return times(at, scale), scaled


def _vanishes(residual, keys, parity, boundary) -> bool:
    return not residual


def _identity(walk, sources, params, settle=_vanishes):
    """(value, prove) for the identity that the terms `walk` yields sum to zero.

    A source is one input of the walk, the bracket of a family or the
    values of a cochain, as a pair (at, forms): `at(*keys)` gives its
    (key, coefficient) terms at integer keys, memoized, and `forms(parity,
    boundary)` those at the index forms of one parity pattern, recording
    where they stop being generic, or None if its lift fails; `forms` is
    None for a source with no symbolic form.  `walk(*terms, *keys)` takes
    one terms callable per source.  `value(*tuple)` sums the integer walk
    into a LieElement over Q[params]; `prove`, the `prove` of
    `nonzero_tuples`, walks the index forms (None if some source has none).

    `prove` sums the walk into its residual, a dict from output index
    form (or CENTRAL) to coefficient over Q[params, n, m, k], and returns
    settle(residual, keys, parity, boundary): by default whether the
    residual is zero.  The coboundary solver's `settle` reads equations
    off the residual instead (`class_coefficients`).  A source whose lift
    fails makes `prove` return None, and `settle` is not called.

    `prove.blind`: every source's forms are `blind`, so the residual is
    the same at every parity pattern; a coboundary ansatz never is.
    """
    ats = [at for at, _ in sources]

    def value(*keys):
        return LieElement.from_items(params, walk(*ats, *keys))

    if any(forms is None for _, forms in sources):
        return value, None

    def prove(keys, parity, boundary) -> bool:
        terms = [forms(parity, boundary) for _, forms in sources]
        if None in terms:
            return None
        return settle(accumulate(walk(*terms, *keys)), keys, parity, boundary)

    prove.blind = all(getattr(forms, "blind", False) for _, forms in sources)
    return value, prove


def rule_prover(family: FamilySpec, shifts, bracket):
    """The `prove` of `nonzero_tuples` for an independent bracket of pairs,
    or None when the family does not lift (`index_family`).

    `bracket(x, y, odd_x, odd_y)` takes the indices as polynomials over
    Q[params, n, m, k] with their parities and returns the components of
    [v_x, v_y] by shift j, at index x + y + j, or None if it has none.  A
    parity class is proved when they are the rule's (`symbolic_pair_rule`).
    Every candidate x + y + j, j in `shifts`, is recorded as a basis key
    besides the rule's keys, so a pair whose candidates leave the basis
    domain or reach an exceptional index is evaluated.
    """
    lifted = index_family(family)
    if lifted is None:
        return None

    def prove(forms, parity, boundary) -> bool:
        x, y = forms
        expected = accumulate(boundary.pair(lifted, x, y, parity))
        boundary.key(lifted, *(_form_sum(x, y, j) for j in shifts))
        polys = (_form_poly(lifted.params, f) for f in forms)
        got = bracket(*polys, *(_form_parity(f, parity) for f in forms))
        return got is not None and {_form_sum(x, y, j): c for j, c in got.items()} == expected

    return prove


def class_coefficients(residual, keys, parity):
    """(tag, coefficient over Q[params]) per output form and monomial in n, m, k.

    `residual`, `keys` and `parity` are those `_identity` hands to
    `settle`; the identity holds at every generic tuple of the stratum
    exactly when every coefficient vanishes.  The tag names the parity
    class, the forms (a pinned slot as its integer), the output form and
    the monomial; the central index is "c".
    """
    stratum = _tag(keys, parity)
    for form, coeff in residual.items():
        base = len(coeff.params) - len(INDEX_VARS)
        by_monomial = {}
        for e, c in coeff.terms.items():
            head, monomial = split(e, len(INDEX_VARS))
            by_monomial.setdefault(monomial, {})[head] = c
        for monomial in sorted(by_monomial):
            tag = {
                **stratum,
                "index": "c" if form == CENTRAL else _form_text(form),
                "monomial": str(ParamPoly(INDEX_VARS, {monomial: 1})),
            }
            yield tag, ParamPoly(coeff.params[:base], by_monomial[monomial])


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
        """The report as JSON; its witness and certificate are copies (`_json_copy`),
        so no edit of one reaches the other."""
        data = {"check": self.name, "status": self.status, "checked": self.checked}
        if self.witness is not None:
            data["witness"] = _json_copy(self.witness)
        if self.certificate is not None:
            data["certificate"] = _json_copy(self.certificate)
        return data


def certify(name, indices, arity: int, prove, value, key) -> CheckReport:
    """The report that value(*tuple) is zero on every `arity`-tuple of the domain.

    FAIL carries the first tuple of `nonzero_tuples` under `key`, with
    its value (a dict as it is), else the first stratum whose residual
    is not zero under "stratum"; PASS carries the walk's certificate.
    `checked` counts the tuples evaluated.
    """
    walk = nonzero_tuples(indices, arity, prove, value)
    for checked, tup, v in walk:
        witness = {key: list(tup), "value": v if isinstance(v, dict) else v.to_json()}
        return CheckReport(name, "FAIL", checked, witness=witness)
    if walk.failed:
        return CheckReport(name, "FAIL", walk.evaluated, witness={"stratum": walk.failed[0]})
    return CheckReport(name, "PASS", walk.evaluated, certificate=walk.certificate())


def domain_indices(family: FamilySpec, window):
    """The window's indices in the family's basis domain, ascending; never empty.

    A step-1 range stays a range clipped to the basis bound: a proof reads its ends only.
    """
    if isinstance(window, range) and window.step == 1:
        low = window.start if family.lower_bound is None else max(window.start, family.lower_bound)
        indices = range(low, window.stop)
    else:
        indices = sorted(n for n in window if family.in_domain(n))
    if not indices:
        raise WindowTooSmall(
            f"no index of the window lies in the domain of {family.name}"
        )
    return indices


def domain_pairs(family: FamilySpec, window) -> list:
    """`domain_indices`, refusing a window whose domain part gives no pair."""
    indices = domain_indices(family, window)
    if len(indices) < 2:
        raise WindowTooSmall(
            f"no pair of indices of the window lies in the domain of {family.name}"
        )
    return indices


def verify_jacobi(family: FamilySpec, window) -> CheckReport:
    """Certify the Jacobi identity on every index triple of the family's domain.

    The Jacobiator is the walk `_jacobi_terms` over the family's bracket,
    evaluated and proved by `_identity`.  Rule coefficients are affine in
    the pair indices, so on each parity class of (n, m, k), and on each
    stratum where a slot is pinned to an exceptional row or set by a
    hyperplane (a central delta's n + m + k = -shift, a bracket reaching
    an exceptional row), it is one polynomial over Q[params]
    (`nonzero_tuples`).  A PASS holds on the whole domain, [lower_bound,
    oo) or Z; a polynomial that is not zero is a FAIL, witnessed by the
    first failing triple over the window and the stratum's pinned values.
    A family with no proof (`index_family`) is evaluated on the window's
    triples, and its PASS holds there.  When the class rows are one
    antisymmetric row (`_parity_blind`), no term reads the parity, so the
    Jacobiator is one polynomial for every parity pattern, proved once.

    A fibre is not walked if it has no exceptional row, basis bound or
    central rule, its rows are still those its `record` copied when
    `pullback` built it, and its root, a family with no origin and none
    of these, was proved a PASS on its whole domain in this process.
    That costs one comparison of rows and one lookup.  A zero Jacobiator
    over Q[params, n, m, k] stays zero under every ring map, on the same
    strata, so the fibre gets the root's report under its own name, as a
    direct proof would give it.

    A family with no origin, a root, is always walked.  Its PASS on the
    whole domain goes into the record of proved roots, plain or not,
    keyed by its rows and central rule (`_proof_key`): fibres read the
    plain roots there, and `jacobi_report` reads every one.  Reports are
    stored and handed out as copies (`_copied`), so no caller's edit
    reaches another's report.
    """
    indices = domain_indices(family, window)
    if (proved := _root_pass(family)) is not None:
        return _copied(proved, f"jacobi:{family.name}")
    value, prove = _identity(_jacobi_terms, _bracket_sources(family), family.params)
    report = certify(f"jacobi:{family.name}", indices, 3, prove, value, "triple")
    if family.origin is None and report.passed and "window" not in report.certificate:
        if len(_ROOT_PASSES) >= 32:
            _ROOT_PASSES.pop(next(iter(_ROOT_PASSES)))
        _ROOT_PASSES[_proof_key(family)] = _copied(report, report.name)
    return report


#: _proof_key() of a root proved on its whole domain (see `verify_jacobi`) -> its report.
_ROOT_PASSES: dict = {}


def _proof_key(family: FamilySpec) -> tuple:
    """What decides the family's Jacobi report, but for its name: the rows
    (`rule_signature()`, with the basis bound) and the central rule."""
    return family.rule_signature(), family.central


def jacobi_report(family: FamilySpec, window) -> CheckReport:
    """The family's Jacobi report: that of a proved root with the family's
    rows and central rule (`_proof_key`) if the record of `verify_jacobi`
    holds one, else `verify_jacobi`'s.

    Both are the report a walk of the family gives, under its name, so
    what ran earlier in the process moves only the cost.
    """
    domain_indices(family, window)
    proved = _ROOT_PASSES.get(_proof_key(family))
    if proved is not None:
        return _copied(proved, f"jacobi:{family.name}")
    return verify_jacobi(family, window)


def _plain(family: FamilySpec) -> bool:
    return not family.exceptional and family.lower_bound is None and family.central is None


def _rows(family: FamilySpec) -> tuple:
    return family.params, family.rule, family.exceptional


def _root_pass(family: FamilySpec) -> CheckReport | None:
    """The report of the proved root of a fibre, if any; see `verify_jacobi`."""
    if family.record is None or not _plain(family) or set(INDEX_VARS) & set(family.params):
        return None
    key, rows = family.record
    proved = _ROOT_PASSES.get(key)
    return proved if proved is not None and _rows(family) == rows else None


def _json_copy(data):
    """A structural copy of JSON-like data: dicts and lists copied, scalars shared."""
    if isinstance(data, dict):
        return {k: _json_copy(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_json_copy(v) for v in data]
    return data


def _copied(report: CheckReport, name: str) -> CheckReport:
    """The report under `name`, its certificate copied (`_json_copy`)."""
    return replace(report, name=name, certificate=_json_copy(report.certificate))


# ---------------------------------------------------------------------------
# specialization, grading, rescaling helpers
# ---------------------------------------------------------------------------


def map_coefficients(family: FamilySpec, fn, params, name: str) -> FamilySpec:
    """The family with each rule-term coefficient p replaced by fn(key, shift, p).

    `key` is the parity class of a rule row or the first index of an
    exceptional row, and `params` is the ring the images live in.  Terms
    whose three coefficients all map to zero are dropped; the basis bound
    and the central rule are kept, and the `origin` and `record` are not:
    the images are no pullback of the family's root (`pullback` sets its
    own).
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
        origin=None,
        record=None,
    )


def _extend(family: FamilySpec, ring) -> FamilySpec:
    """The family over Q[ring], which extends Q[family.params], with no
    origin or record: no report is transported to or from the lift."""
    image = ring_map(family.params, ring)
    return map_coefficients(family, lambda key, shift, p: image(p), ring, family.name)


def _root_key(family: FamilySpec):
    """The key of the root a pullback of `family` comes from: its own
    `_proof_key` if it is a root with no exceptional row, basis bound or
    central rule, its record's key while its rows are still those
    recorded, else None.  A root with any of them keys no pullback: its
    PASS is not one on Z with no central term, which a plain fibre needs."""
    if family.origin is None:
        return _proof_key(family) if _plain(family) else None
    if family.record is not None and _rows(family) == family.record[1]:
        return family.record[0]
    return None


def pullback(family: FamilySpec, params, images, name: str) -> FamilySpec:
    """The family with every coefficient mapped by one `ring_map`.

    A parameter named in `images` goes to its image in Q[params], any
    other to its namesake; terms that map to zero are dropped.  The `origin`
    is the family's root, or the family, and the composite map (None if a
    root parameter unused on the way has no image).  The `record` is the
    root's key (`_root_key`) and a copy of the rows built, or None with no
    origin or key: see `verify_jacobi`.
    """
    root, _, maps = family.origin or (family, family.params, None)
    params = tuple(params)
    image = ring_map(family.params, params, images)
    try:
        up = ring_map(root.params, family.params, maps)
        origin = root, params, {r: image(up(ParamPoly.var(root.params, r))) for r in root.params}
    except ParameterMismatch:
        origin = None
    mapped = map_coefficients(family, lambda key, shift, p: image(p), params, name)
    key = None if origin is None else _root_key(family)
    record = None if key is None else (key, (params, dict(mapped.rule), dict(mapped.exceptional)))
    return replace(mapped, origin=origin, record=record)


def specialize(
    family: FamilySpec, assignment: dict, partial: bool = False
) -> FamilySpec:
    """The pullback of the family to a rational parameter point.

    Evaluation commutes with the bracket.  With `partial=False` the
    assignment must cover every parameter; with `partial=True` the
    parameters it leaves out stay, in their order.
    """
    assignment = {k: rat(v) for k, v in assignment.items()}
    unknown = [k for k in assignment if k not in family.params]
    if unknown:
        raise MissingParameter(f"{unknown} are not parameters of {family.name}")
    missing = [p for p in family.params if p not in assignment]
    if missing and not partial:
        raise MissingParameter(f"no value for parameters {missing}")
    label = ",".join(f"{k}={rat_str(v)}" for k, v in sorted(assignment.items()))
    return pullback(family, missing, assignment, f"{family.name}|{label}")


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
        shifts.add(0)  # supported on n + m = 0, central degree 0
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
    agrees for N and N + 4.  The brackets of the window N are among those
    of N + 4, so one elimination ranks both: each pair of [1, N + 4] is
    evaluated once, the window N's brackets are added first and the rank
    is read, then the rest are added and it is read again.
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
    wide = n_max + 4
    system, later = LinearSystem(pivot=max), []
    for n in range(1, wide + 1):
        for m in range(n + 1, wide + 1):
            comps = evaluate_pair_rule(family, n, m)
            if not comps:
                continue
            top = max(idx for idx, _ in comps)
            if top > wide - depth:
                continue
            vector = {idx: c.terms[0] for idx, c in comps}  # ints where integral
            if m <= n_max and top <= n_max - depth:
                system.add(vector, 0)
            else:
                later.append(vector)
    first = n_max - depth - system.rank
    for vector in later:
        system.add(vector, 0)
    return first, first == wide - depth - system.rank
