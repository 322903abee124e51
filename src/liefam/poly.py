"""Sparse multivariate polynomials over exact rationals, and sums keyed over them.

`ParamPoly` is the coefficient ring of every structure constant in the
toolkit.  A polynomial is a finite sum of monomials in a fixed, ordered
tuple of named parameters.  A monomial is stored packed, as one `int`
with a `FIELD_BITS`-bit field per parameter, parameter 0 in the highest
field, so that the ints sort as their exponent tuples do.  The top bit of
every field is a guard: an exponent is at most `GUARD` - 1, so the product
of two monomials is the sum of their ints with no carry between fields,
and a product that reaches the guard raises `ExponentOutOfRange`.  A
stored coefficient is a Python `int` when it is integral and a
`fractions.Fraction` only when its denominator is greater than 1, so
integral structure constants never build a Fraction; zero coefficients
are never stored.  `ParamPoly.combination` builds every sum of moved and
scaled terms in one pass: a product, a rule coefficient at integers or
index forms, and each image of a `ring_map`, which works out the image of
each monomial once per map.

`KeyedSum` is a finite sum of keyed terms with `ParamPoly` coefficients,
with `accumulate` its one zero-dropping summation: `algebra.LieElement`
keys basis vectors, `geometry.LaurentPoly` powers of the coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import ExponentOutOfRange, MissingParameter, ParameterMismatch

Scalar = (int, Fraction)

#: Bits of one exponent field of a packed monomial.
FIELD_BITS = 16
#: The first exponent a monomial cannot hold: the top bit of a field.
GUARD = 1 << (FIELD_BITS - 1)
_FIELD = (1 << FIELD_BITS) - 1


@cache
def _guards(arity: int) -> int:
    """The guard bit of every field of an `arity`-parameter monomial."""
    return sum(GUARD << (FIELD_BITS * j) for j in range(arity))


def pack(exps) -> int:
    """The packed monomial of an exponent tuple, each exponent in [0, GUARD).

    Leading zero exponents leave the key unchanged, so a monomial in the
    last variables of a ring packs as its tail of exponents alone.
    """
    key = 0
    for e in exps:
        key = (key << FIELD_BITS) | e
    return key


def unpack(key: int, arity: int) -> tuple:
    """The exponent tuple of a packed monomial in `arity` parameters."""
    return tuple(
        (key >> (FIELD_BITS * j)) & _FIELD for j in range(arity - 1, -1, -1)
    )


def split(key: int, tail: int) -> tuple[int, int]:
    """A packed monomial as the packed monomials of its leading parameters
    and of its last `tail` parameters."""
    return key >> (FIELD_BITS * tail), key & ((1 << (FIELD_BITS * tail)) - 1)


def rat(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or "p/q" string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _coeff(value):
    """An exact rational in stored form: an int when integral, else a Fraction."""
    if type(value) is not int:
        value = rat(value)
        if value.denominator == 1:
            return value.numerator
    return value


def rat_str(value: Fraction) -> str:
    """Format a Fraction as "p" or "p/q"."""
    if type(value) is int:
        return str(value)
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _add_into(terms: dict, exps, coeff) -> None:
    """terms[exps] += coeff in stored form, dropping a zero sum."""
    s = terms.get(exps, 0) + coeff
    if not s:
        terms.pop(exps, None)
    elif type(s) is int or s.denominator != 1:
        terms[exps] = s
    else:
        terms[exps] = s.numerator


class ParamPoly:
    """Polynomial in named parameters with exact rational coefficients.

    `params` is the fixed, ordered tuple of parameter names; `terms` maps
    packed monomials (`pack`: one `FIELD_BITS`-bit field per parameter,
    parameter 0 highest, every exponent below `GUARD`) to nonzero
    coefficients, each an `int` when integral and a `Fraction` with
    denominator > 1 otherwise.  `sorted_terms()` is the exponent-tuple
    view.  Instances are treated as immutable.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: tuple[str, ...], terms: dict):
        self.params = params
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, params: tuple[str, ...], value) -> "ParamPoly":
        value = _coeff(value)
        if not value:
            return cls(params, {})
        return cls(params, {0: value})

    @classmethod
    def var(cls, params: tuple[str, ...], name: str) -> "ParamPoly":
        if name not in params:
            raise MissingParameter(f"{name!r} not among parameters {params}")
        return cls(params, {1 << FIELD_BITS * (len(params) - 1 - params.index(name)): 1})

    @classmethod
    def from_terms(cls, params: tuple[str, ...], items) -> "ParamPoly":
        """The sum of (exponent tuple, coefficient) items; an exponent must
        lie in [0, GUARD)."""
        terms = {}
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(params):
                raise ParameterMismatch(
                    f"exponent vector {exps} has wrong arity for {params}"
                )
            if not all(0 <= e < GUARD for e in exps):
                raise ExponentOutOfRange(
                    f"exponent vector {exps} leaves the range 0..{GUARD - 1}"
                )
            _add_into(terms, pack(exps), _coeff(coeff))
        return cls(params, terms)

    @classmethod
    def combination(cls, params: tuple[str, ...], items) -> "ParamPoly":
        """The sum of factor * x * poly over (poly, x, factor) items, built in
        one pass: `x` a packed monomial (0 for 1), `factor` a stored-form
        rational.  Each term of `poly` is moved by `x` and scaled, so a rule
        coefficient a*n + b*m + d at integers or index forms, a product and
        a ring map's image are sums of moved terms; a moved exponent that
        reaches GUARD raises ExponentOutOfRange."""
        terms, guards = {}, _guards(len(params))
        for poly, x, factor in items:
            if not factor:
                continue
            for e, c in poly.terms.items():
                e, c = e + x, c * factor
                if x and e & guards:
                    raise ExponentOutOfRange(f"a moved exponent over {params} reaches {GUARD}")
                if e in terms:
                    c += terms[e]
                    if not c:
                        del terms[e]
                        continue
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                terms[e] = c
        return cls(params, terms)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return self.terms.keys() <= {0}

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, always as a Fraction."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        value = next(iter(self.terms.values()))
        return Fraction(value) if type(value) is int else value

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            if other.params != self.params:
                raise ParameterMismatch(
                    f"parameter rings differ: {self.params} vs {other.params}"
                )
            return other
        return ParamPoly.const(self.params, other)

    def __add__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            _add_into(terms, exps, coeff)
        return ParamPoly(self.params, terms)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(self.params, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ParamPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ParamPoly":
        return (-self) + other

    def __mul__(self, other) -> "ParamPoly":
        if type(other) is int:  # no rat() and no Fraction check on this path
            return self._scaled(other)
        if isinstance(other, ParamPoly):
            self._coerce(other)
            if len(other.terms) == 1:
                (key, coeff), = other.terms.items()
                if not key:  # a constant takes the scalar path
                    return self._scaled(coeff)
            return self._times(other)
        if isinstance(other, Scalar):
            return self._scaled(_coeff(other))
        return self._times(self._coerce(other))

    __rmul__ = __mul__

    def _scaled(self, factor) -> "ParamPoly":
        """self * factor for a stored-form scalar `factor`."""
        return ParamPoly.combination(self.params, ((self, 0, factor),))

    def _times(self, other: "ParamPoly") -> "ParamPoly":
        """The product: `other` moved by each term of self, in one combination."""
        return ParamPoly.combination(self.params, ((other, e, c) for e, c in self.terms.items()))

    def __pow__(self, exponent: int) -> "ParamPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers")
        result = None
        base = self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return ParamPoly.const(self.params, 1) if result is None else result

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            if not self.terms:
                return other == 0
            return self.is_constant and next(iter(self.terms.values())) == other
        if isinstance(other, ParamPoly):
            return self.params == other.params and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.params, frozenset(self.terms.items())))

    # -- changes of ring -----------------------------------------------------

    def map_params(self, params, images=None) -> "ParamPoly":
        """The image of the polynomial under `ring_map(self.params, params, images)`."""
        return ring_map(self.params, params, images)(self)

    def coefficient_of(self, name: str, power: int) -> "ParamPoly":
        """Coefficient of name**power, as a polynomial with name removed."""
        i = self.params.index(name) if name in self.params else -1
        if i < 0:
            raise MissingParameter(f"{name!r} not among parameters {self.params}")
        rest = tuple(p for p in self.params if p != name)
        shift = FIELD_BITS * (len(rest) - i)  # the field of `name`
        below = (1 << shift) - 1
        terms = {
            key >> (shift + FIELD_BITS) << shift | key & below: coeff
            for key, coeff in self.terms.items()
            if (key >> shift) & _FIELD == power
        }
        return ParamPoly(rest, terms)

    def linear_form(self):
        """({parameter: coefficient}, constant) of a polynomial of degree <= 1."""
        coeffs, const = {}, 0
        for key, c in self.terms.items():
            if not key:
                const = c
                continue
            low = key.bit_length() - 1  # one parameter to the first power: a field's low bit
            if key != 1 << low or low % FIELD_BITS:
                raise ValueError(f"not a linear form: {self}")
            coeffs[self.params[-1 - low // FIELD_BITS]] = c
        return coeffs, const

    # -- presentation --------------------------------------------------------

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs in ascending order of the tuples."""
        arity = len(self.params)
        return [(unpack(key, arity), c) for key, c in sorted(self.terms.items())]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{p}^{e}" if e > 1 else p
                for p, e in zip(self.params, exps)
                if e
            ]
            if factors:
                head = "" if coeff == 1 else ("-" if coeff == -1 else rat_str(coeff) + "*")
                parts.append(head + "*".join(factors))
            else:
                parts.append(rat_str(coeff))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"ParamPoly({self.params}, {self})"

    def to_json(self):
        """Exact string for constants, term list otherwise."""
        if self.is_constant:
            return rat_str(self.constant_value())
        return [[rat_str(c), list(e)] for e, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, params: tuple[str, ...], data) -> "ParamPoly":
        if isinstance(data, (str, int)):
            return cls.const(params, data)
        return cls.from_terms(params, ((tuple(e), c) for c, e in data))


def ring_map(source, params, images=None):
    """The ring map Q[source] -> Q[params], compiled once: a function of ParamPoly.

    A parameter named in `images` goes to its image there, a ParamPoly
    over `params` or a rational; any other goes to its namesake in
    `params`.  The image of each monomial is worked out once, the first
    time a mapped polynomial holds it, and a polynomial's image is the
    combination of those images by its coefficients, built in one pass.  A
    parameter that occurs with neither an image nor a namesake raises
    ParameterMismatch, as does a polynomial over another ring than
    `source`.  Evaluation at a point is the map into Q[()].
    """
    source, params = tuple(source), tuple(params)
    images = images or {}
    arity, width = len(source), len(params)
    moves, scalars, powers, missing = [], [], [], []
    for j, name in enumerate(source):
        if name in images:
            image = images[name]
            if isinstance(image, ParamPoly):
                powers.append((j, image))
            else:
                scalars.append((j, _coeff(image)))
        elif name in params:
            moves.append((j, FIELD_BITS * (width - 1 - params.index(name))))
        else:
            missing.append((j, name))
    extends, shift = not images and params[:arity] == source, FIELD_BITS * (width - arity)
    done = {}  # packed monomial of Q[source] -> its image

    def monomial(key) -> ParamPoly:
        exps = unpack(key, arity)
        for j, name in missing:
            if exps[j]:
                raise ParameterMismatch(f"parameter {name!r} has no image in {params}")
        coeff = 1
        for j, value in scalars:
            if exps[j]:
                coeff = coeff * value ** exps[j]
        new = 0
        for j, at in moves:
            new |= exps[j] << at
        image = ParamPoly(params, {new: _coeff(coeff)} if coeff else {})
        for j, poly in powers:
            if exps[j]:
                image = image * poly ** exps[j]
        done[key] = image
        return image

    def apply(poly: ParamPoly) -> ParamPoly:
        if poly.params != source:
            raise ParameterMismatch(f"a map from {source} applied over {poly.params}")
        items = poly.terms.items()
        if extends:  # params extends the ring: every monomial keeps its fields
            return ParamPoly(params, {e << shift: c for e, c in items})
        return ParamPoly.combination(
            params, ((done[key] if key in done else monomial(key), 0, c) for key, c in items)
        )

    return apply


# ---------------------------------------------------------------------------
# keyed sums over the parameter ring
# ---------------------------------------------------------------------------


def accumulate(items, out=None) -> dict:
    """Sum (key, ParamPoly) items into the dict `out` by key, dropping zero sums."""
    if out is None:
        out = {}
    for key, coeff in items:
        acc = out.get(key)
        if acc is not None:
            coeff = acc + coeff
        if coeff.is_zero:
            out.pop(key, None)
        else:
            out[key] = coeff
    return out


class KeyedSum:
    """Finite sum of keyed terms with ParamPoly coefficients over one ring.

    `components` maps each key to its nonzero coefficient; a subclass
    says what the keys name.  Instances are treated as immutable.
    """

    __slots__ = ("params", "components")

    def __init__(self, params: tuple[str, ...], components: dict):
        self.params = params
        self.components = components

    @classmethod
    def zero(cls, params=()):
        return cls(tuple(params), {})

    @classmethod
    def from_items(cls, params, items):
        """The sum of (key, coefficient) items; scalars are coerced into the ring."""
        params = tuple(params)
        return cls(
            params,
            accumulate(
                (key, c if isinstance(c, ParamPoly) else ParamPoly.const(params, c))
                for key, c in items
            ),
        )

    @classmethod
    def monomial(cls, params, key, coeff=1):
        return cls.from_items(params, [(key, coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.components

    def coefficient(self, key) -> ParamPoly:
        return self.components.get(key, ParamPoly.const(self.params, 0))

    def _check(self, other):
        if other.params != self.params:
            raise ParameterMismatch(
                f"{type(self).__name__} rings differ: {self.params} vs {other.params}"
            )

    def __add__(self, other):
        self._check(other)
        return type(self)(
            self.params, accumulate(other.components.items(), dict(self.components))
        )

    def __neg__(self):
        return type(self)(self.params, {k: -c for k, c in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        if not isinstance(factor, ParamPoly):
            factor = ParamPoly.const(self.params, factor)
        if factor.is_zero:
            return type(self)(self.params, {})
        return type(self)(
            self.params, {k: c * factor for k, c in self.components.items()}
        )

    def map_params(self, params, images=None):
        """Each coefficient under one `ring_map`; zero images are dropped."""
        params = tuple(params)
        image = ring_map(self.params, params, images)
        items = self.components.items()
        return type(self)(params, accumulate((k, image(c)) for k, c in items))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.params == other.params and self.components == other.components

    def __repr__(self) -> str:
        return str(self)
