"""Sparse multivariate polynomials over exact rationals, and sums keyed over them.

`ParamPoly` is the coefficient ring of every structure constant in the
toolkit.  A polynomial is a finite sum of monomials in a fixed, ordered
tuple of named parameters.  A stored coefficient is a Python `int` when
it is integral and a `fractions.Fraction` only when its denominator is
greater than 1, so integral structure constants never build a Fraction;
zero coefficients are never stored.

`KeyedSum` is a finite sum of keyed terms with `ParamPoly` coefficients,
with `accumulate` its one zero-dropping summation: `algebra.LieElement`
keys basis vectors, `geometry.LaurentPoly` powers of the coordinate.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MissingParameter, ParameterMismatch

Scalar = (int, Fraction)


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
    exponent tuples (one entry per parameter) to nonzero coefficients,
    each an `int` when integral and a `Fraction` with denominator > 1
    otherwise.  Instances are treated as immutable.
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
        return cls(params, {(0,) * len(params): value})

    @classmethod
    def var(cls, params: tuple[str, ...], name: str) -> "ParamPoly":
        if name not in params:
            raise MissingParameter(f"{name!r} not among parameters {params}")
        exps = tuple(1 if p == name else 0 for p in params)
        return cls(params, {exps: 1})

    @classmethod
    def from_terms(cls, params: tuple[str, ...], items) -> "ParamPoly":
        terms = {}
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(params):
                raise ParameterMismatch(
                    f"exponent vector {exps} has wrong arity for {params}"
                )
            _add_into(terms, exps, _coeff(coeff))
        return cls(params, terms)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

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
                (exps, coeff), = other.terms.items()
                if not any(exps):  # a constant takes the scalar path
                    return self._scaled(coeff)
            return self._times(other)
        if isinstance(other, Scalar):
            return self._scaled(_coeff(other))
        return self._times(self._coerce(other))

    __rmul__ = __mul__

    def _scaled(self, factor) -> "ParamPoly":
        """self * factor for a stored-form scalar `factor`."""
        if not factor:
            return ParamPoly(self.params, {})
        terms = {}
        for e, c in self.terms.items():
            c *= factor
            terms[e] = c if type(c) is int or c.denominator != 1 else c.numerator
        return ParamPoly(self.params, terms)

    def _times(self, other: "ParamPoly") -> "ParamPoly":
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _add_into(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return ParamPoly(self.params, terms)

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
        """The ring map Q[self.params] -> Q[params].

        A parameter named in `images` goes to its image there, a ParamPoly
        over `params` or a rational; any other goes to its namesake in
        `params`.  A parameter that occurs with neither raises
        ParameterMismatch.  Evaluation at a point is the map into Q[()].
        """
        params = tuple(params)
        images = images or {}
        if not images and params[: len(self.params)] == self.params:
            pad = (0,) * (len(params) - len(self.params))  # params extends the ring
            return ParamPoly(params, {e + pad: c for e, c in self.terms.items()})
        moves, powers = [], []
        for j, name in enumerate(self.params):
            if name in images:
                image = images[name]
                if not isinstance(image, ParamPoly):
                    image = ParamPoly.const(params, image)
                powers.append((j, image))
            elif name in params:
                moves.append((j, params.index(name)))
            elif any(exps[j] for exps in self.terms):
                raise ParameterMismatch(f"parameter {name!r} has no image in {params}")
        result = ParamPoly(params, {})
        for exps, coeff in self.terms.items():
            new = [0] * len(params)
            for j, i in moves:
                new[i] = exps[j]
            term = ParamPoly(params, {tuple(new): coeff})
            for j, image in powers:
                if exps[j]:
                    term = term * image ** exps[j]
            result = result + term
        return result

    def coefficient_of(self, name: str, power: int) -> "ParamPoly":
        """Coefficient of name**power, as a polynomial with name removed."""
        i = self.params.index(name) if name in self.params else -1
        if i < 0:
            raise MissingParameter(f"{name!r} not among parameters {self.params}")
        rest = tuple(p for p in self.params if p != name)
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[i] != power:
                continue
            reduced = tuple(e for j, e in enumerate(exps) if j != i)
            terms[reduced] = coeff
        return ParamPoly(rest, terms)

    # -- presentation --------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items())

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
        """Each coefficient under `ParamPoly.map_params`; zero images are dropped."""
        params = tuple(params)
        items = self.components.items()
        return type(self)(
            params, accumulate((k, c.map_params(params, images)) for k, c in items)
        )

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.params == other.params and self.components == other.components

    def __repr__(self) -> str:
        return str(self)
