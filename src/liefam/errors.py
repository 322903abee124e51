"""Exception hierarchy shared by all modules."""


class LiefamError(Exception):
    """Base class for all toolkit errors."""


class ParameterMismatch(LiefamError):
    """Operands live over different parameter rings."""


class MissingParameter(LiefamError):
    """A specialization assignment does not cover every parameter."""


class OutOfDomainIndex(LiefamError):
    """A nonzero component fell outside the basis index domain."""


class WindowTooSmall(LiefamError):
    """The index window holds too few indices for the requested check."""


class WindowTooLarge(LiefamError):
    """The index window holds more indices than the requested computation can take."""


class UnsupportedFamily(LiefamError):
    """No geometric realization is available for this family."""


class ArityUnsupported(LiefamError):
    """The cochain arity is outside the implemented range."""


class DegenerateLine(LiefamError):
    """The slope lies on a degenerate line where the discriminant vanishes."""


class OddShiftNotRescalable(LiefamError):
    """Rescaling by a squared unit cannot act on odd degree shifts."""


class UpperBoundViolated(LiefamError):
    """A pairing value is supported above total degree zero."""


class ExponentOutOfRange(LiefamError, ValueError):
    """A monomial exponent is negative or too large for its packed field."""
