"""Exception types shared across the package."""


class CtentError(Exception):
    """Base class for package errors."""


class DomainError(CtentError, ValueError):
    """A parameter is outside an operation's admissible domain."""


class DivergentEntropy(CtentError, ArithmeticError):
    """The requested entropy is infinite.

    Raised when the order s falls at or below a distribution's finiteness
    threshold, i.e. the lower-tail integral of F^{1+s} diverges.  Callers
    that prefer a marker over an exception should go through
    :func:`ctent.entropy.delta_value`, which converts this into a divergent
    :class:`~ctent.entropy.EntropyValue`.
    """


class NonIntegrableError(CtentError, ArithmeticError):
    """A value could not be computed to its bound: an integral or series did
    not converge (tail probes of an infinite mean included), or a closed form
    refused an order it cannot sum."""


class TruncationNotConverged(CtentError, ArithmeticError):
    """A series was truncated at its iteration cap before meeting tolerance."""


class NotBracketedError(CtentError, ArithmeticError):
    """A root search could not bracket a sign change within its search cap."""


class PreconditionNotMet(CtentError):
    """An operation's stated precondition fails; the result is undefined
    rather than wrong (e.g. no stochastic ordering between two inputs)."""


class OracleMismatch(CtentError, ArithmeticError):
    """Two independent evaluation routes disagree beyond their combined
    error bounds; indicates a numerical or implementation fault."""
