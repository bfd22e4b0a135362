"""Exception types shared across the package, and the tolerance check
every entry point applies."""

import math


class StieltjesError(Exception):
    """Base class for all library errors."""


class DomainError(StieltjesError, ValueError):
    """A point lies outside a function's interval, or a constructed
    object violates its domain invariants (degenerate interval,
    non-increasing nodes, inconsistent lengths, ...)."""


class VariationUnknownError(StieltjesError):
    """An operation needs a finite total-variation bound that the
    function cannot supply."""


class ApproximationError(StieltjesError):
    """A certified step approximation could not reach the requested
    uniform error.

    ``best_error`` reports the error the family could still certify.
    """

    def __init__(self, message: str, best_error: float = float("inf")):
        super().__init__(message)
        self.best_error = best_error


class GaugeError(StieltjesError):
    """A gauge evaluated to a non-positive or non-finite width."""


class GaugeTooFineError(StieltjesError):
    """Fine-partition construction ran out of bisection depth; the
    gauge shrinks faster than floating point can resolve."""


class StepPairError(StieltjesError, TypeError):
    """The closed-form step integrator was called without a step
    function in either slot."""


class DSLError(StieltjesError):
    """Base class for job-description errors."""


class DSLSyntaxError(DSLError):
    """Lexical or grammatical error, with 1-based position info."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class DSLSemanticError(DSLError):
    """Well-formed text describing an invalid job."""


def check_tol(tol: float, error: type = DomainError, name: str = "tolerance") -> None:
    """Refuse a tolerance outside (0, inf): nan and 0 can never be met,
    and inf asks for an approximant no eps search can size."""
    if not tol > 0:
        raise error(f"{name} must be positive, got {tol!r}")
    if tol == math.inf:
        raise error(f"{name} must be finite, got {tol!r}")
