"""Exception types shared across the package, and the tolerance check
every entry point applies."""

import math


class StieltjesError(Exception):
    """Base class for all library errors."""


class DomainError(StieltjesError, ValueError):
    """A point lies outside a function's interval, or a constructed
    object violates its domain invariants (degenerate interval,
    non-increasing nodes, inconsistent lengths, ...).  Also a gauge
    width that is not positive and finite, ``integrate_step_pair``
    called without a step function in either slot, and a non-step pair
    of which neither side certifies a finite variation bound, which no
    tolerance helps."""


class ApproximationError(StieltjesError):
    """A certified step approximation could not reach the requested
    uniform error.

    ``best_error`` reports the error the family could still certify.
    Given the refused ``tol`` the message is "tolerance {tol!r} {why}",
    ``why`` being ``message``; else ``why`` is "is refused: {message}".
    """

    def __init__(self, message: str, best_error: float = math.inf, tol: float | None = None):
        self.why = f"is refused: {message}" if tol is None else message
        super().__init__(message if tol is None else f"tolerance {tol!r} {message}")
        self.best_error = best_error


class GaugeTooFineError(StieltjesError):
    """Fine-partition construction ran out of bisection depth; the
    gauge shrinks faster than floating point can resolve."""


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


def saturated(fn, *args) -> float:
    """``fn(*args)``, or inf where it raises OverflowError: the rule for a
    bound, which past the float range is inf, as ``*`` and ``+`` give it
    where ``**`` and ``math.fsum`` raise.  Values keep their own rule:
    ``finite_fsum`` and ``core.as_floats`` refuse one past the range."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def finite_fsum(terms, what: str) -> float:
    """``math.fsum(terms)`` once it is finite.  A sum past the float
    range certifies nothing, so fsum's OverflowError (a partial sum past
    it) or ValueError (inf - inf), and an inf or nan total, are refused
    with a StieltjesError naming ``what``."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):
        total = math.nan
    if not math.isfinite(total):
        raise StieltjesError(f"{what} overflows: not finite")
    return total
