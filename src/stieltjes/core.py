"""Compact intervals and the regulated-function abstraction.

A function on ``[a, b]`` is *regulated* when it has finite one-sided
limits at every point.  Regulated functions are exactly the uniform
limits of finite step functions, and that characterization is what the
whole package leans on: every concrete family here can produce a step
approximant together with a certified uniform error bound, so integrals
of non-step functions come with honest error certificates instead of
estimates.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover
    from .stepfun import StepFunction


class Frozen:
    """Base of the immutable value types read on hot paths: a slot read
    is cheaper than a NamedTuple field's.  ``__init__`` sets the slots
    through ``object.__setattr__`` and takes them positionally in slot
    order; later assignment or deletion raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        # Slot by slot as tuple equality goes (identity, then ==), so it
        # agrees with __hash__, without building the two tuples.
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self.__slots__:
            x, y = getattr(self, name), getattr(other, name)
            if x is not y and x != y:
                return False
        return True

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Interval(Frozen):
    """Compact interval ``[a, b]`` with ``a < b``.

    Degenerate and unbounded intervals are rejected at construction.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        if not all(map(math.isfinite, as_floats((a, b), "interval endpoints"))):
            raise DomainError(f"interval endpoints must be finite, got [{a}, {b}]")
        if not a < b:
            raise DomainError(f"degenerate interval [{a}, {b}]")
        super().__init__(a, b)

    def require(self, t: float) -> None:
        if not self.a <= t <= self.b:
            raise DomainError(f"point {t!r} outside interval [{self.a}, {self.b}]")

    def check_division(self, points, what: str) -> list[float]:
        """``points`` as floats, once they form a division of the interval:
        two or more, increasing, from a to b.  ``what`` names them in errors."""
        pts = as_floats(points, what)
        if len(pts) < 2:
            raise DomainError(f"at least 2 {what} needed, got {len(pts)}")
        if not all(map(operator.lt, pts, pts[1:])):
            i = next(i for i in range(1, len(pts)) if not pts[i - 1] < pts[i])
            raise DomainError(f"{what} not strictly increasing at index {i}")
        if pts[0] != self.a or pts[-1] != self.b:
            raise DomainError(f"{what} must run from {self.a!r} to {self.b!r}, "
                              f"got {pts[0]!r} to {pts[-1]!r}")
        return pts


def as_floats(values, what: str) -> list[float]:
    """``values`` as a list of floats.  A number past the float range,
    such as a large int, is refused with a DomainError naming ``what``
    rather than ``float``'s OverflowError."""
    try:
        return list(map(float, values))
    except OverflowError as exc:
        raise DomainError(f"{what} must be finite: {exc}") from None


@classmethod
def checked_make(cls, iterable):
    """``_make`` for a NamedTuple whose ``__new__`` validates: build
    through ``cls(...)``, so ``_make`` and ``_replace`` re-run the checks."""
    return cls(*iterable)


class StepApproximation(NamedTuple):
    """A step function plus a certified uniform error bound for it."""

    step: "StepFunction"
    error: float


class RegulatedFunction(ABC):
    """A real function on a compact interval with one-sided limits
    everywhere.

    Subclasses must provide exact point evaluation, exact one-sided
    limits, a certified step approximant constructor, known jump
    locations, and certified norm data:

    * ``sup_bound``       -- an upper bound for ``sup |f|`` (exact for
                             step functions),
    * ``variation_bound`` -- an upper bound for the total variation, or
                             ``None`` when the family cannot certify one.

    Norm bounds must come from analytic data supplied at construction
    (Lipschitz constants, monotone direction, explicit jump lists);
    nothing in this package estimates norms from point samples.
    """

    __slots__ = ("_interval",)

    def __init__(self, interval: Interval):
        self._interval = interval

    @property
    def interval(self) -> Interval:
        return self._interval

    # -- evaluation ---------------------------------------------------

    @abstractmethod
    def value(self, t: float) -> float:
        """f(t) for t in [a, b]; DomainError outside."""

    def __call__(self, t: float) -> float:
        return self.value(t)

    @abstractmethod
    def left_limit(self, t: float) -> float:
        """f(t-) for t in (a, b]; DomainError at a or outside."""

    @abstractmethod
    def right_limit(self, t: float) -> float:
        """f(t+) for t in [a, b); DomainError at b or outside."""

    def _limits_at(self, nodes) -> tuple[list, list, list]:
        """``(lefts, values, rights)``: f(t-), f(t) and f(t+) at each of
        ``nodes``, with f(a-) := f(a) and f(b+) := f(b).

        Precondition, not checked: ``nodes`` are the sorted nodes of an
        already-checked ``StepFunction`` on this interval, so they
        increase strictly from a to b.  The callers are the step-pair
        walks of ``integrate_step_pair`` and ``_gauss_limit``, and
        ``PiecewiseLipschitz._smooth_parts`` on its checked breakpoints.
        This default reads the three point methods.  The built-in
        families override it with one of two walks that give
        bit-identical values: ``StepFunction`` merges its nodes with the
        query nodes one by one, since the two lists may be equally dense;
        the families with few breaks (``PiecewiseLipschitz``'s, and the
        nodes of ``MonotoneFunction``'s jump step, a and b alone without
        jumps) bisect once per break and slice the query nodes between
        breaks."""
        values = [self.value(t) for t in nodes]
        lefts = [values[0]] + [self.left_limit(t) for t in nodes[1:]]
        rights = [self.right_limit(t) for t in nodes[:-1]] + [values[-1]]
        return lefts, values, rights

    def _smooth_parts(self):
        """``(jump_step, breaks, formulas, offsets)`` when f is a step
        function plus a continuous part made of catalog formulas (they
        have ``derivative_bound_on``, ``values_at``, ``rounding_on`` and
        their ``derivative_`` twins): on the closed cell ``[breaks[i],
        breaks[i + 1]]``, f - jump_step is ``formulas[i](t) - offsets[i]``.
        None otherwise, as here; the limit route's fourth-order
        certificate needs it on both sides."""
        return None

    # -- certified data ------------------------------------------------

    @abstractmethod
    def approximate(self, eps: float) -> StepApproximation:
        """A step function within uniform distance eps, with the
        certified error achieved (may be smaller than eps).

        Raises ApproximationError when the family cannot certify eps.
        """

    @property
    @abstractmethod
    def variation_bound(self) -> float | None:
        """Certified upper bound for the total variation, or None."""

    @property
    @abstractmethod
    def sup_bound(self) -> float:
        """Certified upper bound for sup |f| over [a, b]."""

    @abstractmethod
    def jump_points(self) -> tuple[float, ...]:
        """Sorted locations where a one-sided jump is nonzero."""
