"""The three Stieltjes-type integrals.

Kinds
-----
* ``KURZWEIL`` (K): gauge limit of plain sums over fine free-tagged
  partitions.
* ``YOUNG`` (Y): refinement limit of jump-aware sums over interior-
  tagged partitions.
* ``DUSHNIK`` (D): refinement limit of plain sums over interior-tagged
  partitions.

K and Y agree whenever both exist here; D is the one that differs at
shared discontinuities, and it is exactly the kind that makes
integration by parts exact:

    K(f, dg) = Y(f, dg) = f(b) g(b) - f(a) g(a) - D(g, df)

for regulated f, g with at least one of finite variation.

Closed forms: a step function in either slot is, by bilinearity, a
combination of five elementary indicator integrands whose values
against any regulated g are one-sided limit expressions (the table in
``elementary_forward`` / ``elementary_backward``; cross-checked
definitionally by the oracle module's tests).  Summed by parts, that
table collapses into one walk over the step argument's nodes, which
``integrate_step_pair`` adds up with ``math.fsum``.  Everything else
goes through certified step approximants.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .core import Interval, RegulatedFunction, checked_make
from .errors import (ApproximationError, DomainError, StepPairError,
                     VariationUnknownError, check_tol)
from .stepfun import StepFunction, indicator
from .sums import BoundsReport, _make_check


class IntegralKind(Enum):
    KURZWEIL = "K"
    YOUNG = "Y"
    DUSHNIK = "D"

    @classmethod
    def from_letter(cls, letter: str) -> "IntegralKind":
        for kind in cls:
            if kind.value == letter:
                return kind
        raise DomainError(f"unknown integral kind {letter!r}")

    @property
    def letter(self) -> str:
        return self.value


class IndicatorKind(Enum):
    ONE = "one"                    # constant 1
    OPEN_FROM_A = "chi_open_a"     # chi of (a, b]
    OPEN_TAIL = "chi_open_tau"     # chi of (tau, b], tau interior
    CLOSED_TAIL = "chi_closed_tau" # chi of [tau, b], tau interior
    POINT_B = "chi_point_b"        # chi of the single point b


class ElementaryIntegrand(NamedTuple("ElementaryIntegrand",
                                      [("kind", IndicatorKind), ("tau", "float | None")])):
    """One of the five indicator integrands, with its location when it
    has one."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, kind: IndicatorKind, tau: float | None = None) -> "ElementaryIntegrand":
        needs_tau = kind in (IndicatorKind.OPEN_TAIL, IndicatorKind.CLOSED_TAIL)
        if needs_tau and tau is None:
            raise DomainError(f"{kind.value} needs a location tau")
        if not needs_tau and tau is not None:
            raise DomainError(f"{kind.value} takes no location")
        return super().__new__(cls, kind, tau)

    def as_step(self, interval: Interval) -> StepFunction:
        a, b = interval.a, interval.b
        k = self.kind
        if k is IndicatorKind.ONE:
            return StepFunction.constant(interval, 1.0)
        if k is IndicatorKind.OPEN_FROM_A:
            return indicator(interval, a, b, closed_left=False, closed_right=True)
        if k is IndicatorKind.POINT_B:
            return indicator(interval, b, b, closed_left=True, closed_right=True)
        closed = k is IndicatorKind.CLOSED_TAIL
        return indicator(interval, _require_tau(self, interval), b,
                         closed_left=closed, closed_right=True)


class Diagnostics(NamedTuple):
    method: str
    approximant_error: float | None = None
    approximant_pieces: int | None = None


class IntegralResult(NamedTuple):
    value: float
    kind: IntegralKind
    error_bound: float
    diagnostics: Diagnostics


def _require_tau(e: ElementaryIntegrand, interval: Interval) -> float:
    tau = e.tau
    if not interval.a < tau < interval.b:
        raise DomainError(
            f"tau={tau!r} must be strictly inside [{interval.a}, {interval.b}]")
    return tau


def elementary_forward(e: ElementaryIntegrand, g: RegulatedFunction,
                       kind: IntegralKind) -> IntegralResult:
    """Closed-form integral of an elementary indicator against dg.  K
    and Y share a column; D ignores one-sided limits at the left cut and
    drops the endpoint atom (its tags never reach the nodes)."""
    a, b = g.interval.a, g.interval.b
    ky = kind is not IntegralKind.DUSHNIK
    k = e.kind
    if k is IndicatorKind.ONE:
        value = g.value(b) - g.value(a)
    elif k is IndicatorKind.OPEN_FROM_A:
        value = g.value(b) - (g.right_limit(a) if ky else g.value(a))
    elif k is IndicatorKind.OPEN_TAIL:
        tau = _require_tau(e, g.interval)
        value = g.value(b) - (g.right_limit(tau) if ky else g.value(tau))
    elif k is IndicatorKind.CLOSED_TAIL:
        tau = _require_tau(e, g.interval)
        value = g.value(b) - (g.left_limit(tau) if ky else g.value(tau))
    elif k is IndicatorKind.POINT_B:
        value = (g.value(b) - g.left_limit(b)) if ky else 0.0
    else:
        raise DomainError(f"unknown indicator kind {k!r}")
    return IntegralResult(value, kind, 0.0, Diagnostics("indicator-table"))


def elementary_backward(g: RegulatedFunction, e: ElementaryIntegrand,
                        kind: IntegralKind) -> IntegralResult:
    """Closed-form integral of g against the indicator's differential."""
    a, b = g.interval.a, g.interval.b
    ky = kind is not IntegralKind.DUSHNIK
    k = e.kind
    if k is IndicatorKind.ONE:
        value = 0.0
    elif k is IndicatorKind.OPEN_FROM_A:
        value = g.value(a) if ky else g.right_limit(a)
    elif k is IndicatorKind.OPEN_TAIL:
        tau = _require_tau(e, g.interval)
        value = g.value(tau) if ky else g.right_limit(tau)
    elif k is IndicatorKind.CLOSED_TAIL:
        tau = _require_tau(e, g.interval)
        value = g.value(tau) if ky else g.left_limit(tau)
    elif k is IndicatorKind.POINT_B:
        value = g.value(b) if ky else g.left_limit(b)
    else:
        raise DomainError(f"unknown indicator kind {k!r}")
    return IntegralResult(value, kind, 0.0, Diagnostics("indicator-table"))


def _step_integrand_terms(f: StepFunction, g: RegulatedFunction, dushnik: bool):
    # D: sum_k d_k [g(sigma_{k+1}) - g(sigma_k)].
    # K, Y: sum_k c_k [g(sigma_k+) - g(sigma_k-)]
    #       + sum_k d_k [g(sigma_{k+1}-) - g(sigma_k+)].
    ns, cs, ds = f.nodes, f.node_values, f.interior_values
    if dushnik:
        g_prev = g.value(ns[0])
        for k, d in enumerate(ds):
            g_next = g.value(ns[k + 1])
            yield d * (g_next - g_prev)
            g_prev = g_next
        return
    g_left = g.value(ns[0])  # g(a-) := g(a)
    for k, d in enumerate(ds):
        g_right = g.right_limit(ns[k])
        yield cs[k] * (g_right - g_left)
        g_left = g.left_limit(ns[k + 1])
        yield d * (g_left - g_right)
    yield cs[-1] * (g.value(ns[-1]) - g_left)  # g(b+) := g(b)


def _step_integrator_terms(f: RegulatedFunction, g: StepFunction, dushnik: bool):
    # K, Y: sum_k f(sigma_k) [g(sigma_k+) - g(sigma_k-)].
    # D: sum_k f(sigma_k+) [g(sigma_k+) - g(sigma_k)]
    #          + f(sigma_k-) [g(sigma_k) - g(sigma_k-)].
    # Nodes where g does not move contribute nothing and read no f.
    ns, cs, ds = g.nodes, g.node_values, g.interior_values
    m = len(ds)
    for k, x in enumerate(ns):
        before = ds[k - 1] if k else cs[0]  # g(a-) := g(a)
        after = ds[k] if k < m else cs[m]   # g(b+) := g(b)
        if dushnik:
            if after != cs[k]:
                yield f.right_limit(x) * (after - cs[k])
            if cs[k] != before:
                yield f.left_limit(x) * (cs[k] - before)
        elif after != before:
            yield f.value(x) * (after - before)


def integrate_step_pair(f: RegulatedFunction, g: RegulatedFunction,
                        kind: IntegralKind) -> IntegralResult:
    """Exact integral when either argument is a step function: the five
    closed forms summed by parts into one walk over the step argument's
    nodes, added with ``math.fsum``."""
    if f.interval != g.interval:
        raise DomainError("integrand and integrator live on different intervals")
    dushnik = kind is IntegralKind.DUSHNIK
    if isinstance(f, StepFunction):
        terms = _step_integrand_terms(f, g, dushnik)
    elif isinstance(g, StepFunction):
        terms = _step_integrator_terms(f, g, dushnik)
    else:
        raise StepPairError(
            "integrate_step_pair needs a step function in one slot; "
            "use integrate() for general regulated pairs")
    return IntegralResult(math.fsum(terms), kind, 0.0, Diagnostics("step-table"))


def _budget(tol: float, factor: float | None) -> float:
    """The largest float eps with fl(eps * factor) <= tol.  fl(x *
    factor) is monotone in x, so stepping from tol / factor by an ulp or
    two finds it.  A zero factor certifies any approximant, and only a
    step side, which approximates to itself, lacks one: both get
    math.inf."""
    if not factor:
        return math.inf
    eps = tol / factor
    while eps * factor > tol:
        eps = math.nextafter(eps, 0.0)
    while (up := math.nextafter(eps, math.inf)) * factor <= tol:
        eps = up
    return eps


def integrate_limit(f: RegulatedFunction, g: RegulatedFunction,
                    kind: IntegralKind, tol: float = 1e-9) -> IntegralResult:
    """Integral of f against dg through certified step approximants.

    The regulated factor is replaced by a step approximant and the
    defect is bounded a priori:

        |I(f, dg) - I(f_n, dg)| <= sup|f - f_n| * var g
        |I(f, dg) - I(f, dg_n)| <= (|f(a)| + |f(b)| + var f) * sup|g - g_n|

    The variation factor is never approximated; when both variations
    are known the side with the smaller predicted bound is kept.  The
    approximant is asked for eps = tol / var g (integrand side) or
    eps = tol / bv f (integrator side), taken as the largest float whose
    floating-point product with that factor is at most tol, and eps =
    inf when the factor is 0, so that each piece takes one cell.  The
    returned ``error_bound``, the achieved sup error times the factor,
    therefore never exceeds ``tol`` in floating point.  Needs at least one argument of certified
    finite variation.  (A step argument approximates to itself, so the
    result is then exact with error_bound 0.)

    An approximant's ApproximationError is re-raised with ``best_error``
    times the factor: the smallest tol this route can certify.
    """
    check_tol(tol)
    if f.interval != g.interval:
        raise DomainError("integrand and integrator live on different intervals")
    var_g = g.variation_bound
    var_f = f.variation_bound
    if var_g is None and var_f is None:
        raise VariationUnknownError(
            "the limit route needs a certified variation bound on f or g")

    a, b = f.interval.a, f.interval.b
    predicted_f = None if var_g is None else tol * var_g / (2.0 * var_g + 1.0)
    bv_f = None if var_f is None else abs(f.value(a)) + abs(f.value(b)) + var_f
    predicted_g = None if bv_f is None else tol * bv_f / (bv_f + 1.0)

    # A step argument approximates to itself at zero cost, so that side
    # always wins; otherwise take the smaller predicted bound.
    if isinstance(f, StepFunction):
        take_f = True
    elif isinstance(g, StepFunction):
        take_f = False
    else:
        take_f = predicted_g is None or (
            predicted_f is not None and predicted_f <= predicted_g)

    # Approximate the integrand against g, or the integrator under f.
    side, factor = (f, var_g) if take_f else (g, bv_f)
    try:
        step, err = side.approximate(_budget(tol, factor))
    except ApproximationError as exc:
        # Without a positive factor eps was already inf: no tol helps.
        best = exc.best_error * factor if factor else math.inf
        raise ApproximationError(
            f"{exc}; the smallest tol this route can certify is {best:.3g}",
            best_error=best) from exc
    fn, gn = (step, g) if take_f else (f, step)
    exact = integrate_step_pair(fn, gn, kind)
    return IntegralResult(
        exact.value, kind, 0.0 if err == 0.0 else err * factor,
        Diagnostics("limit-integrand" if take_f else "limit-integrator",
                    err, step.piece_count))


def integrate(f: RegulatedFunction, g: RegulatedFunction, kind: IntegralKind,
              tol: float = 1e-9) -> IntegralResult:
    """Front door: exact closed form whenever either argument is a
    step function (no variation bound needed then), the certified limit
    route otherwise."""
    check_tol(tol)
    if isinstance(f, StepFunction) or isinstance(g, StepFunction):
        return integrate_step_pair(f, g, kind)
    return integrate_limit(f, g, kind, tol)


def by_parts(f: RegulatedFunction, g: RegulatedFunction, kind: IntegralKind,
             tol: float = 1e-9) -> IntegralResult:
    """Integral of f against dg computed through the flipped integral:

        K or Y result = f(b) g(b) - f(a) g(a) - D(g, df)
        D result      = f(b) g(b) - f(a) g(a) - K(g, df)
    """
    a, b = f.interval.a, f.interval.b
    boundary = f.value(b) * g.value(b) - f.value(a) * g.value(a)
    inner_kind = (IntegralKind.DUSHNIK if kind is not IntegralKind.DUSHNIK
                  else IntegralKind.KURZWEIL)
    inner = integrate(g, f, inner_kind, tol)
    return IntegralResult(boundary - inner.value, kind, inner.error_bound,
                          Diagnostics("by-parts", inner.diagnostics.approximant_error,
                                      inner.diagnostics.approximant_pieces))


def check_integral_bounds(result: IntegralResult, f: RegulatedFunction,
                          g: RegulatedFunction) -> BoundsReport:
    """The integral-level versions of the sum bounds, inflated by the
    result's own error bound."""
    a, b = f.interval.a, f.interval.b
    var_f, var_g = f.variation_bound, g.variation_bound
    sup_var = None if var_g is None else f.sup_bound * var_g + result.error_bound
    bv_sup = None if var_f is None else \
        (abs(f.value(a)) + abs(f.value(b)) + var_f) * g.sup_bound + result.error_bound
    return BoundsReport((
        _make_check("integral_sup_var", result.value, sup_var),
        _make_check("integral_bv_sup", result.value, bv_sup),
    ))
