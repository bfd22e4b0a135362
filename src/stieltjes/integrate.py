"""The three Stieltjes-type integrals.

Kinds
-----
* ``KURZWEIL`` (K): gauge limit of plain sums over fine free-tagged
  partitions.
* ``YOUNG`` (Y): refinement limit of jump-aware sums over interior-
  tagged partitions.
* ``DUSHNIK`` (D): refinement limit of plain sums over interior-tagged
  partitions.

A kind is passed as a member or as its letter, the member's value.

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
``integrate_step_pair`` adds up with ``math.fsum``.  The walk reads the
other argument once, through ``_limits_at``: its left limits, values
and right limits at all the nodes, in place of a bisecting point read
per limit.  A step function gives them by a per-node merge of the two
node lists, which may be equally dense; the smooth families, with few
breaks, by a break walk that bisects once per break and reads the
nodes between breaks in one slice.  The sums and the oracles keep the
point reads, so they share no code with either walk.
Everything else goes through certified step approximants.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain
from operator import mul, sub
from typing import NamedTuple

from .core import Interval, RegulatedFunction, checked_make
from .errors import (ApproximationError, DomainError, StepPairError, StieltjesError,
                     VariationUnknownError, check_tol, finite_fsum)
from .stepfun import StepFunction, indicator
from .sums import BoundsReport, _norm_checks


class IntegralKind(Enum):
    KURZWEIL = "K"
    YOUNG = "Y"
    DUSHNIK = "D"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown integral kind {value!r}")

    @classmethod
    def from_letter(cls, letter: str) -> "IntegralKind":
        return cls(letter)


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
                       kind: IntegralKind | str) -> IntegralResult:
    """Closed-form integral of an elementary indicator against dg.  K
    and Y share a column; D ignores one-sided limits at the left cut and
    drops the endpoint atom (its tags never reach the nodes)."""
    kind = IntegralKind(kind)
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
                        kind: IntegralKind | str) -> IntegralResult:
    """Closed-form integral of g against the indicator's differential."""
    kind = IntegralKind(kind)
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
    #       + sum_k d_k [g(sigma_{k+1}-) - g(sigma_k+)],
    # with g(a-) := g(a) and g(b+) := g(b).  The terms come in node
    # order, c_0 first and then d_k before c_{k+1}, as iterators rather
    # than lists (fsum's order matters only when a partial sum overflows).
    cs, ds = f.node_values, f.interior_values
    lefts, values, rights = g._limits_at(f.nodes)
    if dushnik:
        return map(mul, ds, map(sub, values[1:], values))
    at_node = map(mul, cs, map(sub, rights, lefts))
    on_piece = map(mul, ds, map(sub, lefts[1:], rights))
    return chain((next(at_node),), chain.from_iterable(zip(on_piece, at_node)))


def _step_integrator_terms(f: RegulatedFunction, g: StepFunction, dushnik: bool):
    # K, Y: sum_k f(sigma_k) [g(sigma_k+) - g(sigma_k-)].
    # D: sum_k f(sigma_k+) [g(sigma_k+) - g(sigma_k)]
    #          + f(sigma_k-) [g(sigma_k) - g(sigma_k-)].
    # f is read at every node of g.  A node where g does not move (only
    # an endpoint can be one, by the canonical form) adds no term.
    cs, ds = g.node_values, g.interior_values
    lefts, values, rights = f._limits_at(g.nodes)
    before = cs[:1] + ds  # g(a-) := g(a)
    after = ds + cs[-1:]  # g(b+) := g(b)
    if not dushnik:
        return [fv * (hi - lo) for fv, lo, hi in zip(values, before, after) if hi != lo]
    terms = []
    for fl, fr, lo, c, hi in zip(lefts, rights, before, cs, after):
        if hi != c:
            terms.append(fr * (hi - c))
        if c != lo:
            terms.append(fl * (c - lo))
    return terms


def integrate_step_pair(f: RegulatedFunction, g: RegulatedFunction,
                        kind: IntegralKind | str) -> IntegralResult:
    """Exact integral when either argument is a step function: the five
    closed forms summed by parts into one walk over the step argument's
    nodes, added with ``math.fsum``.  A sum past the float range is
    refused with a StieltjesError."""
    kind = IntegralKind(kind)
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
    return IntegralResult(finite_fsum(terms, "the step-pair sum"), kind, 0.0,
                          Diagnostics("step-table"))


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
                    kind: IntegralKind | str, tol: float = 1e-9) -> IntegralResult:
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
    times the factor: the smallest tol this route can certify, named in
    the message when it is finite.
    """
    kind = IntegralKind(kind)
    check_tol(tol)
    if f.interval != g.interval:
        raise DomainError("integrand and integrator live on different intervals")
    a, b = f.interval.a, f.interval.b
    var_g, var_f = g.variation_bound, f.variation_bound
    bv_f = None if var_f is None else abs(f.value(a)) + abs(f.value(b)) + var_f
    # A factor that overflowed certifies nothing: it counts as unknown.
    var_g, bv_f = (None if x is None or not math.isfinite(x) else x for x in (var_g, bv_f))
    if var_g is None and bv_f is None:
        raise VariationUnknownError(
            "the limit route needs a certified finite variation bound on f or g")

    predicted_f = None if var_g is None else tol * var_g / (2.0 * var_g + 1.0)
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
        # An infinite floor names no tol, so the message leaves it out.
        best = exc.best_error * factor if factor else math.inf
        floor = (f"; the smallest tol this route can certify is {best:.3g}"
                 if math.isfinite(best) else "")
        raise ApproximationError(f"{exc}{floor}", best_error=best) from exc
    fn, gn = (step, g) if take_f else (f, step)
    exact = integrate_step_pair(fn, gn, kind)
    return IntegralResult(
        exact.value, kind, 0.0 if err == 0.0 else err * factor,
        Diagnostics("limit-integrand" if take_f else "limit-integrator",
                    err, step.piece_count))


def integrate(f: RegulatedFunction, g: RegulatedFunction, kind: IntegralKind | str,
              tol: float = 1e-9) -> IntegralResult:
    """Front door: exact closed form whenever either argument is a
    step function (no variation bound needed then), the certified limit
    route otherwise."""
    check_tol(tol)
    if isinstance(f, StepFunction) or isinstance(g, StepFunction):
        return integrate_step_pair(f, g, kind)
    return integrate_limit(f, g, kind, tol)


def by_parts(f: RegulatedFunction, g: RegulatedFunction, kind: IntegralKind | str,
             tol: float = 1e-9) -> IntegralResult:
    """Integral of f against dg computed through the flipped integral:

        K or Y result = f(b) g(b) - f(a) g(a) - D(g, df)
        D result      = f(b) g(b) - f(a) g(a) - K(g, df)

    A value past the float range is refused with a StieltjesError.
    """
    kind = IntegralKind(kind)
    a, b = f.interval.a, f.interval.b
    boundary = f.value(b) * g.value(b) - f.value(a) * g.value(a)
    inner_kind = (IntegralKind.DUSHNIK if kind is not IntegralKind.DUSHNIK
                  else IntegralKind.KURZWEIL)
    inner = integrate(g, f, inner_kind, tol)
    value = boundary - inner.value
    if not math.isfinite(value):
        raise StieltjesError("the by-parts value overflows: not finite")
    return IntegralResult(value, kind, inner.error_bound,
                          inner.diagnostics._replace(method="by-parts"))


def check_integral_bounds(result: IntegralResult, f: RegulatedFunction,
                          g: RegulatedFunction) -> BoundsReport:
    """The integral-level versions of the sum bounds, inflated by the
    result's own error bound."""
    return _norm_checks(f, g, (("integral", result.value),), result.error_bound)
