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
node lists, which may be equally dense; the two smooth families, with
few breaks, by the one break walk they share, which bisects once per
break, calls the cell's piece on the nodes between breaks and takes the
stored limit row at a node on a break.  The sums and the oracles keep
the point reads, so they share no code with either walk.

Routes: ``integrate`` picks one per pair; ``integrate_limit`` is the
same function.  A step argument takes the walk above.  When both
arguments are catalog functions (``_smooth_parts``), they split by
bilinearity into jump steps and continuous parts, and the kind enters
only through one walk of the jump step of f against that of g.  Each
continuous part meets the other side's jump step in exact node terms,
and int f_c g_c' dt, the same for K, Y and D, is a two-point
Gauss-Legendre sum under a fourth-order certificate (``_gauss_limit``),
so cells grow like tol**-1/4.  Every other pair goes through certified
step approximants under the first-order norm inequalities, so cells
grow like 1 / tol.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from itertools import chain
from operator import mul
from typing import NamedTuple

from . import regulated
from .core import Interval, RegulatedFunction, _limit_rows, _require_pair, checked_make
from .errors import (ApproximationError, DomainError, StieltjesError, check_tol,
                     finite_fsum, saturated)
from .regulated import UNIT_ROUNDOFF
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

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown indicator kind {value!r}")


class ElementaryIntegrand(NamedTuple("ElementaryIntegrand",
                                      [("kind", IndicatorKind), ("tau", "float | None")])):
    """One of the five indicator integrands, with its location when it
    has one.  A kind is passed as a member or as its value."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, kind: IndicatorKind | str, tau: float | None = None) -> "ElementaryIntegrand":
        kind = IndicatorKind(kind)
        needs_tau = kind in (IndicatorKind.OPEN_TAIL, IndicatorKind.CLOSED_TAIL)
        if needs_tau and tau is None:
            raise DomainError(f"{kind.value} needs a location tau")
        if not needs_tau and tau is not None:
            raise DomainError(f"{kind.value} takes no location")
        return super().__new__(cls, kind, tau)

    def as_step(self, interval: Interval) -> StepFunction:
        if self.kind is IndicatorKind.ONE:
            return StepFunction.constant(interval, 1.0)
        tau, closed = _tail(self, interval)
        return indicator(interval, tau, interval.b, closed_left=closed, closed_right=True)


class Diagnostics(NamedTuple):
    method: str
    approximant_error: float | None = None
    approximant_pieces: int | None = None


class IntegralResult(NamedTuple):
    value: float
    kind: IntegralKind
    error_bound: float
    diagnostics: Diagnostics


def _tail(e: ElementaryIntegrand, interval: Interval) -> tuple[float, bool]:
    """``(tau, closed)`` of a shape other than ONE, as the tail (tau, b]
    or [tau, b]: chi of (a, b] is the open tail at a, chi of [b] the
    closed tail at b."""
    if e.kind is IndicatorKind.OPEN_FROM_A:
        return interval.a, False
    if e.kind is IndicatorKind.POINT_B:
        return interval.b, True
    if not interval.a < e.tau < interval.b:
        raise DomainError(
            f"tau={e.tau!r} must be strictly inside [{interval.a}, {interval.b}]")
    return e.tau, e.kind is IndicatorKind.CLOSED_TAIL


def elementary_forward(e: ElementaryIntegrand, g: RegulatedFunction,
                       kind: IntegralKind | str) -> IntegralResult:
    """Closed-form integral of an elementary indicator against dg.  K
    and Y share a column; D ignores one-sided limits at the left cut and
    drops the endpoint atom (its tags never reach the nodes)."""
    kind = IntegralKind(kind)
    b = g.interval.b
    if e.kind is IndicatorKind.ONE:
        value = g.value(b) - g.value(g.interval.a)
    else:
        tau, closed = _tail(e, g.interval)
        limit = g.left_limit if closed else g.right_limit
        value = g.value(b) - (g.value(tau) if kind is IntegralKind.DUSHNIK else limit(tau))
    return IntegralResult(value, kind, 0.0, Diagnostics("indicator-table"))


def elementary_backward(g: RegulatedFunction, e: ElementaryIntegrand,
                        kind: IntegralKind | str) -> IntegralResult:
    """Closed-form integral of g against the indicator's differential."""
    kind = IntegralKind(kind)
    if e.kind is IndicatorKind.ONE:
        value = 0.0
    else:
        tau, closed = _tail(e, g.interval)
        limit = g.left_limit if closed else g.right_limit
        value = limit(tau) if kind is IntegralKind.DUSHNIK else g.value(tau)
    return IntegralResult(value, kind, 0.0, Diagnostics("indicator-table"))


def _step_integrand_terms(f: StepFunction, limits, dushnik: bool):
    # D: sum_k d_k [g(sigma_{k+1}) - g(sigma_k)].
    # K, Y: sum_k c_k [g(sigma_k+) - g(sigma_k-)]
    #       + sum_k d_k [g(sigma_{k+1}-) - g(sigma_k+)],
    # from ``limits``, g's ``_limits_at(f.nodes)``.  The terms come as one
    # list in node order, c_0, d_0, c_1, ..., d_{m-1}, c_m (fsum's order
    # matters only when a partial sum overflows).
    cs, ds = f.node_values, f.interior_values
    lefts, values, rights = limits
    if dushnik:
        return [d * (v - u) for d, u, v in zip(ds, values, values[1:])]
    terms = [0.0] * (len(cs) + len(ds))
    terms[::2] = [c * (r - l) for c, l, r in zip(cs, lefts, rights)]
    terms[1::2] = [d * (l - r) for d, r, l in zip(ds, rights, lefts[1:])]
    return terms


def _step_integrator_terms(limits, g: StepFunction, dushnik: bool):
    # K, Y: sum_k f(sigma_k) [g(sigma_k+) - g(sigma_k-)].
    # D: sum_k f(sigma_k+) [g(sigma_k+) - g(sigma_k)]
    #          + f(sigma_k-) [g(sigma_k) - g(sigma_k-)],
    # from ``limits``, f's ``_limits_at(g.nodes)``.  Where g does not move
    # the term is a zero (f is finite), which leaves fsum's result as it is.
    lefts, values, rights = limits
    before, cs, after = _limit_rows(g.interior_values, g.node_values, g.interior_values)
    if not dushnik:
        return [v * (s - p) for v, p, s in zip(values, before, after)]
    terms = [0.0] * (2 * len(cs))
    terms[::2] = [r * (s - c) for r, c, s in zip(rights, cs, after)]
    terms[1::2] = [l * (c - p) for l, p, c in zip(lefts, before, cs)]
    return terms


def integrate_step_pair(f: RegulatedFunction, g: RegulatedFunction,
                        kind: IntegralKind | str) -> IntegralResult:
    """Exact integral when either argument is a step function: the five
    closed forms summed by parts into one walk over the step argument's
    nodes, added with ``math.fsum``.  A sum past the float range is
    refused with a StieltjesError."""
    kind = IntegralKind(kind)
    _require_pair(f, g)
    dushnik = kind is IntegralKind.DUSHNIK
    if isinstance(f, StepFunction):
        step, terms = f, _step_integrand_terms(f, g._limits_at(f.nodes), dushnik)
    elif isinstance(g, StepFunction):
        step, terms = g, _step_integrator_terms(f._limits_at(g.nodes), g, dushnik)
    else:
        raise DomainError(
            "integrate_step_pair needs a step function in one slot; "
            "use integrate() for general regulated pairs")
    return IntegralResult(finite_fsum(terms, "the step-pair sum"), kind, 0.0,
                          Diagnostics("step-table", None, step.piece_count))


def _budget(tol: float, factor: float) -> float:
    """The largest float eps with fl(eps * factor) <= tol.  fl(x *
    factor) is monotone in x, so stepping from tol / factor by an ulp or
    two finds it.  A zero factor certifies any approximant: it gets
    math.inf."""
    if not factor:
        return math.inf
    eps = tol / factor
    while eps * factor > tol:
        eps = math.nextafter(eps, 0.0)
    while (up := math.nextafter(eps, math.inf)) * factor <= tol:
        eps = up
    return eps


_BATCH = 512  # Gauss-Legendre cells per list in the sum

# The two nodes of a cell of width h sit at h (1/2 -+ 1/(2 sqrt 3)); each
# weighs h / 2.  On n equal cells of [u, v] the rule's error is at most
# (v - u) h**4 sup|F''''| / 4320 (Davis & Rabinowitz).  Truncation bounds
# are taken _UP high, which covers the roundings of the bounds and widths.
_NODES = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
_UP = 1.0 + 2.0 ** -40
_ERROR = _UP / 4320.0
_DEPTH = 20  # levels of a graded cell, 8 times narrower each


def _product(x: float, y: float) -> float:
    # x * y, with 0 for a zero factor even when the other is inf: a
    # constant side adds nothing, however wild the other one is.
    return x * y if x and y else 0.0


def _derivative_bounds(form, u: float, v: float, top: int) -> list:
    """sup|form^(k)| on [u, v] for k = 1, ..., top.  A derivative whose
    bound is 0 vanishes on the cell, and so do the higher ones."""
    bounds, b = [], 1.0
    for k in range(1, top + 1):
        if b:
            b = form.derivative_bound_on(u, v, k)
        bounds.append(b)
    return bounds


def _cell_bounds(p, q, u: float, v: float, sup: float):
    """``(c, d, g1)`` for F = (p - d0) q' on [u, v], with |p - d0| <= sup:
    c = sup|F''''| times ``_ERROR``, by Leibniz from the catalog's bounds
    on p^(k) (k <= 4) and q^(k) (k <= 5); d bounds sup|F'| and g1 sup|q'|.
    c and d are inf where a factor is unbounded (a singular end at 0); a
    product of finite factors past the float range raises DomainError."""
    fs = (sup, *_derivative_bounds(p, u, v, 4))
    gs = _derivative_bounds(q, u, v, 5)[::-1]
    c = sum(map(mul, (1.0, 4.0, 6.0, 4.0, 1.0), map(_product, fs, gs)))
    d = _product(fs[1], gs[4]) + _product(sup, gs[3])
    if not c + d < math.inf and math.inf not in fs and math.inf not in gs:
        raise DomainError(f"the fourth-order bound on [{u!r}, {v!r}] overflows")
    return c * _ERROR, d, gs[4]


def _node_rounding(u: float, v: float, d: float) -> float:
    # A computed node u + (k + c) h is within 12 u max(|u|, |v|) of the
    # exact one, which moves F by d times that; the weights add to v - u.
    return (v - u) * d * 12.0 * UNIT_ROUNDOFF * max(abs(u), abs(v))


class _Graded:
    """A cell [u, v] whose fourth-order bound is unbounded at u (t**e at
    0, e non-integer below 4 in f or below 5 in g), graded geometrically
    toward u.  At level m, [u, y_m] with y_0 = v and y_m+1 = u + (y_m -
    u) / 8 takes the first-order bound

        b = h (F1 G1 h + sup min(2 G1, G2 h)),  h = y_m - u,

    which holds for any nodes in the cell and weights adding to h; beside
    it the cells [y_l+1, y_l], l < m, take fourth-order bounds.  Levels
    are read on demand and kept for every budget of the pair; they end
    at depth ``_DEPTH`` or at a level whose bounds are not finite."""

    __slots__ = ("forms", "u", "v", "i", "j", "sup", "firsts", "cells")

    def __init__(self, forms, u: float, v: float, i: int, j: int, sup: float):
        self.forms, self.u, self.v, self.i, self.j, self.sup = forms, u, v, i, j, sup
        self.firsts, self.cells = [], []

    def level(self, m: int):
        """``(b, y)`` of level m, or None past the last level; the cells
        beside it are ``cells[:m]``."""
        firsts, cells, u = self.firsts, self.cells, self.u
        p, q = self.forms
        try:
            while len(firsts) <= m:
                if len(firsts) > _DEPTH:
                    return None
                if firsts:
                    y = firsts[-1][1]
                    x = u + 0.125 * (y - u)
                    c, d, _ = _cell_bounds(p, q, x, y, self.sup)
                    weight = (y - x) * c ** 0.2
                    if not weight < math.inf:  # x rounded to u, or a bound overflows
                        return None
                    cells.append((x, y, self.i, self.j, weight, c, _node_rounding(x, y, d)))
                else:
                    x = self.v
                h = x - u
                f1, g1, g2 = (p.derivative_bound_on(u, x, 1), q.derivative_bound_on(u, x, 1),
                              q.derivative_bound_on(u, x, 2))
                firsts.append((h * (f1 * g1 * h + _product(self.sup, min(2.0 * g1, g2 * h)))
                               * _UP, x))
        except DomainError:
            return None
        return firsts[m]


def _gauss_plan(regular, graded, budget: float, width: float, limit: int):
    """Cell counts for the Gauss-Legendre sum within a truncation
    ``budget``: ``(segments, cells, bound)`` with segments ``(u, v, i, j,
    n)``.

    A cell of width w with fourth-order constant c (``_cell_bounds``) on
    n equal cells is bounded by c w (w / n)**4.  Minimising the cells
    under a total budget gives each n = lam w c**(1/5), one lam for all,
    so cells grow like budget**(-1/4).  A graded cell (``_Graded``) goes
    to the first level whose first-order bound fits its share of budget
    / 16 by width; its cells beside that level join the allocation, and
    their node rounding counts here.  ``cells`` is math.inf where one
    cell alone passes ``limit``, where no budget is left, and where no
    level fits."""
    if not budget > 0:
        return [], math.inf, math.inf
    alloc, segments, bounds = list(regular), [], []
    for g in graded:
        share, m = budget / 16.0 * ((g.v - g.u) / width), 0
        while (level := g.level(m)) is not None:
            if level[0] <= share:
                break
            m += 1
        else:
            return [], math.inf, math.inf
        segments.append((g.u, level[1], g.i, g.j, 1))
        bounds.append(level[0])
        alloc += g.cells[:m]
        bounds += [cell[6] for cell in g.cells[:m]]
    rest = (budget - saturated(math.fsum, bounds)) * (1.0 - 2.0 ** -30)
    lam = math.sqrt(math.sqrt(sum(cell[4] for cell in alloc) / rest)) if rest > 0 else math.inf
    cells = len(segments)
    for u, v, i, j, weight, c, *_ in alloc:
        need = lam * weight if weight else 0.0
        if not need <= limit:
            return [], math.inf, math.inf
        n = max(1, math.ceil(need))
        cells += n
        w = v - u
        segments.append((u, v, i, j, n))
        bounds.append(_product(c * w, saturated(pow, w / n, 4)))
    return segments, cells, saturated(math.fsum, bounds)


def _gauss_limit(f: RegulatedFunction, g: RegulatedFunction,
                 kind: IntegralKind, tol: float) -> IntegralResult | None:
    """The fourth-order limit route; None when either argument lacks
    catalog derivative data (``_smooth_parts``), when a bound overflows,
    or when a power below 1 meets 0, where it is not Lipschitz.

    With f = f_j + f_c and g = g_j + g_c, f_j and g_j the jump steps
    with nodes sigma_k and values c_k at them and d_k between them, and
    f_c, g_c continuous,

        I(f, dg) = I(f_j, dg_j) + sum_k f_c(sigma_k) [g_j(sigma_k+) - g_j(sigma_k-)]
                   + sum_k d_k(f_j) [g_c(sigma_k+1) - g_c(sigma_k)] + int f_c g_c' dt,

    the first sum over g_j's nodes and the second over f_j's.  Only the
    first term depends on the kind: the step-pair walk of f_j against
    g_j.  The two sums, the same for K, Y and D, are walks too, on f_c
    and g_c at the other side's nodes (``_continuous_at``).  The last
    term is a composite two-point Gauss-Legendre sum of f_c g_c' on a
    grid aligned with both break lists, sized by ``_gauss_plan``, so
    cells grow like tol**(-1/4).  The bounds are read once per pair,
    before any budget is tried.  The rounding term adds, per cell [u, v]
    of the breaks' union, of width w, with e_f and e_g one evaluation's
    error bound of f_c and g_c' (``rounding_on`` plus u Y for
    subtracting f's offset, ``derivative_rounding_on``), Y = sup|f| +
    sup|f_j| + e_f and G1 = sup|g_c'|:

        w (e_f G1 + Y e_g)                   the values
        gamma_6 w Y (G1 + e_g)               the products, weights and sums
        w sup|F'| 12 u max(|u|, |v|)         the nodes' irrational positions

    (the last per fourth-order cell; a first-order cell needs none).
    Below the normal range each product (y - d) z, of weight h / 2, and
    each batch's halving, of weight h, round by up to 2**-1075 more, 2 n h
    <= 2 w (1 + 3u) in all on a cell whose products are not all 0, and so
    does the product with h of each of at most ``limit`` batches.  The
    jump terms are summed with the Gauss terms by one ``math.fsum``;
    like the step-pair route they add no rounding term."""
    fs, gs = f._smooth_parts(), g._smooth_parts()
    if fs is None or gs is None:
        return None
    f_jumps, f_breaks, f_forms, f_offsets = fs
    g_jumps, g_breaks, g_forms, _ = gs
    sup = f.sup_bound + f_jumps.sup_bound
    e_sum = 6.0 * UNIT_ROUNDOFF / (1.0 - 6.0 * UNIT_ROUNDOFF)
    limit = regulated.MAX_APPROX_CELLS
    width = f.interval.b - f.interval.a
    regular, graded, rounding, spread = [], [], [], 0.0
    breaks = sorted({*f_breaks, *g_breaks})
    try:
        for u, v in zip(breaks, breaks[1:]):  # cell i of f's breaks, cell j of g's
            i, j = bisect_right(f_breaks, u) - 1, bisect_right(g_breaks, u) - 1
            fp, gp = f_forms[i], g_forms[j]
            c, d, g1 = _cell_bounds(fp, gp, u, v, sup)
            w = v - u
            e_f = fp.rounding_on(u, v) + UNIT_ROUNDOFF * sup
            e_g = gp.derivative_rounding_on(u, v)
            y = sup + e_f  # bounds |f_c| as computed
            rounding += (w * (e_f * g1 + y * e_g), e_sum * w * y * (g1 + e_g))
            if y and g1 + e_g:  # else every product (y - d) z is exactly 0
                spread += w
            if c < math.inf:
                regular.append((u, v, i, j, w * c ** 0.2, c))
                rounding.append(_node_rounding(u, v, d))
            else:
                graded.append(_Graded((fp, gp), u, v, i, j, sup))
        rounding = saturated(math.fsum, rounding)
        if spread:  # after the sum, which this leaves as it is above the normal range
            rounding += (spread * (1.0 + 2.0 ** -40) + 0.5 * limit + 1.0) * 2.0 ** -1074
    except DomainError:  # no bounded derivative
        return None
    if not (math.isfinite(rounding) and math.isfinite(width)
            and sum(cell[4] for cell in regular) < math.inf):  # the cell sizes' weights
        return None

    def attempt(t):
        plan = _gauss_plan(regular, graded, t - rounding, width, limit)
        return plan, plan[1] <= limit and plan[2] + rounding <= t

    (segments, count, bound), fits = attempt(tol)
    if not fits:
        best = _smallest_tol(attempt, max(tol, rounding))  # no tol <= rounding fits
        needs = count if count < math.inf else f"more than {limit}"
        raise _refusal(tol, f"needs {needs} Gauss-Legendre cells (limit {limit})", best)
    # A continuous side's left limit, value and right limit coincide, so
    # each cross sum is a walk: the integrator's K form, the integrand's D.
    f_cs, g_cs = _continuous_at(fs, g_jumps.nodes), _continuous_at(gs, f_jumps.nodes)
    terms = chain(_step_integrand_terms(f_jumps, g_jumps._limits_at(f_jumps.nodes),
                                        kind is IntegralKind.DUSHNIK),
                  _step_integrator_terms((f_cs, f_cs, f_cs), g_jumps, False),
                  _step_integrand_terms(f_jumps, (g_cs, g_cs, g_cs), True),
                  *(_gauss_terms(f_forms[i], f_offsets[i], g_forms[j], u, v, n)
                    for u, v, i, j, n in segments))
    return IntegralResult(finite_fsum(terms, "the Gauss-Legendre sum"), kind, bound + rounding,
                          Diagnostics("limit-gauss", None, count))


def _continuous_at(parts, nodes) -> list:
    """The continuous part f - f_j at each of ``nodes``, from f's
    ``_smooth_parts``: one formula call per node, in the cell that starts
    at or before it (the last cell at b)."""
    _, breaks, forms, offsets = parts
    cells = [min(bisect_right(breaks, t), len(forms)) - 1 for t in nodes]
    return [forms[i](t) - offsets[i] for i, t in zip(cells, nodes)]


def _gauss_terms(p, d, q, u: float, v: float, n: int):
    """h/2 sum (p(t) - d) q'(t) over the two nodes t of each of the n
    cells of width h = (v - u) / n, one sum per batch of _BATCH cells, so
    a tight tol asks for no long lists; the values read through
    ``values_at`` and ``derivative_values_at``."""
    h = (v - u) / n
    for k0 in range(0, n, _BATCH):
        ts = [u + (k + c) * h for k in range(k0, min(k0 + _BATCH, n)) for c in _NODES]
        ys, zs = p.values_at(ts), q.derivative_values_at(ts)
        # Halving the sum, not h: 0.5 * h rounds where h is an odd
        # number of subnormal ulps.
        yield h * (0.5 * math.fsum([(y - d) * z for y, z in zip(ys, zs)]))


def _refusal(tol: float, why: str, best: float) -> ApproximationError:
    """Refuse ``tol`` for ``why``; the message names a finite floor ``best``."""
    floor = (f"; the smallest tol this route can certify is {best:.3g}"
             if math.isfinite(best) else "")
    return ApproximationError(why + floor, best, tol)


def _smallest_tol(attempt, tol: float) -> float:
    """The smallest tolerance ``attempt`` certifies, given that ``tol``
    does not fit, to a factor 1 + 1e-7 above: powers of 4 times tol up
    to one that fits, then halving the ratio of the last two in log
    space; inf when none is found."""
    lo = hi = tol
    while True:
        hi *= 4.0
        if not hi < math.inf:
            return math.inf
        if attempt(hi)[1]:
            break
        lo = hi
    for _ in range(24):
        mid = lo * math.sqrt(hi / lo)
        if attempt(mid)[1]:
            hi = mid
        else:
            lo = mid
    return hi


def integrate(f: RegulatedFunction, g: RegulatedFunction, kind: IntegralKind | str,
              tol: float = 1e-9) -> IntegralResult:
    """Integral of f against dg with a certified error bound.

    A step argument gives the exact closed form of
    ``integrate_step_pair`` (method "step-table", error_bound 0, no
    variation bound needed).  When
    both arguments are catalog functions this is the fourth-order route
    of ``_gauss_limit`` (method "limit-gauss").  Otherwise (an
    argument built on arbitrary callables, or catalog bounds that
    overflow) the regulated factor is replaced by a step approximant and
    the defect is bounded a priori:

        |I(f, dg) - I(f_n, dg)| <= sup|f - f_n| * var g
        |I(f, dg) - I(f, dg_n)| <= (|f(a)| + |f(b)| + var f) * sup|g - g_n|

    The variation factor is never approximated; when both variations
    are known the side with the smaller predicted bound is kept.  The
    approximant is asked for eps = tol / var g (integrand side) or
    eps = tol / bv f (integrator side), taken as the largest float whose
    floating-point product with that factor is at most tol, and eps =
    inf when the factor is 0, so that each piece takes one cell.  The
    returned ``error_bound``, the achieved sup error times the factor,
    therefore never exceeds ``tol`` in floating point.  This route needs
    at least one argument of certified finite variation.

    A refusal reads "tolerance {tol!r} {why}", with a floor as its
    ``best_error`` (``_refusal``).  On the fourth-order route that is the
    smallest tol the route certifies; on the first-order route it is the
    approximant's floor times the factor, beside the approximant's
    ``why``, and a monotone base's floor is only a lower bound.
    """
    check_tol(tol)
    if isinstance(f, StepFunction) or isinstance(g, StepFunction):
        return integrate_step_pair(f, g, kind)
    kind = IntegralKind(kind)
    _require_pair(f, g)
    gauss = _gauss_limit(f, g, kind, tol)
    if gauss is not None:
        return gauss
    a, b = f.interval.a, f.interval.b
    var_g, var_f = g.variation_bound, f.variation_bound
    bv_f = None if var_f is None else abs(f.value(a)) + abs(f.value(b)) + var_f
    # A factor that overflowed certifies nothing: it counts as unknown.
    var_g, bv_f = (None if x is None or not math.isfinite(x) else x for x in (var_g, bv_f))
    if var_g is None and bv_f is None:
        raise DomainError(
            "the limit route needs a certified finite variation bound on f or g")

    predicted_f = None if var_g is None else tol * var_g / (2.0 * var_g + 1.0)
    predicted_g = None if bv_f is None else tol * bv_f / (bv_f + 1.0)
    take_f = predicted_g is None or (predicted_f is not None and predicted_f <= predicted_g)

    # Approximate the integrand against g, or the integrator under f.
    side, factor = (f, var_g) if take_f else (g, bv_f)
    eps = _budget(tol, factor)
    try:
        step, err = side.approximate(eps)
    except ApproximationError as exc:
        # Without a positive factor eps was already inf: no tol helps.
        raise _refusal(tol, exc.why, exc.best_error * factor if factor else math.inf) from exc
    # The walk counts the approximant's pieces, the step it walks.
    exact = integrate_step_pair(*((step, g) if take_f else (f, step)), kind)
    method = "limit-integrand" if take_f else "limit-integrator"
    return IntegralResult(exact.value, kind, _product(err, factor),
                          exact.diagnostics._replace(method=method, approximant_error=err))


integrate_limit = integrate


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
    result's own error bound.  The value counts as summed over the cells
    the result reports (``approximant_pieces``), or one cell."""
    return _norm_checks(f, g, (("integral", result.value),),
                        result.diagnostics.approximant_pieces or 1, result.error_bound)
