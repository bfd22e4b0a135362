"""Brute-force the integrals straight from their limit definitions.

Nothing here knows the closed forms in ``integrate``; that independence
is the point.  ``oracle_refinement`` drives nets of ever finer
divisions with randomized strictly-interior tags (the Young and Dushnik
definitions), ``oracle_gauge`` drives genuinely delta-fine free-tagged
partitions against shrinking gauges whose pointwise overrides force
tags onto the discontinuities (the Kurzweil definition).

Refinement schedule: every division contains both endpoints and every
known jump of either function.  Cells touching a jump shrink by a
factor of 16 per level on the jump side, because that is where the
sums actually move; cells away from jumps are bisected only when
neither function is a step function.  A candidate value counts as
converged once all probe sums of two consecutive levels agree with the
current center sum to within ``tol``.

The reported spread is a diagnostic stability measure, not a certified
error bound; certified bounds come from ``integrate``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterator, NamedTuple

from .core import RegulatedFunction
from .errors import DomainError, GaugeTooFineError, check_tol
from .integrate import IntegralKind
from .partitions import Division, Gauge, _fine_partition, interior_tags
from .stepfun import StepFunction
from .sums import riemann_sum, young_sum

# Levels either oracle tries before it reports no convergence.
MAX_LEVELS = 18
# Sum terms (refinement) or fine cells (gauge) one run may spend; level 0 always runs.
MAX_TERMS = 1 << 17
# Randomly tagged sums per refinement level, besides the midpoint sum.
PROBES = 32
# Fine partitions per gauge level, the deterministic one included.
PARTITIONS = 16


class OracleReport(NamedTuple):
    value: float
    kind: IntegralKind
    achieved_spread: float
    levels: int
    converged: bool


def _jumps_and_seeds(f: RegulatedFunction, g: RegulatedFunction
                     ) -> tuple[tuple[float, ...], tuple[float, ...], bool]:
    """The sorted jumps of f and g together, the same points with both
    endpoints added, and whether neither function is a step function
    (then cells away from the jumps need refining too)."""
    if f.interval != g.interval:
        raise DomainError("integrand and integrator live on different intervals")
    jumps = tuple(sorted(set(f.jump_points()) | set(g.jump_points())))
    seeds = tuple(sorted({f.interval.a, f.interval.b, *jumps}))
    return jumps, seeds, not (isinstance(f, StepFunction) or isinstance(g, StepFunction))


def _level_seeds(seed: int, level: int, probes: int) -> list[int | None]:
    """None (midpoint tags, bisected cells) first, then one seed per probe."""
    return [None] + [(seed * 1_000_003 + level) * 1_000_003 + i for i in range(probes)]


def _converge(level_sums: Iterator[list[float]], kind: IntegralKind,
              tol: float) -> OracleReport:
    """Read one list of sums per level, center sum first, until every
    sum of two consecutive levels lies within tol of the center."""
    center, spread, levels = math.nan, math.inf, 0
    prev_sums: list[float] = []
    for levels, sums in enumerate(level_sums, 1):
        center = sums[0]
        spread = max(abs(s - center) for s in sums + prev_sums)
        if levels >= 2 and spread <= tol:
            return OracleReport(center, kind, spread, levels, True)
        prev_sums = sums
    return OracleReport(center, kind, spread, levels, False)


def oracle_refinement(f: RegulatedFunction, g: RegulatedFunction,
                      kind: IntegralKind, tol: float = 1e-9,
                      seed: int = 0) -> OracleReport:
    """Refinement-limit value of the Young (jump-aware sums) or Dushnik
    (plain sums) integral, by sampling interior-tagged partitions."""
    if kind is IntegralKind.KURZWEIL:
        raise DomainError("the Kurzweil integral is a gauge limit; use oracle_gauge")
    check_tol(tol)
    sum_fn = young_sum if kind is IntegralKind.YOUNG else riemann_sum
    jumps, seeds, global_split = _jumps_and_seeds(f, g)
    jumpset = frozenset(jumps)
    a, b = f.interval.a, f.interval.b

    def level_sums() -> Iterator[list[float]]:
        division = Division(f.interval, seeds)
        terms = 0
        for level in range(MAX_LEVELS):
            terms += (PROBES + 1) * division.nu
            if terms > MAX_TERMS and level:
                return
            yield [sum_fn(f, g, interior_tags(division, s)).value
                   for s in _level_seeds(seed, level, PROBES)]
            extra: list[float] = []
            for u, v in division.cells():
                w = v - u
                if w <= 8.0 * math.ulp(max(abs(u), abs(v), 1.0)):
                    continue
                if global_split:
                    extra.append(0.5 * (u + v))
                if u in jumpset:
                    extra.append(u + w / 16.0)
                if v in jumpset:
                    extra.append(v - w / 16.0)
            division = division.refine(x for x in extra if a < x < b)

    return _converge(level_sums(), kind, tol)


def _distance_body(base: float, jumps: tuple[float, ...], floor: float):
    if not jumps:
        return base
    fence = (-math.inf, *jumps, math.inf)

    def body(t: float) -> float:
        # The nearest jump is one of the two that bracket t.
        i = bisect_left(fence, t)
        return max(min(base, 0.5 * min(t - fence[i - 1], fence[i] - t)), floor)
    return body


def oracle_gauge(f: RegulatedFunction, g: RegulatedFunction,
                 tol: float = 1e-9, seed: int = 0) -> OracleReport:
    """Gauge-limit value of the Kurzweil integral.

    Level L uses gauge delta(t) = min(base, half the distance to the
    nearest jump) with pointwise overrides delta(p) = min(gamma_L, half
    the distance from p to the nearest other jump) at every jump p,
    gamma_L shrinking by 16 per level.  Any cell whose closure meets a
    jump then has to carry that jump itself as its tag, which is what
    makes plain sums settle.  Each partition has every jump among its
    nodes, so the override tags are reachable.
    """
    check_tol(tol)
    jumps, seeds, global_dyadic = _jumps_and_seeds(f, g)
    width = f.interval.width
    floor = 8.0 * math.ulp(width)
    # An override over half the gap to the nearest other jump would let
    # a cell tagged at p reach that jump and weigh its step by f(p).
    gaps = [math.inf] + [y - x for x, y in zip(jumps, jumps[1:])] + [math.inf]
    half_gaps = [0.5 * min(l, r) for l, r in zip(gaps, gaps[1:])]

    def level_sums() -> Iterator[list[float]]:
        budget = [math.inf]  # the first level runs whatever it costs
        for level in range(MAX_LEVELS):
            base = width * 2.0 ** (-(level + 1)) if global_dyadic else 0.25 * width
            gamma = max(width * 16.0 ** (-(level + 1)), 64.0 * math.ulp(width))
            gauge = Gauge(_distance_body(base, jumps, floor),
                          {p: min(gamma, h) for p, h in zip(jumps, half_gaps)})
            try:
                parts = [_fine_partition(gauge, seeds, s, budget)
                         for s in _level_seeds(seed, level, PARTITIONS - 1)]
            except GaugeTooFineError:
                if budget[0] < 0:
                    return
                raise
            if not level:
                budget[0] = MAX_TERMS - sum(p.size for p in parts)
            yield [riemann_sum(f, g, p).value for p in parts]

    return _converge(level_sums(), IntegralKind.KURZWEIL, tol)
