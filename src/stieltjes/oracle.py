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
import random
from typing import NamedTuple

from .core import Interval, RegulatedFunction
from .errors import DomainError, GaugeTooFineError, check_tol
from .integrate import IntegralKind
from .partitions import (Division, Gauge, Partition, _cells_to_partition,
                         _generate_fine_cells, interior_tags)
from .stepfun import StepFunction
from .sums import riemann_sum, young_sum


class OracleReport(NamedTuple):
    value: float
    kind: IntegralKind
    achieved_spread: float
    levels: int
    converged: bool


def _jumps_and_seeds(f: RegulatedFunction, g: RegulatedFunction
                     ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The sorted jumps of f and g together, and the same points with
    both endpoints added."""
    if f.interval != g.interval:
        raise DomainError("integrand and integrator live on different intervals")
    jumps = tuple(sorted(set(f.jump_points()) | set(g.jump_points())))
    return jumps, tuple(sorted({f.interval.a, f.interval.b, *jumps}))


def _probe_seed(seed: int, level: int, i: int) -> int:
    return (seed * 1_000_003 + level) * 1_000_003 + i


def oracle_refinement(f: RegulatedFunction, g: RegulatedFunction,
                      kind: IntegralKind, tol: float = 1e-9, seed: int = 0, *,
                      probes: int = 32, max_levels: int = 18,
                      max_terms: int = 1 << 17) -> OracleReport:
    """Refinement-limit value of the Young (jump-aware sums) or Dushnik
    (plain sums) integral, by sampling interior-tagged partitions."""
    if kind is IntegralKind.KURZWEIL:
        raise DomainError("the Kurzweil integral is a gauge limit; use oracle_gauge")
    check_tol(tol)
    sum_fn = young_sum if kind is IntegralKind.YOUNG else riemann_sum
    jumps, seeds = _jumps_and_seeds(f, g)
    jumpset = frozenset(jumps)
    global_split = not (isinstance(f, StepFunction) or isinstance(g, StepFunction))

    division = Division(f.interval, seeds)
    center = math.nan
    spread = math.inf
    terms = 0
    levels = 0
    prev_sums: list[float] = []
    for level in range(max_levels):
        terms += (probes + 1) * division.nu
        if terms > max_terms:
            break
        levels = level + 1
        center = sum_fn(f, g, interior_tags(division, "midpoint")).value
        cur_sums = [center]
        for i in range(probes):
            part = interior_tags(division, "random", _probe_seed(seed, level, i))
            cur_sums.append(sum_fn(f, g, part).value)
        spread = max(abs(s - center) for s in cur_sums + prev_sums)
        if level >= 1 and spread <= tol:
            return OracleReport(center, kind, spread, levels, True)
        prev_sums = cur_sums

        extra: list[float] = []
        a, b = f.interval.a, f.interval.b
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
    return OracleReport(center, kind, spread, levels, False)


def _distance_gauge(base: float, jumps: tuple[float, ...], floor: float) -> Gauge:
    if not jumps:
        return Gauge(base)

    def body(t: float) -> float:
        d = min(abs(t - p) for p in jumps)
        return max(min(base, 0.5 * d), floor)

    return Gauge(body)


def _segmented_fine_partition(gauge: Gauge, seeds: tuple[float, ...],
                              rng: random.Random | None,
                              budget: list[int]) -> Partition:
    """One delta-fine free-tagged partition of [seeds[0], seeds[-1]],
    built per segment so inter-seed boundaries are division points and
    the override tags are reachable."""
    cells: list[tuple[float, float, float]] = []
    for u, v in zip(seeds, seeds[1:]):
        cells.extend(_generate_fine_cells(gauge, u, v, rng, 60, budget))
    return _cells_to_partition(Interval(seeds[0], seeds[-1]), cells)


def oracle_gauge(f: RegulatedFunction, g: RegulatedFunction,
                 tol: float = 1e-9, seed: int = 0, *,
                 partitions: int = 16, max_levels: int = 18,
                 max_terms: int = 1 << 17) -> OracleReport:
    """Gauge-limit value of the Kurzweil integral.

    Level L uses gauge delta(t) = min(base, half the distance to the
    nearest jump) with pointwise overrides delta(p) = min(gamma_L, half
    the distance from p to the nearest other jump) at every jump p,
    gamma_L shrinking by 16 per level.  Any cell whose closure meets a
    jump then has to carry that jump itself as its tag, which is what
    makes plain sums settle.
    """
    check_tol(tol)
    jumps, seeds = _jumps_and_seeds(f, g)
    width = f.interval.width
    global_dyadic = not (isinstance(f, StepFunction) or isinstance(g, StepFunction))
    floor = 8.0 * math.ulp(width)
    # An override over half the gap to the nearest other jump would let
    # a cell tagged at p reach that jump and weigh its step by f(p).
    gaps = [math.inf] + [y - x for x, y in zip(jumps, jumps[1:])] + [math.inf]
    half_gaps = [0.5 * min(l, r) for l, r in zip(gaps, gaps[1:])]

    center = math.nan
    spread = math.inf
    levels = 0
    budget = [max_terms]
    prev_sums: list[float] = []
    for level in range(max_levels):
        base = width * 2.0 ** (-(level + 1)) if global_dyadic else 0.25 * width
        gamma = max(width * 16.0 ** (-(level + 1)), 64.0 * math.ulp(width))
        gauge = _distance_gauge(base, jumps, floor).with_overrides(
            {p: min(gamma, h) for p, h in zip(jumps, half_gaps)})
        try:
            parts = [_segmented_fine_partition(gauge, seeds, None, budget)]
            for i in range(partitions - 1):
                rng = random.Random(_probe_seed(seed, level, i))
                parts.append(_segmented_fine_partition(gauge, seeds, rng, budget))
        except GaugeTooFineError:
            if budget[0] < 0:
                break
            raise
        levels = level + 1
        sums = [riemann_sum(f, g, p).value for p in parts]
        center = sums[0]
        spread = max(abs(s - center) for s in sums + prev_sums)
        if level >= 1 and spread <= tol:
            return OracleReport(center, IntegralKind.KURZWEIL, spread, levels, True)
        prev_sums = sums
    return OracleReport(center, IntegralKind.KURZWEIL, spread, levels, False)
