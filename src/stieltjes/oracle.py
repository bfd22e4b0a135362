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
current center sum to within ``tol``.  A level of either oracle draws
its sums one at a time and stops once they spread past 4 tol: then
neither it nor the next level can converge.  A sum past the float
range refuses the run only if it is drawn.  A level's sums differ
only in their tags, so they share one read of f and g at the
division's nodes.
The center sum's midpoint partition refuses a cell too narrow for an
interior tag; each seeded probe draws its tags only for the cells
where g's factor is nonzero, through the last of them, so a Young
level against a step g seeds no generator at all.

A gauge level reads its gauge in one call per point: the override at
a jump, else the clipped distance to the nearest jump, checked
positive and finite as ``Gauge`` checks it.

The reported spread is a diagnostic stability measure, not a certified
error bound; certified bounds come from ``integrate``.

Reports are reproducible from their seed.  They rest only on the word
streams of ``random.Random(seed)``'s ``random`` and ``getrandbits``.
Seeded tags and split points come from ``random``, through
``Random.uniform``'s formula written out.  The gauge oracle orders its
candidate tags by ``Random.shuffle``'s draws, made here with
``getrandbits``, so reports do not depend on ``shuffle``'s algorithm,
which Python does not promise to keep.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Iterator, NamedTuple

from .core import RegulatedFunction, _require_pair
from .errors import DomainError, GaugeTooFineError, check_tol
from .integrate import IntegralKind
from .partitions import Division, SeededTags, _fine_partition, _width_refusal, interior_tags
from .stepfun import StepFunction
from .sums import _riemann_values, _young_values, riemann_sum

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
    _require_pair(f, g)
    jumps = tuple(sorted(set(f.jump_points()) | set(g.jump_points())))
    seeds = tuple(sorted({f.interval.a, f.interval.b, *jumps}))
    return jumps, seeds, not (isinstance(f, StepFunction) or isinstance(g, StepFunction))


def _level_seeds(seed: int, level: int, probes: int) -> list[int | None]:
    """None (midpoint tags, bisected cells) first, then one seed per probe."""
    return [None] + [(seed * 1_000_003 + level) * 1_000_003 + i for i in range(probes)]


def _converge(level_sums: Iterator[Iterator[float]], kind: IntegralKind,
              tol: float) -> OracleReport:
    """Read one iterator of sums per level, center sum first, until every
    sum of two consecutive levels lies within tol of the center.

    A level draws its sums one at a time and stops once fl(max - min) of
    them passes 4 tol: sums within tol of one center spread at most 2 tol
    plus rounding, so neither that level nor the next can pass.  A run
    that ends unconverged draws the rest of its last two levels, so its
    spread covers all their sums."""
    cut = 4.0 * tol
    # whole: the level was drawn to its end within the cut; a run's
    # first level has no level before it, so it cannot pass.
    center, levels, whole = math.nan, 0, False
    sums: list[float] = []
    prev: list[float] = []
    level = prev_level = iter(())
    for levels, drawn in enumerate(level_sums, 1):
        prev, prev_level, level = sums, level, drawn
        center = lo = hi = next(level)
        sums = [center]
        for s in level:
            sums.append(s)
            lo, hi = min(lo, s), max(hi, s)
            if hi - lo > cut:
                break
        prev_whole, whole = whole, hi - lo <= cut
        if prev_whole and whole:
            spread = max(abs(s - center) for s in sums + prev)
            if spread <= tol:
                return OracleReport(center, kind, spread, levels, True)
    prev.extend(prev_level)
    sums.extend(level)
    spread = max((abs(s - center) for s in sums + prev), default=math.inf)
    return OracleReport(center, kind, spread, levels, False)


def oracle_refinement(f: RegulatedFunction, g: RegulatedFunction,
                      kind: IntegralKind | str, tol: float = 1e-9,
                      seed: int = 0) -> OracleReport:
    """Refinement-limit value of the Young (jump-aware sums) or Dushnik
    (plain sums) integral, by sampling interior-tagged partitions."""
    kind = IntegralKind(kind)
    if kind is IntegralKind.KURZWEIL:
        raise DomainError("the Kurzweil integral is a gauge limit; use oracle_gauge")
    check_tol(tol)
    sum_fn = _young_values if kind is IntegralKind.YOUNG else _riemann_values
    jumps, seeds, global_split = _jumps_and_seeds(f, g)
    jumpset = frozenset(jumps)
    a, b = f.interval.a, f.interval.b

    def level_sums() -> Iterator[Iterator[float]]:
        division = Division(f.interval, seeds)
        terms = 0
        for level in range(MAX_LEVELS):
            terms += (PROBES + 1) * division.nu
            if terms > MAX_TERMS and level:
                return
            # The midpoint partition refuses a cell too narrow for an
            # interior tag, so the seeded probes need not check.
            probes = [SeededTags(division, s) for s in _level_seeds(seed, level, PROBES)[1:]]
            yield sum_fn(f, g, [interior_tags(division), *probes])
            extra: list[float] = []
            for u, v in division.cells():
                w = v - u
                if w <= 8.0 * math.ulp(max(abs(u), abs(v), 1.0)):
                    continue
                if global_split:
                    extra.append(0.5 * u + 0.5 * v)
                if u in jumpset:
                    extra.append(u + w / 16.0)
                if v in jumpset:
                    extra.append(v - w / 16.0)
            division = division.refine(x for x in extra if a < x < b)

    return _converge(level_sums(), kind, tol)


def _distance_gauge(base: float, jumps: tuple[float, ...], floor: float,
                    overrides: dict[float, float]) -> Callable[[float], float]:
    """The gauge ``Gauge(body, overrides)`` reads, in one call: the
    override at t, else max(min(base, half the distance from t to the
    nearest of ``jumps``), floor), or base alone when there are no
    jumps; refused unless positive and finite."""
    fence = (-math.inf, *jumps, math.inf)
    get = overrides.get
    if not jumps:
        floor = 0.0  # the distance is inf, so delta is base, unfloored

    def gauge(t: float) -> float:
        d = get(t)
        if d is None:
            # The nearest jump is one of the two that bracket t.
            i = bisect_left(fence, t)
            left, right = t - fence[i - 1], fence[i] - t
            d = 0.5 * (right if right < left else left)
            d = d if d < base else base
            d = floor if floor > d else d
        if not 0.0 < d < math.inf:
            raise _width_refusal(d, t)
        return d
    return gauge


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
    width = f.interval.b - f.interval.a
    floor = 8.0 * math.ulp(width)
    # An override over half the gap to the nearest other jump would let
    # a cell tagged at p reach that jump and weigh its step by f(p).
    gaps = [math.inf] + [y - x for x, y in zip(jumps, jumps[1:])] + [math.inf]
    half_gaps = [0.5 * min(l, r) for l, r in zip(gaps, gaps[1:])]

    def level_sums() -> Iterator[Iterator[float]]:
        budget = [math.inf]  # the first level runs whatever it costs
        for level in range(MAX_LEVELS):
            base = width * 2.0 ** (-(level + 1)) if global_dyadic else 0.25 * width
            gamma = max(width * 16.0 ** (-(level + 1)), 64.0 * math.ulp(width))
            gauge = _distance_gauge(base, jumps, floor,
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
            yield (riemann_sum(f, g, p).value for p in parts)

    return _converge(level_sums(), IntegralKind.KURZWEIL, tol)
