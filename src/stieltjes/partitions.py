"""Divisions, tagged partitions, gauges, and constructive generation of
gauge-fine partitions.

A division is a finite node set containing both endpoints; a partition
adds one tag per cell.  Tags come in two flavours: ``free`` tags may
sit anywhere in the closed cell (gauge-limit integrals), ``interior``
tags must be strictly inside (refinement-limit integrals).
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, NamedTuple

from .core import Interval, checked_make
from .errors import DomainError, GaugeError, GaugeTooFineError

TAG_FREE = "free"
TAG_INTERIOR = "interior"
# Splits a fine-partition cell may take before the gauge is refused.
MAX_DEPTH = 60


class Division(NamedTuple("Division", [("interval", Interval),
                                       ("points", tuple[float, ...])])):
    """Strictly increasing nodes alpha_0 < ... < alpha_nu spanning the
    interval exactly."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, interval: Interval, points: Iterable[float]) -> "Division":
        pts = tuple(interval.check_division(points, "division points"))
        return super().__new__(cls, interval, pts)

    @property
    def nu(self) -> int:
        return len(self.points) - 1

    def cells(self) -> Iterator[tuple[float, float]]:
        return zip(self.points, self.points[1:])

    def refine(self, extra: Iterable[float]) -> "Division":
        extra = [float(x) for x in extra]
        for x in extra:
            self.interval.require(x)
        merged = sorted(set(self.points) | set(extra))
        return Division(self.interval, tuple(merged))


class Partition(NamedTuple("Partition", [("division", Division),
                                         ("tags", tuple[float, ...]),
                                         ("mode", str)])):
    """A division with one tag per cell."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, division: Division, tags: Iterable[float],
                mode: str = TAG_FREE) -> "Partition":
        tags = tuple(float(x) for x in tags)
        if mode not in (TAG_FREE, TAG_INTERIOR):
            raise DomainError(f"unknown tag mode {mode!r}")
        if len(tags) != division.nu:
            raise DomainError(
                f"{division.nu} cells need {division.nu} tags, got {len(tags)}")
        for (u, v), t in zip(division.cells(), tags):
            ok = u <= t <= v if mode == TAG_FREE else u < t < v
            if not ok:
                raise DomainError(f"tag {t!r} not valid for cell [{u}, {v}] in {mode} mode")
        return super().__new__(cls, division, tags, mode)

    @property
    def size(self) -> int:
        return self.division.nu

    def cells(self) -> Iterator[tuple[float, float, float]]:
        for (u, v), t in zip(self.division.cells(), self.tags):
            yield u, v, t


def interior_tags(division: Division, seed: int | None = None) -> Partition:
    """Tag every cell strictly inside: at its midpoint, or, given a
    seed, at a reproducible draw from the cell's middle 90%."""
    tags = []
    rng = None if seed is None else random.Random(seed)
    for u, v in division.cells():
        mid = 0.5 * (u + v)
        if not u < mid < v:
            raise DomainError(f"cell [{u}, {v}] too narrow for a strictly interior tag")
        if rng is None:
            tags.append(mid)
        else:
            t = u + (v - u) * rng.uniform(0.05, 0.95)
            tags.append(t if u < t < v else mid)
    return Partition(division, tuple(tags), TAG_INTERIOR)


class Gauge:
    """Positive width function delta(t).

    The body is a constant or a callable, such as a step function;
    finitely many pointwise overrides (exact float keys) sit on top.
    Positivity of callable bodies can only be checked where they are
    evaluated, and is.
    """

    __slots__ = ("_body", "_overrides")

    def __init__(self, body, overrides: dict[float, float] | None = None):
        self._body = body
        self._overrides = dict(overrides) if overrides else {}

    def __call__(self, t: float) -> float:
        if t in self._overrides:
            d = self._overrides[t]
        elif callable(self._body):
            d = self._body(t)
        else:
            d = self._body
        d = float(d)
        if not (math.isfinite(d) and d > 0.0):
            raise GaugeError(f"gauge must be positive and finite, got {d!r} at t={t!r}")
        return d


def is_fine(partition: Partition, gauge: Gauge) -> bool:
    """Whether every cell [u, v] sits inside [tag - delta, tag + delta]."""
    for u, v, t in partition.cells():
        d = gauge(t)
        if u < t - d or v > t + d:
            return False
    return True


def _generate_fine_cells(gauge: Gauge, u0: float, v0: float,
                         rng: random.Random | None,
                         budget: list[float] | None = None) -> list[tuple[float, float, float]]:
    """The cells (u, v, tag) of a gauge-fine partition of [u0, v0].

    A cell takes the first candidate tag the gauge accepts, else splits
    in two.  Without ``rng`` the candidates are u, the midpoint and v,
    and the split is at the midpoint; with it, u, v, the midpoint and
    one uniform draw are tried in shuffled order, and the split point is
    drawn in the middle 30% of the cell.  Each accepted cell takes one
    unit of ``budget[0]``."""
    # Depth-first, left cell first, so the output arrives in order.
    out: list[tuple[float, float, float]] = []
    stack = [(u0, v0, 0)]
    while stack:
        u, v, depth = stack.pop()
        mid = 0.5 * (u + v)
        if rng is None:
            candidates = [u, mid, v]
        else:
            candidates = [u, v, mid, u + (v - u) * rng.uniform(0.1, 0.9)]
            rng.shuffle(candidates)
        for t in candidates:
            d = gauge(t)
            if u >= t - d and v <= t + d:
                break
        else:
            if depth >= MAX_DEPTH:
                raise GaugeTooFineError(
                    f"no fine cell found above depth {MAX_DEPTH} near [{u!r}, {v!r}]")
            s = mid if rng is None else u + (v - u) * rng.uniform(0.35, 0.65)
            if not u < s < v:
                s = mid
                if not u < s < v:
                    raise GaugeTooFineError(
                        f"gauge demands cells below float resolution near {u!r}")
            stack.append((s, v, depth + 1))
            stack.append((u, s, depth + 1))
            continue
        out.append((u, v, t))
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise GaugeTooFineError("fine partition exceeds its cell budget")
    return out


def _fine_partition(gauge: Gauge, points, seed: int | None,
                    budget: list[float] | None = None) -> Partition:
    """A gauge-fine free-tagged partition of [points[0], points[-1]]
    with every one of the sorted ``points`` among its nodes, built cell
    by cell between consecutive points."""
    rng = None if seed is None else random.Random(seed)
    cells: list[tuple[float, float, float]] = []
    for u, v in zip(points, points[1:]):
        cells.extend(_generate_fine_cells(gauge, u, v, rng, budget))
    nodes = [points[0]] + [v for _, v, _ in cells]
    division = Division(Interval(points[0], points[-1]), nodes)
    return Partition(division, [t for _, _, t in cells], TAG_FREE)


def cousin_fine_partition(gauge: Gauge, interval: Interval,
                          seed: int | None = None) -> Partition:
    """A gauge-fine free-tagged partition, which Cousin's lemma says
    exists.  Without a seed, a cell is accepted when one of its
    endpoints or its midpoint works as tag, else split at the midpoint;
    a seed randomizes tag choices and split points reproducibly.
    Raises GaugeTooFineError past ``MAX_DEPTH`` splits."""
    return _fine_partition(gauge, (interval.a, interval.b), seed)
