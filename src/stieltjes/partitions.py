"""Divisions, tagged partitions, gauges, and constructive generation of
gauge-fine partitions.

A division is a finite node set containing both endpoints; a partition
adds one tag per cell.  Tags come in two flavours: ``free`` tags may
sit anywhere in the closed cell (gauge-limit integrals), ``interior``
tags must be strictly inside (refinement-limit integrals).

A gauge-fine partition is built by splitting cells until each accepts
one of its candidate tags.  A cell splits only after reading the gauge
at all of its candidates, its two ends among them, so each child is
handed the value at the end it shares with its parent, and at the split
point too when that is the parent's midpoint (always, unseeded).  A
drawn split point's value comes from the cell accepted just before, as
does the value at each point a partition is built through.  The gauge
is therefore read once at each point of a fine partition.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Iterator, NamedTuple

from .core import Interval, as_floats, checked_make
from .errors import DomainError, GaugeError, GaugeTooFineError

TAG_FREE = "free"
TAG_INTERIOR = "interior"
# Splits a fine-partition cell may take before the gauge is refused.
MAX_DEPTH = 60
_NO_OVERRIDE = object()
# rng.uniform(0.05, 0.95)'s span as its formula computes it: 0.8999999999999999.
_TAG_SPAN = 0.95 - 0.05


def _shuffled_orders() -> tuple[tuple[int, ...], ...]:
    """The order ``Random.shuffle`` leaves [0, 1, 2, 3] in, at index
    6 * j3 + 2 * j2 + j1 for its draws j3 < 4, j2 < 3 and j1 < 2."""
    orders = []
    for j3, j2, j1 in itertools.product(range(4), range(3), range(2)):
        x = [0, 1, 2, 3]
        for i, j in ((3, j3), (2, j2), (1, j1)):
            x[i], x[j] = x[j], x[i]
        orders.append(tuple(x))
    return tuple(orders)


_ORDERS = _shuffled_orders()


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
        """Add ``extra``; ``Division`` refuses a point outside the interval, or a NaN."""
        return Division(self.interval, sorted(set(self.points) | set(map(float, extra))))


class Partition(NamedTuple("Partition", [("division", Division),
                                         ("tags", tuple[float, ...]),
                                         ("mode", str)])):
    """A division with one tag per cell."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, division: Division, tags: Iterable[float],
                mode: str = TAG_FREE) -> "Partition":
        tags = tuple(map(float, tags))
        if mode not in (TAG_FREE, TAG_INTERIOR):
            raise DomainError(f"unknown tag mode {mode!r}")
        if len(tags) != division.nu:
            raise DomainError(
                f"{division.nu} cells need {division.nu} tags, got {len(tags)}")
        free = mode == TAG_FREE
        pts = division.points
        for u, v, t in zip(pts, pts[1:], tags):
            if not (u <= t <= v if free else u < t < v):
                raise DomainError(f"tag {t!r} not valid for cell [{u}, {v}] in {mode} mode")
        return super().__new__(cls, division, tags, mode)

    @property
    def size(self) -> int:
        return self.division.nu

    def cells(self) -> Iterator[tuple[float, float, float]]:
        for (u, v), t in zip(self.division.cells(), self.tags):
            yield u, v, t

    def tags_at(self, cells) -> list[float]:
        """The tags of ``cells``, a sequence of cell indices."""
        tags = self.tags
        return [tags[j] for j in cells]


def interior_tags(division: Division, seed: int | None = None) -> Partition:
    """Tag every cell strictly inside: at its midpoint, or, given a
    seed, at a reproducible draw from the cell's middle 90%."""
    pts = division.points
    tags = [0.5 * (u + v) for u, v in zip(pts, pts[1:])]
    for u, v, mid in zip(pts, pts[1:], tags):
        if not u < mid < v:
            raise DomainError(f"cell [{u}, {v}] too narrow for a strictly interior tag")
    if seed is not None:
        tags = _seeded_tags(pts, seed, range(len(tags)))
    # Every tag is strictly inside its cell, which is all the checked
    # constructor's loop would test again.
    return tuple.__new__(Partition, (division, tuple(tags), TAG_INTERIOR))


def _seeded_tags(pts, seed: int, cells) -> list[float]:
    """The seeded interior tags of ``cells``, increasing indices of
    cells of the division with nodes ``pts``, none too narrow for one.
    ``Random(seed).random`` draws once per cell in cell order, up to the
    last of ``cells``; a cell's tag is rng.uniform(0.05, 0.95)'s formula
    at its draw, or its midpoint where that rounds onto an end."""
    if not cells:
        return []
    draws = list(map(random.Random.random, itertools.repeat(random.Random(seed), cells[-1] + 1)))
    tags = []
    for j in cells:
        u, v = pts[j], pts[j + 1]
        t = u + (v - u) * (0.05 + _TAG_SPAN * draws[j])
        tags.append(t if u < t < v else 0.5 * (u + v))
    return tags


class SeededTags(NamedTuple):
    """The tags ``interior_tags(division, seed)`` gives, drawn only for
    the cells a sum reads.  Like a ``Partition``, a probe of the batched
    sums: ``tags_at`` gives the tags of the cells asked for.  It checks
    no cell; ``interior_tags(division)`` refuses one too narrow."""

    division: Division
    seed: int

    def tags_at(self, cells) -> list[float]:
        return _seeded_tags(self.division.points, self.seed, cells)


class Gauge:
    """Positive width function delta(t).

    The body is a constant or a callable, such as a step function;
    finitely many pointwise overrides (exact float keys) sit on top.
    Positivity of callable bodies can only be checked where they are
    evaluated, and is.  A body must be a pure function of t: a fine
    partition reads it once at a point and reuses the value there.
    A constant body and the override widths are made floats here, so
    one past the float range is refused on construction; a callable
    body's value past it is refused where it is read.
    """

    __slots__ = ("_body", "_overrides")

    def __init__(self, body, overrides: dict[float, float] | None = None):
        width = None if callable(body) else as_floats((body,), "gauge widths")[0]
        self._body = body if width is None else (lambda t: width)
        overrides = dict(overrides) if overrides else {}
        self._overrides = dict(zip(overrides, as_floats(overrides.values(), "gauge widths")))

    def __call__(self, t: float) -> float:
        d = self._overrides.get(t, _NO_OVERRIDE)
        if d is _NO_OVERRIDE:
            d = self._body(t)
            try:
                d = float(d)
            except OverflowError as exc:  # an int past the float range
                raise DomainError(f"gauge widths must be finite: {exc}") from None
        if not 0.0 < d < math.inf:
            raise _width_refusal(d, t)
        return d


def _width_refusal(d: float, t: float) -> GaugeError:
    """The refusal of a gauge width ``d`` at ``t`` that is not positive
    and finite."""
    return GaugeError(f"gauge must be positive and finite, got {d!r} at t={t!r}")


def is_fine(partition: Partition, gauge: Gauge) -> bool:
    """Whether every cell [u, v] sits inside [tag - delta, tag + delta]."""
    for u, v, t in partition.cells():
        d = gauge(t)
        if u < t - d or v > t + d:
            return False
    return True


def _generate_fine_cells(gauge: Gauge, points, rng: random.Random | None,
                         budget: list[float] | None = None) -> list[tuple[float, float, float]]:
    """The cells (u, v, tag) of a gauge-fine partition of [points[0],
    points[-1]] with every one of the sorted ``points`` among its nodes.

    A cell takes the first candidate tag the gauge accepts, else splits
    in two.  Without ``rng`` the candidates are u, the midpoint and v,
    and the split is at the midpoint; with it, u, v, the midpoint and
    one uniform draw are tried in shuffled order, and the split point is
    drawn in the middle 30% of the cell.  Each accepted cell takes one
    unit of ``budget[0]``.  A child reuses the gauge values its parent
    read at their shared end and, when it is the midpoint, at the split
    point; a cell that starts at a drawn split point or at one of the
    ``points`` reuses the value the cell accepted before it read there."""
    if rng is None:
        order = (0, 2, 1)
    else:
        draw, bits = rng.random, rng.getrandbits
    # Depth-first, left cell first, so the output arrives in order and
    # each popped cell starts where the last accepted one ended.  A
    # stacked cell carries the gauge's values at its ends, None if unread.
    out: list[tuple[float, float, float]] = []
    d_end = None
    stack = [(u, v, 0, None, None) for u, v in zip(points, points[1:])][::-1]
    while stack:
        u, v, depth, du, dv = stack.pop()
        if du is None:
            du = d_end
        mid = 0.5 * (u + v)
        values = [du, dv, None, None]
        if rng is None:
            tags = (u, v, mid)
        else:
            # rng.uniform(0.1, 0.9) by its own formula.
            tags = (u, v, mid, u + (v - u) * (0.1 + (0.9 - 0.1) * draw()))
            # rng.shuffle of four indices, by its own draws:
            # _randbelow(4), (3) and (2), each getrandbits of n's bit
            # length, redrawn while not below n.
            j3 = bits(3)
            while j3 >= 4:
                j3 = bits(3)
            j2 = bits(2)
            while j2 >= 3:
                j2 = bits(2)
            j1 = bits(2)
            while j1 >= 2:
                j1 = bits(2)
            order = _ORDERS[6 * j3 + 2 * j2 + j1]
        for i in order:
            t, d = tags[i], values[i]
            if d is None:
                d = values[i] = gauge(t)
            if u >= t - d and v <= t + d:
                break
        else:
            if depth >= MAX_DEPTH:
                raise GaugeTooFineError(
                    f"no fine cell found above depth {MAX_DEPTH} near [{u!r}, {v!r}]")
            s, ds = mid, values[2]
            if rng is not None:
                # rng.uniform(0.35, 0.65), as above.
                r = u + (v - u) * (0.35 + (0.65 - 0.35) * draw())
                if u < r < v:
                    s, ds = r, None
            if not u < s < v:
                raise GaugeTooFineError(
                    f"gauge demands cells below float resolution near {u!r}")
            stack.append((s, v, depth + 1, ds, values[1]))
            stack.append((u, s, depth + 1, values[0], ds))
            continue
        out.append((u, v, t))
        d_end = values[1]
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise GaugeTooFineError("fine partition exceeds its cell budget")
    return out


def _fine_partition(gauge: Gauge, points, seed: int | None,
                    budget: list[float] | None = None) -> Partition:
    """A gauge-fine free-tagged partition of [points[0], points[-1]]
    with every one of the sorted ``points`` among its nodes."""
    rng = None if seed is None else random.Random(seed)
    cells = _generate_fine_cells(gauge, points, rng, budget)
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
