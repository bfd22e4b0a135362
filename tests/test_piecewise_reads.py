"""The one read path of the two smooth families, pinned to their own reads.

Before ``PiecewiseLipschitz`` and ``MonotoneFunction`` shared a read path,
the first read a raw piece inside a cell and its node value on a break,
and the second read its jump step plus its base.  The references below
rebuild those reads from the constructors' arguments alone; every read of
the shared path must match them in type and in bits.
"""

import math
import random
from bisect import bisect_left

import pytest

from stieltjes import (Affine, DomainError, Interval, MonotoneFunction,
                       PiecewiseLipschitz, Power, SinWave, StepFunction,
                       step_from_jumps)

IV = Interval(0.0, 1.0)
READS = ("value", "left_limit", "right_limit", "_limits_at", "jump_points")


def bits(x):
    # Type and exact bits: a piece that returns an int must stay an int.
    return type(x).__name__, float(x).hex()


class ThreeReads:
    """``_limits_at`` as the three point reads, f(a-) := f(a), f(b+) := f(b)."""

    def _limits_at(self, nodes):
        values = [self.value(t) for t in nodes]
        lefts = [values[0]] + [self.left_limit(t) for t in nodes[1:]]
        rights = [self.right_limit(t) for t in nodes[:-1]] + [values[-1]]
        return lefts, values, rights


class OldPiecewise(ThreeReads):
    """PiecewiseLipschitz's reads: the raw piece inside a cell, the
    node value on a break, and its certificates from the cell ends."""

    def __init__(self, breaks, pieces, node_values, variations, lipschitz):
        self.breaks, self.pieces = breaks, pieces
        lefts = [p(u) for p, u in zip(pieces, breaks)]
        rights = [p(v) for p, v in zip(pieces, breaks[1:])]
        at = lefts + rights[-1:] if node_values is None else node_values
        self.at = [float(x) for x in at]
        gaps, jumps = 0.0, []
        for t, left, val, right in zip(breaks, self.at[:1] + rights, self.at,
                                       lefts + self.at[-1:]):
            gaps += abs(val - left)
            gaps += abs(val - right)
            if left != val or right != val:
                jumps.append(t)
        self.jumps = tuple(jumps)
        self.variation_bound = math.fsum(variations) + gaps
        sup = max(abs(v) for v in self.at)
        for fu, fv, c, u, v in zip(lefts, rights, lipschitz, breaks, breaks[1:]):
            sup = max(sup, max(abs(fu), abs(fv)) + 0.5 * c * (v - u))
        self.sup_bound = sup

    def value(self, t):
        i = bisect_left(self.breaks, t)
        return self.at[i] if self.breaks[i] == t else self.pieces[i - 1](t)

    def left_limit(self, t):
        return self.pieces[bisect_left(self.breaks, t) - 1](t)

    def right_limit(self, t):
        i = bisect_left(self.breaks, t)
        return self.pieces[i if self.breaks[i] == t else i - 1](t)

    def jump_points(self):
        return self.jumps


class OldMonotone(ThreeReads):
    """MonotoneFunction's reads: the jump step's read plus the base's,
    the jump step built from the jump list as its constructor builds it."""

    def __init__(self, base, jumps):
        plus, minus, endpoint = [], [], 0.0
        for t, pre, post in sorted(jumps):
            if t == IV.b:
                endpoint += pre
            elif pre != 0.0:
                minus.append((t, pre))
            if post != 0.0:
                plus.append((t, post))
        self.step = (step_from_jumps(IV, 0.0, plus, minus, endpoint)
                     if plus or minus or endpoint else StepFunction.constant(IV, -0.0))
        self.base = base
        ends = self.value(IV.a), self.value(IV.b)
        self.variation_bound = abs(ends[1] - ends[0])
        self.sup_bound = max(abs(ends[0]), abs(ends[1]))

    def value(self, t):
        return self.step.value(t) + self.base(t)

    def left_limit(self, t):
        return self.step.left_limit(t) + self.base(t)

    def right_limit(self, t):
        return self.step.right_limit(t) + self.base(t)

    def jump_points(self):
        return self.step.jump_points()


# ------------------------------------------------------------ seeded pairs

def rand_piece(rng):
    pick = rng.randrange(5)
    if pick == 0:
        k = rng.randint(-3, 3)
        return (lambda t, k=k: k), 0.0  # reads as an int
    if pick == 1:
        s, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
        return (lambda t, s=s, c=c: s * t * t + c), 4.0
    return rng.choice((Affine(rng.uniform(-3, 3), rng.uniform(-2, 2)),
                       SinWave(rng.uniform(0.5, 6), rng.uniform(0.2, 2), rng.uniform(0, 6)),
                       Power(rng.uniform(1.0, 3.0), rng.uniform(-2, 2)))), None


def rand_piecewise(rng):
    """Both constructors: catalog formulas through ``from_formulas``, or
    any mix with plain callables, some returning ints, through
    ``__init__``; node values given (some ints) or spliced from the right."""
    inner = sorted({rng.choice((0.25, 0.5, rng.uniform(0, 1)))
                    for _ in range(rng.randint(0, 3))} - {0.0, 1.0})
    breaks = [0.0] + inner + [1.0]
    drawn = [rand_piece(rng) for _ in breaks[1:]]
    pieces = tuple(p for p, _ in drawn)
    at = None
    if rng.random() < 0.5:
        at = [rng.choice((rng.randint(-2, 2), rng.uniform(-3, 3))) for _ in breaks]
    cells = list(zip(pieces, breaks, breaks[1:]))
    if all(c is None for _, c in drawn):
        new = PiecewiseLipschitz.from_formulas(IV, breaks, pieces, at)
        lips = [fm.lipschitz_on(u, v) for fm, u, v in cells]
        variations = [fm.variation_on(u, v) for fm, u, v in cells]
    else:
        lips = [fm.lipschitz_on(u, v) if c is None else c
                for (fm, u, v), (_, c) in zip(cells, drawn)]
        new = PiecewiseLipschitz(IV, breaks, pieces, lips, at)
        variations = [c * (v - u) for c, u, v in zip(lips, breaks, breaks[1:])]
    return new, OldPiecewise(breaks, pieces, at, variations, lips)


def rand_monotone(rng):
    """Rising, falling or constant bases, the falling powers and the
    -0.0 base reading -0.0 at 0 and the constant ones ints, with 0 to 4
    jumps: at a (after only), at b (before only), on 0.5 and inside."""
    sign = rng.choice((1.0, -1.0))
    k = rng.randint(-2, 2)
    base = rng.choice((Affine(sign * rng.uniform(0.0, 3.0), rng.uniform(-1, 1)),
                       Power(rng.choice((1.0, 2.0, 2.5)), sign * rng.uniform(0.1, 2.0)),
                       lambda t, k=k: k, lambda t: -0.0 * t))
    jumps = []
    for _ in range(rng.choice((0, 0, 1, 2, 4))):
        t = rng.choice((0.0, 1.0, 0.5, rng.uniform(0.0, 1.0)))
        pre = 0.0 if t == 0.0 else sign * rng.choice((0.0, rng.uniform(0, 1)))
        post = 0.0 if t == 1.0 else sign * rng.choice((0.0, rng.uniform(0, 1)))
        jumps.append((t, pre, post))
    return MonotoneFunction(IV, base, jumps), OldMonotone(base, jumps)


def reads(fn, points, nodes):
    """Every read the families offer, as (type, bits)."""
    out = [("jumps",) + tuple(map(bits, fn.jump_points())),
           ("bounds", bits(fn.sup_bound), bits(fn.variation_bound))]
    for t in points:
        out.append(("value", bits(fn.value(t))))
        if t > IV.a:
            out.append(("left", bits(fn.left_limit(t))))
        if t < IV.b:
            out.append(("right", bits(fn.right_limit(t))))
    out += [("batch",) + tuple(map(bits, part)) for part in fn._limits_at(nodes)]
    return out


@pytest.mark.parametrize("draw, cases", (
    (rand_piecewise, {"int read"}),
    (rand_monotone, {"int base"})))
def test_reads_match_each_familys_own_reads(draw, cases):
    rng = random.Random(280)
    seen = set()
    for _ in range(250):
        new, old = draw(rng)
        special = sorted({0.0, 0.25, 0.5, 1.0, *new.jump_points(), *new._breaks})
        points = special + [rng.uniform(0.0, 1.0) for _ in range(6)]
        nodes = sorted({0.0, 1.0} | {t for t in points if rng.random() < 0.5})
        got = reads(new, points, nodes)
        assert got == reads(old, points, nodes)
        flat = {x for row in got for x in row[1:]}
        seen |= {"int read" for name, _ in flat if name == "int"}
        if isinstance(old, OldMonotone) and type(old.base(0.5)) is int:
            seen.add("int base")
        seen |= {"-0.0" for name, bit in flat if bit == "-0x0.0p+0"}
        seen |= {"no jumps" if not new.jump_points() else "jumps"}
        seen |= {f"jump at {t}" for t in new.jump_points() if t in (0.0, 1.0)}
    assert cases | {"-0.0", "no jumps", "jumps", "jump at 0.0", "jump at 1.0"} <= seen


def test_both_families_read_through_one_path():
    for name in READS:
        assert getattr(PiecewiseLipschitz, name) is getattr(MonotoneFunction, name)
    for new, _ in (rand_piecewise(random.Random(1)), rand_monotone(random.Random(2))):
        for read, t in (("value", 1.5), ("left_limit", 0.0), ("right_limit", 1.0)):
            with pytest.raises(DomainError):
                getattr(new, read)(t)
