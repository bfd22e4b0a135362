"""The step-pair walk's batched reads.

``RegulatedFunction._limits_at`` hands the walks in ``integrate`` the
one-sided limits and values at a step function's nodes.  These tests
pin it, bit for bit, to the three point methods and the walk to the
per-node reads it replaced, and check that the sums and the oracles,
the walk's independent cross-check, never go through it.
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import NoCertificate, rand_smooth
from stieltjes import (Affine, IntegralKind, Interval, MonotoneFunction,
                       PiecewiseLipschitz, Power, RegulatedFunction, SinWave,
                       StepFunction, StieltjesError, integrate_step_pair, interior_tags,
                       oracle_gauge, oracle_refinement, riemann_sum,
                       young_sum)
from stieltjes import regulated
from stieltjes.partitions import Division

IV = Interval(0.0, 1.0)
KINDS = (IntegralKind.KURZWEIL, IntegralKind.YOUNG, IntegralKind.DUSHNIK)


def bits(xs):
    # Type and exact bits: a piece that returns an int must stay an int.
    return [(type(x).__name__, float(x).hex()) for x in xs]


# ------------------------------------------------------------- the families

def rand_piecewise_callables(rng: random.Random, interval: Interval = IV):
    """Arbitrary callables through ``__init__``, some returning ints, so
    nothing in the walk may convert or recompute a piece's value."""
    n = rng.randint(1, 4)
    inner = sorted({rng.uniform(interval.a, interval.b) for _ in range(n - 1)})
    breaks = [interval.a] + inner + [interval.b]
    pieces = []
    for _ in range(len(breaks) - 1):
        if rng.random() < 0.3:
            k = rng.randint(-3, 3)
            pieces.append(lambda t, k=k: k)
        else:
            s, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
            pieces.append(lambda t, s=s, c=c: s * t * t + c)
    at = [rng.uniform(-3, 3) for _ in breaks] if rng.random() < 0.5 else None
    return PiecewiseLipschitz(interval, breaks, pieces, [10.0] * len(pieces), at)


def rand_monotone(rng: random.Random, interval: Interval = IV):
    """Increasing or decreasing base, with 0 to 4 jumps, sometimes at a
    (after only) and at b (before only)."""
    sign = rng.choice((1.0, -1.0))
    base = rng.choice((Affine(sign * rng.uniform(0.0, 3.0), rng.uniform(-1, 1)),
                       Power(rng.uniform(1.0, 3.0), sign * rng.uniform(0.1, 2.0))))
    jumps = []
    for _ in range(rng.randint(0, 4)):
        t = rng.choice((interval.a, interval.b, rng.uniform(interval.a, interval.b)))
        pre = 0.0 if t == interval.a else sign * rng.choice((0.0, rng.uniform(0, 1)))
        post = 0.0 if t == interval.b else sign * rng.choice((0.0, rng.uniform(0, 1)))
        jumps.append((t, pre, post))
    return MonotoneFunction(interval, base, jumps)


def special_points(fn) -> list[float]:
    """Where ``fn`` changes formula or jumps."""
    pts = set(fn.jump_points())
    for name in ("_breaks", "_nodes"):
        pts.update(getattr(fn, name, ()))
    return sorted(pts)


def step_through(rng: random.Random, fn, max_extra: int = 12) -> StepFunction:
    """A random step function on fn's interval whose nodes take some of
    fn's breaks and jumps, miss others, and add points between them."""
    iv = fn.interval
    pts = {p for p in special_points(fn) if rng.random() < 0.6}
    pts |= {rng.uniform(iv.a, iv.b) for _ in range(rng.randint(0, max_extra))}
    nodes = sorted({iv.a, iv.b} | {p for p in pts if iv.a < p < iv.b})
    values = [rng.choice((0.0, 1.0, rng.uniform(-4, 4))) for _ in nodes]
    pieces = [rng.choice((0.0, 1.0, rng.uniform(-4, 4))) for _ in nodes[1:]]
    return StepFunction(iv, nodes, values, pieces)


def rand_family(rng: random.Random, family: str) -> RegulatedFunction:
    if family == "step":
        return step_through(rng, StepFunction.constant(IV, 0.0), max_extra=20)
    if family == "formulas":
        return rand_smooth(rng)
    if family == "callables":
        return rand_piecewise_callables(rng)
    if family == "monotone":
        return rand_monotone(rng)
    return NoCertificate(IV)


FAMILIES = ("step", "formulas", "callables", "monotone", "uncertified")


# ----------------------------------------------- batched reads = point reads

def point_reads(fn, nodes):
    values = [fn.value(t) for t in nodes]
    lefts = [values[0]] + [fn.left_limit(t) for t in nodes[1:]]
    rights = [fn.right_limit(t) for t in nodes[:-1]] + [values[-1]]
    return lefts, values, rights


def test_limits_at_equals_the_three_point_reads():
    rng = random.Random(20261018)
    hits = misses = 0
    for family in FAMILIES:
        for _ in range(80):
            fn = rand_family(rng, family)
            nodes = step_through(rng, fn).nodes
            special = set(special_points(fn))
            hits += sum(t in special for t in nodes[1:-1])
            misses += sum(t not in special for t in nodes[1:-1])
            got = fn._limits_at(nodes)
            want = point_reads(fn, nodes)
            # The default reads the point methods through _limit_rows.
            default = RegulatedFunction._limits_at(fn, nodes)
            assert len(got) == 3
            for g, w, d in zip(got, want, default):
                assert bits(g) == bits(w) == bits(d), (family, nodes)
    # The nodes exercised both branches of every walk.
    assert hits > 100 and misses > 100


def test_limits_at_on_the_endpoints_alone_and_on_every_break():
    f = PiecewiseLipschitz.from_formulas(
        IV, (0.0, 0.25, 0.5, 1.0), (Affine(1.0), SinWave(3.0), Power(2.0)),
        (9.0, 0.25, -1.0, 7.0))
    m = MonotoneFunction(IV, Affine(1.0), ((0.0, 0.0, 1.0), (0.5, 2.0, 0.0),
                                           (1.0, 3.0, 0.0)))
    s = StepFunction(IV, (0.0, 0.5, 1.0), (1.0, 2.0, 3.0), (4.0, 5.0))
    for fn in (f, m, s, NoCertificate(IV)):
        for nodes in ((0.0, 1.0), (0.0, 0.25, 0.5, 1.0), (0.0, 0.5, 0.75, 1.0)):
            for g, w in zip(fn._limits_at(nodes), point_reads(fn, nodes)):
                assert bits(g) == bits(w)
    # f(a-) := f(a) and f(b+) := f(b).
    assert f._limits_at((0.0, 1.0)) == ([9.0, 1.0], [9.0, 7.0], [0.0, 7.0])
    assert m._limits_at((0.0, 1.0)) == ([0.0, 4.0], [0.0, 7.0], [1.0, 7.0])


def test_jump_points_and_the_jump_step_take_the_gaps_of_the_rows():
    # jump_points() is the nodes (a step's) or breaks (the smooth
    # families') where f(t) - f(t-) or f(t+) - f(t) is nonzero; the jump
    # step of _smooth_parts has, at each break, the correctly rounded
    # running sum of those gaps as its left limit, value and right limit.
    rng = random.Random(20261020)
    seen, split = set(), 0
    for family in ("step", "formulas", "callables", "monotone"):
        for _ in range(80):
            fn = rand_family(rng, family)
            nodes = getattr(fn, "_breaks", None) or fn.nodes
            rows = point_reads(fn, nodes)
            gaps = [(c - left, right - c) for left, c, right in zip(*rows)]
            assert fn.jump_points() == tuple(
                t for t, gap in zip(nodes, gaps) if any(gap)), (family, nodes)
            seen.add((family, bool(fn.jump_points())))
            parts = fn._smooth_parts() if family == "formulas" else None
            if parts is None:
                continue
            want, acc = ([], [], []), Fraction(0)
            for left_gap, right_gap in gaps:
                want[0].append(float(acc))
                acc += Fraction(left_gap)
                want[1].append(float(acc))
                acc += Fraction(right_gap)
                want[2].append(float(acc))
            assert parts[0]._limits_at(nodes) == want, nodes
            split += 1
    # Every family with jumps, the smooth ones without too, and splits.
    assert len(seen) == 7 and split > 40


# --------------------------------------------- the walk = the per-node walk

def old_walk(f, g, kind):
    """The step-pair walk as it was before the batched read: point
    reads of the non-step argument at every node, in the same order."""
    dushnik = kind is IntegralKind.DUSHNIK
    if isinstance(f, StepFunction):
        ns, cs, ds = f.nodes, f.node_values, f.interior_values
        terms = []
        if dushnik:
            g_prev = g.value(ns[0])
            for k, d in enumerate(ds):
                g_next = g.value(ns[k + 1])
                terms.append(d * (g_next - g_prev))
                g_prev = g_next
            return math.fsum(terms)
        g_left = g.value(ns[0])
        for k, d in enumerate(ds):
            g_right = g.right_limit(ns[k])
            terms.append(cs[k] * (g_right - g_left))
            g_left = g.left_limit(ns[k + 1])
            terms.append(d * (g_left - g_right))
        terms.append(cs[-1] * (g.value(ns[-1]) - g_left))
        return math.fsum(terms)
    ns, cs, ds = g.nodes, g.node_values, g.interior_values
    m = len(ds)
    terms = []
    for k, x in enumerate(ns):
        before = ds[k - 1] if k else cs[0]
        after = ds[k] if k < m else cs[m]
        if dushnik:
            if after != cs[k]:
                terms.append(f.right_limit(x) * (after - cs[k]))
            if cs[k] != before:
                terms.append(f.left_limit(x) * (cs[k] - before))
        elif after != before:
            terms.append(f.value(x) * (after - before))
    return math.fsum(terms)


def test_step_pair_walk_is_bit_identical_to_the_per_node_walk():
    rng = random.Random(11)
    pairs = 0
    for rnd in range(55):
        for family in FAMILIES:
            other = rand_family(rng, family)
            step = step_through(rng, other)
            for f, g in ((step, other), (other, step)):
                for kind in KINDS:
                    got = integrate_step_pair(f, g, kind).value
                    assert got.hex() == old_walk(f, g, kind).hex(), (family, kind)
                pairs += 1
    assert pairs >= 500


HUGE = (1.7e308, -1.7e308, 1e308, -1e308, 0.0, 1.0)


def huge_constants(rng: random.Random, nodes) -> PiecewiseLipschitz:
    """Constant pieces and node values near the top of the float range
    on ``nodes``: no step function, so the walk goes the integrator way."""
    pieces = [lambda t, k=rng.choice(HUGE): k for _ in nodes[1:]]
    return PiecewiseLipschitz(IV, nodes, pieces, [0.0] * len(pieces),
                              [rng.choice(HUGE) for _ in nodes])


def test_step_pair_walk_refuses_where_the_per_node_walk_overflows():
    """Terms up to 1.7e308, none infinite: the steps' values are at most
    1 apart, so only a partial sum in node order can pass the float range.
    Where it does, the per-node walk's fsum raises and the walk refuses;
    elsewhere the two agree bit for bit."""
    rng = random.Random(5)
    seen = {"refused": 0, "finite": 0, "partial overflow": 0}
    for _ in range(150):
        nodes = [0.0] + sorted({rng.random() for _ in range(rng.randint(1, 8))} - {0.0}) + [1.0]
        huge = StepFunction(IV, nodes, [rng.choice(HUGE) for _ in nodes],
                            [rng.choice(HUGE) for _ in nodes[1:]])
        unit_nodes = step_through(rng, huge).nodes
        unit = StepFunction(IV, unit_nodes, [rng.choice((0.0, 0.5, 1.0)) for _ in unit_nodes],
                            [rng.choice((0.0, 0.5, 1.0)) for _ in unit_nodes[1:]])
        for f, g in ((huge, unit), (huge_constants(rng, nodes), unit)):
            for kind in KINDS:
                try:
                    total = old_walk(f, g, kind)
                    want = total.hex() if math.isfinite(total) else "refused"
                except OverflowError:  # math.fsum's partial sum past the float range
                    want = "refused"
                    seen["partial overflow"] += 1
                try:
                    got = integrate_step_pair(f, g, kind).value.hex()
                except StieltjesError as exc:
                    assert str(exc) == "the step-pair sum overflows: not finite"
                    got = "refused"
                assert got == want, (f, g, kind)
                seen["refused" if got == "refused" else "finite"] += 1
    assert min(seen.values()) >= 50, seen


# ------------------------------------------------- the oracles stay apart

def test_sums_and_oracles_never_use_the_batched_read(monkeypatch):
    def refuse(self, nodes):
        raise AssertionError("_limits_at called")

    def subclasses(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from subclasses(sub)

    patched = {cls for cls in subclasses(RegulatedFunction) if "_limits_at" in vars(cls)}
    # The two smooth families share one read path.
    assert {RegulatedFunction, StepFunction, regulated._Piecewise} <= patched
    for cls in patched:
        monkeypatch.setattr(cls, "_limits_at", refuse)

    step = StepFunction(IV, (0.0, 0.5, 1.0), (0.0, 2.0, 1.0), (1.0, -1.0))
    smooth = PiecewiseLipschitz.from_formulas(IV, (0.0, 0.5, 1.0),
                                              (Affine(1.0), SinWave(2.0)))
    mono = MonotoneFunction(IV, Power(2.0), ((0.5, 0.25, 0.5),))
    with pytest.raises(AssertionError, match="_limits_at called"):
        integrate_step_pair(step, smooth, IntegralKind.YOUNG)
    partition = interior_tags(Division(IV, (0.0, 0.25, 0.5, 0.75, 1.0)), seed=3)
    for f, g in ((step, smooth), (smooth, step), (step, mono), (mono, step)):
        assert math.isfinite(riemann_sum(f, g, partition).value)
        assert math.isfinite(young_sum(f, g, partition).value)
        for kind in (IntegralKind.YOUNG, IntegralKind.DUSHNIK):
            assert math.isfinite(oracle_refinement(f, g, kind, tol=1e-6).value)
        assert math.isfinite(oracle_gauge(f, g, tol=1e-6).value)
