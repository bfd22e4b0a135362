"""The oracles do only the work that reaches a sum.

The sums read f only at the tags of cells whose increment is nonzero,
and a seeded probe draws tags only for those cells.  The fine-cell
generator reads the gauge once at each point of a fine partition, and
the gauge oracle reads its gauge in one call.  These tests pin the
generator, bit for bit, to a tests-only copy of the one that re-read
them and shuffled its candidates with ``Random.shuffle``, and the gauge
oracle to a public ``Gauge`` over a tests-only copy of its two-call
body; they count the reads and draws that are left, and check that
every refusal keeps its text and every shortcut builds what the long
way built.
"""

import math
import random
from bisect import bisect_left
from collections import Counter

import pytest

from stieltjes import (Affine, Division, DomainError, Gauge, GaugeError,
                       GaugeTooFineError, IntegralKind, Interval, Partition,
                       PiecewiseLipschitz, StepFunction, build_pair,
                       cousin_fine_partition, interior_tags, oracle_refinement,
                       parse_spec)
from stieltjes import cli, oracle, partitions
from stieltjes.partitions import (MAX_DEPTH, TAG_FREE, TAG_INTERIOR, SeededTags,
                                  _fine_partition)
from test_step_walk import rand_family, step_through

IV = Interval(0.0, 1.0)


# ---------------------------------------- the generator that re-read

def reread_fine_cells(gauge, u0, v0, rng, budget=None):
    """``_generate_fine_cells`` as it was before it handed gauge values
    down: every cell reads the gauge at each candidate it tries."""
    out = []
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


def reread_fine_partition(gauge, points, seed, budget=None):
    rng = None if seed is None else random.Random(seed)
    cells = []
    for u, v in zip(points, points[1:]):
        cells.extend(reread_fine_cells(gauge, u, v, rng, budget))
    nodes = [points[0]] + [v for _, v, _ in cells]
    return Partition(Division(Interval(points[0], points[-1]), nodes),
                     [t for _, _, t in cells], TAG_FREE)


def outcome(build, *args):
    """Nodes and tags by ``float.hex``, or the refusal's type and text."""
    try:
        p = build(*args)
    except GaugeTooFineError as exc:
        return type(exc).__name__, str(exc)
    return ([x.hex() for x in p.division.points], [t.hex() for t in p.tags])


def two_call_body(base, jumps, floor):
    """The body of the public ``Gauge`` the gauge oracle read through
    before it read its gauge in one call."""
    if not jumps:
        return base
    fence = (-math.inf, *jumps, math.inf)

    def body(t):
        i = bisect_left(fence, t)
        left, right = t - fence[i - 1], fence[i] - t
        d = 0.5 * (right if right < left else left)
        d = d if d < base else base
        return floor if floor > d else d
    return body


def two_call_gauge(base, jumps, floor, overrides):
    """``oracle._distance_gauge`` as a public ``Gauge`` over ``two_call_body``."""
    return Gauge(two_call_body(base, jumps, floor), overrides)


def distance_gauges(jumps, width=1.0, levels=4):
    """The gauge oracle's gauges of its first ``levels`` levels."""
    floor = 8.0 * math.ulp(width)
    gaps = [math.inf] + [y - x for x, y in zip(jumps, jumps[1:])] + [math.inf]
    half_gaps = [0.5 * min(l, r) for l, r in zip(gaps, gaps[1:])]
    for level in range(levels):
        for base in (width * 2.0 ** (-(level + 1)), 0.25 * width):
            gamma = max(width * 16.0 ** (-(level + 1)), 64.0 * math.ulp(width))
            yield oracle._distance_gauge(base, jumps, floor,
                                         {p: min(gamma, h) for p, h in zip(jumps, half_gaps)})


SEEDS = (None, 0, 1, 7, 135, 1_000_003)


def test_fine_partitions_equal_the_generator_that_reread():
    rng = random.Random(20261018)
    nodes = (0.0, 0.125, 0.3, 0.7, 1.0)
    widths = StepFunction(IV, nodes, (0.05, 0.01, 0.2, 0.03, 0.1), (0.08, 0.002, 0.04, 0.3))
    gauges = [Gauge(0.07), Gauge(0.013), Gauge(1),
              Gauge(lambda t: 0.004 + 0.05 * abs(math.sin(9.0 * t))),
              Gauge(widths),
              Gauge(0.05, {p: 1e-4 for p in nodes}),
              Gauge(widths, {0.3: 1e-6, 0.7: 0.5})]
    gauges += distance_gauges(nodes[1:-1])
    for _ in range(4):
        jumps = tuple(sorted(rng.uniform(0.0, 1.0) for _ in range(rng.randint(1, 6))))
        gauges += distance_gauges(jumps)
    for gauge in gauges:
        for seed in SEEDS:
            want = outcome(reread_fine_partition, gauge, (0.0, 1.0), seed)
            assert outcome(cousin_fine_partition, gauge, IV, seed) == want
            assert outcome(_fine_partition, gauge, nodes, seed) == \
                outcome(reread_fine_partition, gauge, nodes, seed)


def test_a_budget_runs_out_at_the_same_cell():
    gauge = Gauge(0.01, {0.5: 1e-7})
    for seed in SEEDS:
        for size in (0, 3, 40, 150):
            budgets = [size], [size]
            got = outcome(_fine_partition, gauge, (0.0, 0.5, 1.0), seed, budgets[0])
            want = outcome(reread_fine_partition, gauge, (0.0, 0.5, 1.0), seed, budgets[1])
            assert got == want
            assert budgets[0] == budgets[1]
        assert got[0] != "GaugeTooFineError"
        assert outcome(_fine_partition, gauge, (0.0, 1.0), seed, [3]) == \
            ("GaugeTooFineError", "fine partition exceeds its cell budget")


def test_unreachable_gauges_are_refused_with_the_same_text():
    one = 1.0 + 4 * math.ulp(1.0)
    cases = [
        (Gauge(1e-300), IV, f"no fine cell found above depth {MAX_DEPTH} near"),
        (Gauge(1e-300), Interval(1.0, one), "gauge demands cells below float resolution near 1.0"),
        # Only a tag at c itself could cover c, and its width is too small.
        (Gauge(lambda t: 0.25 * abs(t - 1e-5) + 1e-300), IV, f"above depth {MAX_DEPTH}"),
        (Gauge(lambda t: 0.25 * abs(t - 0.3) + 1e-300), IV, "below float resolution near 0.29999"),
    ]
    for gauge, iv, text in cases:
        for seed in SEEDS:
            want = outcome(reread_fine_partition, gauge, (iv.a, iv.b), seed)
            assert want[0] == "GaugeTooFineError" and text in want[1]
            assert outcome(cousin_fine_partition, gauge, iv, seed) == want


# ------------------------------------------------------- read counts

class CountingGauge(Gauge):
    __slots__ = ("reads",)

    def __init__(self, body, overrides=None):
        super().__init__(body, overrides)
        self.reads = Counter()

    def __call__(self, t):
        self.reads[t] += 1
        return super().__call__(t)


def test_one_cell_tree_reads_its_ends_once():
    for body, overrides in ((0.001, None), (0.02, {0.5: 1e-5, 0.25: 1e-4}),
                            (lambda t: 0.002 + 0.03 * t * t, None)):
        for seed in SEEDS:
            gauge = CountingGauge(body, overrides)
            rng = None if seed is None else random.Random(seed)
            cells = partitions._generate_fine_cells(gauge, (0.0, 1.0), rng)
            assert len(cells) > 10
            assert gauge.reads[0.0] <= 1 and gauge.reads[1.0] <= 1
            if seed is None:
                # Every point of the tree is a root end or some cell's
                # midpoint, and each is handed down once read.
                assert max(gauge.reads.values()) == 1


def counting(gauge):
    """``gauge`` and a Counter of the points it is read at."""
    reads = Counter()

    def counted(t):
        reads[t] += 1
        return gauge(t)
    return counted, reads


def random_step(rng):
    nodes = sorted({0.0, 1.0, *(rng.uniform(0.0, 1.0) for _ in range(rng.randint(1, 5)))})
    return StepFunction(IV, nodes, [rng.uniform(-1.0, 1.0) for _ in nodes],
                        [rng.uniform(-1.0, 1.0) for _ in nodes[1:]])


def test_a_seeded_cell_tree_reads_each_point_once():
    # A cell that starts at a drawn split point takes the value there
    # from the cell accepted just before it.
    for body, overrides in ((0.001, None), (0.02, {0.5: 1e-5, 0.25: 1e-4}),
                            (lambda t: 0.002 + 0.03 * t * t, None),
                            (lambda t: 0.001 + 0.02 * abs(math.sin(7.0 * t)), {0.6: 1e-6})):
        for seed in SEEDS[1:] + (42, 2024):
            gauge = CountingGauge(body, overrides)
            cells = partitions._generate_fine_cells(gauge, (0.0, 1.0), random.Random(seed))
            assert len(cells) > 10
            assert max(gauge.reads.values()) == 1


def test_a_fine_partition_reads_each_point_once():
    # Each cell tree also hands the next the value at the seed point
    # they share.
    rng = random.Random(15)
    for _ in range(6):
        jumps, seeds, _ = oracle._jumps_and_seeds(random_step(rng), random_step(rng))
        assert len(seeds) > 2
        for gauge in distance_gauges(jumps):
            for seed in SEEDS:
                counted, reads = counting(gauge)
                _fine_partition(counted, seeds, seed)
                assert max(reads.values()) == 1


def test_one_refinement_level_reads_f_only_where_g_moves(monkeypatch):
    # f jumps at 0.3 and 0.4, where g is constant, so g does not move
    # on the cell [0.3, 0.4] between them.
    f = PiecewiseLipschitz.from_formulas(IV, (0.0, 0.3, 0.4, 1.0),
                                         (Affine(2.0), Affine(-1.0, 3.0), Affine(0.5)))
    g = StepFunction(IV, (0.0, 0.2, 0.5, 0.9, 1.0), (1.0, 2.0, -1.0, 0.5, 3.0),
                     (0.0, 1.5, 2.5, -2.0))
    reads = Counter()
    value = PiecewiseLipschitz.value

    def counting(self, t):
        if self is f:
            reads[t] += 1
        return value(self, t)

    monkeypatch.setattr(PiecewiseLipschitz, "value", counting)
    monkeypatch.setattr(oracle, "MAX_LEVELS", 1)
    division = Division(IV, oracle._jumps_and_seeds(f, g)[1])
    live = [j for j, (u, v) in enumerate(division.cells()) if g.value(v) != g.value(u)]
    assert 0 < len(live) < division.nu
    parts = [interior_tags(division, s) for s in oracle._level_seeds(5, 0, oracle.PROBES)]
    assert len(parts) == 33
    rep = oracle_refinement(f, g, IntegralKind.DUSHNIK, seed=5)
    assert rep.levels == 1
    assert reads == Counter(p.tags[j] for p in parts for j in live)
    # g is a step function with every jump a node, so no Young tag term
    # moves: f is read at the nodes only, once each.
    reads.clear()
    assert oracle_refinement(f, g, IntegralKind.YOUNG, seed=5).levels == 1
    assert reads == Counter(division.points)


def test_a_level_draws_tags_only_for_the_cells_its_sums_read(monkeypatch):
    # g is constant on [0, 0.2] and [0.8, 1], where f jumps at 0.8: a
    # Dushnik sum reads tags in the two cells between, a Young sum in none.
    f = PiecewiseLipschitz.from_formulas(IV, (0.0, 0.8, 1.0), (Affine(2.0), Affine(-1.0)))
    g = StepFunction(IV, (0.0, 0.2, 0.5, 1.0), (1.0, 1.0, -1.0, 0.5), (0.0, 1.5, 0.5))
    division = Division(IV, oracle._jumps_and_seeds(f, g)[1])
    assert division.points == (0.0, 0.2, 0.5, 0.8, 1.0)
    seeded, drawn, tags = [0], [0], []
    seed, draw, tags_at = random.Random.seed, random.Random.random, partitions.SeededTags.tags_at

    def counting_seed(self, *args, **kwargs):
        seeded[0] += 1
        return seed(self, *args, **kwargs)

    def counting_draw(self):
        drawn[0] += 1
        return draw(self)

    def recording(self, cells):
        tags.append((self.seed, list(cells), tags_at(self, cells)))
        return tags[-1][2]

    monkeypatch.setattr(oracle, "MAX_LEVELS", 1)
    monkeypatch.setattr(random.Random, "seed", counting_seed)
    monkeypatch.setattr(random.Random, "random", counting_draw)
    monkeypatch.setattr(partitions.SeededTags, "tags_at", recording)
    assert oracle_refinement(f, g, IntegralKind.YOUNG, seed=5).levels == 1
    assert seeded == drawn == [0]
    assert oracle_refinement(f, g, IntegralKind.DUSHNIK, seed=5).levels == 1
    # Each probe draws through the last cell read, cell 2 of 4.
    assert seeded == [oracle.PROBES] and drawn == [3 * oracle.PROBES]
    monkeypatch.undo()
    young, dushnik = tags[:oracle.PROBES], tags[oracle.PROBES:]
    assert all(cells == got == [] for _, cells, got in young)
    assert len(dushnik) == oracle.PROBES
    for s, cells, got in dushnik:
        assert cells == [1, 2] and got == list(interior_tags(division, s).tags[1:3])


# -------------------------------------------------------- refusals

def test_the_distance_gauge_is_the_min_max_formula():
    jumps = (0.1, 0.35, 0.4, 0.9)
    fence = (-math.inf, *jumps, math.inf)
    ts = [0.0, 0.1, 0.225, 0.35, 0.375, 0.4, 0.65, 0.9, 0.95, 1.0, 0.1 + 1e-17, 0.4 - 1e-17]
    ts += [random.Random(3).uniform(0.0, 1.0) for _ in range(200)]
    overrides = {0.35: 1e-3, 0.9: 0.05}
    for base in (0.0625, 0.125, 0.025, 0.5):
        for floor in (8.0 * math.ulp(1.0), 0.0125, 0.025):
            gauge = oracle._distance_gauge(base, jumps, floor, {})
            with_overrides = oracle._distance_gauge(base, jumps, floor, overrides)
            reference = two_call_gauge(base, jumps, floor, overrides)
            for t in ts:
                i = bisect_left(fence, t)
                want = max(min(base, 0.5 * min(t - fence[i - 1], fence[i] - t)), floor)
                assert gauge(t).hex() == want.hex()
                assert with_overrides(t).hex() == reference(t).hex()
    # Without jumps the width is base, even below the floor.
    for base, floor in ((0.25, 1e-15), (1e-16, 1e-15)):
        assert oracle._distance_gauge(base, (), floor, {})(0.5) == base
        assert two_call_gauge(base, (), floor, {})(0.5) == base
    # A width that is not positive and finite is refused as Gauge refuses it.
    for jumps, floor, overrides, t in (((0.5,), 1e-15, {0.5: 0.0}, 0.5),
                                       ((0.5,), 0.0, {}, 0.5),
                                       ((), 0.0, {}, 0.25),
                                       ((0.5,), 1e-15, {0.5: math.nan}, 0.5)):
        base = 0.0 if not jumps else 0.25
        texts = []
        for gauge in (oracle._distance_gauge(base, jumps, floor, overrides),
                      two_call_gauge(base, jumps, floor, overrides)):
            with pytest.raises(GaugeError) as info:
                gauge(t)
            texts.append(str(info.value))
        assert texts[0] == texts[1] and texts[0].startswith("gauge must be positive")


def oracle_bits(report):
    return (report.value.hex(), report.achieved_spread.hex(), report.levels, report.converged)


def test_the_gauge_oracle_equals_the_two_call_gauge(monkeypatch):
    """The gauge oracle's reports, bit for bit, against the same oracle
    reading a public ``Gauge`` over the two-call body."""
    rng = random.Random(2610)
    pairs = []
    for _ in range(2):
        smooth = rand_family(rng, "formulas")
        step = step_through(rng, smooth, 4)
        pairs += [(step, step_through(rng, smooth, 4)), (smooth, step), (step, smooth)]
    runs = [(f, g, tol, rng.randrange(1000)) for f, g in pairs for tol in (1e-8, 1e-9)]
    got = [oracle_bits(oracle.oracle_gauge(f, g, tol, seed)) for f, g, tol, seed in runs]
    monkeypatch.setattr(oracle, "_distance_gauge", two_call_gauge)
    want = [oracle_bits(oracle.oracle_gauge(f, g, tol, seed)) for f, g, tol, seed in runs]
    assert got == want
    # Step/formula pairs run past two levels, through shrinking gauges.
    assert all(converged for *_, converged in got) and max(levels for *_, levels, _ in got) >= 8


def test_the_gauge_oracle_passes_on_a_depth_refusal(monkeypatch):
    """A GaugeTooFineError that is no budget stop reaches the caller,
    whichever level meets it, and the CLI reports it as a refusal."""
    job = parse_spec("oracle kind=K f=step[0,1]{nodes:0,0.5,1; at:0,1,2; on:0,1} "
                     "g=step[0,1]{nodes:0,0.5,1; at:0,1,1; on:0,1}")
    f, g = build_pair(job)
    max_levels = oracle.MAX_LEVELS
    for depth, refusing_level in ((3, 0), (5, 1)):
        monkeypatch.setattr(partitions, "MAX_DEPTH", depth)
        text = f"no fine cell found above depth {depth} near ["
        # The levels before the refusing one build their partitions.
        monkeypatch.setattr(oracle, "MAX_LEVELS", refusing_level)
        report = oracle.oracle_gauge(f, g, tol=job.tol, seed=job.seed)
        assert (report.levels, report.converged) == (refusing_level, False)
        for levels in (refusing_level + 1, max_levels):
            monkeypatch.setattr(oracle, "MAX_LEVELS", levels)
            with pytest.raises(GaugeTooFineError) as info:
                oracle.oracle_gauge(f, g, tol=job.tol, seed=job.seed)
            assert str(info.value).startswith(text)
        code, report = cli.run_job(job)
        assert code == 3 and report["best_error"] is None
        assert report["error"].startswith(text)


def test_gauge_refuses_every_width_that_is_not_positive_and_finite():
    for bad in (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-300, 0):
        text = f"gauge must be positive and finite, got {float(bad)!r} at t=0.5"
        for gauge in (Gauge(bad), Gauge(lambda t: bad), Gauge(0.1, {0.5: bad}),
                      Gauge(lambda t: 0.1, {0.25: 0.2, 0.5: bad})):
            with pytest.raises(GaugeError) as info:
                gauge(0.5)
            assert str(info.value) == text
    assert Gauge(0.1, {0.5: math.nan})(0.25) == 0.1
    assert Gauge(2, {0.5: 1})(0.5) == 1.0 and type(Gauge(2)(0.5)) is float


def test_partition_names_its_first_bad_tag():
    d = Division(IV, (0.0, 0.25, 0.5, 1.0))
    cases = [
        ((0.1, 0.6, 0.2), TAG_FREE, "tag 0.6 not valid for cell [0.25, 0.5] in free mode"),
        ((0.3, 0.6, 0.2), TAG_FREE, "tag 0.3 not valid for cell [0.0, 0.25] in free mode"),
        ((0.1, 0.3, 1.5), TAG_FREE, "tag 1.5 not valid for cell [0.5, 1.0] in free mode"),
        ((0.1, math.nan, 0.7), TAG_FREE, "tag nan not valid for cell [0.25, 0.5] in free mode"),
        ((0.1, 0.5, 0.5), "interior", "tag 0.5 not valid for cell [0.25, 0.5] in interior mode"),
        ((0.0, 0.3, 0.7), "interior", "tag 0.0 not valid for cell [0.0, 0.25] in interior mode"),
        ((0.1, 0.3, 1.0), "interior", "tag 1.0 not valid for cell [0.5, 1.0] in interior mode"),
    ]
    for tags, mode, text in cases:
        with pytest.raises(DomainError) as info:
            Partition(d, tags, mode)
        assert str(info.value) == text
    assert Partition(d, (0, 0.5, 1), TAG_FREE).tags == (0.0, 0.5, 1.0)


def test_interior_tags_draw_what_uniform_drew():
    rng = random.Random(4)
    nodes = sorted({0.0, 1.0, *(rng.uniform(0.0, 1.0) for _ in range(40))})
    d = Division(IV, nodes)
    for seed in (0, 5, 1_000_003):
        draws = random.Random(seed)
        want = [u + (v - u) * draws.uniform(0.05, 0.95) for u, v in d.cells()]
        assert [t.hex() for t in interior_tags(d, seed).tags] == [t.hex() for t in want]
    assert interior_tags(d).tags == tuple(0.5 * (u + v) for u, v in d.cells())


def test_interior_tags_refuse_a_cell_too_narrow():
    nodes = (0.0, 0.5, 1.0 - math.ulp(0.5), 1.0)
    d = Division(IV, nodes)
    for seed in (None, 0, 9):
        with pytest.raises(DomainError) as info:
            interior_tags(d, seed)
        assert str(info.value) == \
            f"cell [{nodes[2]}, 1.0] too narrow for a strictly interior tag"


# ------------------------------------------------------- shortcuts

class _Stop(Exception):
    pass


def test_candidate_order_is_the_one_shuffle_drew():
    """The root of a seeded cell tree reads its four candidates in the
    order ``Random.shuffle`` puts them in, and leaves the stream where
    ``shuffle`` leaves it."""
    for seed in range(5000):
        read = []

        def body(t):
            read.append(t)
            if len(read) == 4:
                raise _Stop
            return 1e-300

        rng = random.Random(seed)
        with pytest.raises(_Stop):
            partitions._generate_fine_cells(Gauge(body), (0.0, 1.0), rng)
        want = random.Random(seed)
        candidates = [0.0, 1.0, 0.5, want.uniform(0.1, 0.9)]
        want.shuffle(candidates)
        assert read == candidates
        assert rng.random() == want.random()


def test_interior_tags_build_what_the_checked_constructor_builds():
    rng = random.Random(8)
    divisions = [Division(IV, sorted({0.0, 1.0, *(rng.uniform(0.0, 1.0)
                                                 for _ in range(rng.randint(1, 40)))}))
                 for _ in range(200)]
    # Cells two to nine ulps wide, where a drawn tag can round onto an
    # end of its cell and the midpoint stands in for it.
    x, ulp = 0.3, math.ulp(0.3)
    divisions.append(Division(IV, (0.0, x, x + 2 * ulp, x + 4 * ulp, x + 7 * ulp,
                                   x + 16 * ulp, 0.6, 1.0)))
    fallbacks = 0
    for d in divisions:
        mids = [0.5 * (u + v) for u, v in d.cells()]
        p = interior_tags(d)
        assert p == Partition(d, mids, TAG_INTERIOR)
        assert type(p) is Partition and type(p.tags) is tuple
        for seed in (0, 3, 77, 1_000_003, rng.randrange(1 << 30)):
            draws = random.Random(seed)
            tags = []
            for (u, v), mid in zip(d.cells(), mids):
                t = u + (v - u) * draws.uniform(0.05, 0.95)
                tags.append(t if u < t < v else mid)
                fallbacks += not u < t < v
            p = interior_tags(d, seed)
            assert p == Partition(d, tags, TAG_INTERIOR)
            assert type(p) is Partition and type(p.tags) is tuple
            assert all(type(t) is float for t in p.tags)
            # A seeded reader gives the same tags at any cells it is asked for.
            cells = sorted(rng.sample(range(d.nu), rng.randint(0, d.nu)))
            assert SeededTags(d, seed).tags_at(cells) == p.tags_at(cells) == \
                [p.tags[j] for j in cells]
    assert fallbacks > 0
