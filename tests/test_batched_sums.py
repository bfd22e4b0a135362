"""The sums of one refinement level share one read of the node data.

``sums._riemann_values`` and ``sums._young_values`` take every tagged
partition of one division, read g (and, for Young, f) at the nodes once
and then add only the tag terms per partition, as each sum is drawn.
These tests pin them, bit for bit, to the per-partition sums they
replaced and the refinement oracle to its per-probe loop, which draws
every sum of every level, count the node reads of one level, and check
that a batch of mismatched partitions is refused.
"""

import math
import random

import pytest

from test_step_walk import FAMILIES, bits, rand_family, special_points
from stieltjes import (Affine, DomainError, IntegralKind, Interval,
                       Partition, PiecewiseLipschitz, SinWave, StepFunction,
                       interior_tags, oracle_refinement, riemann_sum,
                       young_sum)
from stieltjes import oracle
from stieltjes.partitions import Division
from stieltjes.sums import _riemann_values, _young_values

IV = Interval(0.0, 1.0)
Y, D = IntegralKind.YOUNG, IntegralKind.DUSHNIK


# --------------------------------------------- the per-partition reference

def ref_riemann(f, g, partition):
    """S(P) the way it was computed before the batch: g read per call."""
    pts = partition.division.points
    gvals = [g.value(x) for x in pts]
    return math.fsum(f.value(t) * (gvals[j + 1] - gvals[j])
                     for j, t in enumerate(partition.tags))


def ref_young(f, g, partition):
    """SY(P) the way it was computed before the batch: every node read
    per call."""
    pts = partition.division.points
    nu = partition.size
    gvals = [g.value(x) for x in pts]
    grights = [g.right_limit(pts[j]) for j in range(nu)]
    glefts = [g.left_limit(pts[j]) for j in range(1, nu + 1)]
    fvals = [f.value(x) for x in pts]
    terms = []
    for j, t in enumerate(partition.tags):
        terms.append(fvals[j] * (grights[j] - gvals[j]))
        terms.append(f.value(t) * (glefts[j] - grights[j]))
        terms.append(fvals[j + 1] * (gvals[j + 1] - glefts[j]))
    return math.fsum(terms)


def level_partitions(division, seed=0, level=0):
    """The midpoint partition and the PROBES seeded ones of a level."""
    return [interior_tags(division, s)
            for s in oracle._level_seeds(seed, level, oracle.PROBES)]


def assert_batch_matches(f, g, parts):
    for batched, one, ref in ((_riemann_values, riemann_sum, ref_riemann),
                              (_young_values, young_sum, ref_young)):
        want = bits(ref(f, g, p) for p in parts)
        assert bits(batched(f, g, parts)) == want
        assert bits(one(f, g, p).value for p in parts) == want


# ------------------------------------------------------- bit identity

def test_batched_sums_equal_one_sum_per_partition_for_every_family():
    rng = random.Random(20261018)
    for f_family in FAMILIES:
        for g_family in FAMILIES:
            for _ in range(4):
                f, g = rand_family(rng, f_family), rand_family(rng, g_family)
                # Nodes on some of the breaks and jumps, and between them.
                pts = {p for p in special_points(f) + special_points(g)
                       if rng.random() < 0.7}
                pts |= {rng.uniform(0.0, 1.0) for _ in range(rng.randint(0, 15))}
                division = Division(IV, sorted({0.0, 1.0}
                                               | {p for p in pts if 0.0 < p < 1.0}))
                parts = level_partitions(division, rng.randrange(1 << 20))
                assert len(parts) == 33
                assert_batch_matches(f, g, parts)


def test_batched_sums_keep_cancellation_and_signed_zeros():
    n = 6
    iv = Interval(0.0, float(n))
    nodes = range(n + 1)
    division = Division(iv, tuple(nodes))
    big = StepFunction(iv, nodes, [0.0, 1e16, 1.0, -1e16, 0.5, -0.0, 1e16],
                       [1e16, 1.0, -1e16, -0.0, 1e-16, -1e16])
    zeros = StepFunction(iv, nodes, [-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0],
                         [-0.0, -0.0, 0.0, -0.0, -0.0, 0.0])
    floor = StepFunction(iv, nodes, nodes, range(n))
    steep = StepFunction(iv, nodes, [0.0, 1e16, 1e16 + 2.0, -1e16, 3.0, 3.0, -0.0],
                         [1e16, -1e16, 1.0, -0.0, 1e16, -1e16])
    parts = level_partitions(division, seed=7)
    for f in (big, zeros, floor, steep):
        for g in (big, zeros, floor, steep):
            assert_batch_matches(f, g, parts)
    # The cancelling terms come out exactly, as fsum of the terms does.
    want = math.fsum([1e16, 1.0, -1e16, -0.0, 1e-16, -1e16])
    assert list(_riemann_values(big, floor, parts[:1])) == [want]


def eager_converge(level_sums, kind, tol):
    """``oracle._converge`` as it was before it drew a level's sums one
    at a time: every sum of every level, then the same verdict."""
    center, spread, levels = math.nan, math.inf, 0
    prev_sums = []
    for levels, sums in enumerate(level_sums, 1):
        center = sums[0]
        spread = max(abs(s - center) for s in sums + prev_sums)
        if levels >= 2 and spread <= tol:
            return oracle.OracleReport(center, kind, spread, levels, True)
        prev_sums = sums
    return oracle.OracleReport(center, kind, spread, levels, False)


def per_probe_refinement(f, g, kind, tol, seed):
    """The refinement oracle as it was before the batch and the lazy
    levels: one ``ref_young``/``ref_riemann`` call per probe partition,
    every sum of a level drawn."""
    sum_fn = ref_young if kind is Y else ref_riemann
    jumps, seeds, global_split = oracle._jumps_and_seeds(f, g)
    jumpset = frozenset(jumps)
    a, b = f.interval.a, f.interval.b

    def level_sums():
        division = Division(f.interval, seeds)
        terms = 0
        for level in range(oracle.MAX_LEVELS):
            terms += (oracle.PROBES + 1) * division.nu
            if terms > oracle.MAX_TERMS and level:
                return
            yield [sum_fn(f, g, interior_tags(division, s))
                   for s in oracle._level_seeds(seed, level, oracle.PROBES)]
            extra = []
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

    return eager_converge(level_sums(), kind, tol)


def report_bits(rep):
    return (float(rep.value).hex(), float(rep.achieved_spread).hex(),
            rep.kind, rep.levels, rep.converged)


def test_refinement_oracle_equals_the_per_probe_loop():
    rng = random.Random(1806)
    for family in FAMILIES:
        for _ in range(2):
            step = rand_family(rng, "step")
            other = rand_family(rng, family)
            seed = rng.randrange(1000)
            for f, g in ((step, other), (other, step)):
                for kind in (Y, D):
                    got = oracle_refinement(f, g, kind, tol=1e-9, seed=seed)
                    want = per_probe_refinement(f, g, kind, 1e-9, seed)
                    assert report_bits(got) == report_bits(want)
    # Neither side a step: every cell splits until the term budget stops
    # the run unconverged.
    rng = random.Random(7)
    f, g = rand_family(rng, "formulas"), rand_family(rng, "monotone")
    for kind in (Y, D):
        got = oracle_refinement(f, g, kind, tol=1e-9, seed=3)
        assert (got.levels, got.converged) == (9, False)
        assert report_bits(got) == report_bits(per_probe_refinement(f, g, kind, 1e-9, 3))


# ------------------------------------------------ reads and checks

def test_one_refinement_level_reads_each_node_of_g_once(monkeypatch):
    f = PiecewiseLipschitz.from_formulas(IV, (0.0, 0.5, 1.0), (Affine(2.0), SinWave(3.0)))
    g = StepFunction(IV, (0.0, 0.2, 0.5, 0.9, 1.0), (1.0, 2.0, -1.0, 0.5, 3.0),
                     (0.0, 1.5, 2.5, -2.0))
    reads = {}

    def counting(name):
        method = getattr(StepFunction, name)

        def wrapper(self, t):
            if self is g:
                reads[name, t] = reads.get((name, t), 0) + 1
            return method(self, t)
        return wrapper

    for name in ("value", "left_limit", "right_limit"):
        monkeypatch.setattr(StepFunction, name, counting(name))
    monkeypatch.setattr(oracle, "MAX_LEVELS", 1)
    nodes = g.jump_points()
    assert nodes == (0.0, 0.2, 0.5, 0.9, 1.0)
    young = {("value", t): 1 for t in nodes}
    young.update({("right_limit", t): 1 for t in nodes[:-1]})
    young.update({("left_limit", t): 1 for t in nodes[1:]})
    for kind, want in ((Y, young), (D, {("value", t): 1 for t in nodes})):
        reads.clear()
        rep = oracle_refinement(f, g, kind, seed=5)
        assert rep.levels == 1
        assert reads == want


def test_a_batch_of_mismatched_partitions_is_refused():
    d1 = Division(IV, (0.0, 0.5, 1.0))
    d2 = Division(IV, (0.0, 0.25, 1.0))
    f = StepFunction.constant(IV, 1.0)
    other = StepFunction.constant(Interval(0.0, 2.0), 1.0)
    elsewhere = Partition(Division(Interval(0.0, 2.0), (0.0, 2.0)), (1.0,))
    for batched in (_riemann_values, _young_values):
        with pytest.raises(DomainError, match="must share one division"):
            batched(f, f, [interior_tags(d1), interior_tags(d1, 3), interior_tags(d2)])
        with pytest.raises(DomainError,
                           match="integrand and integrator live on different intervals"):
            batched(f, other, [interior_tags(d1)])
        with pytest.raises(DomainError, match="partition interval does not match the functions"):
            batched(f, f, [elsewhere])
        # An equal division built apart is the same division.
        same = Division(IV, (0.0, 0.5, 1.0))
        assert list(batched(f, f, [interior_tags(d1), interior_tags(same, 4)])) == [0.0, 0.0]
