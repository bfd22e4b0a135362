import random

import pytest

from conftest import rand_step
from stieltjes import (Division, DomainError, Gauge, GaugeError,
                       GaugeTooFineError, Interval, Partition,
                       PiecewiseLipschitz, StepFunction,
                       cousin_fine_partition, interior_tags, is_fine)

IV = Interval(0.0, 1.0)


def test_division_validation():
    d = Division(IV, (0.0, 0.5, 1.0))
    assert d.nu == 2
    assert list(d.cells()) == [(0.0, 0.5), (0.5, 1.0)]
    with pytest.raises(DomainError):
        Division(IV, (0.0,))
    with pytest.raises(DomainError):
        Division(IV, (0.0, 0.5))
    with pytest.raises(DomainError):
        Division(IV, (0.0, 0.5, 0.5, 1.0))
    with pytest.raises(DomainError):
        Division(IV, (0.0, 2.0, 1.0))


def test_refine_is_exact_set_union():
    d = Division(IV, (0.0, 0.5, 1.0))
    r = d.refine((0.25, 0.5, 0.75))
    assert r.points == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert r.refine(()).points == r.points
    assert d.refine((0.25,)).refine((0.75,)) == d.refine((0.75,)).refine((0.25,))
    assert set(d.points) <= set(r.points)
    with pytest.raises(DomainError):
        d.refine((1.5,))


def test_partition_tag_rules():
    d = Division(IV, (0.0, 0.5, 1.0))
    Partition(d, (0.0, 1.0))                       # endpoints fine in free mode
    with pytest.raises(DomainError):
        Partition(d, (0.0, 1.0), "interior")
    with pytest.raises(DomainError):
        Partition(d, (0.6, 0.7))                   # first tag outside its cell
    with pytest.raises(DomainError):
        Partition(d, (0.25,))
    with pytest.raises(DomainError):
        Partition(d, (0.25, 0.75), "weird")
    p = Partition(d, (0.25, 0.75), "interior")
    assert p.size == 2
    assert list(p.cells()) == [(0.0, 0.5, 0.25), (0.5, 1.0, 0.75)]


def test_interior_tags():
    d = Division(IV, (0.0, 0.25, 1.0))
    p = interior_tags(d)
    assert p.tags == (0.125, 0.625)
    q1 = interior_tags(d, seed=5)
    q2 = interior_tags(d, seed=5)
    assert q1.tags == q2.tags
    assert all(u < t < v for u, v, t in q1.cells())
    assert q1.tags != interior_tags(d, seed=6).tags


def test_gauge_constant_and_overrides():
    g = Gauge(0.5)
    assert g(0.3) == 0.5
    h = Gauge(0.5, {0.25: 0.01})
    assert h(0.25) == 0.01 and h(0.3) == 0.5
    assert Gauge(0.5, {0.25: 0.02})(0.25) == 0.02
    with pytest.raises(GaugeError):
        Gauge(lambda t: 0.0)(0.5)
    with pytest.raises(GaugeError):
        Gauge(lambda t: -1.0)(0.5)
    with pytest.raises(GaugeError):
        Gauge(0.5, {0.25: 0.01, 0.3: 0.0})(0.3)


def test_gauge_from_step():
    widths = StepFunction(IV, (0.0, 0.5, 1.0), (0.2, 0.05, 0.1), (0.2, 0.1))
    g = Gauge(widths)
    assert g(0.1) == 0.2 and g(0.5) == 0.05 and g(0.9) == 0.1
    bad = Gauge(StepFunction(IV, (0.0, 0.5, 1.0),
                             (0.2, 0.0, 0.1), (0.2, 0.1)))
    with pytest.raises(GaugeError):
        bad(0.5)


def test_is_fine_definition():
    d = Division(IV, (0.0, 0.5, 1.0))
    p = interior_tags(d)
    # Containment in [tag - delta, tag + delta] is closed, so the
    # half-width 0.25 is exactly enough for midpoint tags and anything
    # smaller is not.
    assert is_fine(p, Gauge(0.25))
    assert not is_fine(p, Gauge(0.2499))
    assert not is_fine(Partition(d, (0.5, 0.5)), Gauge(0.25))


def test_cousin_partition_is_fine_for_step_gauges():
    rng = random.Random(20260814)
    for _ in range(100):
        f = rand_step(rng)
        # Reuse the random shape but squash it into a positive range.
        span = f.sup_bound + 1.0
        widths = (0.005 / span) * f + StepFunction.constant(IV, rng.uniform(0.02, 0.3))
        gauge = Gauge(widths)
        p = cousin_fine_partition(gauge, IV)
        assert is_fine(p, gauge)
        assert p.division.points[0] == 0.0 and p.division.points[-1] == 1.0
        assert all(u <= t <= v for u, v, t in p.cells())


def test_random_fine_partition_reproducible_and_fine():
    gauge = Gauge(0.07, {0.5: 0.001})
    p1 = cousin_fine_partition(gauge, IV, seed=42)
    p2 = cousin_fine_partition(gauge, IV, seed=42)
    assert p1 == p2
    assert is_fine(p1, gauge)
    assert p1 != cousin_fine_partition(gauge, IV, seed=43)
    assert all(u <= t <= v for u, v, t in p1.cells())


def test_unreachable_gauge_raises():
    with pytest.raises(GaugeTooFineError):
        cousin_fine_partition(Gauge(1e-300), IV)


def test_every_node_list_gets_the_shared_division_check():
    builders = {
        "nodes": lambda pts: StepFunction(IV, pts, [0.0] * len(pts),
                                          [0.0] * (len(pts) - 1)),
        "breakpoints": lambda pts: PiecewiseLipschitz(
            IV, pts, [abs] * (len(pts) - 1), [1.0] * (len(pts) - 1)),
        "division points": lambda pts: Division(IV, pts),
    }
    for what, build in builders.items():
        for pts, message in [
                ((0.0,), f"at least 2 {what} needed, got 1"),
                ((0.0, 0.5, 0.5, 1.0), f"{what} not strictly increasing at index 2"),
                ((0.0, 0.5), f"{what} must run from 0.0 to 1.0, got 0.0 to 0.5")]:
            with pytest.raises(DomainError) as info:
                build(pts)
            assert str(info.value) == message
