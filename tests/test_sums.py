import math
import random

import pytest

from conftest import NoCertificate, rand_division_points, rand_step
from stieltjes import (Affine, Division, DomainError, Interval, Partition,
                      PiecewiseLipschitz, SinWave, StepFunction,
                      check_sum_bounds, indicator, interior_tags,
                      riemann_sum, young_sum)

IV = Interval(0.0, 1.0)
IDENT = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Affine(1.0),))


def floor_sums(piece_values, node_values):
    """S and SY of a step f on [0, n] against g(t) = floor(t), at
    midpoint tags of the unit cells.  Every increment of g is 0 or 1, so
    the terms are exact: f(j + 1/2) for S, and f(j) * 0, f(j + 1/2) * 0
    and f(j + 1) * 1 for SY on cell j.  Each sum must be math.fsum of
    its nonzero terms."""
    n = len(piece_values)
    iv = Interval(0.0, float(n))
    nodes = range(n + 1)
    f = StepFunction(iv, nodes, node_values, piece_values)
    g = StepFunction(iv, nodes, nodes, range(n))
    p = interior_tags(Division(iv, tuple(nodes)))
    return riemann_sum(f, g, p).value, young_sum(f, g, p).value


def test_sums_handle_cancellation():
    terms = [1e16, 1.0, -1e16]
    s, sy = floor_sums(terms, [0.0] + terms)
    assert s == 1.0 and sy == 1.0
    assert floor_sums([0.1] * 10, [0.1] * 11) == (math.fsum([0.1] * 10),) * 2


def test_sums_match_fsum_on_random_data():
    rng = random.Random(3)
    for _ in range(20):
        xs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8)
              for _ in range(200)]
        ys = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8)
              for _ in range(201)]
        s, sy = floor_sums(xs, ys)
        assert s == math.fsum(xs)
        assert sy == math.fsum(ys[1:])


def test_riemann_sum_telescopes_for_constant_integrand():
    one = StepFunction.constant(IV, 1.0)
    rng = random.Random(20260814)
    for _ in range(50):
        g = rand_step(rng)
        d = Division(IV, rand_division_points(rng, IV))
        p = interior_tags(d, seed=rng.randint(0, 10 ** 6))
        s = riemann_sum(one, g, p)
        assert s.kind == "S" and s.partition_size == d.nu
        assert abs(s.value - (g(1.0) - g(0.0))) <= 1e-12
        sy = young_sum(one, g, p)
        assert sy.kind == "SY"
        assert abs(sy.value - (g(1.0) - g(0.0))) <= 1e-12


def test_hand_computed_sums():
    f = indicator(IV, 0.5, 1.0, closed_left=True, closed_right=True)
    g = IDENT
    d = Division(IV, (0.0, 0.5, 1.0))
    assert riemann_sum(f, g, Partition(d, (0.25, 0.75))).value == 0.5
    assert riemann_sum(f, g, Partition(d, (0.5, 0.75))).value == 1.0
    assert young_sum(f, g, Partition(d, (0.25, 0.75))).value == 0.5


def test_young_sum_reads_node_jumps_of_the_integrator():
    g = indicator(IV, 0.5, 1.0, closed_left=True, closed_right=True)
    d = Division(IV, (0.0, 0.5, 1.0))
    p = Partition(d, (0.25, 0.75))
    # S misattributes g's jump at the node 0.5 to the tag 0.25; SY
    # weights it by f(0.5) and lands on the Young integral.
    assert riemann_sum(IDENT, g, p).value == 0.25
    assert young_sum(IDENT, g, p).value == 0.5


def test_young_equals_riemann_for_continuous_integrator():
    rng = random.Random(9)
    for _ in range(30):
        g = PiecewiseLipschitz.from_formulas(
            IV, (0.0, 1.0),
            (SinWave(rng.uniform(0.5, 6.0), rng.uniform(0.2, 2.0)),))
        f = rand_step(rng)
        d = Division(IV, rand_division_points(rng, IV))
        p = interior_tags(d, seed=rng.randint(0, 10 ** 6))
        assert abs(young_sum(f, g, p).value
                   - riemann_sum(f, g, p).value) <= 1e-12


def test_interval_mismatch_rejected():
    other = StepFunction.constant(Interval(0.0, 2.0), 1.0)
    d = Division(IV, (0.0, 1.0))
    with pytest.raises(DomainError):
        riemann_sum(other, IDENT, Partition(d, (0.5,)))
    with pytest.raises(DomainError):
        young_sum(IDENT, other, Partition(d, (0.5,)))


def test_sum_bounds_hold_on_random_pairs():
    rng = random.Random(20260814)
    for _ in range(100):
        f, g = rand_step(rng), rand_step(rng)
        d = Division(IV, rand_division_points(rng, IV))
        p = interior_tags(d, seed=rng.randint(0, 10 ** 6))
        report = check_sum_bounds(f, g, p)
        assert report.all_hold
        assert [c.name for c in report] == [
            "riemann_sup_var", "riemann_bv_sup",
            "young_sup_var", "young_bv_sup"]
        for c in report:
            assert c.holds is True and c.slack >= -1e-12


def test_sum_bounds_skip_unknown_variation():
    wave = NoCertificate(IV)
    d = Division(IV, (0.0, 0.5, 1.0))
    p = interior_tags(d)
    report = check_sum_bounds(rand_step(random.Random(1)), wave, p)
    by_name = {c.name: c for c in report}
    assert by_name["riemann_sup_var"].holds is None
    assert by_name["young_sup_var"].holds is None
    assert by_name["riemann_bv_sup"].holds is True
    assert report.all_hold
