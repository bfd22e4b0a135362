import math
import random

import pytest

from conftest import brute_variation, rand_smooth
from stieltjes import (Affine, ApproximationError, DomainError, Interval,
                       MonotoneFunction, PiecewiseLipschitz, Power, SinWave,
                       StepFunction)
from stieltjes.regulated import MAX_APPROX_CELLS

IV = Interval(0.0, 1.0)


# ----------------------------------------------------------- formula catalog

def test_affine_catalog_data():
    f = Affine(slope=-2.0, intercept=1.0)
    assert f(0.5) == 0.0
    assert f.lipschitz_on(0.0, 1.0) == 2.0
    assert f.variation_on(0.25, 0.75) == 1.0


def test_power_catalog_data():
    f = Power(exponent=2.0, scale=3.0)
    assert f(2.0) == 12.0
    assert f.lipschitz_on(0.0, 1.0) == 6.0
    assert f.variation_on(0.0, 1.0) == 3.0       # monotone on [0, 1]
    with pytest.raises(DomainError):
        Power(exponent=-1.0)
    with pytest.raises(DomainError):
        Power(exponent=0.5).lipschitz_on(0.0, 1.0)   # sqrt blows up at 0
    # sqrt is fine away from 0
    assert Power(exponent=0.5).lipschitz_on(0.25, 1.0) == 1.0


def test_sin_catalog_data():
    f = SinWave(freq=2.0, amplitude=3.0, phase=0.5)
    assert f(0.25) == pytest.approx(3.0 * math.sin(1.0))
    assert f.lipschitz_on(0.0, 1.0) == 6.0


# ------------------------------------------------------- piecewise Lipschitz

def test_piecewise_values_and_limits():
    # Two pieces with a genuine jump at the break and a renegade value
    # right on the node.
    f = PiecewiseLipschitz.from_formulas(
        IV, (0.0, 0.5, 1.0), (Affine(1.0), Affine(0.0, 2.0)),
        node_values=(0.0, 9.0, 2.0))
    assert f.value(0.25) == 0.25
    assert f.value(0.5) == 9.0
    assert f.left_limit(0.5) == 0.5
    assert f.right_limit(0.5) == 2.0
    assert f.value(1.0) == 2.0
    assert set(f.jump_points()) == {0.5}
    with pytest.raises(DomainError):
        f.left_limit(0.0)
    with pytest.raises(DomainError):
        f.right_limit(1.0)


def test_default_node_values_splice_from_the_right():
    f = PiecewiseLipschitz.from_formulas(
        IV, (0.0, 0.5, 1.0), (Affine(1.0), Affine(-1.0, 1.0)))
    assert f.value(0.5) == 0.5
    assert f.jump_points() == ()


def test_variation_bound_includes_jump_gaps():
    f = PiecewiseLipschitz.from_formulas(
        IV, (0.0, 0.5, 1.0), (Affine(1.0), Affine(0.0, 2.0)),
        node_values=(0.0, 9.0, 2.0))
    # 0.5 of drift on the first piece, then 0.5 -> 9 -> 2 at the break.
    assert f.variation_bound == pytest.approx(0.5 + 8.5 + 7.0)
    assert brute_variation(f, IV) <= f.variation_bound + 1e-9


def test_construction_errors():
    with pytest.raises(DomainError):
        PiecewiseLipschitz.from_formulas(IV, (0.0, 0.5), (Affine(1.0),))
    with pytest.raises(DomainError):
        PiecewiseLipschitz.from_formulas(IV, (0.0, 0.5, 0.5, 1.0),
                                         (Affine(1.0),) * 3)
    with pytest.raises(DomainError):
        PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Affine(1.0),) * 2)
    with pytest.raises(DomainError):
        PiecewiseLipschitz(IV, (0.0, 1.0), (Affine(1.0),), (-1.0,))
    with pytest.raises(DomainError):
        PiecewiseLipschitz(IV, (), (), ())


def test_from_formulas_checks_breakpoints_before_reading_formulas():
    # Power(1.5) is undefined left of 0, but the order is what is wrong.
    with pytest.raises(DomainError) as info:
        PiecewiseLipschitz.from_formulas(IV, (0, -0.5, 1), [Power(1.5)] * 2)
    assert str(info.value) == "breakpoints not strictly increasing at index 1"


class CountingPiece:
    def __init__(self, slope):
        self.slope, self.calls = slope, 0

    def __call__(self, t):
        self.calls += 1
        return self.slope * t

    def lipschitz_on(self, u, v):
        return abs(self.slope)

    def variation_on(self, u, v):
        return abs(self.slope) * (v - u)


def test_construction_reads_each_piece_at_its_two_ends_only():
    breaks = (0.0, 0.25, 0.5, 1.0)
    builds = (
        lambda ps, at: PiecewiseLipschitz.from_formulas(IV, breaks, ps, at),
        lambda ps, at: PiecewiseLipschitz(IV, breaks, ps, [1.0, 2.0, 3.0], at))
    for build in builds:
        for at in (None, (0.0, 1.0, 2.0, 3.0)):
            pieces = [CountingPiece(s) for s in (1.0, -2.0, 3.0)]
            f = build(pieces, at)
            assert [p.calls for p in pieces] == [2, 2, 2]
            assert f.jump_points() == f.jump_points() == (0.25, 0.5)
            assert [p.calls for p in pieces] == [2, 2, 2]


def test_identity_approximant_on_quarter_grid():
    f = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Affine(1.0),))
    step, err = f.approximate(0.25)
    assert step.nodes == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert err == 0.125
    # Node values are exact, interior values are cell midpoints.
    assert [step(t) for t in step.nodes] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert step(0.1) == 0.125 and step(0.9) == 0.875


def test_approximant_error_certificate_holds_pointwise():
    rng = random.Random(7)
    for _ in range(25):
        f = rand_smooth(rng, IV)
        for eps in (0.5, 0.05, 0.005):
            step, err = f.approximate(eps)
            assert err <= eps
            worst = max(abs(f.value(t) - step(t))
                        for t in (rng.uniform(0.0, 1.0) for _ in range(400)))
            assert worst <= err + 1e-12


def test_approximant_node_values_are_the_function_values():
    rng = random.Random(29)
    for _ in range(25):
        f = rand_smooth(rng, IV)
        for eps in (0.05, 0.0037):
            step, _ = f.approximate(eps)
            assert step.node_values == tuple(f.value(t) for t in step.nodes)


def test_unreachable_tolerance_raises_with_best_error():
    f = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Affine(1.0),))
    with pytest.raises(ApproximationError) as info:
        f.approximate(1e-9)
    assert info.value.best_error > 1e-9
    with pytest.raises(DomainError):
        f.approximate(0.0)


# ----------------------------------------------------------------- monotone

def mono() -> MonotoneFunction:
    return MonotoneFunction(IV, Power(2.0), jumps=((0.5, 0.25, 0.25),))


def test_monotone_values_and_limits():
    f = mono()
    assert f.value(0.25) == 0.0625
    assert f.value(0.5) == 0.5                   # base 0.25 plus the pre gap
    assert f.left_limit(0.5) == 0.25
    assert f.right_limit(0.5) == 0.75
    assert f.value(1.0) == 1.5
    assert f.jump_points() == (0.5,)


def test_monotone_jump_points_lists_each_location_once():
    f = MonotoneFunction(IV, Affine(1.0), [(0.5, 0.25, 0), (0.5, 0, 0.25)])
    assert f.jump_points() == (0.5,)
    assert f.left_jump(0.5) == 0.25 and f.right_jump(0.5) == 0.25
    assert MonotoneFunction(IV, Affine(1.0), [(0.5, 0.0, 0.0)]).jump_points() == ()


def test_monotone_variation_is_total_rise():
    f = mono()
    assert f.variation_bound == 1.5
    assert brute_variation(f, IV) <= 1.5


def test_monotone_rejects_contrary_data():
    with pytest.raises(DomainError):
        MonotoneFunction(IV, Affine(-1.0, 1.0), jumps=((0.5, 0.25, 0.0),))
    with pytest.raises(DomainError):
        MonotoneFunction(IV, SinWave(freq=6.0))   # base is not monotone
    with pytest.raises(DomainError):
        MonotoneFunction(IV, Affine(1.0), jumps=((0.0, 0.5, 0.0),))
    with pytest.raises(DomainError):
        MonotoneFunction(IV, Affine(1.0), jumps=((1.0, 0.0, 0.5),))


def test_monotone_endpoint_jump_lands_in_endpoint_slot():
    f = MonotoneFunction(IV, Affine(1.0), jumps=((1.0, 0.5, 0.0),))
    assert f.value(1.0) == 1.5 and f.left_limit(1.0) == 1.0


def test_monotone_approximant_certificate():
    f = mono()
    rng = random.Random(11)
    for eps in (0.3, 0.03, 0.003):
        step, err = f.approximate(eps)
        assert err <= eps
        worst = max(abs(f.value(t) - step(t))
                    for t in (rng.uniform(0.0, 1.0) for _ in range(600)))
        assert worst <= err + 1e-12
        # The explicit jump is carried through; the cells flanking 0.5
        # can smear it by at most one base error on each side.
        assert abs(step.left_jump(0.5) - 0.25) <= 2.0 * err
        assert abs(step.right_jump(0.5) - 0.25) <= 2.0 * err


def test_monotone_flags_hidden_discontinuity():
    sneaky = lambda t: 0.0 if t < 0.5 else 1.0   # monotone but not continuous
    f = MonotoneFunction(IV, sneaky)
    with pytest.raises(ApproximationError) as info:
        f.approximate(0.01)
    assert info.value.best_error >= 0.01


def test_monotone_refuses_before_bisecting():
    # The base rises by 1, so eps = 1e-10 needs 5e9 cells of rise 2 * eps.
    calls = []

    def identity(t):
        calls.append(t)
        return t

    f = MonotoneFunction(IV, identity)
    calls.clear()
    with pytest.raises(ApproximationError) as info:
        f.approximate(1e-10)
    assert len(calls) <= 4
    assert info.value.best_error == 1.0 / (2 * MAX_APPROX_CELLS)
    assert "5e+09 cells" in str(info.value)


def test_monotone_approximant_reads_each_node_once():
    # base(a), base(b) and one call per bisection split: the node values
    # come from the pass that closed each cell, not from a second sweep.
    calls = []

    def cube(t):
        calls.append(t)
        return t ** 3

    f = MonotoneFunction(IV, cube, jumps=((0.5, 0.25, 0.0),))
    for eps in (0.1, 0.01, 0.001):
        calls.clear()
        step, _ = f.approximate(eps)
        # A strictly rising base keeps every cell, and the jump sits on
        # the first split, 0.5, so it adds no piece.
        cells = step.piece_count
        assert len(calls) == 2 + (cells - 1)
        assert len(set(calls)) == len(calls)
        assert step.node_values == tuple(f.value(t) for t in step.nodes)


def test_nan_tolerance_refused_and_inf_accepted_by_every_family():
    # integrate_limit asks for eps = inf when the other side's factor
    # is 0, so inf must approximate; nan is no tolerance at all.
    smooth = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Affine(1.0),))
    step = StepFunction(IV, (0.0, 0.5, 1.0), (0.0, 1.0, 2.0), (0.5, 1.5))
    for f in (smooth, mono(), step):
        with pytest.raises(DomainError):
            f.approximate(math.nan)
        approximant, err = f.approximate(math.inf)
        assert math.isfinite(err) and approximant.interval == IV
