import math
import operator
import random

import pytest
from hypothesis import given, strategies as hs

from conftest import brute_variation, dyadic_steps, rand_step
from stieltjes import (Affine, Decomposition, DomainError, Gauge, Interval, MonotoneFunction,
                       PiecewiseLipschitz, StepFunction, indicator, step_from_jumps)

IV = Interval(0.0, 1.0)


def chi_closed(tau: float) -> StepFunction:
    return indicator(IV, tau, 1.0, closed_left=True, closed_right=True)


# ---------------------------------------------------------------- interval

def test_interval_rejects_degenerate_and_infinite():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, math.inf)


HUGE = 10 ** 400  # an int past the float range
STEP = StepFunction(IV, (0.0, 0.5, 1.0), (0.0, 1.0, 2.0), (0.5, 1.5))
PAST_THE_FLOAT_RANGE = {
    "interval": lambda: Interval(0, HUGE),
    "step nodes": lambda: StepFunction(Interval(0.0, 1e300), (0.0, HUGE), (0.0, 1.0), (0.5,)),
    "step node values": lambda: StepFunction(IV, (0.0, 1.0), (0.0, HUGE), (0.5,)),
    "step piece values": lambda: StepFunction(IV, (0.0, 1.0), (0.0, 1.0), (HUGE,)),
    "step scalar sum": lambda: STEP + HUGE,
    "step scalar difference": lambda: STEP - HUGE,
    "step scalar product": lambda: HUGE * STEP,
    "step_from_jumps base": lambda: step_from_jumps(IV, HUGE),
    "step_from_jumps jump": lambda: step_from_jumps(IV, 0.0, plus_jumps=((0.5, HUGE),)),
    "step_from_jumps endpoint": lambda: step_from_jumps(IV, 0.0, endpoint=-HUGE),
    "monotone jump": lambda: MonotoneFunction(IV, Affine(1.0), ((0.5, 0.0, HUGE),)),
    "lipschitz node value": lambda: PiecewiseLipschitz(IV, (0.0, 1.0), (Affine(1.0),), (1.0,),
                                                       (0.0, HUGE)),
    "lipschitz constant": lambda: PiecewiseLipschitz(IV, (0.0, 1.0), (Affine(1.0),), (HUGE,)),
    "lipschitz piece at a break": lambda: PiecewiseLipschitz(
        IV, (0.0, 1.0), (lambda t: HUGE if t == 1.0 else 0,), (0.0,), node_values=(0.0, 0.0)),
    "monotone base rise": lambda: MonotoneFunction(IV, lambda t: HUGE if t > 0.5 else 0),
    # 1/8 is a guardrail sample, 0.3 is not, and 1/16 only a bisection point.
    "monotone base at a sample": lambda: MonotoneFunction(IV, lambda t: HUGE if t == 0.125 else t),
    "monotone base at a jump": lambda: MonotoneFunction(
        IV, lambda t: HUGE if t == 0.3 else t, ((0.3, 0.25, 0.0),)),
    "monotone approximant": lambda: MonotoneFunction(
        IV, lambda t: HUGE if t == 0.0625 else t).approximate(0.01),
    "monotone read": lambda: MonotoneFunction(IV, lambda t: HUGE if t == 0.3 else t).value(0.3),
    "gauge override": lambda: Gauge(0.1, {0.5: HUGE}),
    "gauge constant": lambda: Gauge(HUGE),
    "gauge callable body": lambda: Gauge(lambda t: HUGE)(0.5),
}


@pytest.mark.parametrize("site", sorted(PAST_THE_FLOAT_RANGE))
def test_a_number_past_the_float_range_is_a_domain_error(site):
    with pytest.raises(DomainError, match="must be finite: int too large to convert to float"):
        PAST_THE_FLOAT_RANGE[site]()


def test_interval_membership():
    for t in (0.0, 0.5, 1.0):
        IV.require(t)
    with pytest.raises(DomainError):
        IV.require(-1e-9)
    with pytest.raises(DomainError):
        IV.require(1.5)


# ------------------------------------------------------------ construction

def test_values_and_one_sided_limits():
    f = StepFunction(IV, (0.0, 0.25, 0.75, 1.0), (9.0, 5.0, 5.0, 2.0),
                     (1.0, 5.0, 3.0))
    assert f(0.0) == 9.0 and f(1.0) == 2.0
    assert f(0.1) == 1.0 and f(0.25) == 5.0 and f(0.5) == 5.0
    assert f.left_limit(0.25) == 1.0 and f.right_limit(0.25) == 5.0
    assert f.left_limit(1.0) == 3.0 and f.right_limit(0.0) == 1.0
    # At a node the limits come from the flanking open pieces, never
    # from the node value itself.
    assert f.left_limit(0.75) == 5.0 and f.right_limit(0.75) == 3.0
    # No left limit at a, no right limit at b.
    with pytest.raises(DomainError):
        f.left_limit(0.0)
    with pytest.raises(DomainError):
        f.right_limit(1.0)


def test_jumps_at_endpoints():
    f = StepFunction(IV, (0.0, 1.0), (4.0, 7.0), (5.0,))
    assert f.right_limit(0.0) - f.value(0.0) == 1.0
    assert f.value(1.0) - f.left_limit(1.0) == 2.0


def test_validation_errors():
    with pytest.raises(DomainError):
        StepFunction(IV, (0.0, 0.5), (0.0, 1.0), (0.0,))       # missing b
    with pytest.raises(DomainError):
        StepFunction(IV, (0.0, 0.5, 0.5, 1.0), (0,) * 4, (0,) * 3)
    with pytest.raises(DomainError):
        StepFunction(IV, (0.0, 1.0), (0.0,), (0.0,))
    with pytest.raises(DomainError):
        StepFunction(IV, (0.0, 1.0), (0.0, math.nan), (0.0,))


def test_canonical_form_drops_silent_nodes():
    plain = StepFunction(IV, (0.0, 1.0), (0.0, 2.0), (1.0,))
    padded = StepFunction(IV, (0.0, 0.3, 0.7, 1.0), (0.0, 1.0, 1.0, 2.0),
                          (1.0, 1.0, 1.0))
    assert padded == plain
    assert padded.nodes == (0.0, 1.0)
    assert hash(padded) == hash(plain)


def test_nodes_with_jumps_survive_canonicalization():
    f = StepFunction(IV, (0.0, 0.5, 1.0), (0.0, 1.0, 1.0), (0.0, 1.0))
    assert f.nodes == (0.0, 0.5, 1.0)
    assert f == chi_closed(0.5)


def test_constant():
    c = StepFunction.constant(IV, 3.5)
    assert c.nodes == (0.0, 1.0)
    assert c(0.4) == 3.5 and c.variation_bound == 0.0 and c.sup_bound == 3.5
    assert c.jump_points() == ()


# ------------------------------------------------------------------- norms

def test_variation_counts_both_one_sided_jumps():
    # One interior node with distinct value on both sides: the node
    # value 5 contributes |5-1| + |2-5|.
    f = StepFunction(IV, (0.0, 0.5, 1.0), (1.0, 5.0, 2.0), (1.0, 2.0))
    assert f.variation_bound == 7.0
    assert f.sup_bound == 5.0


def test_indicator_shapes():
    half_open = indicator(IV, 0.5, 1.0, closed_left=False, closed_right=True)
    assert half_open(0.5) == 0.0 and half_open(0.50001) == 1.0
    assert half_open(1.0) == 1.0
    closed = chi_closed(0.5)
    assert closed(0.5) == 1.0 and closed.left_limit(0.5) == 0.0
    point = indicator(IV, 1.0, 1.0, closed_left=True, closed_right=True)
    assert point(1.0) == 1.0 and point(0.999) == 0.0 and point.variation_bound == 1.0
    with pytest.raises(DomainError):
        indicator(IV, 0.5, 0.5, closed_left=False, closed_right=True)
    with pytest.raises(DomainError):
        indicator(IV, 0.7, 0.3, closed_left=True, closed_right=True)


# ----------------------------------------------------------- decomposition

def test_decompose_weights_on_known_function():
    f = StepFunction(IV, (0.0, 0.5, 1.0), (1.0, 5.0, 2.0), (1.0, 2.0))
    dec = f.decompose()
    assert dec.base == 1.0
    assert dec.plus_jumps == ((0.5, -3.0),)   # drops from 5 back to 2
    assert dec.minus_jumps == ((0.5, 4.0),)   # climbs from 1 to 5 at the node
    assert dec.endpoint == 0.0


def test_decompose_reconstructs_near_machine_precision():
    # Arbitrary float values pick up one rounding per accumulated jump,
    # so the round trip is exact only up to a few ulps.
    rng = random.Random(20260814)
    for _ in range(200):
        f = rand_step(rng)
        dec = f.decompose()
        back = dec.to_step()
        assert back.nodes == f.nodes
        for t in [0.0, 1.0] + [rng.uniform(0.0, 1.0) for _ in range(20)]:
            assert abs(back(t) - f(t)) <= 1e-13


def test_step_from_jumps_places_weights():
    f = step_from_jumps(IV, 2.0, plus_jumps=((0.0, 1.0),),
                        minus_jumps=((0.5, 3.0),), endpoint=-1.0)
    assert f(0.0) == 2.0 and f(0.25) == 3.0
    assert f(0.5) == 6.0 and f(0.75) == 6.0
    assert f(1.0) == 5.0
    with pytest.raises(DomainError):
        Decomposition(IV, 0.0, ((1.0, 2.0),), (), 0.0)  # plus jump at b


def test_to_step_values_are_correctly_rounded_prefix_sums():
    # Locations repeat and weights span many binades, so a running float
    # sum would round differently from math.fsum of the same weights.
    rng = random.Random(20261018)
    locs = [0.0, 0.125, 0.25, 0.5, 0.75, 0.875]

    def weight():
        return rng.choice((-1, 1)) * rng.uniform(0.5, 1.0) * 2.0 ** rng.randint(-60, 60)

    for _ in range(100):
        base, endpoint = weight(), weight()
        plus = [(rng.choice(locs), weight()) for _ in range(rng.randint(0, 12))]
        minus = [(rng.choice(locs[1:]), weight()) for _ in range(rng.randint(0, 12))]
        f = step_from_jumps(IV, base, plus, minus, endpoint)
        for x in locs + [1.0]:
            at = [base] + [w for s, w in plus if s < x] + [w for s, w in minus if s <= x]
            assert f(x) == math.fsum(at + ([endpoint] if x == 1.0 else []))
            if x < 1.0:
                on = [base] + [w for s, w in plus + minus if s <= x]
                assert f.right_limit(x) == math.fsum(on)


def test_to_step_refuses_values_beyond_float():
    big = 1.5e308
    with pytest.raises(DomainError):
        step_from_jumps(IV, big, plus_jumps=((0.5, big),))
    with pytest.raises(DomainError):
        step_from_jumps(IV, 0.0, minus_jumps=((0.5, math.inf),))
    # No value overflows here, only a left-to-right float sum would.
    f = step_from_jumps(IV, big, plus_jumps=((0.5, big),), minus_jumps=((0.5, -big),))
    assert (f(0.25), f(0.5), f(0.75)) == (big, 0.0, big)


# ----------------------------------------------------------------- algebra

def test_algebra_on_known_values():
    f = chi_closed(0.5)
    g = indicator(IV, 0.5, 1.0, closed_left=False, closed_right=True)
    d = f - g
    assert d(0.5) == 1.0 and d(0.7) == 0.0 and d(0.2) == 0.0
    assert d.variation_bound == 2.0
    assert (2.0 * f)(0.5) == 2.0
    assert (-f)(0.5) == -1.0


def test_combining_needs_a_step_on_the_same_interval():
    f = chi_closed(0.5)
    smooth = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Affine(1.0),))
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(f, smooth)
        with pytest.raises(DomainError, match="different intervals"):
            op(f, StepFunction.constant(Interval(0.0, 2.0), 1.0))
    with pytest.raises(TypeError):
        f * f


def test_equality_and_repr():
    f = chi_closed(0.5)
    assert f != 1.0 and IV != (0.0, 1.0)
    assert eval(repr(f), {"StepFunction": StepFunction, "Interval": Interval}) == f


steps = dyadic_steps


@given(steps(), steps())
def test_addition_is_pointwise(f, g):
    h = f + g
    for t in (0.0, 1.0 / 16, 0.5, 11.0 / 16, 1.0, 0.123):
        assert h(t) == f(t) + g(t)


def _nondyadic_step(rng: random.Random, inner) -> StepFunction:
    nodes = [0.0] + sorted(set(inner) - {0.0, 1.0}) + [1.0]
    # A small value pool makes neighbouring pieces agree now and then.
    pool = [rng.uniform(-3.0, 3.0) for _ in range(3)] + [0.1, 0.7]
    return StepFunction(IV, nodes, [rng.choice(pool) for _ in nodes],
                        [rng.choice(pool) for _ in nodes[1:]])


def test_merge_walk_is_pointwise_on_nondyadic_pairs():
    rng = random.Random(20261018)
    for _ in range(300):
        f = _nondyadic_step(rng, [rng.random() for _ in range(rng.randint(0, 12))])
        inner = list(f.nodes[1:-1])
        shared = _nondyadic_step(
            rng, rng.sample(inner, len(inner) // 2) + [rng.random() for _ in range(3)])
        disjoint = _nondyadic_step(rng, [rng.random() for _ in range(rng.randint(0, 12))])
        cancelling = StepFunction(
            IV, f.nodes, [-v for v in f.node_values],
            [-v if rng.random() < 0.7 else rng.uniform(-1.0, 1.0)
             for v in f.interior_values])
        c = rng.uniform(-2.0, 2.0)
        const = StepFunction.constant(IV, c)
        cases = [(f + c, const, operator.add), (f - c, const, operator.sub),
                 (c + f, const, operator.add)]
        for g in (shared, disjoint, cancelling):
            cases += [(f + g, g, operator.add), (f - g, g, operator.sub)]
        for h, g, op in cases:
            for x in sorted(set(f.nodes) | set(g.nodes)):
                assert h.value(x) == op(f.value(x), g.value(x))
                if x < 1.0:
                    assert h.right_limit(x) == op(f.right_limit(x), g.right_limit(x))
        assert f - f == StepFunction.constant(IV, 0.0)


def _bits(h: StepFunction) -> tuple:
    return tuple(tuple(map(float.hex, seq))
                 for seq in (h.nodes, h.node_values, h.interior_values))


def _reference(f: StepFunction, g, op) -> StepFunction:
    """``f op g`` from its definition, independent of the merge walk:
    the sorted union of the nodes, each read by ``value`` and
    ``right_limit``, through the public constructor.  A number g is the
    constant function."""
    if isinstance(g, StepFunction):
        nodes = sorted(set(f.nodes) | set(g.nodes))
        value, right = g.value, g.right_limit
    else:
        nodes = f.nodes
        value = right = lambda x, c=float(g): c
    return StepFunction(f.interval, nodes, [op(f.value(x), value(x)) for x in nodes],
                        [op(f.right_limit(x), right(x)) for x in nodes[:-1]])


def _scaled_reference(f: StepFunction, lam) -> StepFunction:
    lam = float(lam)
    return StepFunction(f.interval, f.nodes, [lam * v for v in f.node_values],
                        [lam * v for v in f.interior_values])


def _pooled_step(rng: random.Random, pool, inner) -> StepFunction:
    nodes = [0.0] + sorted(set(inner) - {0.0, 1.0}) + [1.0]
    return StepFunction(IV, nodes, [rng.choice(pool) for _ in nodes],
                        [rng.choice(pool) for _ in nodes[1:]])


def test_algebra_is_bit_identical_to_its_definition():
    rng = random.Random(20261019)
    # Small pools make pieces agree, so results have silent nodes to drop;
    # signed zeros agree under == but not bit for bit.
    pools = ([0.0, -0.0], [0.0, -0.0, 1.0, -1.0], [1e-20, 1.0, 0.1, 0.2, 0.3],
             [rng.uniform(-3.0, 3.0) for _ in range(3)] + [0.1, 0.7])
    for n, reps in ((0, 20), (1, 20), (6, 20), (60, 8), (400, 3), (2000, 1)):
        for _ in range(reps):
            pool = rng.choice(pools)
            f = _pooled_step(rng, pool, [rng.random() for _ in range(n)])
            inner = list(f.nodes[1:-1])
            shared = _pooled_step(
                rng, pool, rng.sample(inner, len(inner) // 2) + [rng.random() for _ in range(n // 4)])
            disjoint = _pooled_step(rng, pool, [rng.random() for _ in range(n)])
            cancelling = StepFunction(
                IV, f.nodes, [-v for v in f.node_values],
                [-v if rng.random() < 0.7 else rng.choice(pool) for v in f.interior_values])
            cases = [(-f, _scaled_reference(f, -1.0)),
                     (sum([f, shared, disjoint]),
                      _reference(_reference(_reference(f, 0, operator.add),
                                            shared, operator.add), disjoint, operator.add))]
            for g in (shared, disjoint, cancelling):
                cases += [(f + g, _reference(f, g, operator.add)),
                          (f - g, _reference(f, g, operator.sub)),
                          (g - f, _reference(g, f, operator.sub))]
            for c in (0, 0.0, -0.0, 3, -2, 0.1, rng.choice(pool)):
                cases += [(f + c, _reference(f, c, operator.add)),
                          (c + f, _reference(f, c, operator.add)),
                          (f - c, _reference(f, c, operator.sub)),
                          (f * c, _scaled_reference(f, c)),
                          (c * f, _scaled_reference(f, c))]
            for h, ref in cases:
                assert _bits(h) == _bits(ref)
                assert h == StepFunction(h.interval, h.nodes, h.node_values, h.interior_values)


BIG = StepFunction(IV, (0.0, 0.5, 1.0), (1e308, -1e308, 1e308), (1e308, -1e308))


@pytest.mark.parametrize("op", [lambda: BIG + BIG, lambda: BIG - (-BIG), lambda: BIG + 1e308,
                                lambda: 1e308 + BIG, lambda: BIG - 1e308, lambda: 2.0 * BIG,
                                lambda: BIG * 1e10],
                         ids=["sum", "difference", "scalar sum", "scalar sum, reflected",
                              "scalar difference", "scalar product", "scalar product, right"])
def test_algebra_refuses_an_overflow_to_infinity(op):
    with pytest.raises(DomainError, match=r"^step function values must be finite$"):
        op()


@given(steps(), steps())
def test_variation_subadditive(f, g):
    assert (f + g).variation_bound <= f.variation_bound + g.variation_bound + 1e-12


@given(steps(), hs.integers(-3, 3))
def test_variation_homogeneous_for_dyadic_scalars(f, k):
    lam = 2.0 ** k
    assert (lam * f).variation_bound == lam * f.variation_bound


@given(steps())
def test_variation_never_underestimated_by_sampling(f):
    assert brute_variation(f, IV, 512) <= f.variation_bound + 1e-12


@given(steps())
def test_decompose_round_trip_exact_on_dyadic_values(f):
    assert f.decompose().to_step() == f


@given(steps())
def test_approximate_is_identity_for_steps(f):
    step, err = f.approximate(1e-6)
    assert step is f and err == 0.0


@given(steps())
def test_sup_norm_is_max_abs(f):
    observed = max(abs(f(t)) for t in
                   list(f.nodes) + [k / 32.0 + 1.0 / 64 for k in range(32)])
    assert observed <= f.sup_bound + 0.0
    assert any(math.isclose(abs(f(t)), f.sup_bound)
               for t in list(f.nodes) + [k / 32.0 + 1.0 / 64 for k in range(32)])
