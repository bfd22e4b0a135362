import math
import random

from hypothesis import settings, strategies as hs

from stieltjes import (Affine, ApproximationError, Interval,
                       PiecewiseLipschitz, Power, RegulatedFunction, SinWave,
                       StepFunction)

settings.register_profile("suite", derandomize=True, deadline=None,
                          max_examples=60)
settings.load_profile("suite")

# Values on the 1/8 grid and nodes on the 1/16 grid: sums, products and
# differences of these stay exact in floating point, which lets algebra
# tests assert equality instead of closeness.
grid_values = hs.integers(-40, 40).map(lambda k: k / 8.0)


@hs.composite
def dyadic_steps(draw, max_inner: int = 4):
    n = draw(hs.integers(0, max_inner))
    inner = draw(hs.lists(hs.integers(1, 15).map(lambda k: k / 16.0),
                          min_size=n, max_size=n, unique=True))
    nodes = [0.0] + sorted(inner) + [1.0]
    at = draw(hs.lists(grid_values, min_size=len(nodes), max_size=len(nodes)))
    on = draw(hs.lists(grid_values, min_size=len(nodes) - 1,
                       max_size=len(nodes) - 1))
    return StepFunction(Interval(0.0, 1.0), nodes, at, on)


class Opaque:
    """A catalog formula with its derivative data hidden: the same values,
    Lipschitz constants and variation bounds, but a function built from
    it is not a catalog function, so its integrals keep the first-order
    limit route."""

    def __init__(self, formula):
        self.formula = formula

    def __call__(self, t):
        return self.formula(t)

    def lipschitz_on(self, u, v):
        return self.formula.lipschitz_on(u, v)

    def variation_on(self, u, v):
        return self.formula.variation_on(u, v)


class NoCertificate(RegulatedFunction):
    """Continuous, bounded, but refuses to certify anything useful."""

    __slots__ = ()

    def value(self, t):
        self._interval.require(t)
        return math.sin(50.0 * t)

    def left_limit(self, t):
        return self.value(t)

    def right_limit(self, t):
        return self.value(t)

    def approximate(self, eps):
        raise ApproximationError("no certificate", best_error=math.inf)

    @property
    def variation_bound(self):
        return None

    @property
    def sup_bound(self):
        return 1.0

    def jump_points(self):
        return ()


def rand_step(rng: random.Random, interval: Interval = Interval(0.0, 1.0),
              max_nodes: int = 8) -> StepFunction:
    """Random step function; repeats values now and then so the
    canonical form actually has something to merge."""
    n_inner = rng.randint(0, max_nodes - 2)
    inner = sorted({rng.uniform(interval.a, interval.b) for _ in range(n_inner)})
    nodes = [interval.a] + [t for t in inner if interval.a < t < interval.b] + [interval.b]

    def draw(prev: float | None) -> float:
        if prev is not None and rng.random() < 0.25:
            return prev
        return rng.uniform(-5.0, 5.0)

    node_values, interior = [], []
    prev = None
    for _ in nodes:
        prev = draw(prev)
        node_values.append(prev)
    prev = None
    for _ in range(len(nodes) - 1):
        prev = draw(prev)
        interior.append(prev)
    return StepFunction(interval, nodes, node_values, interior)


def rand_division_points(rng: random.Random, interval: Interval,
                         max_inner: int = 10) -> tuple[float, ...]:
    inner = {rng.uniform(interval.a, interval.b) for _ in range(rng.randint(0, max_inner))}
    return tuple(sorted({interval.a, interval.b}
                        | {x for x in inner if interval.a < x < interval.b}))


def rand_smooth(rng: random.Random,
                interval: Interval = Interval(0.0, 1.0)) -> PiecewiseLipschitz:
    """Random piecewise-smooth function with 1 to 3 pieces."""
    n = rng.randint(1, 3)
    breaks = rand_division_points(rng, interval)
    while len(breaks) - 1 > n:
        breaks = breaks[:1] + breaks[2:]
    forms = []
    for _ in range(len(breaks) - 1):
        pick = rng.randrange(3)
        if pick == 0:
            forms.append(Affine(rng.uniform(-3, 3), rng.uniform(-2, 2)))
        elif pick == 1:
            forms.append(SinWave(rng.uniform(0.5, 6), rng.uniform(0.2, 2),
                                 rng.uniform(0, 6)))
        else:
            forms.append(Power(rng.uniform(1.0, 3.0), rng.uniform(-2, 2)))
    at = None
    if rng.random() < 0.5:
        at = [rng.uniform(-3, 3) for _ in breaks]
    return PiecewiseLipschitz.from_formulas(interval, breaks, forms, at)


def gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), the bound on n roundings' relative error."""
    u = 2.0 ** -53
    return n * u / (1.0 - n * u)


def brute_variation(fn, interval: Interval, n: int = 4000) -> float:
    """Dense-sample lower bound on the total variation, with both
    endpoints of every sampling cell; never exceeds the true value."""
    a, b = interval.a, interval.b
    ts = [a + (b - a) * k / n for k in range(n + 1)]
    ts[-1] = b
    vals = [fn.value(t) for t in ts]
    return math.fsum(abs(vals[k + 1] - vals[k]) for k in range(n))


def sample_sup(fn, interval: Interval, n: int = 4000) -> float:
    a, b = interval.a, interval.b
    best = 0.0
    for k in range(n + 1):
        t = a + (b - a) * k / n
        best = max(best, abs(fn.value(min(t, b))))
    return best
