"""Unit checks for the elementary closed forms.

The two reference integrators below have every feature the forward and
backward tables care about: a jump at each endpoint plus a two-sided
jump at tau = 0.5 (the step case), and no jumps at all (the affine
case).  Every expected number is worked out by hand from the one-sided
limits, so these tests are independent of the code they check.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import NoCertificate, Opaque, dyadic_steps, gamma, rand_smooth, rand_step
from stieltjes import (Affine, ApproximationError, DomainError,
                       ElementaryIntegrand, IndicatorKind, IntegralKind,
                       Interval, MonotoneFunction, PiecewiseLipschitz, Power,
                       SinWave, StepFunction, StepPairError, StieltjesError,
                       VariationUnknownError, by_parts, check_integral_bounds,
                       elementary_backward, elementary_forward, indicator,
                       integrate, integrate_limit, integrate_step_pair,
                       oracle_gauge, oracle_refinement, step_from_jumps)
from stieltjes import regulated

IV = Interval(0.0, 1.0)
K, Y, D = IntegralKind.KURZWEIL, IntegralKind.YOUNG, IntegralKind.DUSHNIK

IDENT = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Affine(1.0),))
# t without catalog derivative data: its integrals take the first-order route.
PLAIN_IDENT = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Opaque(Affine(1.0)),))


class UncertifiedVariation(PiecewiseLipschitz):
    """Approximable, but refuses to certify a variation bound."""

    __slots__ = ()

    @property
    def variation_bound(self):
        return None

# g(0) = 1, g(0+) = 3, g(0.5-) = 3, g(0.5) = 8, g(0.5+) = 11,
# g(1-) = 11, g(1) = 18.
SPIKY = step_from_jumps(IV, 1.0, plus_jumps=((0.0, 2.0), (0.5, 3.0)),
                        minus_jumps=((0.5, 5.0),), endpoint=7.0)

E1 = ElementaryIntegrand(IndicatorKind.ONE)
E2 = ElementaryIntegrand(IndicatorKind.OPEN_FROM_A)
E3 = ElementaryIntegrand(IndicatorKind.OPEN_TAIL, 0.5)
E4 = ElementaryIntegrand(IndicatorKind.CLOSED_TAIL, 0.5)
E5 = ElementaryIntegrand(IndicatorKind.POINT_B)


def test_kind_letters():
    assert IntegralKind.from_letter("K") is K
    assert IntegralKind.from_letter("D") is D
    assert Y.value == "Y"
    with pytest.raises(DomainError, match="unknown integral kind 'Q'"):
        IntegralKind.from_letter("Q")


# 0 on [0, 1/2), 1 on [1/2, 1]: K = Y = 1 and D = 0 against itself.
HALF_STEP = StepFunction(IV, (0.0, 0.5, 1.0), (0.0, 1.0, 1.0), (0.0, 1.0))
E_HALF = ElementaryIntegrand(IndicatorKind.CLOSED_TAIL, 0.5)
KIND_ENTRY_POINTS = {
    "integrate": lambda k: integrate(HALF_STEP, HALF_STEP, k),
    "integrate_limit": lambda k: integrate_limit(HALF_STEP, HALF_STEP, k),
    "integrate_step_pair": lambda k: integrate_step_pair(HALF_STEP, HALF_STEP, k),
    "by_parts": lambda k: by_parts(HALF_STEP, HALF_STEP, k),
    "oracle_refinement": lambda k: oracle_refinement(HALF_STEP, HALF_STEP, k),
    "elementary_forward": lambda k: elementary_forward(E_HALF, HALF_STEP, k),
    "elementary_backward": lambda k: elementary_backward(HALF_STEP, E_HALF, k),
}


def _outcome(call, kind):
    try:
        out = call(kind)
    except DomainError as exc:
        return "refused", str(exc)
    return out.value.hex(), out.kind


@pytest.mark.parametrize("name", sorted(KIND_ENTRY_POINTS))
def test_a_kind_letter_gives_the_members_result(name):
    call = KIND_ENTRY_POINTS[name]
    for kind in (K, Y, D):
        assert _outcome(call, kind.value) == _outcome(call, kind)
    assert _outcome(call, "D") == (0.0.hex(), D)
    assert _outcome(call, "Y") == (1.0.hex(), Y)


@pytest.mark.parametrize("name", sorted(KIND_ENTRY_POINTS))
def test_an_unknown_kind_is_refused(name):
    for kind in ("Q", "d", None):
        with pytest.raises(DomainError, match=f"unknown integral kind {kind!r}"):
            KIND_ENTRY_POINTS[name](kind)


def test_elementary_integrand_validation():
    with pytest.raises(DomainError):
        ElementaryIntegrand(IndicatorKind.OPEN_TAIL)          # tau missing
    with pytest.raises(DomainError):
        ElementaryIntegrand(IndicatorKind.ONE, 0.5)           # tau forbidden
    with pytest.raises(DomainError):
        elementary_forward(ElementaryIntegrand(IndicatorKind.OPEN_TAIL, 0.0),
                           SPIKY, K)                          # tau not interior


def test_an_indicator_kind_is_a_member_or_its_value():
    assert ElementaryIntegrand("one") == E1
    assert ElementaryIntegrand("chi_closed_tau", 0.5) == E4
    # The value is checked like the member: a tail kind needs its tau.
    with pytest.raises(DomainError, match="chi_open_tau needs a location"):
        ElementaryIntegrand("chi_open_tau")
    for kind in ("chi_bogus", None, IntegralKind.KURZWEIL):
        with pytest.raises(DomainError, match=f"unknown indicator kind {kind!r}"):
            ElementaryIntegrand(kind)
    with pytest.raises(DomainError, match="unknown indicator kind"):
        E1._replace(kind="two")


def test_as_step_shapes():
    assert E1.as_step(IV) == StepFunction.constant(IV, 1.0)
    f2 = E2.as_step(IV)
    assert f2(0.0) == 0.0 and f2(1e-9) == 1.0 and f2(1.0) == 1.0
    f3, f4 = E3.as_step(IV), E4.as_step(IV)
    assert f3(0.5) == 0.0 and f4(0.5) == 1.0 and f3(0.75) == f4(0.75) == 1.0
    f5 = E5.as_step(IV)
    assert f5(1.0) == 1.0 and f5(0.999) == 0.0


# Expected forward values ∫ e dg against SPIKY, worked from its limits.
FORWARD_SPIKY = [
    (E1, {K: 17.0, Y: 17.0, D: 17.0}),
    (E2, {K: 15.0, Y: 15.0, D: 17.0}),
    (E3, {K: 7.0, Y: 7.0, D: 10.0}),
    (E4, {K: 15.0, Y: 15.0, D: 10.0}),
    (E5, {K: 7.0, Y: 7.0, D: 0.0}),
]

# Against the continuous g(t) = t all three kinds coincide.
FORWARD_IDENT = [(E1, 1.0), (E2, 1.0), (E3, 0.5), (E4, 0.5), (E5, 0.0)]

# Expected backward values ∫ g d(e).
BACKWARD_SPIKY = [
    (E1, {K: 0.0, Y: 0.0, D: 0.0}),
    (E2, {K: 1.0, Y: 1.0, D: 3.0}),
    (E3, {K: 8.0, Y: 8.0, D: 11.0}),
    (E4, {K: 8.0, Y: 8.0, D: 3.0}),
    (E5, {K: 18.0, Y: 18.0, D: 11.0}),
]

BACKWARD_IDENT = [(E1, 0.0), (E2, 0.0), (E3, 0.5), (E4, 0.5), (E5, 1.0)]


@pytest.mark.parametrize("e,expected", FORWARD_SPIKY)
def test_forward_table_step_integrator(e, expected):
    for kind, want in expected.items():
        res = elementary_forward(e, SPIKY, kind)
        assert res.value == want and res.error_bound == 0.0
        assert res.kind is kind
        assert res.diagnostics.method == "indicator-table"


@pytest.mark.parametrize("e,want", FORWARD_IDENT)
def test_forward_table_continuous_integrator(e, want):
    for kind in (K, Y, D):
        assert elementary_forward(e, IDENT, kind).value == want


@pytest.mark.parametrize("e,expected", BACKWARD_SPIKY)
def test_backward_table_step_integrand(e, expected):
    for kind, want in expected.items():
        assert elementary_backward(SPIKY, e, kind).value == want


@pytest.mark.parametrize("e,want", BACKWARD_IDENT)
def test_backward_table_continuous_integrand(e, want):
    for kind in (K, Y, D):
        assert elementary_backward(IDENT, e, kind).value == want


@pytest.mark.parametrize("e", [E1, E2, E3, E4, E5])
def test_table_consistent_with_step_decomposition(e):
    # The closed forms must agree with running the indicator through the
    # general step-pair route in both argument slots.
    for kind in (K, Y, D):
        assert (elementary_forward(e, SPIKY, kind).value
                == integrate_step_pair(e.as_step(IV), SPIKY, kind).value)
        assert (elementary_backward(SPIKY, e, kind).value
                == integrate_step_pair(SPIKY, e.as_step(IV), kind).value)


def test_kind_separation_on_indicator_pairs():
    chi_open = indicator(IV, 0.5, 1.0, closed_left=False, closed_right=True)
    chi_closed = indicator(IV, 0.5, 1.0, closed_left=True, closed_right=True)
    assert elementary_forward(E3, chi_open, Y).value == 0.0
    assert elementary_forward(E3, chi_open, D).value == 1.0
    assert elementary_forward(E4, chi_closed, Y).value == 1.0
    assert elementary_forward(E4, chi_closed, D).value == 0.0
    assert elementary_forward(E5, chi_closed, K).value == 0.0
    point = indicator(IV, 1.0, 1.0, closed_left=True, closed_right=True)
    assert elementary_forward(E5, point, K).value == 1.0
    assert elementary_forward(E5, point, D).value == 0.0


def test_linear_combination_of_indicators():
    f = StepFunction.constant(IV, 2.0) + 3.0 * E4.as_step(IV)
    res = integrate_step_pair(f, IDENT, K)
    assert res.value == 3.5 and res.error_bound == 0.0
    assert res.diagnostics.method == "step-table"


def test_step_pair_requires_a_step():
    with pytest.raises(StepPairError):
        integrate_step_pair(IDENT, IDENT, K)
    with pytest.raises(DomainError):
        g2 = StepFunction.constant(Interval(0.0, 2.0), 1.0)
        integrate_step_pair(g2, SPIKY, K)


@given(dyadic_steps(), dyadic_steps())
def test_step_pairs_kurzweil_equals_young(f, g):
    assert integrate_step_pair(f, g, K).value == integrate_step_pair(f, g, Y).value


@given(dyadic_steps(), dyadic_steps())
def test_step_pairs_satisfy_by_parts(f, g):
    for kind in (K, Y, D):
        direct = integrate_step_pair(f, g, kind).value
        flipped = by_parts(f, g, kind).value
        assert abs(direct - flipped) <= 1e-12


@given(dyadic_steps(), dyadic_steps(), dyadic_steps())
def test_step_pair_additive_in_the_integrand(f1, f2, g):
    for kind in (K, Y, D):
        lhs = integrate_step_pair(f1 + f2, g, kind).value
        rhs = (integrate_step_pair(f1, g, kind).value
               + integrate_step_pair(f2, g, kind).value)
        assert abs(lhs - rhs) <= 1e-12


@given(dyadic_steps(), dyadic_steps())
def test_step_pair_dyadic_homogeneity_is_exact(f, g):
    assert (integrate_step_pair(4.0 * f, g, Y).value
            == 4.0 * integrate_step_pair(f, g, Y).value)


def table_terms(f, g, kind):
    """The step argument's ``decompose()`` weights times the five closed
    forms: the indicator-table route the node walk sums by parts."""
    a = IV.a
    if isinstance(f, StepFunction):
        dec = f.decompose()

        def closed_form(e):
            return elementary_forward(e, g, kind).value
    else:
        dec = g.decompose()

        def closed_form(e):
            return elementary_backward(f, e, kind).value

    def tail(sigma, closed):
        if closed:
            return ElementaryIntegrand(IndicatorKind.CLOSED_TAIL, sigma)
        if sigma == a:
            return E2
        return ElementaryIntegrand(IndicatorKind.OPEN_TAIL, sigma)

    return ([dec.base * closed_form(E1), dec.endpoint * closed_form(E5)]
            + [w * closed_form(tail(s, False)) for s, w in dec.plus_jumps]
            + [w * closed_form(tail(s, True)) for s, w in dec.minus_jumps])


def exact_step_pair(f, g, kind):
    """I(f, dg) of two step functions as a Fraction, from the defining
    sums on the common refinement of their nodes, where they no longer
    depend on the tags: the Young sum for K and Y, the Riemann sum for
    D."""
    F = Fraction
    xs = sorted(set(f.nodes) | set(g.nodes))
    total = F(0)
    for u, v in zip(xs, xs[1:]):
        on = F(f.value(0.5 * (u + v)))
        if kind is D:
            total += on * (F(g.value(v)) - F(g.value(u)))
        else:
            total += (F(f.value(u)) * (F(g.right_limit(u)) - F(g.value(u)))
                      + on * (F(g.left_limit(v)) - F(g.right_limit(u)))
                      + F(f.value(v)) * (F(g.value(v)) - F(g.left_limit(v))))
    return total


def test_node_walk_matches_the_indicator_table():
    # Both routes add up float closed forms of the same function
    # values, so each lies within gamma_n times its own sum of |terms|
    # of the exact value: sup|f| var g bounds the walk's, the table's
    # are summed here.
    rng = random.Random(20261018)
    pairs = [(rand_step(rng, max_nodes=40), rand_step(rng, max_nodes=40))
             for _ in range(200)]
    pairs += [(rand_smooth(rng), rand_step(rng, max_nodes=40)) for _ in range(60)]
    pairs += [(rand_step(rng, max_nodes=40), rand_smooth(rng)) for _ in range(60)]
    for f, g in pairs:
        for kind in (K, Y, D):
            value = integrate_step_pair(f, g, kind).value
            terms = table_terms(f, g, kind)
            bound = gamma(len(terms) + 3) * (
                math.fsum(abs(t) for t in terms) + f.sup_bound * g.variation_bound)
            assert abs(value - math.fsum(terms)) <= bound
            if isinstance(f, StepFunction) and isinstance(g, StepFunction):
                exact = exact_step_pair(f, g, kind)
                assert abs(Fraction(value) - exact) <= bound


# --------------------------------------------------------------- limit route

def test_classical_integral_through_the_limit_route():
    res = integrate_limit(PLAIN_IDENT, PLAIN_IDENT, K, tol=1e-3)
    assert abs(res.value - 0.5) <= res.error_bound <= 1e-3
    assert res.diagnostics.method == "limit-integrand"
    assert res.diagnostics.approximant_pieces >= 1000
    assert res.diagnostics.approximant_error is not None


def test_limit_route_against_a_step_integrator():
    # A step argument goes straight to the closed form, exactly,
    # whatever the tolerance is.
    g = indicator(IV, 0.5, 1.0, closed_left=True, closed_right=True)
    for kind in (K, Y, D):
        res = integrate_limit(IDENT, g, kind, tol=1e-6)
        assert res.value == 0.5 and res.error_bound == 0.0
        assert res.diagnostics.method == "step-table"


def test_limit_route_with_step_integrand_is_exact():
    f = E4.as_step(IV)
    res = integrate_limit(f, IDENT, Y, tol=1e-6)
    assert res.value == 0.5 and res.error_bound == 0.0
    assert res.diagnostics.method == "step-table"


def test_a_step_argument_is_never_approximated(monkeypatch):
    # Both entry points take the step-pair walk for a step argument, with
    # no approximant and no variation bound on the other side.
    def refuse(self, eps):
        raise AssertionError("approximate called")
    monkeypatch.setattr(StepFunction, "approximate", refuse)
    step = E4.as_step(IV)
    for f, g in ((step, NoCertificate(IV)), (NoCertificate(IV), step), (step, step)):
        for run in (integrate, integrate_limit):
            res = run(f, g, D, 1e-6)
            assert res == integrate_step_pair(f, g, D)


def test_limit_route_picks_the_cheaper_side():
    # var g is tiny, so approximating f against it predicts a much
    # smaller bound than approximating g against bv(f).
    flat = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Opaque(Affine(1e-6)),))
    wild = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Opaque(Affine(3.0)),))
    res = integrate_limit(wild, flat, K, tol=1e-4)
    assert res.diagnostics.method == "limit-integrand"
    assert abs(res.value) <= 1e-5          # integral against a near-constant
    res2 = integrate_limit(flat, wild, K, tol=1e-4)
    assert res2.diagnostics.method == "limit-integrator"
    assert res2.error_bound <= 1e-4


def test_limit_budget_holds_in_floating_point():
    # fl(fl(tol / v) * v) > tol here, so asking the approximant for
    # tol / v itself could certify a bound just above tol.
    tol, v = 0.1, 11.0
    assert (tol / v) * v > tol
    eps = math.nextafter(tol / v, 0.0)     # the largest float budget
    assert eps * v <= tol < math.nextafter(eps, 1.0) * v
    g = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Opaque(Affine(v)),))
    assert g.variation_bound == v

    def rising_by(rise):
        # The unit jump makes bv f large, so the integrand side is kept.
        return MonotoneFunction(IV, Opaque(Affine(rise)), jumps=((0.5, 0.0, 1.0),))

    # A base rising by exactly 2 eps is one cell with osc == 2 eps: the
    # achieved error is eps itself and the whole budget is used.
    full = integrate_limit(rising_by(2.0 * eps), g, K, tol)
    assert full.diagnostics.method == "limit-integrand"
    assert full.diagnostics.approximant_error == eps
    assert full.error_bound == eps * v <= tol
    # At eps = fl(tol / v) a base rising by 2 fl(tol / v) would be one
    # cell certifying fl(fl(tol / v) * v) > tol; the budget splits it.
    res = integrate_limit(rising_by(2.0 * (tol / v)), g, K, tol)
    assert res.diagnostics.method == "limit-integrand"
    assert res.error_bound <= tol


def _rand_monotone(rng):
    base = rng.choice((Affine(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0)),
                       Power(2.0, rng.uniform(0.3, 2.0)), Power(3.0, rng.uniform(0.3, 2.0))))
    jumps = [(rng.uniform(0.1, 0.9), rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3))
             for _ in range(rng.randint(0, 2))]
    return MonotoneFunction(IV, base, jumps)


def test_limit_budget_at_dyadic_boundaries():
    # Tolerances one ulp either side of a power of two, where tol / factor
    # rounds either way: every certificate stays within tol, and values at
    # neighbouring tolerances agree within their bounds.
    rng = random.Random(20261018)
    for n in range(12):
        p, m = rand_smooth(rng), _rand_monotone(rng)
        kind = (K, Y, D)[n % 3]
        for f, g in ((p, m), (m, p)):
            for k in (6, 8):
                edge = 2.0 ** -k
                results = []
                for tol in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)):
                    res = integrate_limit(f, g, kind, tol)
                    assert res.error_bound <= tol
                    results.append(res)
                for r1 in results:
                    for r2 in results:
                        assert abs(r1.value - r2.value) <= \
                            r1.error_bound + r2.error_bound + 1e-12


def test_limit_route_cells_follow_the_exact_certificate():
    # eps = tol / var g, so a piece with Lipschitz constant L and width w
    # needs ceil(L w var_g / tol) cells: the cell count is pinned to
    # L (b - a) var_g / tol plus one cell per piece for the ceilings.
    p = PiecewiseLipschitz.from_formulas(
        IV, (0.0, 0.4, 1.0), (Opaque(Affine(2.0, 0.5)), Opaque(SinWave(3.0, 0.5, 1.0))))
    m = MonotoneFunction(IV, Opaque(Power(2.0)), jumps=((0.5, 0.25, 0.25),))
    tol = 1e-4
    res = integrate_limit(p, m, Y, tol)
    assert res.diagnostics.method == "limit-integrand"
    assert res.error_bound <= tol
    lip = max(2.0, 3.0 * 0.5)
    pieces = res.diagnostics.approximant_pieces
    assert pieces <= math.ceil(lip * 1.0 * m.variation_bound / tol) + 3


def test_limit_route_with_zero_factors():
    # A constant integrator (var g = 0) and a zero integrand (bv f = 0)
    # put 0 in the certificate's factor, which certifies any approximant:
    # one cell per piece at every tol.  The monotone side has two pieces,
    # its base's one cell split by the jump at 0.5.
    wave = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Opaque(SinWave(4.0)),))
    flat = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Opaque(Affine(0.0, 3.0)),))
    zero = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Opaque(Affine(0.0)),))
    mono = MonotoneFunction(IV, Opaque(Power(2.0)), jumps=((0.5, 0.25, 0.25),))
    assert flat.variation_bound == 0.0 and zero.variation_bound == 0.0
    for f, g, method, pieces in ((wave, flat, "limit-integrand", 1),
                                 (zero, mono, "limit-integrator", 2)):
        for kind in (K, Y, D):
            for res in (integrate_limit(f, g, kind, tol=1e-3),
                        integrate_limit(f, g, kind)):
                assert res.diagnostics.method == method
                assert res.diagnostics.approximant_pieces == pieces
                assert res.value == 0.0 and res.error_bound == 0.0


def test_limit_route_refusal_names_the_reachable_tolerance(monkeypatch):
    # With 1024 cells allowed, the refusal's best_error is in integral
    # units: the route certifies that tol and refuses anything below.
    monkeypatch.setattr(regulated, "MAX_APPROX_CELLS", 1024)
    slope2 = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Opaque(Affine(2.0)),))
    quarter = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Opaque(Affine(0.25)),))
    steep = MonotoneFunction(IV, Opaque(Affine(4.0)))
    # (f, g, method, best): the integrand side against var g = 2, and
    # the integrator side under bv f = 1/2.
    for f, g, method, best in ((PLAIN_IDENT, slope2, "limit-integrand", 2.0 ** -9),
                               (quarter, steep, "limit-integrator", 2.0 ** -10)):
        with pytest.raises(ApproximationError) as info:
            integrate_limit(f, g, K, tol=2.0 ** -30)
        assert info.value.best_error == best
        assert "can certify" in str(info.value)
        res = integrate_limit(f, g, K, tol=best)
        assert res.diagnostics.method == method
        assert res.error_bound <= best and res.diagnostics.approximant_pieces <= 1024
        with pytest.raises(ApproximationError):
            integrate_limit(f, g, K, tol=0.9 * best)


def test_limit_route_refusal_names_the_tol_it_was_given(monkeypatch):
    # The approximants are asked for eps = tol / var g and tol / bv f;
    # the refusal names the caller's tol, the cells and the floor.
    monkeypatch.setattr(regulated, "MAX_APPROX_CELLS", 1024)
    slope2 = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Opaque(Affine(2.0)),))
    quarter = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Opaque(Affine(0.25)),))
    steep = MonotoneFunction(IV, Opaque(Affine(4.0)))
    tol = 2.0 ** -30
    for f, g, text in (
            (PLAIN_IDENT, slope2, "needs 2147483648 cells (limit 1024); "
                                  "the smallest tol this route can certify is 0.00195"),
            (quarter, steep, "needs at least 1.07e+09 cells (limit 1024); "
                             "the smallest tol this route can certify is 0.000977"),
            (NoCertificate(IV), slope2, "is refused: no certificate")):
        with pytest.raises(ApproximationError) as info:
            integrate_limit(f, g, K, tol=tol)
        assert str(info.value) == f"tolerance {tol!r} {text}"


def test_limit_route_refusal_names_no_infinite_floor(monkeypatch):
    # t**3 passes the monotone rise pre-check at 64 cells, then bisection
    # needs more: that refusal knows no reachable tol, so the message
    # must not claim that none exists; a larger tol still succeeds.
    monkeypatch.setattr(regulated, "MAX_APPROX_CELLS", 64)
    f = MonotoneFunction(IV, Opaque(Power(3.0)))
    g = MonotoneFunction(IV, Opaque(Power(1.0)))
    with pytest.raises(ApproximationError) as info:
        integrate(f, g, K, 0.01)
    assert info.value.best_error == math.inf
    assert "can certify" not in str(info.value)
    assert "inf" not in str(info.value)
    assert integrate(f, g, K, 0.012).error_bound <= 0.012


def test_monotone_cell_count_overflow_keeps_its_best_error():
    # On the first-order route a rise of 1e300 at eps ~ 1e-9 needs more
    # cells than a float holds; the floor rise / (2 * MAX_APPROX_CELLS),
    # times var g, stays finite.
    f = MonotoneFunction(IV, Opaque(Affine(1e300)))
    g = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Opaque(SinWave(1.0)),))
    with pytest.raises(ApproximationError, match="needs a cell count that overflows") as info:
        integrate(f, g, K)
    assert 0 < info.value.best_error < math.inf


def test_limit_route_preconditions():
    wave = NoCertificate(IV)
    with pytest.raises(VariationUnknownError):
        integrate_limit(wave, NoCertificate(IV), K)
    with pytest.raises(DomainError):
        integrate_limit(IDENT, IDENT, K, tol=0.0)
    with pytest.raises(DomainError):
        integrate(IDENT, IDENT, K, tol=-1.0)
    other = PiecewiseLipschitz.from_formulas(
        Interval(0.0, 2.0), (0.0, 2.0), (Affine(1.0),))
    with pytest.raises(DomainError):
        integrate_limit(IDENT, other, K)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_every_entry_point_refuses_a_tol_outside_zero_to_inf(tol):
    # An infinite tol once looped forever in the eps search.
    for run in (lambda: integrate(IDENT, IDENT, K, tol),
                lambda: integrate_limit(IDENT, IDENT, Y, tol),
                lambda: oracle_refinement(IDENT, IDENT, D, tol),
                lambda: oracle_gauge(IDENT, IDENT, tol)):
        with pytest.raises(DomainError, match="tolerance must be"):
            run()


def test_facade_routes_by_argument_type():
    assert integrate(E4.as_step(IV), SPIKY, D).diagnostics.method == "step-table"
    assert integrate(PLAIN_IDENT, PLAIN_IDENT, K, tol=1e-3).diagnostics.method == \
        "limit-integrand"
    assert integrate(IDENT, IDENT, K, tol=1e-3).diagnostics.method == "limit-gauss"
    # The integrator's variation bound alone suffices for the limit
    # route; the integrand only has to be approximable.
    shy = UncertifiedVariation.from_formulas(IV, (0.0, 1.0), (Opaque(Affine(1.0)),))
    res = integrate(shy, PLAIN_IDENT, Y, tol=1e-3)
    assert abs(res.value - 0.5) <= res.error_bound <= 1e-3


def test_by_parts_wraps_the_flipped_kind():
    res = by_parts(IDENT, IDENT, K, tol=1e-3)
    assert abs(res.value - 0.5) <= res.error_bound + 1e-15
    assert res.kind is K and res.diagnostics.method == "by-parts"
    # With a step integrator the inner integral is exact.
    g = indicator(IV, 0.5, 1.0, closed_left=True, closed_right=True)
    res = by_parts(IDENT, g, Y)
    assert res.error_bound == 0.0
    assert abs(res.value - integrate(IDENT, g, Y, tol=1e-9).value) <= 1e-9


def test_by_parts_refuses_an_overflowing_value():
    # The boundary term f(b) g(b) is 1e308 * 1e308; the inner integral
    # is 0, so the by-parts value alone overflows.
    f = StepFunction.constant(IV, 1e308)
    g = StepFunction(IV, (0.0, 1.0), (0.0, 1e308), (0.0,))
    with pytest.raises(StieltjesError, match="by-parts value overflows"):
        by_parts(f, g, K)


def test_by_parts_on_mixed_smooth_step_pairs():
    rng = random.Random(20260814)
    for _ in range(20):
        f, g = rand_smooth(rng), rand_step(rng)
        for kind in (K, Y, D):
            direct = integrate(f, g, kind, tol=1e-8)
            flipped = by_parts(f, g, kind, tol=1e-8)
            gap = abs(direct.value - flipped.value)
            assert gap <= direct.error_bound + flipped.error_bound + 1e-12


def test_integral_bounds_report():
    rng = random.Random(5)
    for _ in range(50):
        f, g = rand_step(rng), rand_step(rng)
        res = integrate(f, g, Y)
        report = check_integral_bounds(res, f, g)
        assert [c.name for c in report] == ["integral_sup_var", "integral_bv_sup"]
        assert report.all_hold
    shy = UncertifiedVariation.from_formulas(IV, (0.0, 1.0), (Affine(1.0),))
    res = integrate(shy, IDENT, Y, tol=1e-3)
    report = check_integral_bounds(res, shy, IDENT)
    assert report[1].holds is None and report.all_hold
