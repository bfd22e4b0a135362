"""The fourth-order limit route on catalog pairs.

Both arguments are catalog functions (``PiecewiseLipschitz`` over
``Affine``, ``Power`` and ``SinWave`` pieces, ``MonotoneFunction`` over an
``Affine`` or ``Power`` base), so ``integrate`` splits off the jump steps,
walks them exactly, and bounds the continuous part's two-point
Gauss-Legendre sum by the fourth-order certificate.  The references here
share no code with it:
exact ``Fraction`` antiderivatives of dyadic polynomial pairs, closed
forms, by parts, and the first-order route on the same functions with
their derivative data hidden (``Opaque``).
"""

import math
import pickle
import random
import sys
from fractions import Fraction

import pytest

from conftest import Opaque, gamma
from stieltjes import (Affine, ApproximationError, Diagnostics, DomainError,
                       IntegralKind, Interval, MonotoneFunction, PiecewiseLipschitz,
                       Power, SinWave, by_parts, integrate)
from stieltjes import cli, regulated
from stieltjes.integrate import _Graded

IV = Interval(0.0, 1.0)
K, Y, D = IntegralKind.KURZWEIL, IntegralKind.YOUNG, IntegralKind.DUSHNIK
KINDS = (K, Y, D)

# The jump terms (one step-pair walk of the two jump steps, and each
# continuous part at the other side's jump nodes) are summed in floating
# point like the step-pair route, which counts no rounding; their few
# terms here stay below 1e-14 each.
WALK_ROUNDING = 1e-13


def formula_of(formula) -> PiecewiseLipschitz:
    return PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (formula,))


def test_affine_pair_at_the_default_tol_is_one_exact_cell():
    ident = formula_of(Affine(1.0))
    for kind in KINDS:
        res = integrate(ident, ident, kind)
        assert res.value == 0.5
        assert res.diagnostics == Diagnostics("limit-gauss", None, 1)
        # f'' = g'' = 0: only the rounding term is left.
        assert 0.0 < res.error_bound <= 1e-14


@pytest.mark.parametrize("f, g, width, exact, pin", [
    # The midpoint rule needed 63,247, 35,356 and 566,411 cells for these.
    (Power(3.0), Power(4.0), 1.0, 4.0 / 7.0, 1000),
    (SinWave(3.0), Power(2.0), 1.0, 2.0 * (math.sin(3.0) / 9.0 - math.cos(3.0) / 3.0), 1000),
    (Power(3.0), SinWave(1.0), 4.0,
     40.0 * math.sin(4.0) + 42.0 * math.cos(4.0) + 6.0, 5000),
])
def test_gauss_cells_at_the_default_tol(f, g, width, exact, pin):
    iv = Interval(0.0, width)
    f, g = (PiecewiseLipschitz.from_formulas(iv, (0.0, width), (fm,)) for fm in (f, g))
    for kind in KINDS:
        res = integrate(f, g, kind, 1e-9)
        assert res.diagnostics.method == "limit-gauss"
        assert res.diagnostics.approximant_pieces < pin
        assert abs(res.value - exact) <= res.error_bound <= 1e-9


def test_the_certificate_is_attained_on_t_against_t4():
    # F = t * 4 t**3 has a fourth derivative of 96 everywhere, and Leibniz
    # gives 4 F1 G4 = 96 too, so the rule's error on each cell is its
    # bound: the value misses 4/5 by the truncation bound, short only by
    # the rounding term.
    res = integrate(formula_of(Affine(1.0)), formula_of(Power(4.0)), K, 1e-9)
    miss = abs(res.value - 0.8)
    assert 0.9999 * res.error_bound <= miss <= res.error_bound


# ---------------------------------------------------------- exact references

def dyadic(rng, lo: int, hi: int, den: int) -> float:
    return rng.randint(lo, hi) / den


def poly_of(formula) -> dict:
    """{power: coefficient} of an Affine or integer-exponent Power."""
    if isinstance(formula, Affine):
        return {1: Fraction(formula.slope), 0: Fraction(formula.intercept)}
    return {int(formula.exponent): Fraction(formula.scale)}


def poly_at(poly: dict, t) -> Fraction:
    t = Fraction(t)
    return sum((c * t ** k for k, c in poly.items()), Fraction(0))


def int_f_dg(p: dict, q: dict, u, v) -> Fraction:
    """int_u^v p(t) q'(t) dt, exactly."""
    total = Fraction(0)
    for k, c in p.items():
        for m, e in q.items():
            if m:  # c t**k times m e t**(m - 1) integrates to c e m t**n / n
                n = k + m
                total += c * e * m * (Fraction(v) ** n - Fraction(u) ** n) / n
    return total


class Model:
    """A function as exact data: breaks, one polynomial per open cell and
    the value at each break."""

    def __init__(self, breaks, polys, values):
        self.breaks, self.polys, self.values = list(breaks), list(polys), list(values)

    def limits(self, t: float):
        """(f(t-), f(t), f(t+)) with f(a-) := f(a) and f(b+) := f(b)."""
        bks = self.breaks
        if t in bks:
            k = bks.index(t)
            val = Fraction(self.values[k])
            left = poly_at(self.polys[k - 1], t) if k > 0 else val
            right = poly_at(self.polys[k], t) if k < len(bks) - 1 else val
            return left, val, right
        i = max(k for k, x in enumerate(bks) if x < t)
        val = poly_at(self.polys[i], t)
        return val, val, val

    def cell_of(self, u: float, v: float) -> dict:
        i = max(k for k, x in enumerate(self.breaks) if x <= u)
        return self.polys[i]


def exact_integral(f: Model, g: Model, kind) -> Fraction:
    """sum over cells of int f g' dt, plus g's jumps: f(t) (g(t+) - g(t-))
    for K and Y, f(t-) (g(t) - g(t-)) + f(t+) (g(t+) - g(t)) for D."""
    cuts = sorted(set(f.breaks) | set(g.breaks))
    total = sum((int_f_dg(f.cell_of(u, v), g.cell_of(u, v), u, v)
                 for u, v in zip(cuts, cuts[1:])), Fraction(0))
    for t in g.breaks:
        gl, gv, gr = g.limits(t)
        fl, fv, fr = f.limits(t)
        total += fv * (gr - gl) if kind is not D else fl * (gv - gl) + fr * (gr - gv)
    return total


def rand_dyadic_formula(rng):
    if rng.random() < 0.5:
        return Affine(dyadic(rng, -16, 16, 8), dyadic(rng, -8, 8, 8))
    return Power(float(rng.choice((2, 3))), dyadic(rng, -16, 16, 8))


def rand_dyadic_pieces(rng):
    """Dyadic breaks, coefficients and break values, so that every value
    the library reads at a break is exact."""
    inner = sorted(set(rng.randint(1, 15) / 16 for _ in range(rng.randint(0, 3))))
    breaks = [0.0] + inner + [1.0]
    forms = [rand_dyadic_formula(rng) for _ in breaks[1:]]
    polys = [poly_of(fm) for fm in forms]
    at = None
    if rng.random() < 0.7:
        at = [dyadic(rng, -16, 16, 8) for _ in breaks]
        values = at
    else:  # each break spliced onto the piece to its right, b onto the last
        values = [poly_at(p, t) for p, t in zip(polys, breaks)] + [poly_at(polys[-1], 1.0)]
    fn = PiecewiseLipschitz.from_formulas(IV, breaks, forms, at)
    return fn, Model(breaks, polys, values)


def rand_dyadic_monotone(rng):
    """An increasing affine or square base plus dyadic jumps, at a or b
    now and then."""
    base = (Affine(dyadic(rng, 1, 16, 8), dyadic(rng, -8, 8, 8))
            if rng.random() < 0.5 else Power(2.0, dyadic(rng, 1, 16, 8)))
    ts = sorted(set(rng.choice((0.0, 0.25, 0.5, 0.625, 1.0)) for _ in range(rng.randint(0, 3))))
    jumps = [(t, 0.0 if t == 0.0 else dyadic(rng, 0, 4, 8),
              0.0 if t == 1.0 else dyadic(rng, 0, 4, 8)) for t in ts]
    fn = MonotoneFunction(IV, base, jumps)
    poly = poly_of(base)
    breaks = sorted({0.0, 1.0} | {t for t, _, _ in jumps})
    level, polys, values = Fraction(0), [], []
    pre_post = {t: (Fraction(pre), Fraction(post)) for t, pre, post in jumps}
    for t in breaks:
        pre, post = pre_post.get(t, (Fraction(0), Fraction(0)))
        values.append(poly_at(poly, t) + level + pre)
        level += pre + post
        polys.append({**poly, 0: poly.get(0, Fraction(0)) + level})
    return fn, Model(breaks, polys[:-1], values)


def test_catalog_pairs_against_exact_dyadic_integrals():
    rng = random.Random(20261019)
    draw = (rand_dyadic_pieces, rand_dyadic_monotone)
    checked = 0
    for n in range(40):
        (f, fm), (g, gm) = draw[n % 2](rng), draw[n // 2 % 2](rng)
        tol = (1e-3, 1e-6, 1e-9)[n % 3]
        for kind in KINDS:
            res = integrate(f, g, kind, tol)
            assert res.diagnostics.method == "limit-gauss"
            assert res.error_bound <= tol
            exact = exact_integral(fm, gm, kind)
            assert abs(Fraction(res.value) - exact) <= res.error_bound + WALK_ROUNDING
            checked += 1
    assert checked == 120


def rand_jumping_monotone(rng):
    """A dyadic monotone function with at least one jump."""
    while True:
        g, gm = rand_dyadic_monotone(rng)
        if g.jump_points():
            return g, gm


def test_each_cross_term_alone_against_exact_dyadic_values():
    # A continuous f has no jump step, so against a g with jumps only f_c
    # at g's jump nodes is left of the jump terms; the reverse pair leaves
    # only f's jump step against g_c.  The jump terms differ from K to D
    # only in the walk of the two jump steps, which is 0 on both.
    rng = random.Random(20261020)
    for n in range(24):
        form = rand_dyadic_formula(rng)
        poly = poly_of(form)
        ends = poly_at(poly, 0.0), poly_at(poly, 1.0)
        smooth = formula_of(form), Model((0.0, 1.0), (poly,), ends)
        jumping = rand_jumping_monotone(rng)
        (f, fm), (g, gm) = (smooth, jumping) if n % 2 else (jumping, smooth)
        tol = (1e-3, 1e-9)[n // 2 % 2]
        values = []
        for kind in KINDS:
            res = integrate(f, g, kind, tol)
            assert res.diagnostics.method == "limit-gauss"
            exact = exact_integral(fm, gm, kind)
            assert abs(Fraction(res.value) - exact) <= res.error_bound + WALK_ROUNDING
            values.append(res.value)
        assert values[0] == values[1] == values[2]


def jump_correction(f, g) -> float:
    """J = sum over t in (a, b] of (f(t) - f(t-)) (g(t) - g(t-)) minus the
    sum over t in [a, b) of (f(t+) - f(t)) (g(t+) - g(t)), from one-sided
    limits at the union of both functions' jump points; K - D = J (the
    source paper, arXiv:1806.07954).  It shares no code with the walks."""
    a, b = f.interval.a, f.interval.b
    terms = []
    for t in sorted({*f.jump_points(), *g.jump_points()}):
        fv, gv = f.value(t), g.value(t)
        if t > a:
            terms.append((fv - f.left_limit(t)) * (gv - g.left_limit(t)))
        if t < b:
            terms.append(-(f.right_limit(t) - fv) * (g.right_limit(t) - gv))
    return math.fsum(terms)


def shared_jumps(rng):
    """Catalog pieces with a value of their own at each break, and a
    monotone function jumping at the same inner breaks and now and then
    at a or b, always when the pieces have no inner break."""
    breaks, forms, _ = rand_catalog_pieces(rng, False)
    pieces = PiecewiseLipschitz.from_formulas(IV, breaks, forms,
                                              [rng.uniform(-2.0, 2.0) for _ in breaks])
    base, _ = rand_catalog_monotone(rng, False)
    jumps = [(t, rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)) for t in breaks[1:-1]]
    if len(breaks) == 2 or rng.random() < 0.5:
        jumps += [(0.0, 0.0, rng.uniform(0.0, 0.3)), (1.0, rng.uniform(0.0, 0.3), 0.0)]
    return pieces, MonotoneFunction(IV, base, jumps)


def test_k_minus_d_is_the_shared_jump_sum_on_catalog_pairs():
    # K and D share every term but the walk of the two jump steps, so
    # K - D - J is rounding: the walks' products and differences, the
    # jump steps' summed levels, J's own terms and the two roundings of K
    # and D, each within gamma_n of sup times variation per jump point.
    rng = random.Random(20261021)
    for n in range(24):
        pieces, mono = shared_jumps(rng)
        f, g = (mono, pieces) if n % 2 else (pieces, mono)
        tol = (1e-3, 1e-6, 1e-9)[n % 3]
        k, y, d = (integrate(f, g, kind, tol) for kind in KINDS)
        assert k.diagnostics.method == d.diagnostics.method == "limit-gauss"
        assert (k.value, k.error_bound) == (y.value, y.error_bound)
        points = len({*f.jump_points(), *g.jump_points()}) + 2
        scale = (points * (f.sup_bound + f.variation_bound) * (g.sup_bound + g.variation_bound)
                 + abs(k.value) + abs(d.value))
        j = jump_correction(f, g)
        assert abs(j) > 1e-3  # the pair shares a jump
        assert abs(k.value - d.value - j) <= gamma(8 * points) * scale


# -------------------------------------------------- float catalog pairs

def rand_catalog_pieces(rng, singular: bool):
    """Random pieces, the first a power with exponent in (1, 4) starting at
    0 when ``singular`` (a derivative the certificate reads is unbounded
    there)."""
    n = rng.randint(1, 3)
    inner = sorted(rng.uniform(0.1, 0.9) for _ in range(n - 1))
    breaks = [0.0] + inner + [1.0]
    forms = []
    for k in range(n):
        pick = rng.randrange(3)
        if singular and k == 0:
            forms.append(Power(rng.uniform(1.0, 4.0), rng.uniform(-2.0, 2.0)))
        elif pick == 0:
            forms.append(Affine(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0)))
        elif pick == 1:
            forms.append(SinWave(rng.uniform(0.5, 6.0), rng.uniform(0.2, 2.0),
                                 rng.uniform(0.0, 6.0)))
        else:
            forms.append(Power(rng.uniform(1.0, 3.0), rng.uniform(-2.0, 2.0)))
    at = [rng.uniform(-2.0, 2.0) for _ in breaks] if rng.random() < 0.7 else None
    return breaks, forms, at


def rand_catalog_monotone(rng, singular: bool):
    base = (Power(rng.uniform(1.0, 4.0)) if singular
            else rng.choice((Affine(rng.uniform(0.3, 2.0)), Power(3.0, rng.uniform(0.3, 2.0)))))
    jumps = [(rng.uniform(0.1, 0.9), rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3))
             for _ in range(rng.randint(0, 2))]
    return base, jumps


def twins(rng, singular: bool):
    """The same function twice: from catalog formulas, and from the same
    formulas with their derivative data hidden."""
    if rng.random() < 0.5:
        breaks, forms, at = rand_catalog_pieces(rng, singular)
        return (PiecewiseLipschitz.from_formulas(IV, breaks, forms, at),
                PiecewiseLipschitz.from_formulas(IV, breaks, [Opaque(fm) for fm in forms], at))
    base, jumps = rand_catalog_monotone(rng, singular)
    return MonotoneFunction(IV, base, jumps), MonotoneFunction(IV, Opaque(base), jumps)


def test_catalog_pairs_against_by_parts_and_the_first_order_route():
    rng = random.Random(5150)
    for n in range(18):
        singular = n % 3 == 0  # a power with exponent in (1, 4) at 0
        (f, f_plain), (g, g_plain) = twins(rng, singular), twins(rng, singular)
        for kind in KINDS:
            res = integrate(f, g, kind, 1e-7)
            assert res.diagnostics.method == "limit-gauss"
            assert res.error_bound <= 1e-7
            flipped = by_parts(f, g, kind, 1e-7)
            assert abs(res.value - flipped.value) <= \
                res.error_bound + flipped.error_bound + WALK_ROUNDING
            first = integrate(f_plain, g_plain, kind, 1e-3)
            assert first.diagnostics.method in ("limit-integrand", "limit-integrator")
            assert abs(res.value - first.value) <= \
                res.error_bound + first.error_bound + WALK_ROUNDING


def test_a_singular_power_stays_on_the_route_with_few_cells():
    # t**1.5 has unbounded derivatives of order 2 and up at 0, t**2.5 and
    # t**3.5 of order 3 and 4 and up, on either side: the cell from 0 is
    # graded, first-order next to 0 and fourth-order beside it, with far
    # fewer cells than the first-order route's 1 / tol.
    for f, g, exact in ((formula_of(Power(1.5)), formula_of(Affine(2.0)), 2.0 / 2.5),
                        (formula_of(Affine(1.0)), formula_of(Power(1.5)), 1.5 / 2.5),
                        (formula_of(Power(2.5)), formula_of(Power(3.5)), 3.5 / 6.0)):
        for kind in KINDS:
            res = integrate(f, g, kind, 1e-9)
            assert res.diagnostics.method == "limit-gauss"
            assert res.diagnostics.approximant_pieces < 1000
            assert abs(res.value - exact) <= res.error_bound + WALK_ROUNDING


def test_a_refusal_names_a_tol_that_is_met_on_retry(monkeypatch):
    # 256 cells take the fourth-order sum below 1e-9; a midpoint sum on as
    # many reached only 1.9e-5 and 2.2e-6 on these pairs.
    monkeypatch.setattr(regulated, "MAX_APPROX_CELLS", 256)
    for f, g in ((formula_of(SinWave(3.0)), formula_of(Power(2.0))),
                 (formula_of(Power(1.5, -2.0)), MonotoneFunction(IV, Affine(1.0), ((0.5, 0.25, 0.0),)))):
        with pytest.raises(ApproximationError, match="Gauss-Legendre cells") as info:
            integrate(f, g, K, 1e-12)
        best = info.value.best_error
        assert "can certify" in str(info.value) and 1e-12 < best < 1e-9
        res = integrate(f, g, K, best)
        assert res.error_bound <= best and res.diagnostics.approximant_pieces <= 256
        with pytest.raises(ApproximationError):
            integrate(f, g, K, 0.99 * best)


def test_a_pickled_catalog_function_keeps_the_route():
    # The catalog split is built on first use and cached on the function;
    # a copy pickled before or after that integrates alike, and so does
    # a pickled monotone function, whose cell pieces pickle with its base.
    f = PiecewiseLipschitz.from_formulas(IV, (0.0, 0.5, 1.0), (Affine(1.0), SinWave(2.0)),
                                         (0.0, 1.0, 2.0))
    g = MonotoneFunction(IV, Power(2.0), ((0.5, 0.25, 0.125),))
    fresh = pickle.loads(pickle.dumps(f))
    want = integrate(f, g, D, 1e-6)
    assert want.diagnostics.method == "limit-gauss"
    for copy in (fresh, pickle.loads(pickle.dumps(f))):
        assert integrate(copy, g, D, 1e-6) == want
    assert integrate(f, pickle.loads(pickle.dumps(g)), D, 1e-6) == want


# ------------------------------------------------------- leaving the route

def plan_spy(monkeypatch) -> list:
    """(budget, plan) for each Gauss-Legendre plan the route draws up."""
    route = sys.modules["stieltjes.integrate"]
    plan, calls = route._gauss_plan, []

    def spy(regular, graded, budget, width, limit):
        calls.append((budget, plan(regular, graded, budget, width, limit)))
        return calls[-1][1]
    monkeypatch.setattr(route, "_gauss_plan", spy)
    return calls


def rounding_term(f, g, calls: list, tol: float) -> float:
    """The route's rounding term on (f, g), read off the budgets of two
    plans: one at ``tol`` and, exact by Sterbenz, one within a factor 2."""
    integrate(f, g, K, tol)
    rough = tol - calls[-1][0]
    calls.clear()
    try:
        integrate(f, g, K, 2.0 * rough)
    except ApproximationError:
        pass
    rounding = 2.0 * rough - calls[0][0]
    calls.clear()
    return rounding


@pytest.mark.parametrize("f, g", [
    # The graded cell's first-order end fits one ulp of budget at its 15th
    # level, but the fourth-order cells beside it need more than 2**20.
    (Power(1.5), Affine(2.0)),
    # Against t**1.001 the first-order end shrinks like its width, and 20
    # levels, each 8 times narrower, are not enough.
    (Affine(0.0, 1.0), Power(1.001)),
])
def test_a_singular_power_at_a_tol_just_above_the_rounding_term(monkeypatch, f, g):
    # One ulp of truncation budget is refused, with a larger tol that the
    # route meets.
    calls = plan_spy(monkeypatch)
    f, g = formula_of(f), formula_of(g)
    rounding = rounding_term(f, g, calls, 1e-9)
    tol = math.nextafter(rounding, math.inf)
    with pytest.raises(ApproximationError, match="needs more than") as info:
        integrate(f, g, K, tol)
    assert calls[0] == (tol - rounding, ([], math.inf, math.inf)) and calls[0][0] > 0
    best = info.value.best_error
    assert tol < best < math.inf
    assert integrate(f, g, K, best).error_bound <= best


def test_a_graded_level_past_the_float_range_ends_the_grading():
    # On [0, 1e-100], the fifth derivative of t**1.5 overflows on the
    # second level, [1.25e-101, 1e-100]: a tol whose budget share is below
    # the first level's bound, 6e-250, is refused (the rounding term is
    # near 1e-266), and a tol the first level meets is named.
    iv = Interval(0.0, 1e-100)
    f, g = (PiecewiseLipschitz.from_formulas(iv, (0.0, 1e-100), (fm,))
            for fm in (Affine(1.0), Power(1.5)))
    assert integrate(f, g, K, 1e-200).diagnostics.approximant_pieces == 1
    with pytest.raises(ApproximationError, match="needs more than") as info:
        integrate(f, g, K, 1e-252)
    best = info.value.best_error
    assert 1e-252 < best < 1e-247
    assert integrate(f, g, K, best).diagnostics.approximant_pieces == 1


def test_a_graded_level_whose_point_rounds_to_its_end_ends_the_grading():
    # On the subnormal cell [0, 5e-324] the second level's point
    # 0 + (5e-324 - 0) / 8 rounds to 0, where t**1.5 has no bounded second
    # derivative, so its weight is inf and the first level, 3.29e-16, is
    # the last.  A tol whose budget share is below it is refused, naming
    # 16 times it; that tol is then met on the one first-order cell, about
    # 1.1e-16 from the exact value.
    iv = Interval(0.0, 5e-324)
    f, g = (PiecewiseLipschitz.from_formulas(iv, (0.0, 5e-324), (fm,))
            for fm in (Affine(0.0, 1e300), Power(1.5, 1e169)))
    graded = _Graded((Affine(0.0, 1e300), Power(1.5, 1e169)), 0.0, 5e-324, 0, 0, f.sup_bound)
    first, end = graded.level(0)
    assert end == 5e-324 and 3e-16 < first < 4e-16
    assert graded.level(1) is None and graded.cells == []
    with pytest.raises(ApproximationError, match="needs more than") as info:
        integrate(f, g, K, 1e-20)
    best = info.value.best_error
    assert 16.0 * first <= best <= 16.0 * first * (1.0 + 1e-6)
    res = integrate(f, g, K, best)
    assert res.diagnostics == Diagnostics("limit-gauss", None, 1)
    # 1e300 (g(b) - g(a)), with (2**-1074)**1.5 = 2**-1611 exactly.
    exact = Fraction(1e300) * Fraction(1e169) / 2 ** 1611
    assert abs(Fraction(res.value) - exact) <= res.error_bound <= best


def test_bounds_are_read_once_per_pair(monkeypatch):
    # A refusal tries some 26 budgets; the bounds, and the graded levels of
    # a cell from 0, are all read while the first plan is drawn up.
    reads = []
    for cls in (Affine, Power, SinWave):
        bound = cls.derivative_bound_on
        monkeypatch.setattr(cls, "derivative_bound_on",
                            lambda self, u, v, k, _b=bound: reads.append(k) or _b(self, u, v, k))
    route = sys.modules["stieltjes.integrate"]
    plan, seen = route._gauss_plan, []

    def spy(*args):
        before = len(reads)
        out = plan(*args)
        seen.append((before, len(reads)))
        return out
    monkeypatch.setattr(route, "_gauss_plan", spy)
    monkeypatch.setattr(regulated, "MAX_APPROX_CELLS", 64)
    for f, g in ((formula_of(SinWave(3.0)), formula_of(Power(2.5))),
                 (formula_of(Power(1.5)), MonotoneFunction(IV, Affine(1.0), ((0.5, 0.25, 0.0),)))):
        seen.clear()
        with pytest.raises(ApproximationError, match="can certify"):
            integrate(f, g, K, 1e-12)
        assert len(seen) > 20
        assert all(before == after == seen[0][1] for before, after in seen[1:])


def test_overflowing_bounds_leave_the_route_whatever_the_tol(monkeypatch):
    # On [1e-303, 1e307], t**1.001 has a third derivative past the float
    # range next to 1e-303, so the pair leaves for the first-order route
    # before any budget is tried, above the rounding term (1.7e308) as
    # below it (1e300); that route refuses by its own count.
    calls = plan_spy(monkeypatch)
    iv = Interval(1e-303, 1e307)
    f = PiecewiseLipschitz.from_formulas(iv, (iv.a, iv.b), (Power(1.001),))
    for slope in (1e-292, 3e-292):
        g = PiecewiseLipschitz.from_formulas(iv, (iv.a, iv.b), (Affine(slope),))
        for tol in (1e300, 1.7e308):
            with pytest.raises(ApproximationError, match=r"needs \d+ cells"):
                integrate(f, g, K, tol)
    assert calls == []


def test_a_jump_past_the_float_range_leaves_the_route():
    # Gaps of 2e308 at 0.5 give f no jump step: the first-order route.
    f = PiecewiseLipschitz.from_formulas(IV, (0.0, 0.5, 1.0), (Affine(0.0, 1e308),) * 2,
                                         (1e308, -1e308, 1e308))
    assert f._smooth_parts() is None
    res = integrate(f, formula_of(Affine(1.0)), K, 1e-3)
    assert res.diagnostics.method == "limit-integrand" and res.value == 1e308


def test_a_power_without_a_derivative_rounding_bound_leaves_the_route(monkeypatch):
    # fl(e - 1) misses e - 1 by 1 for e = 2**53 + 2, and log t is
    # unbounded on a cell from 0, so t**e has no rounding bound for its
    # derivative there: the first-order route takes the job.
    e = float(2 ** 53 + 2)
    refused = []
    bound = Power.derivative_rounding_on

    def spy(self, u, v):
        try:
            return bound(self, u, v)
        except DomainError as exc:
            refused.append(str(exc))
            raise

    monkeypatch.setattr(Power, "derivative_rounding_on", spy)
    res = integrate(formula_of(Affine(1.0)), formula_of(Power(e)), K, 1e-3)
    assert refused and all("no rounding bound for f'" in r for r in refused)
    assert res.diagnostics.method == "limit-integrand"
    assert abs(res.value - e / (e + 1.0)) <= res.error_bound <= 1e-3


BLOW_UP = "f=sin[0,1]{freq:1e300; amp:1e-290} g=affine[0,1]{slope:1}"


def test_an_overflowing_derivative_bound_leaves_the_route_at_once(monkeypatch):
    # f'' = 1e310 is past the float range, so no plan is drawn up and the
    # first-order route takes the job: with the cell limit at 2**12 it
    # refuses by its own count.  (At the real limit it fits: 1e6 cells.)
    calls = plan_spy(monkeypatch)
    monkeypatch.setattr(regulated, "MAX_APPROX_CELLS", 1 << 12)
    code, report = cli.run_text(BLOW_UP, "integrate", 1e4, None)
    assert code == 3 and 1e4 < report["best_error"] < math.inf
    assert "cells (limit 4096)" in report["error"] and calls == []


def test_a_fourth_order_bound_past_the_float_range_leaves_the_route(monkeypatch):
    # Every derivative bound is finite, but sup|f| = 1e200 times the
    # sine's g'' = 1e60 passes the float range: no plan is drawn up, and
    # the constant f takes one first-order cell with no error.
    calls = plan_spy(monkeypatch)
    f, g = formula_of(Affine(0.0, 1e200)), formula_of(SinWave(1e60, 1e-60))
    res = integrate(f, g, K)
    assert res.diagnostics.method == "limit-integrand" and res.error_bound == 0.0
    assert res.value == 1e200 * (g(1.0) - g(0.0)) and calls == []


def test_a_route_that_no_tol_fits_names_no_floor(monkeypatch):
    # Eight pieces need eight cells at any tol, twice the limit.
    monkeypatch.setattr(regulated, "MAX_APPROX_CELLS", 4)
    f = PiecewiseLipschitz.from_formulas(IV, [k / 8 for k in range(9)],
                                         [Affine(1.0, k) for k in range(8)])
    with pytest.raises(ApproximationError) as info:
        integrate(f, formula_of(SinWave(3.0)), K)
    assert "needs more than 4 Gauss-Legendre cells (limit 4)" in str(info.value)
    assert "can certify" not in str(info.value) and info.value.best_error == math.inf


def test_a_square_root_base_takes_the_first_order_route():
    # sqrt t is not Lipschitz at 0, so the monotone function has no
    # catalog derivative data there; sin 3t is continuous, so its jump
    # at 0.5 weighs the same for every kind.
    f = MonotoneFunction(IV, Power(0.5), ((0.5, 0.1, 0.2),))
    g = formula_of(SinWave(3.0))
    results = [integrate(f, g, kind, 1e-3) for kind in KINDS]
    for res in results:
        assert res.diagnostics.method == "limit-integrand"
        assert res.diagnostics.approximant_pieces == 2123 and res.error_bound <= 1e-3
    assert results[0].value == results[1].value == results[2].value
    with pytest.raises(ApproximationError, match=r"can certify is 1\.43e-06"):
        integrate(f, g, K, 1e-9)
