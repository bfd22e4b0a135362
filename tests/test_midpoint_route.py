"""The second-order limit route on catalog pairs.

Both arguments are catalog functions (``PiecewiseLipschitz`` over
``Affine``, ``Power`` and ``SinWave`` pieces, ``MonotoneFunction`` over an
``Affine`` or ``Power`` base), so ``integrate`` splits off the jump steps,
walks them exactly, and bounds the continuous part's midpoint sum by the
second-order certificate.  The references here share no code with it:
exact ``Fraction`` antiderivatives of dyadic polynomial pairs, closed
forms, by parts, and the first-order route on the same functions with
their derivative data hidden (``Opaque``).
"""

import json
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import Opaque
from stieltjes import (Affine, ApproximationError, Diagnostics, IntegralKind,
                       Interval, MonotoneFunction, PiecewiseLipschitz, Power,
                       SinWave, by_parts, integrate)
from stieltjes import regulated

IV = Interval(0.0, 1.0)
K, Y, D = IntegralKind.KURZWEIL, IntegralKind.YOUNG, IntegralKind.DUSHNIK
KINDS = (K, Y, D)

# The jump walks are summed in floating point like the step-pair route,
# which counts no rounding; their few terms here stay below 1e-14 each.
WALK_ROUNDING = 1e-13


def formula_of(formula) -> PiecewiseLipschitz:
    return PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (formula,))


def test_affine_pair_at_the_default_tol_is_one_exact_cell():
    ident = formula_of(Affine(1.0))
    for kind in KINDS:
        res = integrate(ident, ident, kind)
        assert res.value == 0.5
        assert res.diagnostics == Diagnostics("limit-midpoint", None, 1)
        # f'' = g'' = 0: only the rounding term is left.
        assert 0.0 < res.error_bound <= 1e-14


def test_sin_against_a_square_at_the_default_tol():
    f, g = formula_of(SinWave(3.0)), formula_of(Power(2.0))
    exact = 2.0 * (math.sin(3.0) / 9.0 - math.cos(3.0) / 3.0)
    for kind in KINDS:
        res = integrate(f, g, kind, 1e-9)
        assert res.diagnostics.method == "limit-midpoint"
        assert abs(res.value - exact) <= res.error_bound <= 1e-9


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
            assert res.diagnostics.method == "limit-midpoint"
            assert res.error_bound <= tol
            exact = exact_integral(fm, gm, kind)
            assert abs(Fraction(res.value) - exact) <= res.error_bound + WALK_ROUNDING
            checked += 1
    assert checked == 120


# -------------------------------------------------- float catalog pairs

def rand_catalog_pieces(rng, singular: bool):
    """Random pieces, the first a power with exponent in [1, 2) starting at
    0 when ``singular`` (its second derivative is unbounded there)."""
    n = rng.randint(1, 3)
    inner = sorted(rng.uniform(0.1, 0.9) for _ in range(n - 1))
    breaks = [0.0] + inner + [1.0]
    forms = []
    for k in range(n):
        pick = rng.randrange(3)
        if singular and k == 0:
            forms.append(Power(rng.uniform(1.0, 2.0), rng.uniform(-2.0, 2.0)))
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
    base = (Power(rng.uniform(1.0, 2.0)) if singular
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
        singular = n % 3 == 0  # a power with exponent in [1, 2) at 0
        (f, f_plain), (g, g_plain) = twins(rng, singular), twins(rng, singular)
        for kind in KINDS:
            res = integrate(f, g, kind, 1e-7)
            assert res.diagnostics.method == "limit-midpoint"
            assert res.error_bound <= 1e-7
            flipped = by_parts(f, g, kind, 1e-7)
            assert abs(res.value - flipped.value) <= \
                res.error_bound + flipped.error_bound + WALK_ROUNDING
            first = integrate(f_plain, g_plain, kind, 1e-3)
            assert first.diagnostics.method in ("limit-integrand", "limit-integrator")
            assert abs(res.value - first.value) <= \
                res.error_bound + first.error_bound + WALK_ROUNDING


def test_a_singular_power_stays_on_the_route_with_few_cells():
    # t**1.5 has an unbounded second derivative at 0, on either side:
    # first-order cells there, graded second-order cells beside them, far
    # fewer than the first-order route's 1 / tol.
    for f, g, exact in ((formula_of(Power(1.5)), formula_of(Affine(2.0)), 2.0 / 2.5),
                        (formula_of(Affine(1.0)), formula_of(Power(1.5)), 1.5 / 2.5)):
        for kind in KINDS:
            res = integrate(f, g, kind, 1e-9)
            assert res.diagnostics.method == "limit-midpoint"
            assert res.diagnostics.approximant_pieces < 20000
            assert abs(res.value - exact) <= res.error_bound + WALK_ROUNDING


def test_a_refusal_names_a_tol_that_is_met_on_retry(monkeypatch):
    monkeypatch.setattr(regulated, "MAX_APPROX_CELLS", 256)
    for f, g in ((formula_of(SinWave(3.0)), formula_of(Power(2.0))),
                 (formula_of(Power(1.5, -2.0)), MonotoneFunction(IV, Affine(1.0), ((0.5, 0.25, 0.0),)))):
        with pytest.raises(ApproximationError, match="midpoint cells") as info:
            integrate(f, g, K, 1e-12)
        best = info.value.best_error
        assert "can certify" in str(info.value) and 1e-12 < best < 1e-3
        res = integrate(f, g, K, best)
        assert res.error_bound <= best and res.diagnostics.approximant_pieces <= 256
        with pytest.raises(ApproximationError):
            integrate(f, g, K, 0.99 * best)


def test_a_pickled_catalog_function_keeps_the_route():
    # The catalog split is built on first use and cached on the function;
    # a copy pickled before or after that integrates alike.
    f = PiecewiseLipschitz.from_formulas(IV, (0.0, 0.5, 1.0), (Affine(1.0), SinWave(2.0)),
                                         (0.0, 1.0, 2.0))
    g = MonotoneFunction(IV, Power(2.0), ((0.5, 0.25, 0.125),))
    fresh = pickle.loads(pickle.dumps(f))
    want = integrate(f, g, D, 1e-6)
    assert want.diagnostics.method == "limit-midpoint"
    for copy in (fresh, pickle.loads(pickle.dumps(f))):
        assert integrate(copy, g, D, 1e-6) == want


# ------------------------------------------------------- leaving the route

def plan_spy(monkeypatch) -> list:
    """(budget, plan) for each midpoint plan the route draws up."""
    route = sys.modules["stieltjes.integrate"]
    plan, calls = route._midpoint_plan, []

    def spy(cells, budget, width, limit):
        calls.append((budget, plan(cells, budget, width, limit)))
        return calls[-1][1]
    monkeypatch.setattr(route, "_midpoint_plan", spy)
    return calls


def test_a_singular_power_at_a_tol_just_above_the_rounding_term(monkeypatch):
    # One ulp of truncation budget: the halving at 0 would need cells
    # narrower than 2**-60 and stops at its depth limit, so the tol is
    # refused with a larger one that the route meets.
    calls = plan_spy(monkeypatch)
    f, g = formula_of(Power(1.5)), formula_of(Affine(2.0))
    integrate(f, g, K, 1e-9)
    rough = 1e-9 - calls[-1][0]
    calls.clear()
    with pytest.raises(ApproximationError):  # 1.3e-13 is the smallest tol that fits
        integrate(f, g, K, 2.0 * rough)
    rounding = 2.0 * rough - calls[0][0]  # exact: the two are within a factor 2
    tol = math.nextafter(rounding, math.inf)
    calls.clear()
    with pytest.raises(ApproximationError, match="needs more than") as info:
        integrate(f, g, K, tol)
    assert calls[0] == (tol - rounding, ([], math.inf, math.inf)) and calls[0][0] > 0
    best = info.value.best_error
    assert tol < best < math.inf
    assert integrate(f, g, K, best).error_bound <= best


def test_overflowing_cell_sizes_or_rounding_leave_the_route(monkeypatch):
    # On [1e-303, 1e307], t**1.001 has f'' up to 5e299 on its one cell.
    # Against g' = 1e-292 the rounding term is finite but the cell's
    # weight, its width times C**(1/3), overflows; against g' = 3e-292
    # the rounding term's four finite parts overflow in their sum.  Either
    # way the first-order route takes over, and refuses by its own count.
    calls = plan_spy(monkeypatch)
    iv = Interval(1e-303, 1e307)
    f = PiecewiseLipschitz.from_formulas(iv, (iv.a, iv.b), (Power(1.001),))
    for slope, plans in ((1e-292, [None]), (3e-292, [])):
        g = PiecewiseLipschitz.from_formulas(iv, (iv.a, iv.b), (Affine(slope),))
        calls.clear()
        with pytest.raises(ApproximationError, match=r"needs \d+ cells"):
            integrate(f, g, K, 1.7e308)
        assert [plan for _, plan in calls] == plans
    # Below the rounding term, 5e307, no budget is left and 4 times it
    # overflows: no tol is named.
    g = PiecewiseLipschitz.from_formulas(iv, (iv.a, iv.b), (Affine(1e-292),))
    with pytest.raises(ApproximationError, match="more than .* midpoint cells") as info:
        integrate(f, g, K, 1e300)
    assert info.value.best_error == math.inf and "can certify" not in str(info.value)


def test_a_jump_past_the_float_range_leaves_the_route():
    # Gaps of 2e308 at 0.5 give f no jump step: the first-order route.
    f = PiecewiseLipschitz.from_formulas(IV, (0.0, 0.5, 1.0), (Affine(0.0, 1e308),) * 2,
                                         (1e308, -1e308, 1e308))
    assert f._smooth_parts() is None
    res = integrate(f, formula_of(Affine(1.0)), K, 1e-3)
    assert res.diagnostics.method == "limit-integrand" and res.value == 1e308


BLOW_UP = "f=sin[0,1]{freq:1e300; amp:1e-290} g=affine[0,1]{slope:1}"


def test_an_overflowing_second_derivative_halves_within_the_cell_limit():
    # f'' = 1e310 overflows, so every cell is halved like a singular
    # power's and every half keeps C = inf.  The halving counts its cells
    # and stops at the limit; without the count, tol 1e4 builds segments
    # until memory runs out.  A child process under a 1.5 GB address-space
    # limit runs the job with the cell limit at 2**12.
    probe = textwrap.dedent(f"""
        import json, resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))
        from stieltjes import cli, regulated
        route = sys.modules["stieltjes.integrate"]
        regulated.MAX_APPROX_CELLS = 1 << 12
        plan, most = route._midpoint_plan, [0]
        def spy(*args):
            out = plan(*args)
            most[0] = max(most[0], len(out[0]))
            return out
        route._midpoint_plan = spy
        print(json.dumps([*cli.run_text({BLOW_UP!r}, "integrate", 1e4, None), most[0]]))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert out.returncode == 0, out.stderr
    code, report, most = json.loads(out.stdout)
    assert code == 3 and 1e4 < report["best_error"] < math.inf
    assert 0 < most <= 1 << 12
