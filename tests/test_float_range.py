"""Jobs that parse, at the edges of the float range: every one ends in a
report, never in a bare exception, and every computed integral carries
a finite error bound within its tol.

The intervals run from [0, 5e-324] and two-ulp cells up to
[-1.7e308, 1.7e308], the parameters from 1e-300 to 1e300 and +-0, over
every family and the three commands that run no oracle.  Hypothesis
draws one generator per example, and the jobs come from it: a draw
through hypothesis costs more than most of these jobs take to run."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as hs

from stieltjes import (Affine, Interval, MonotoneFunction, PiecewiseLipschitz, Power,
                       SinWave, cli)

TINY, HUGE = 5e-324, 1.7e308
ARGUMENTS = {"affine": ("slope", "intercept"), "power": ("exponent", "scale"),
             "sin": ("freq", "amp", "phase")}


def magnitude(rng: random.Random) -> float:
    pick = rng.randrange(3)
    if pick == 0:
        return 10.0 ** rng.randint(-300, 300)
    if pick == 1:
        return 10.0 ** rng.uniform(-300.0, 300.0)
    return rng.choice((TINY, 1.0, HUGE))


def signed(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * magnitude(rng)


def param(rng: random.Random, key: str = "") -> float:
    if key == "exponent":
        return rng.choice((0.5, 1.0, 1.5, 2.0, 3.0, magnitude(rng)))
    return rng.choice((0.0, -0.0)) if rng.random() < 0.2 else signed(rng)


def interval(rng: random.Random) -> tuple[float, float]:
    pick = rng.randrange(3)
    if pick == 0:
        return rng.choice(((0.0, TINY), (-HUGE, HUGE), (1e308, HUGE), (0.0, 1.0)))
    if pick == 1:  # a cell of two ulps
        x = signed(rng)
        return x, math.nextafter(math.nextafter(x, math.inf), math.inf)
    a, b = sorted((signed(rng), signed(rng)))
    return (a, b) if a < b else (0.0, 1.0)


def numbers(rng: random.Random, n: int) -> str:
    return ", ".join(repr(param(rng)) for _ in range(n))


def arguments(rng: random.Random, family: str, sep: str) -> str:
    return sep.join(f"{k}: {param(rng, k)!r}" for k in ARGUMENTS[family])


def formula(rng: random.Random, families=tuple(ARGUMENTS)) -> str:
    family = rng.choice(families)
    return f"{family}({arguments(rng, family, ', ')})"


def function(rng: random.Random, a: float, b: float) -> str:
    """A term of any family on [a, b], with a break at the midpoint
    where a float lies strictly inside."""
    mid = 0.5 * a + 0.5 * b
    nodes = (a, mid, b) if a < mid < b else (a, b)
    n = len(nodes)
    family = rng.choice(("step", "lipschitz_pieces", "monotone_jumps", *ARGUMENTS))
    head = f"{family}[{a!r}, {b!r}]"
    division = ", ".join(map(repr, nodes))
    if family == "step":
        return f"{head}{{nodes: {division}; at: {numbers(rng, n)}; on: {numbers(rng, n - 1)}}}"
    if family == "lipschitz_pieces":
        pieces = ", ".join(formula(rng) for _ in range(n - 1))
        at = f"; at: {numbers(rng, n)}" if rng.random() < 0.5 else ""
        return f"{head}{{breaks: {division}; formulas: {pieces}{at}}}"
    if family == "monotone_jumps":
        jumps = f"; jumps: {mid!r}:{param(rng)!r}:{param(rng)!r}" if n == 3 else ""
        return f"{head}{{base: {formula(rng, ('affine', 'power'))}{jumps}}}"
    return f"{head}{{{arguments(rng, family, '; ')}}}"


def job(rng: random.Random) -> tuple[str, str, float]:
    a, b = interval(rng)
    command = rng.choice(("integrate", "verify-main", "verify-bounds"))
    tol = rng.choice((1e-3, 1e-6, 1e-9))
    text = f"f={function(rng, a, b)} g={function(rng, a, b)} kind={rng.choice('KYD')} tol={tol!r}"
    return command, text, tol


@settings(max_examples=200)
@given(hs.randoms(use_true_random=True))
def test_a_job_that_parses_ends_in_a_report(rng):
    for _ in range(10):
        command, text, tol = job(rng)
        try:
            code, report = cli.run_text(text, command, None, None)
        except Exception as exc:
            raise AssertionError(f"{command} {text}") from exc
        assert code in (0, 1, 2, 3), (text, report)
        if command == "integrate" and code == 0:
            assert math.isfinite(report["value"]), (text, report)
            assert report["error_bound"] <= tol, (text, report)  # False for a NaN too


def test_a_monotone_level_near_the_float_range_stays_finite():
    # Both base values of every cell are near -1.7e308, so the sum of a
    # cell's two ends overflows while their mean does not.
    span = "[-1.5733487885350906e+265, -1.5733487885350902e+265]"
    text = (f"kind=Y tol=1e-06 f=monotone_jumps{span}{{base: affine(slope: 5e-324, "
            "intercept: -1.7e+308); jumps: -1.5733487885350904e+265:-3.7959127951675733e+59:"
            f"-5e-324}} g=power{span}{{exponent: 1.0; scale: 1e-266}}")
    code, report = cli.run_text(text, "integrate", None, None)
    assert code == 0, report
    assert math.isfinite(report["value"]) and report["error_bound"] <= 1e-6, report


def test_a_bound_that_underflows_is_the_smallest_subnormal():
    tiny = math.ulp(0.0)
    # |amplitude| * freq**k, scale * e * t**(e - 1) and slope * width round to 0.
    assert SinWave(1e-288, 1.949606537979745e-66).derivative_bound_on(1e308, HUGE, 1) == tiny
    assert Power(3.0, 1e-300).derivative_bound_on(0.0, 1e-20, 1) == tiny
    assert Power(1.5, TINY).derivative_bound_on(1.0, 2.0, 3) == tiny  # scale * falling
    assert Affine(1e-300).variation_on(0.0, 1e-30) == tiny
    # Half of a subnormal Lipschitz constant, or of a subnormal rise.
    unit = Interval(0.0, 1.0)
    assert PiecewiseLipschitz.from_formulas(unit, (0.0, 1.0), (Affine(TINY),)).approximate(
        1e-3).error == tiny
    assert MonotoneFunction(unit, Affine(TINY)).approximate(1e-3).error == tiny
    wave = SinWave(-3.0362455694808048e-102, -1.5059141194556415e-241, 4.105891843919019e+134)
    top = PiecewiseLipschitz.from_formulas(Interval(1e308, HUGE), (1e308, HUGE), (wave,))
    assert top.sup_bound >= abs(wave.amplitude)  # sup|f| on a cell 1e206 radians wide
    # A zero factor still gives 0.
    assert SinWave(0.0, 1.0).derivative_bound_on(0.0, 1.0, 1) == 0.0
    assert Power(2.0).derivative_bound_on(0.0, 1.0, 3) == 0.0
    assert Affine(0.0).variation_on(0.0, 1e-30) == 0.0
    # So var g is not certified as 0 where g oscillates: both commands
    # refuse with a finite floor, where verify-bounds exited 1.
    span = "[1e+308, 1.7e+308]"
    text = (f"kind=K tol=1e-06 f=affine{span}{{slope: 1e-165; intercept: -1e-14}} "
            f"g=sin{span}{{freq: 1e-288; amp: 1.949606537979745e-66; phase: 0.0}}")
    for command in ("verify-bounds", "integrate"):
        code, report = cli.run_text(text, command, None, None)
        assert code == 3, report
        assert 0 < report["best_error"] < math.inf, report


def test_jumps_absorbed_by_a_large_base_keep_their_variation():
    # f(b) - f(a) rounds to 0 where the base, near 4.4e258, absorbs the
    # jump of -1 at 0.5; var g was certified 0, and verify-bounds exited 1.
    base = Affine(-TINY, 4.379139804999629e+258)
    g = MonotoneFunction(Interval(0.0, 1.0), base, [(0.5, -0.0, -1.0)])
    assert g.value(1.0) - g.value(0.0) == 0.0
    assert g.variation_bound == 1.0 + abs(base(1.0) - base(0.0))
    text = ("kind=D tol=0.001 f=affine[0.0, 1.0]{slope: -1e+141; intercept: 0.0} "
            "g=monotone_jumps[0.0, 1.0]{base: affine(slope: -5e-324, "
            "intercept: 4.379139804999629e+258); jumps: 0.5:-0.0:-1.0}")
    code, report = cli.run_text(text, "verify-bounds", None, None)
    assert code == 0 and report["ok"] is True, report
    assert report["residuals"]["integral_sup_var"] > 0, report


def test_a_power_below_the_normal_range_meets_its_scale():
    # (5e-324)**1.5 underflows to 0, though 1e300 times it is 1.1e-185:
    # a call reads it in halves, and no bound of the cell reads 0.
    g = Power(1.5, 1e300)
    exact_g = Fraction(1e300) * Fraction(2) ** -1611
    assert abs(Fraction(g(TINY)) - exact_g) <= 6 * 2 ** -53 * exact_g
    assert g(0.0) == 0.0 and g(1e-200) == 1e300 * 1e-200 ** 1.5  # a normal read keeps its bits
    assert 0 < g.variation_on(0.0, TINY) < math.inf
    assert g.rounding_on(0.0, TINY) >= 4 * TINY * 1e300
    # 3e300 (1e-170)**2 is 3e-40, though the square underflows to 0.
    assert Power(3.0, 1e300).lipschitz_on(0.0, 1e-170) >= 3e-40
    # K = f (g(b) - g(a)) with f = 1e300: the job gave 0 with error_bound 0.
    text = ("f=affine[0,5e-324]{slope:0;intercept:1e300} "
            "g=power[0,5e-324]{exponent:1.5; scale:1e300}")
    exact = Fraction(1e300) * exact_g
    for command in ("integrate", "verify-main"):
        code, report = cli.run_text(text, command, None, None)
        assert code == 0, report
        # error_bound 0 takes the reads as exact, as the step-pair walk does.
        assert abs(Fraction(report["value"]) - exact) <= 8 * 2 ** -53 * exact, report
    assert report["ok"] is True


def test_gauss_legendre_sums_on_subnormal_widths():
    # K = g(W) - g(0) = 1e300 W against f = 1.  Half of a width of an odd
    # number of subnormal ulps rounds, so 0.5 * h * sum gave 0 for one
    # ulp and 4 ulps' worth for 3 or 5 (2.96e-23 as 3.95e-23 in pieces).
    jobs = {w: f"f=affine[0,{w}]{{slope:0;intercept:1}} g=affine[0,{w}]{{slope:1e300}}"
            for w in ("5e-324", "1.5e-323", "2.5e-323")}
    jobs["3e-323"] = ("f=affine[0,3e-323]{slope:0;intercept:1} g=lipschitz_pieces[0,3e-323]"
                      "{breaks:0,1.5e-323,3e-323; formulas: affine(slope:1e300), affine(slope:1e300)}")
    for w, text in jobs.items():
        code, report = cli.run_text(text, "integrate", None, None)
        assert code == 0, report
        exact = Fraction(1e300) * Fraction(float(w))
        assert abs(Fraction(report["value"]) - exact) <= report["error_bound"], (text, report)


def test_gauss_legendre_products_below_the_normal_range_count_their_rounding():
    # Each product (y - d) z = 3e-200 * 1.1e-123 is 6.7 subnormal ulps,
    # rounded to 7, and the products weigh 1e300 in all: the sum was 4.8%
    # off, past an error_bound of 2.2e-38 that counted them relatively.
    text = "f=affine[0,1e300]{slope:0;intercept:3e-200} g=affine[0,1e300]{slope:1.1e-123}"
    code, report = cli.run_text(text, "integrate", None, None)
    assert code == 0, report
    exact = Fraction(3e-200) * Fraction(1.1e-123) * Fraction(1e300)
    assert abs(Fraction(report["value"]) - exact) <= report["error_bound"], report
