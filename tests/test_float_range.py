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

from hypothesis import given, settings, strategies as hs

from stieltjes import cli

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
