"""The soundness gate: a result lies within its error_bound of an
independent reference.

The reference is ``bench/reference.py``, read here as
``tests/test_bench_names.py`` reads ``bench/``: closed antiderivatives of
each pair of pieces plus the jump terms, with the reference's own
rounding bound, sharing no code with the library.  Every check is

    |value - reference| <= error_bound + the reference's own error,

with no allowance on the library's side.  This slice draws seeded pairs
on [0, 1] of a piecewise function (affine, sine and power pieces, jumps
at the breaks) and a monotone one (affine or power base, two jumps), each
way round, in each kind:

* the catalog route, ``limit-gauss``: 144 ops at tol 1e-3, 1e-4, 1e-6
  and 1e-9;
* the first-order route, the same kind of draws with their derivative
  data hidden (``Opaque``) at tol 1e-2 to 1e-4: 60 ops on
  ``limit-integrand`` and 30 on ``limit-integrator``, whose integrand is
  scaled so small that it is the cheaper side to approximate;
* ``by_parts`` on all 234 of those draws, each through the flipped
  integral's route.
"""

import random
import sys
import types
from pathlib import Path

import pytest

from conftest import Opaque
from stieltjes import (Affine, IntegralKind, Interval, MonotoneFunction, PiecewiseLipschitz,
                       Power, SinWave, by_parts, integrate)

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
IV = Interval(0.0, 1.0)
KINDS = tuple(IntegralKind)


def load_reference():
    # Run the module's source in a module of its own: no bytecode is
    # cached beside it, and nothing is installed.  ``dataclass`` looks the
    # module up by name while the source runs.
    module = sys.modules["bench_reference"] = types.ModuleType("bench_reference")
    exec(compile(REFERENCE.read_text(), str(REFERENCE), "exec"), module.__dict__)
    return module


ref = load_reference()
Mono, Wave, Model = ref.Mono, ref.Wave, ref.Model


def piece(rng: random.Random, scale: float):
    """One catalog formula and its reference terms."""
    pick = rng.randrange(3)
    sign = rng.choice((-1.0, 1.0)) * scale
    if pick == 0:
        slope, intercept = sign * rng.uniform(0.5, 3.0), scale * rng.uniform(-1.0, 1.0)
        return Affine(slope, intercept), [Mono(slope, 1.0), Mono(intercept, 0.0)]
    if pick == 1:
        freq, amp, phase = rng.uniform(1.0, 6.0), sign * rng.uniform(0.3, 1.5), rng.uniform(0.0, 6.0)
        return SinWave(freq, amp, phase), [Wave(amp, freq, phase)]
    exponent, c = rng.uniform(1.0, 3.0), sign * rng.uniform(0.5, 2.0)
    return Power(exponent, c), [Mono(c, exponent)]


def piecewise(rng: random.Random, hide, scale: float = 1.0):
    """1 to 3 pieces, each break's value off the pieces' limits."""
    inner = sorted(rng.uniform(0.1, 0.9) for _ in range(rng.randint(0, 2)))
    breaks = (0.0, *inner, 1.0)
    forms, terms = zip(*(piece(rng, scale) for _ in breaks[1:]))
    model = Model(breaks, (0.0,) * len(breaks), terms)
    at = [model.right(0)] + [model.left(k) + scale * rng.uniform(-0.2, 0.2)
                             for k in range(1, len(breaks))]
    fn = PiecewiseLipschitz.from_formulas(IV, breaks, [hide(p) for p in forms], at)
    return fn, Model(breaks, tuple(at), terms)


def monotone(rng: random.Random, hide):
    """An affine or integer power base, rising or falling, with two jumps
    in its direction."""
    sign = rng.choice((-1.0, 1.0))
    if rng.random() < 0.5:
        slope, intercept = sign * rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)
        base, terms = Affine(slope, intercept), [Mono(slope, 1.0), Mono(intercept, 0.0)]
    else:
        exponent, c = rng.choice((2.0, 3.0)), sign * rng.uniform(0.2, 2.0)
        base, terms = Power(exponent, c), [Mono(c, exponent)]
    jumps = [(t, sign * rng.uniform(0.0, 0.3), sign * rng.uniform(0.0, 0.3))
             for t in sorted(rng.uniform(0.1, 0.9) for _ in range(2))]
    level, at, pieces = 0.0, [ref.formula_at(terms, 0.0)], []
    for t, pre, post in jumps:
        pieces.append(terms + [Mono(level, 0.0)])
        at.append(ref.formula_at(terms, t) + level + pre)
        level += pre + post
    pieces.append(terms + [Mono(level, 0.0)])
    at.append(ref.formula_at(terms, 1.0) + level)
    fn = MonotoneFunction(IV, hide(base), jumps)
    return fn, Model((0.0, *(t for t, _, _ in jumps), 1.0), tuple(at), tuple(pieces))


def check(f, g, kind, tol, run=integrate):
    res = run(f[0], g[0], kind, tol)
    expected, ref_err = ref.integral(f[1], g[1], kind.value)
    gap = abs(res.value - expected)
    assert gap <= res.error_bound + ref_err, (res, expected, ref_err)
    return res.diagnostics.method


def catalog_ops():
    """144 seeded (f, g, kind, tol) of catalog pairs, each way round."""
    rng = random.Random(10)
    for i in range(24):
        p, m = piecewise(rng, lambda x: x), monotone(rng, lambda x: x)
        tol = (1e-3, 1e-4, 1e-6, 1e-9)[i % 4]
        for kind in KINDS:
            yield p, m, kind, tol
            yield m, p, kind, tol


def first_order_ops(small: bool, ops: int):
    """``ops`` seeded (f, g, kind, tol) with the derivative data hidden.
    A piecewise integrand with bv f = |f(a)| + |f(b)| + var f below
    var g / (var g + 1) predicts the smaller bound on the integrator."""
    rng = random.Random(11 + small)
    for i in range(ops // 3):
        p = piecewise(rng, Opaque, 0.03 if small else 1.0)
        m = monotone(rng, Opaque)
        tol = (1e-2, 1e-3, 1e-4)[i % 3]
        pair = (p, m) if small or i % 2 else (m, p)
        for kind in KINDS:
            yield (*pair, kind, tol)


def test_catalog_pairs_lie_within_their_bounds_of_the_reference():
    assert [check(*op) for op in catalog_ops()] == ["limit-gauss"] * 144


@pytest.mark.parametrize("small, method, ops", [(False, "limit-integrand", 60),
                                                (True, "limit-integrator", 30)])
def test_first_order_pairs_lie_within_their_bounds_of_the_reference(small, method, ops):
    assert [check(*op) for op in first_order_ops(small, ops)] == [method] * ops


def test_by_parts_lies_within_its_bound_of_the_reference():
    # The same draws through by_parts: the boundary term minus the flipped
    # integral, under that integral's bound.
    ops = [*catalog_ops(), *first_order_ops(False, 60), *first_order_ops(True, 30)]
    assert [check(*op, by_parts) for op in ops] == ["by-parts"] * 234
