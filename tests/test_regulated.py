import decimal
import math
import pickle
import random
from fractions import Fraction

import pytest

from conftest import brute_variation, rand_smooth
from stieltjes import (Affine, ApproximationError, DomainError, Interval,
                       MonotoneFunction, PiecewiseLipschitz, Power, SinWave,
                       StepApproximation, StepFunction, integrate)
from stieltjes import regulated
from stieltjes.regulated import MAX_APPROX_CELLS
from test_step_walk import point_reads

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
    # Left of 0 only an integral exponent is defined.
    with pytest.raises(DomainError, match="undefined left of 0"):
        Power(exponent=1.5).lipschitz_on(-1.0, 1.0)
    assert Power(exponent=2.0).lipschitz_on(-1.0, 1.0) == 2.0


def test_sin_catalog_data():
    f = SinWave(freq=2.0, amplitude=3.0, phase=0.5)
    assert f(0.25) == pytest.approx(3.0 * math.sin(1.0))
    assert f.lipschitz_on(0.0, 1.0) == 6.0


def bounds(formula, u, v, top=5):
    return [formula.derivative_bound_on(u, v, k) for k in range(1, top + 1)]


def test_affine_derivative_bounds():
    assert bounds(Affine(-2.0, 1.0), 0.0, 1.0) == [2.0, 0.0, 0.0, 0.0, 0.0]


def test_sin_derivative_bounds():
    # |a| |w|**k everywhere.
    assert bounds(SinWave(2.0, 3.0), 0.0, 1.0) == [6.0, 12.0, 24.0, 48.0, 96.0]
    assert bounds(SinWave(-2.0, -0.5, 1.0), -4.0, 4.0, 3) == [1.0, 2.0, 4.0]
    # |w|**2, or |a w| itself, past the float range is refused, not inf.
    with pytest.raises(DomainError, match="derivative 2"):
        SinWave(1e300, 1e-290).derivative_bound_on(0.0, 1.0, 2)
    assert SinWave(1e300, 1e-290).derivative_bound_on(0.0, 1.0, 1) == 1e300 * 1e-290
    with pytest.raises(DomainError, match="derivative 1"):
        SinWave(1e300, 1e10).lipschitz_on(0.0, 1.0)


def test_power_derivative_bounds():
    # -2 t**3: |f^(k)| = 6 t**2, 12 |t|, 12 peak at t = -1; 0 from k = 4 on.
    assert bounds(Power(3.0, -2.0), -1.0, 0.5) == [6.0, 12.0, 12.0, 0.0, 0.0]
    assert bounds(Power(2.0, 3.0), 0.0, 1.0) == [6.0, 6.0, 0.0, 0.0, 0.0]
    assert bounds(Power(1.0, 2.0), 0.0, 1.0) == [2.0, 0.0, 0.0, 0.0, 0.0]
    # t**2.5: e - k >= 0 peaks at the far end, below it at the near end.
    assert bounds(Power(2.5), 0.25, 1.0, 3) == [2.5, 2.5 * 1.5, 2.5 * 1.5 * 0.5 * 2.0]
    assert bounds(Power(2.5), 0.25, 1.0)[3:] == [2.5 * 1.5 * 0.5 * 0.5 * 8.0,
                                                  2.5 * 1.5 * 0.5 * 0.5 * 1.5 * 32.0]
    # A non-integer exponent below k is unbounded at 0, and only there.
    for e, finite in ((1.5, 1), (2.5, 2), (3.5, 3), (4.5, 4)):
        at_zero = bounds(Power(e), 0.0, 1.0)
        assert all(math.isfinite(b) for b in at_zero[:finite])
        assert at_zero[finite:] == [math.inf] * (5 - finite)
        assert all(math.isfinite(b) for b in bounds(Power(e), 1e-3, 1.0))
    assert bounds(Power(0.5), 0.25, 1.0, 2) == [1.0, 2.0]
    with pytest.raises(DomainError):
        Power(0.5).derivative_bound_on(0.0, 1.0, 1)
    # u**(e - k) overflowing next to 0 is refused, not inf.
    assert Power(1.01).derivative_bound_on(5e-324, 1.0, 1) == 1.01
    with pytest.raises(DomainError, match="derivative 2"):
        Power(1.01).derivative_bound_on(5e-324, 1.0, 2)


def test_lipschitz_on_is_the_first_derivative_bound():
    cells = ((0.0, 1.0), (-3.0, 2.0), (0.25, 4.0))
    for fm in (Affine(-2.0, 1.0), SinWave(3.0, -0.5, 1.0), Power(3.0, -2.0), Power(2.0, 0.5)):
        for u, v in cells:
            assert fm.lipschitz_on(u, v) == fm.derivative_bound_on(u, v, 1)
    assert Power(1.5).lipschitz_on(0.25, 4.0) == Power(1.5).derivative_bound_on(0.25, 4.0, 1)


def test_a_power_past_the_float_range_is_refused():
    # t**e raises OverflowError past the float range; the catalog refuses
    # it as a DomainError, which every constructor passes on.
    with pytest.raises(DomainError, match=r"t\*\*2.0 overflows at t = 1e\+200"):
        Power(2.0)(1e200)
    # So is a sine whose argument overflows, where math.sin(inf) would
    # raise a bare ValueError.
    with pytest.raises(DomainError, match=r"sin argument overflows at t = 1e\+308"):
        SinWave(9.0)(1e308)
    for fm, u, v in ((Power(3.0), 0.0, 1e200), (Power(0.01), 5e-324, 1.0)):
        with pytest.raises(DomainError, match="no finite Lipschitz constant"):
            fm.lipschitz_on(u, v)
    wide = Interval(0.0, 1e200)
    for build in (lambda: PiecewiseLipschitz.from_formulas(wide, (0.0, 1e200), (Power(2.0),)),
                  lambda: PiecewiseLipschitz.from_formulas(wide, (0.0, 1e200), (Power(3.0),)),
                  lambda: MonotoneFunction(wide, Power(2.0))):
        with pytest.raises(DomainError, match="overflows|no finite Lipschitz"):
            build()
    # The batch reads refuse as the pointwise call does.
    for read in (SinWave(9.0).values_at, SinWave(9.0).derivative_values_at):
        with pytest.raises(DomainError, match=r"sin argument overflows at t = 1e\+308"):
            read([1.0, 1e308])
    # (-1) ** 1.5 is complex, so such a base has no real value at -1.
    with pytest.raises(DomainError, match="base values must be real"):
        MonotoneFunction(Interval(-1.0, 1.0), Power(1.5))


def test_catalog_values_and_their_rounding():
    # values_at is the pointwise call, bit for bit, and derivative_values_at
    # the closed-form derivative; an evaluation is within rounding_on, or
    # derivative_rounding_on, of the exact value (checked exactly for
    # polynomials; for sin, within twice the bound of the float closed form).
    rng = random.Random(7)
    ts = [rng.uniform(-2.0, 2.0) for _ in range(200)]
    for fm in (Affine(rng.uniform(-3, 3), rng.uniform(-3, 3)), Power(3.0, rng.uniform(-3, 3)),
               Power(2.0, rng.uniform(-3, 3)), Power(1.0, rng.uniform(-3, 3)),
               SinWave(3.0, 0.5, 1.0)):
        assert fm.values_at(ts) == [fm(t) for t in ts]
        slopes = fm.derivative_values_at(ts)
        if isinstance(fm, SinWave):
            for t, d in zip(ts, slopes):
                assert abs(d - 1.5 * math.cos(3.0 * t + 1.0)) <= 2.0 * fm.derivative_rounding_on(-2.0, 2.0)
            continue
        coef = ({1: fm.slope, 0: fm.intercept} if isinstance(fm, Affine)
                else {int(fm.exponent): fm.scale})
        for t, d in zip(ts, slopes):
            exact = sum(Fraction(c) * Fraction(t) ** k for k, c in coef.items())
            assert abs(Fraction(fm(t)) - exact) <= fm.rounding_on(-2.0, 2.0)
            slope = sum(Fraction(c) * k * Fraction(t) ** (k - 1) for k, c in coef.items() if k)
            assert abs(Fraction(d) - slope) <= fm.derivative_rounding_on(-2.0, 2.0)


def decimal_pi() -> decimal.Decimal:
    """pi to the context's precision, by the decimal module docs' recipe."""
    decimal.getcontext().prec += 2
    lasts, t, s, n, na, d, da = 0, decimal.Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def decimal_sin_cos(x: decimal.Decimal) -> tuple[decimal.Decimal, decimal.Decimal]:
    """sin x and cos x: x reduced into [-pi, pi], then Taylor series."""
    two_pi = 2 * decimal_pi()
    x -= two_pi * (x / two_pi).to_integral_value()
    sums = []
    for i, term in ((1, x), (0, decimal.Decimal(1))):
        s, lasts = term, None
        while s != lasts:
            lasts = s
            term *= -x * x / ((i + 1) * (i + 2))
            i += 2
            s += term
        sums.append(s)
    return sums[0], sums[1]


def test_sin_wave_rounding_terms_hold_against_a_decimal_reference():
    # a sin(w t + phi) and a w cos(w t + phi) at 80 digits from the exact
    # floats a, w, phi and t, with |t| up to 1e15: each computed read is
    # within rounding_on (derivative_rounding_on) of it.
    rng = random.Random(20261021)
    worst = 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        for _ in range(400):
            w = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 1.0)
            a = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
            phi = rng.choice((0.0, rng.uniform(-4.0, 4.0)))
            t = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 15.0)
            fm = SinWave(w, a, phi)
            D = decimal.Decimal
            sin, cos = decimal_sin_cos(D(w) * D(t) + D(phi))
            for got, exact, bound in ((fm(t), D(a) * sin, fm.rounding_on(t, t)),
                                      (fm.derivative_values_at([t])[0], D(a) * D(w) * cos,
                                       fm.derivative_rounding_on(t, t))):
                error = abs(D(got) - exact)
                assert error <= D(bound), (w, a, phi, t)
                worst = max(worst, float(error / D(bound)))
    assert worst > 0.0


def test_a_power_derivative_with_an_inexact_exponent():
    # For e = 0.3, fl(e - 1) misses -0.7: the rounding bound adds that
    # miss times |log t|, and needs the cell away from 0.
    fm, u, v = Power(0.3, 2.0), 0.5, 3.0
    assert math.fsum((0.3, -1.0, 0.7)) != 0.0
    plain = 4.0 * 2.0 ** -53 * fm.derivative_bound_on(u, v, 1)
    assert fm.derivative_rounding_on(u, v) > plain
    ts = [u + (v - u) * k / 64 for k in range(65)]
    for t, d in zip(ts, fm.derivative_values_at(ts)):
        exact = 0.6 * math.exp(-0.7 * math.log(t))
        assert abs(d - exact) <= fm.derivative_rounding_on(u, v) + 1e-15 * abs(exact)
    assert Power(2.5).derivative_rounding_on(0.0, 1.0) == 4.0 * 2.0 ** -53 * 2.5


def test_an_overflowing_width_keeps_finite_bounds():
    # b - a is 2e308, past the float range, but slope times it is about 2.
    wide = Interval(-1e308, 1e308)
    for fm in (Affine(1e-308), Power(1.0, 1e-308), SinWave(1e-308)):
        f = PiecewiseLipschitz.from_formulas(wide, (-1e308, 1e308), (fm,))
        assert 1.6 < f.variation_bound < 2.1 and 1.8 < f.sup_bound < 2.1
    g = PiecewiseLipschitz(wide, (-1e308, 1e308), (Affine(1e-308),), (1e-308,))
    assert 1.9 < g.variation_bound < 2.1 and 1.9 < g.sup_bound < 2.1


def test_a_subnormal_width_keeps_upper_bounds():
    # v - u of two subnormals is exact, and halving a subnormal end is
    # not (0.5 * 5e-324 is 0), so a narrow cell is measured at full scale:
    # the certificates stay at least |f(b) - f(a)|, and the grid's error
    # at least c (b - a) / 2 on its one cell.
    c = 1e300
    for b in (5e-324, 2.5e-323):
        iv = Interval(0.0, b)
        f = PiecewiseLipschitz.from_formulas(iv, (0.0, b), (Affine(c),))
        rise = abs(f.value(b) - f.value(0.0))
        assert rise > 0.0 and f.variation_bound >= rise and f.sup_bound >= rise
        step, err = f.approximate(1.0)
        assert step.piece_count == 1 and err >= c * b / 2
        assert all(0.0 <= t <= b for t in step.nodes)


class Recorded:
    """A piece or base that records every point it is read at."""

    def __init__(self, fn):
        self.fn, self.seen = fn, []

    def __call__(self, t):
        self.seen.append(t)
        return self.fn(t)


def test_approximants_of_a_cell_wider_than_the_float_range():
    # The first cell is 1.9e308 wide.  A Lipschitz-0 piece there is one
    # cell with error 0; a sloped one gets a grid laid out at half scale.
    # Either way every piece is read inside its own cell.
    wide = Interval(-1e308, 1e308)
    bks = (-1e308, 9e307, 1e308)
    for slope, eps, cells in ((0.0, 1e-9, 2), (1e-300, 1e6, 191)):
        pieces = Recorded(lambda t: 1.0 + slope * t), Recorded(lambda t: 2.0)
        f = PiecewiseLipschitz(wide, bks, pieces, (slope, 0.0), (1.0, 2.0, 2.0))
        step, err = f.approximate(eps)
        assert step.piece_count == cells and 0.0 <= err <= eps
        assert (err == 0.0) == (slope == 0.0)
        for p, u, v in zip(pieces, bks, bks[1:]):
            assert p.seen and all(u <= t <= v for t in p.seen)
    # Two opaque constant pieces integrate exactly, from one cell each.
    f = PiecewiseLipschitz(wide, bks, (lambda t: 1.0, lambda t: 2.0), (0.0, 0.0))
    got = {kind: integrate(f, f, kind) for kind in "KYD"}
    assert [got[k].value for k in "KYD"] == [2.0, 2.0, 1.0]
    assert all(res.error_bound == 0.0 for res in got.values())


def test_monotone_guardrail_samples_inside_a_wide_interval():
    # The samples are laid out at 1/16 scale, so a base that falls in the
    # middle is refused where b - a overflows as the same shape is on
    # [-1, 1], and where (b - a) * i does from i = 2 on.
    for hi in (1.0, 1e308):
        base = Recorded(lambda t: -t if abs(t) < hi / 2 else t)
        with pytest.raises(DomainError, match="violates its monotone direction"):
            MonotoneFunction(Interval(-hi, hi), base)
        assert len(base.seen) >= 9 and all(-hi <= t <= hi for t in base.seen)
    base = Recorded(lambda t: -t if 5e307 < t < 1.5e308 else t)
    with pytest.raises(DomainError, match="violates its monotone direction"):
        MonotoneFunction(Interval(0.0, 1.7e308), base)
    assert len(set(base.seen)) >= 9 and all(0.0 <= t <= 1.7e308 for t in base.seen)
    # Twenty subnormal steps wide: at full scale the samples stay distinct,
    # where at 1/16 scale a / 16 and b / 16 would round together.
    tiny = 20 * 5e-324
    base = Recorded(lambda t: -t if 0.2 * tiny < t < 0.8 * tiny else t)
    with pytest.raises(DomainError, match="violates its monotone direction"):
        MonotoneFunction(Interval(0.0, tiny), base)
    assert len(set(base.seen)) >= 9 and all(0.0 <= t <= tiny for t in base.seen)
    f = MonotoneFunction(Interval(-1e308, 1e308), Affine(1e-308), ((0.0, 0.5, 0.5),))
    assert f.variation_bound == 3.0 and f.jump_points() == (0.0,)


def test_a_monotone_base_bisects_near_the_top_of_the_float_range():
    # u + v overflows on every cell, so a cell splits at 0.5 u + 0.5 v.
    iv = Interval(1e308, 1.7e308)
    f = MonotoneFunction(iv, Affine(1.0, -1e308))
    step, err = f.approximate(1e306)
    assert 0.0 < err <= 1e306 and step.piece_count > 1
    assert all(iv.a <= t <= iv.b for t in step.nodes)
    for u, v in zip(step.nodes, step.nodes[1:]):
        t = 0.5 * u + 0.5 * v
        assert abs(step.value(t) - f.value(t)) <= err


def test_value_types_pickle_and_repr():
    # Frozen.__reduce__ rebuilds through __init__; __repr__ names each slot.
    for value in (Interval(0.0, 1.0), Affine(2.0, 0.5), Power(1.5, -2.0),
                  SinWave(3.0, 0.5, 0.25)):
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and copy == value and repr(copy) == repr(value)
    assert repr(Interval(0.0, 1.0)) == "Interval(a=0.0, b=1.0)"
    assert repr(Affine(2.0)) == "Affine(slope=2.0, intercept=0.0)"


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
    for at in ((0.0,), (0.0, 1.0, 2.0)):
        with pytest.raises(DomainError, match="one node value per breakpoint"):
            PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Affine(1.0),), at)


def test_from_formulas_checks_breakpoints_before_reading_formulas():
    # Power(1.5) is undefined left of 0, but the order is what is wrong.
    with pytest.raises(DomainError) as info:
        PiecewiseLipschitz.from_formulas(IV, (0, -0.5, 1), [Power(1.5)] * 2)
    assert str(info.value) == "breakpoints not strictly increasing at index 1"


def test_from_formulas_checks_its_breakpoints_once(monkeypatch):
    checks = []
    check = Interval.check_division

    def counted(self, points, what):
        checks.append(what)
        return check(self, points, what)

    monkeypatch.setattr(Interval, "check_division", counted)
    PiecewiseLipschitz.from_formulas(IV, (0.0, 0.5, 1.0), (Affine(1.0), Power(2.0)))
    assert checks == ["breakpoints"]
    PiecewiseLipschitz(IV, (0.0, 0.5, 1.0), (Affine(1.0), Power(2.0)), (1.0, 2.0))
    assert checks == ["breakpoints"] * 2


def test_variation_bound_sums_each_constructors_piece_bounds_once():
    # from_formulas sums the formulas' variation_on, __init__ the
    # Lipschitz constant times the cell width; both add the gaps between
    # each node value and the piece ends beside it, in node order.
    rng = random.Random(515)
    for _ in range(200):
        f = rand_smooth(rng)
        bks, forms, at = f._breaks, f._pieces, f._limits[1]
        cells = list(zip(forms, bks, bks[1:]))
        lips = [fm.lipschitz_on(u, v) for fm, u, v in cells]
        g = PiecewiseLipschitz(IV, bks, forms, lips, at)
        gaps = 0.0
        for k, val in enumerate(at):
            if k:
                gaps += abs(val - forms[k - 1](bks[k]))
            if k < len(forms):
                gaps += abs(val - forms[k](bks[k]))
        want_f = math.fsum(fm.variation_on(u, v) for fm, u, v in cells) + gaps
        want_g = math.fsum(c * (v - u) for c, (_, u, v) in zip(lips, cells)) + gaps
        assert f.variation_bound.hex() == want_f.hex()
        assert g.variation_bound.hex() == want_g.hex()
        assert f.variation_bound <= g.variation_bound * (1 + 1e-12)
        assert g.sup_bound == f.sup_bound and g.jump_points() == f.jump_points()


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
            # The batched read calls a piece once per node inside its
            # cell and never at a break: the limits there are stored.
            nodes = (0.0, 0.0625, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0)
            got = f._limits_at(nodes)
            assert [p.calls for p in pieces] == [4, 3, 3]
            assert got == tuple(map(list, point_reads(f, nodes)))


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
    assert f.value(0.5) - f.left_limit(0.5) == 0.25
    assert f.right_limit(0.5) - f.value(0.5) == 0.25
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


def test_monotone_without_jumps_reads_its_base_bit_for_bit():
    # A falling power is -0.0 at 0; every read and the approximant keep it.
    f = MonotoneFunction(IV, Power(2.0, -1.0))
    lefts, values, rights = f._limits_at((0.0, 0.5, 1.0))
    step, _ = f.approximate(0.1)
    for x in (f.value(0.0), f.right_limit(0.0), lefts[0], values[0], rights[0],
              step.node_values[0]):
        assert x == 0.0 and math.copysign(1.0, x) < 0


@pytest.mark.parametrize("jumps", [(), ((0.5, 0.25, 0.25),)])
def test_monotone_reads_refuse_points_outside_the_domain(jumps):
    f = MonotoneFunction(IV, Affine(1.0), jumps)
    with pytest.raises(DomainError, match=r"^point 2 outside interval \[0.0, 1.0\]$"):
        f.value(2)
    with pytest.raises(DomainError, match=r"^left limit needs t in \(0.0, 1.0\]$"):
        f.left_limit(0.0)
    with pytest.raises(DomainError, match=r"^right limit needs t in \[0.0, 1.0\)$"):
        f.right_limit(1.0)


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
        assert abs(step.value(0.5) - step.left_limit(0.5) - 0.25) <= 2.0 * err
        assert abs(step.right_limit(0.5) - step.value(0.5) - 0.25) <= 2.0 * err


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


def test_monotone_rise_past_the_float_range_is_a_refused_cell_count():
    # Ends in the float range whose rise is past it, as ints and as floats.
    for big in (10 ** 308, 1e308):
        f = MonotoneFunction(IV, lambda t: big if t > 0.5 else -big if t < 0.5 else 0 * big)
        with pytest.raises(ApproximationError, match="a cell count that overflows"):
            f.approximate(0.1)


def test_monotone_cell_limit_refusal_names_no_unreachable_tolerance(monkeypatch):
    # t**3 passes the rise pre-check at 64 cells but bisection needs more.
    # best_error names a tol a retry can meet, or inf; the error reached so
    # far (0.009875) is below the refused eps and would be refused again.
    monkeypatch.setattr(regulated, "MAX_APPROX_CELLS", 64)
    f = MonotoneFunction(IV, Power(3.0))
    with pytest.raises(ApproximationError) as info:
        f.approximate(0.01)
    best = info.value.best_error
    assert best > 0.01
    if math.isfinite(best):
        assert f.approximate(best).error <= best


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


# ---------------------------------------- one-pass monotone approximant

def base_cells(f: MonotoneFunction, eps: float):
    """The base's bisection cells at eps: nodes, node values and piece
    values, not yet in canonical form, and half the largest rise."""
    base, a, b = f._base, IV.a, IV.b
    nodes, at, on, worst = [a], [base(a)], [], 0.0
    stack = [(a, b, base(a), base(b))]
    while stack:
        u, v, fu, fv = stack.pop()
        if abs(fv - fu) <= 2.0 * eps:
            nodes.append(v)
            at.append(fv)
            on.append(0.5 * (fu + fv))
            worst = max(worst, 0.5 * abs(fv - fu))
            continue
        mid = 0.5 * (u + v)
        stack += [(mid, v, base(mid), fv), (u, mid, fu, base(mid))]
    return nodes, at, on, worst


def two_step_approximant(f: MonotoneFunction, eps: float) -> StepApproximation:
    """The approximant built in two checked steps: the base cells' step
    function, canonical, plus ``f._jump_step``."""
    nodes, at, on, worst = base_cells(f, eps)
    return StepApproximation(StepFunction(IV, nodes, at, on) + f._jump_step, worst)


def approximant_bits(approximation):
    step, err = approximation
    return ([x.hex() for x in step.nodes], [x.hex() for x in step.node_values],
            [x.hex() for x in step.interior_values], err.hex())


# The ends, bisection nodes, and points no bisection reaches.
BISECTION_NODES = (0.5, 0.25, 0.75, 0.375)
JUMP_SITES = (0.0, 1.0) + BISECTION_NODES + (0.1, 0.3, 0.6, 0.9)


def rand_monotone_with_jumps(rng: random.Random) -> MonotoneFunction:
    """Rising or falling affine or power base, the falling powers giving
    -0.0 at 0, with 0 to 5 jumps: at a (after only), at b (before only),
    on bisection nodes and inside cells, with pre-only, post-only or two
    gaps."""
    sign = rng.choice((1.0, -1.0))
    base = rng.choice((Affine(sign * rng.uniform(0.0, 3.0), rng.uniform(-1, 1)),
                       Power(rng.choice((1.0, 2.0, 3.0)), sign * rng.uniform(0.1, 2.0))))
    sites = rng.sample(JUMP_SITES, rng.randint(0, 5))
    jumps = []
    for t in sites:
        if rng.random() < 0.5:
            t = rng.uniform(0.0, 1.0) if 0.0 < t < 1.0 else t
        pre, post = (sign * rng.choice((0.0, rng.uniform(0.0, 0.5))) for _ in "pp")
        jumps.append((t, 0.0 if t == 0.0 else pre, 0.0 if t == 1.0 else post))
    return MonotoneFunction(IV, base, jumps)


def test_one_pass_approximant_is_bit_identical_to_base_plus_jumps():
    rng = random.Random(1218)
    seen = set()
    for _ in range(400):
        f = rand_monotone_with_jumps(rng)
        for eps in (0.05, 0.006, 0.0013):
            got = f.approximate(eps)
            assert approximant_bits(got) == approximant_bits(two_step_approximant(f, eps))
            for t in f.jump_points():
                seen.add(t if t in (0.0, 1.0) + BISECTION_NODES else "inside a cell")
            seen.add("no jumps" if not f.jump_points() else "jumps")
            if any(v == 0.0 and math.copysign(1.0, v) < 0 for v in got.step.node_values):
                seen.add("-0.0")
    # A base flat below lo and above hi, which is no catalog formula: two
    # bisection cells side by side on a flat stretch meet at a node the
    # canonical rule drops, unless a jump sits there.
    for _ in range(100):
        lo, hi = sorted(rng.uniform(0.0, 1.0) for _ in "lh")
        flat = lo if rng.random() < 0.5 else rng.uniform(hi, 1.0)
        sites = [flat, rng.uniform(lo, hi)] + rng.sample(BISECTION_NODES, 2)
        jumps = [(t, rng.choice((0.0, 0.25)), 0.25) for t in rng.sample(sites, rng.randint(0, 3))]
        f = MonotoneFunction(IV, lambda t, lo=lo, hi=hi: min(max(t, lo), hi) - lo, jumps)
        for eps in (0.05, 0.006):
            got = f.approximate(eps)
            assert approximant_bits(got) == approximant_bits(two_step_approximant(f, eps))
            nodes, at, on, _ = base_cells(f, eps)
            if StepFunction(IV, nodes, at, on).piece_count < len(on):
                seen.add("silent base node")
    assert set(JUMP_SITES[:6]) | {"inside a cell", "no jumps", "jumps", "-0.0",
                                  "silent base node"} <= seen


def test_one_pass_approximant_on_chosen_jumps():
    cases = (
        (Power(2.0), ()),
        (Power(2.0, -1.0), ()),                              # -0.0 at 0 kept
        (Power(2.0, -1.0), ((0.5, -0.25, 0.0),)),
        (Affine(1.0), ((0.0, 0.0, 0.5), (1.0, 0.5, 0.0))),   # at a and at b
        (Affine(1.0), ((0.5, 0.25, 0.0), (0.25, 0.0, 0.25))),  # bisection nodes
        (Power(3.0), ((0.3, 0.1, 0.2), (0.31, 0.0, 0.1), (0.7, 0.2, 0.0))),
        (Affine(0.0), ((0.6, 1.0, 1.0),)),                   # one cell, split
        (Affine(2.0, -1.0), ((1.0, 0.75, 0.0),)),            # endpoint jump only
    )
    for base, jumps in cases:
        f = MonotoneFunction(IV, base, jumps)
        for eps in (1.0, 0.1, 0.01, 0.001):
            got = f.approximate(eps)
            assert approximant_bits(got) == approximant_bits(two_step_approximant(f, eps))
    no_jumps = MonotoneFunction(IV, Power(2.0, -1.0)).approximate(0.1).step
    assert math.copysign(1.0, no_jumps.node_values[0]) == -1.0


def test_cell_limit_counts_base_cells_not_jump_splits(monkeypatch):
    # Eight base cells of rise 1/8 at eps = 1/16; two jumps inside cells
    # make ten pieces, and a limit of eight still accepts them.
    monkeypatch.setattr(regulated, "MAX_APPROX_CELLS", 8)
    f = MonotoneFunction(IV, Affine(1.0), ((0.3, 0.25, 0.0), (0.6, 0.0, 0.25)))
    step, err = f.approximate(1 / 16)
    assert step.piece_count == 10 and err == 1 / 16
    assert approximant_bits((step, err)) == approximant_bits(two_step_approximant(f, 1 / 16))
    monkeypatch.setattr(regulated, "MAX_APPROX_CELLS", 7)
    with pytest.raises(ApproximationError):
        f.approximate(1 / 16)


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
