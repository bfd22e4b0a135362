"""Built-in regulated-function families with certified step approximants.

Certification contract: each family derives its uniform error bounds
from analytic data supplied at construction -- Lipschitz constants per
piece, a monotone direction, explicit jump lists.  If that data is
wrong the certificates are wrong; nothing here estimates norms from
point samples.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from functools import partial

from .core import Frozen, Interval, RegulatedFunction, StepApproximation, _limit_rows, as_floats
from .errors import ApproximationError, DomainError, saturated
from .stepfun import StepFunction, _jump_gaps, _jump_points, _merged, step_from_jumps

# Hard ceiling on approximant size; past this the requested tolerance
# is treated as unreachable rather than allowed to exhaust memory.
MAX_APPROX_CELLS = 1 << 20

UNIT_ROUNDOFF = 2.0 ** -53
_NORMAL = 2.0 ** -1022  # the smallest normal float
_TINY = math.ulp(0.0)  # 2**-1074, the smallest subnormal


def _times_width(c: float, u: float, v: float) -> float:
    """c * (v - u), or where the width of a cell of a finite interval
    overflows, c times half of it, doubled back: halving such far-apart
    ends is exact, halving a subnormal one would not be.  inf when the
    product overflows, never nan, which ``max`` would pass over; the
    smallest subnormal, not 0, when it underflows (``_nonzero``)."""
    w = v - u
    return _nonzero(c * w if w < math.inf else 2.0 * (c * (0.5 * v - 0.5 * u)), c)


def _nonzero(bound: float, *factors: float) -> float:
    """``bound``, a rounded product of ``factors``, or the smallest
    subnormal where it underflowed to 0 though no factor is 0: a bound of
    0 would certify that a function which moves does not."""
    return bound if bound or not all(factors) else _TINY


def _below_normal(u: float, v: float, e: float) -> bool:
    """Whether e > 0 and |t|**e falls below the normal range on [u, v]."""
    near = 0.0 if u <= 0 <= v else min(abs(u), abs(v))
    return e > 0 and saturated(pow, near, e) < _NORMAL


def _grid(u: float, v: float, n: int):
    """``(s, o, h, xs)``: n equal cells of [u, v] laid out at scale s from
    o = u / s with spacing h over s, and their inner nodes xs.  s is 2
    where v - u overflows, else 1, so a subnormal end is never halved."""
    s = 1.0 if v - u < math.inf else 2.0
    o, h = u / s, (v / s - u / s) / n
    return s, o, h, [s * (o + j * h) for j in range(1, n)]


def _finest(u: float, v: float, n: int) -> int:
    """n where the nodes of n equal cells of [u, v] increase strictly, else
    the largest m below n where they do, by bisection; one cell's do."""
    lo, hi, m = 1, n + 1, n
    while hi - lo > 1:
        pts = [u, *_grid(u, v, m)[3], v]
        lo, hi = (m, hi) if all(map(operator.lt, pts, pts[1:])) else (lo, m)
        m = (lo + hi) // 2
    return lo


class Formula(Frozen):
    """Base of the formula catalog.  Each entry knows sup|f^(k)| on any
    cell (``derivative_bound_on``, k >= 1; k = 1 is ``lipschitz_on``)
    and a certified variation bound there (``variation_on``), which is
    what lets the DSL build functions whose certificates need no
    user-supplied constants.  A derivative bound is inf only on a cell
    from 0 where the derivative is unbounded (t**e with e non-integer
    below k); one past the float range is refused with a DomainError.
    ``values_at(ts)`` is ``[f(t) for t in ts]`` and
    ``derivative_values_at(ts)`` the same for f', bit for bit but for
    ``Power`` below the normal range, without a call per point;
    ``rounding_on`` and ``derivative_rounding_on`` bound the rounding
    error of one such evaluation at a point of the cell, assuming
    ``math.sin``, ``math.cos`` and ``**`` are within one ulp (below the
    normal range, within 2**-1074).
    The limit route's Gauss-Legendre sum and its fourth-order
    certificate read all of them."""

    __slots__ = ()

    def lipschitz_on(self, u: float, v: float) -> float:
        return self.derivative_bound_on(u, v, 1)

    def variation_on(self, u: float, v: float) -> float:
        # Lipschitz times width; an upper bound wherever f' changes sign.
        return _times_width(self.lipschitz_on(u, v), u, v)


class Affine(Formula):
    """t -> slope * t + intercept."""

    __slots__ = ("slope", "intercept")

    def __init__(self, slope: float, intercept: float = 0.0):
        super().__init__(slope, intercept)

    def __call__(self, t: float) -> float:
        return self.slope * t + self.intercept

    def values_at(self, ts) -> list[float]:
        s, c = self.slope, self.intercept
        return [s * t + c for t in ts]

    def derivative_values_at(self, ts) -> list[float]:
        return [self.slope] * len(ts)

    def derivative_bound_on(self, u: float, v: float, k: int) -> float:
        return abs(self.slope) if k == 1 else 0.0

    def rounding_on(self, u: float, v: float) -> float:
        # fl(fl(s t) + c): two roundings, the first one of |s t|.
        return 3.0 * UNIT_ROUNDOFF * (abs(self.slope) * max(abs(u), abs(v)) + abs(self.intercept))

    def derivative_rounding_on(self, u: float, v: float) -> float:
        return 0.0  # the slope itself


class Power(Formula):
    """t -> scale * t**exponent, exponent > 0.

    Non-integer exponents need u >= 0; exponents below 1 additionally
    need u > 0 to stay Lipschitz.  A value or derivative bound past the
    float range is refused with a DomainError.  Where |t|**exponent is
    below the normal range, a call reads the value in halves, so that a
    large scale meets the power before it underflows: the step-pair and
    first-order routes take such reads as exact.  The batch reads of the
    Gauss-Legendre sum keep the plain product, as its certificate counts
    their error: there pow is within 2**-1074 of the exact power, not
    within an ulp, and every bound adds that times the coefficient.
    """

    __slots__ = ("exponent", "scale")

    def __init__(self, exponent: float, scale: float = 1.0):
        if not exponent > 0:
            raise DomainError(f"power exponent must be positive, got {exponent!r}")
        super().__init__(exponent, scale)

    def __call__(self, t: float) -> float:
        try:
            p = t ** self.exponent
        except OverflowError:
            raise DomainError(f"t**{self.exponent} overflows at t = {t!r}") from None
        try:
            if p >= _NORMAL or p <= -_NORMAL or not t:
                return self.scale * p
        except TypeError:  # p is complex: t < 0 and a non-integer exponent
            return self.scale * p
        # |t|**e is below the normal range: (scale h) h with h = |t|**(e/2)
        # is within 6 u of the exact value where h is normal.  Such an e
        # is at least 0.95, so e/2 is exact.
        e = self.exponent
        h = abs(t) ** (0.5 * e)
        y = self.scale * h * h
        return -y if t < 0 and e % 2 == 1 else y

    def values_at(self, ts) -> list[float]:
        # The plain product, also below the normal range: rounding_on counts it.
        s, e = self.scale, self.exponent
        return [s * t ** e for t in ts]

    def derivative_values_at(self, ts) -> list[float]:
        c, e = self.scale * self.exponent, self.exponent - 1.0
        return [c * t ** e for t in ts]

    def _check_cell(self, u: float, v: float) -> None:
        integral = float(self.exponent).is_integer()
        if u < 0 and not integral:
            raise DomainError(f"t**{self.exponent} undefined left of 0")
        if self.exponent < 1 and u <= 0:
            raise DomainError(f"t**{self.exponent} is not Lipschitz at 0")

    def derivative_bound_on(self, u: float, v: float, k: int) -> float:
        """|scale e (e-1) ... (e-k+1)| times the sup of |t|**(e-k): at
        the end farther from 0 when e >= k, else at u.  0 when e is an
        integer below k; inf when e - k < 0 on a cell from 0."""
        if u <= 0:
            self._check_cell(u, v)
        e = self.exponent
        falling = e
        for i in range(1, k):
            falling *= e - i
        if not (self.scale and falling):  # an integer exponent below k, or no scale
            return 0.0
        if e < k and not u > 0:
            return math.inf
        # max(-u, v) is max(|u|, |v|), as u <= v, and t**(e - k) > 0 there.
        p = saturated(pow, max(-u, v) if e >= k else u, e - k)
        # Below the normal range pow is within 2**-1074, not an ulp, of the power.
        bound = abs(self.scale * falling) * (p if p >= _NORMAL else p + _TINY)
        if bound < math.inf:
            return _nonzero(bound, self.scale, falling)
        what = "Lipschitz constant" if k == 1 else f"bound on derivative {k}"
        raise DomainError(f"t**{e} has no finite {what} on [{u!r}, {v!r}]")

    def variation_on(self, u: float, v: float) -> float:
        self._check_cell(u, v)
        if u >= 0:  # monotone on [0, inf)
            top = v ** self.exponent
            if top < _NORMAL:  # so is every power on the cell: at most |scale| v**e
                return _nonzero(abs(self.scale) * (top + _TINY), self.scale)
            return abs(self.scale) * abs(top - u ** self.exponent)
        return _times_width(self.lipschitz_on(u, v), u, v)

    def rounding_on(self, u: float, v: float) -> float:
        # One ulp of |t|**e at max(|u|, |v|), then the product with the
        # scale.  Where |t|**e falls below the normal range, values_at's
        # pow is within 2**-1074, and __call__'s halves within 6 u
        # 2**-1022, of the exact power: 4 |scale| 2**-1074 covers both.
        bound = 4.0 * UNIT_ROUNDOFF * abs(self.scale) * saturated(pow, max(-u, v), self.exponent)
        if _below_normal(u, v, self.exponent):
            bound += 4.0 * _TINY * abs(self.scale)
        return bound

    def derivative_rounding_on(self, u: float, v: float) -> float:
        # fl(scale e) * t**fl(e - 1): two products and one ulp of pow, or
        # pow's 2**-1074 where t**fl(e - 1) falls below the normal range.
        # fl(e - 1) misses e - 1 by eta (0 for 0.5 <= e <= 2**53), which
        # scales t**(e - 1) by t**eta, within 2 eta |log t| of 1 in the cell.
        e = self.exponent
        eta = 0.0 if 0.5 <= e <= 2.0 ** 53 else abs(math.fsum((e, -1.0, 1.0 - e)))
        rel = 4.0 * UNIT_ROUNDOFF
        if eta:
            if not u > 0:
                raise DomainError(f"t**{e}: no rounding bound for f' on [{u!r}, {v!r}]")
            rel += 2.0 * eta * max(abs(math.log(u)), abs(math.log(v)))
        bound = rel * self.derivative_bound_on(u, v, 1)
        if _below_normal(u, v, e - 1.0):
            bound += _TINY * abs(self.scale * e)
        return bound


class SinWave(Formula):
    """t -> amplitude * sin(freq * t + phase)."""

    __slots__ = ("freq", "amplitude", "phase")

    def __init__(self, freq: float, amplitude: float = 1.0, phase: float = 0.0):
        super().__init__(freq, amplitude, phase)

    def __call__(self, t: float) -> float:
        try:
            return self.amplitude * math.sin(self.freq * t + self.phase)
        except ValueError:  # sin(inf)
            raise self._overflow((t,)) from None

    def values_at(self, ts) -> list[float]:
        a, w, phi, sin = self.amplitude, self.freq, self.phase, math.sin
        try:
            return [a * sin(w * t + phi) for t in ts]
        except ValueError:
            raise self._overflow(ts) from None

    def derivative_values_at(self, ts) -> list[float]:
        c, w, phi, cos = self.amplitude * self.freq, self.freq, self.phase, math.cos
        try:
            return [c * cos(w * t + phi) for t in ts]
        except ValueError:
            raise self._overflow(ts) from None

    def _overflow(self, ts) -> DomainError:
        t = next(t for t in ts if math.isinf(self.freq * t + self.phase))
        return DomainError(f"sin argument overflows at t = {t!r}")

    def derivative_bound_on(self, u: float, v: float, k: int) -> float:
        bound = abs(self.amplitude) * saturated(pow, abs(self.freq), k)
        if bound < math.inf:
            return _nonzero(bound, self.amplitude, self.freq)
        raise DomainError(f"sin with freq {self.freq!r} has no finite bound on derivative {k}")

    def rounding_on(self, u: float, v: float) -> float:
        # The argument's two roundings, moved through sin (1-Lipschitz),
        # sin's ulp and the product with the amplitude.
        arg = abs(self.freq) * max(abs(u), abs(v)) + abs(self.phase)
        return 4.0 * UNIT_ROUNDOFF * abs(self.amplitude) * (arg + 1.0)

    def derivative_rounding_on(self, u: float, v: float) -> float:
        # The same through cos, times fl(amplitude * freq).
        arg = abs(self.freq) * max(abs(u), abs(v)) + abs(self.phase)
        return 4.0 * UNIT_ROUNDOFF * abs(self.amplitude * self.freq) * (arg + 1.0)


# ----------------------------------------------------------------------


class _Piecewise(RegulatedFunction):
    """The read path of both smooth families: sorted ``_breaks`` from a
    to b, ``_pieces[i]`` giving f on the open cell right of break i, and
    ``_limits`` the rows ``(lefts, values, rights)`` at the breaks that
    ``_limit_rows`` builds.  A one-sided limit at a break is the piece
    beside it, read there; ``_jumps`` lists the jump points
    (``stepfun._jump_points``).  Each family also stores its two
    certificates, ``_variation`` and ``_sup``, once on construction."""

    __slots__ = ("_breaks", "_pieces", "_limits", "_jumps", "_variation", "_sup")

    def value(self, t: float) -> float:
        self._interval.require(t)
        i = bisect_left(self._breaks, t)
        if self._breaks[i] == t:
            return self._limits[1][i]
        return self._pieces[i - 1](t)

    def left_limit(self, t: float) -> float:
        self._interval.require_left(t)
        return self._pieces[bisect_left(self._breaks, t) - 1](t)

    def right_limit(self, t: float) -> float:
        self._interval.require_right(t)
        return self._pieces[bisect_right(self._breaks, t) - 1](t)

    def _limits_at(self, nodes) -> tuple[list, list, list]:
        """``RegulatedFunction._limits_at`` (same precondition) by the
        break walk: one bisection into ``nodes`` per break, one piece
        call per node inside a cell, the stored row at a node on a break."""
        pieces, limits = self._pieces, self._limits
        out = [], [], []
        lo = 0
        for j, y in enumerate(self._breaks):
            k = bisect_left(nodes, y, lo)
            inside = list(map(pieces[j - 1], nodes[lo:k]))
            for part in out:
                part += inside
            lo = k
            if nodes[k] == y:
                for part, row in zip(out, limits):
                    part.append(row[j])
                lo = k + 1
        return out

    def jump_points(self) -> tuple[float, ...]:
        return self._jumps

    @property
    def variation_bound(self) -> float:
        return self._variation

    @property
    def sup_bound(self) -> float:
        return self._sup


class PiecewiseLipschitz(_Piecewise):
    """One Lipschitz-continuous formula per piece, arbitrary values at
    the piece boundaries.  Jumps happen at breakpoints and nowhere else.

    ``pieces[i]`` must be defined and Lipschitz with constant
    ``lipschitz[i]`` on the closed cell ``[breaks[i], breaks[i+1]]``;
    one-sided limits at a breakpoint are the adjacent pieces' values
    there.  Default node values splice continuously from the right.
    """

    __slots__ = ("_lipschitz", "_parts")

    def __init__(self, interval: Interval, breakpoints, pieces, lipschitz,
                 node_values=None):
        bks = interval.check_division(breakpoints, "breakpoints")
        lipschitz = tuple(as_floats(lipschitz, "Lipschitz constants"))
        self._setup(interval, bks, tuple(pieces), lipschitz, node_values,
                    (_times_width(c, u, v) for c, u, v in zip(lipschitz, bks, bks[1:])))

    def _setup(self, interval, bks, pieces, lipschitz, node_values, piece_variations):
        """Both constructors' checks and certificates, on checked
        breakpoints; ``piece_variations``, one bound per cell, is summed
        once the checks have passed."""
        if len(pieces) != len(bks) - 1 or len(lipschitz) != len(pieces):
            raise DomainError("need one piece and one Lipschitz constant per cell")
        for c in lipschitz:
            if not (math.isfinite(c) and c >= 0):
                raise DomainError(f"bad Lipschitz constant {c!r}")
        # The certificates below read the pieces only at their cell ends:
        # f(u+) at each cell's start u and f(v-) at its end v.
        starts = [p(u) for p, u in zip(pieces, bks)]
        ends = [p(v) for p, v in zip(pieces, bks[1:])]
        if node_values is None:
            node_values = starts + ends[-1:]
        node_values = tuple(as_floats(node_values, "node values"))
        if len(node_values) != len(bks):
            raise DomainError("need one node value per breakpoint")

        super().__init__(interval)
        self._breaks = tuple(bks)
        self._pieces = pieces
        self._lipschitz = lipschitz
        rows = self._limits = _limit_rows(ends, node_values, starts)
        gap_total = 0.0
        for t, row in zip(bks, zip(*rows)):
            if not all(map(math.isfinite, as_floats(row, "limits"))):
                raise DomainError(f"limits {row!r} at break {t!r} overflow: not finite")
            left, val, right = row
            gap_total += abs(val - left)
            gap_total += abs(val - right)
        self._jumps = _jump_points(bks, *rows)
        self._variation = saturated(math.fsum, piece_variations) + gap_total
        # Any t in a cell [u, v] is within (v-u)/2 of the nearer end; c
        # itself where its half, c = 5e-324, underflows to 0.
        sup = max(abs(v) for v in node_values)
        for fu, fv, c, u, v in zip(starts, ends, lipschitz, bks, bks[1:]):
            sup = max(sup, max(abs(fu), abs(fv)) + _times_width(0.5 * c or c, u, v))
        self._sup = sup
        self._parts = None  # the catalog split, built on first use

    @classmethod
    def from_formulas(cls, interval: Interval, breakpoints, formulas,
                      node_values=None) -> "PiecewiseLipschitz":
        """Build from catalog formulas, deriving Lipschitz constants and
        a tight variation bound analytically."""
        bks = interval.check_division(breakpoints, "breakpoints")
        formulas = tuple(formulas)
        cells = list(zip(formulas, bks, bks[1:]))
        self = cls.__new__(cls)
        self._setup(interval, bks, formulas,
                    tuple(float(fm.lipschitz_on(u, v)) for fm, u, v in cells),
                    node_values, (fm.variation_on(u, v) for fm, u, v in cells))
        return self

    def _smooth_parts(self):
        """The split when every piece is a catalog formula and no gap
        overflows: the jump step takes the gaps (``stepfun._jump_gaps``)
        at the breaks, so that on each cell f minus it is the piece minus
        the step's value there.  Built on first use, since only the limit
        route reads it; () marks a function without one."""
        if self._parts is None:
            self._parts = ()
            if all(hasattr(p, "derivative_bound_on") for p in self._pieces):
                bks = self._breaks
                try:
                    step = step_from_jumps(self._interval, 0.0, *_jump_gaps(bks, *self._limits))
                except DomainError:  # a gap or a level overflows
                    return None
                self._parts = step, bks, self._pieces, tuple(step._limits_at(bks)[2][:-1])
        return self._parts or None

    def approximate(self, eps: float) -> StepApproximation:
        """Uniform grid per piece with spacing <= eps / Lipschitz
        (``_grid``); constant midpoint values inside cells, exact values at
        nodes.  Achieved error is max over pieces of Lipschitz * spacing / 2.
        A cell whose spacing is within 8 ulps of its ends is checked for
        more nodes than it holds floats, a resolution limit; the refusal's
        ``best_error`` is the eps of the finest grid such a cell holds."""
        if not eps > 0:
            raise DomainError(f"approximation tolerance must be positive, got {eps!r}")
        bks = self._breaks
        need = [_times_width(c, u, v) / eps for c, u, v in zip(self._lipschitz, bks, bks[1:])]
        if not all(map(math.isfinite, need)):  # best_error stays inf: no tol fits
            raise ApproximationError("needs a cell count that overflows", tol=eps)
        counts = [max(1, math.ceil(x)) for x in need]
        total = sum(counts)
        if total > MAX_APPROX_CELLS:
            raise ApproximationError(f"needs {total} cells (limit {MAX_APPROX_CELLS})",
                                     eps * (total / MAX_APPROX_CELLS), eps)
        nodes: list[float] = [bks[0]]
        node_values: list[float] = [self._limits[1][0]]
        interior: list[float] = []
        err = floor = 0.0
        for p, c, n, u, v, fv in zip(self._pieces, self._lipschitz, counts,
                                     bks, bks[1:], self._limits[1][1:]):
            s, o, h, xs = _grid(u, v, n)
            if s * h <= 8.0 * math.ulp(max(-u, v)) and (m := _finest(u, v, n)) < n:
                # A hair above c w / m, so that this eps, asked for, still
                # gets m cells through the rounding of ceil(c w / eps).
                floor = max(floor, _times_width(c, u, v) / m * (1.0 + 2.0 ** -40))
                continue
            err = max(err, _nonzero(0.5 * s * c * h, c))
            mids = [s * (o + (j - 0.5) * h) for j in range(1, n + 1)]
            interior += map(p, mids)
            nodes += xs
            node_values += map(p, xs)
            nodes.append(v)
            node_values.append(fv)
        if floor:
            raise ApproximationError(
                "needs more grid nodes than a cell holds floats (resolution limit)", floor, eps)
        return StepApproximation(
            StepFunction(self._interval, nodes, node_values, interior), err)


def _shifted(base, level: float, t: float) -> float:
    """A monotone function inside a cell where its jump step is ``level``;
    unlike a lambda, a ``partial`` of this pickles with its base."""
    try:
        return base(t) + level
    except OverflowError as exc:  # an int past the float range
        raise DomainError(f"base values must be finite: {exc}") from None


class MonotoneFunction(_Piecewise):
    """Monotone function: a continuous monotone base plus finitely many
    explicit jumps, all pointing in the base's direction.

    Jumps are listed as ``(t, gap_before, gap_after)`` where
    ``gap_before = f(t) - f(t-)`` and ``gap_after = f(t+) - f(t)``.
    Approximants are certified by monotonicity alone: on any bisection
    cell the base stays between its endpoint values.

    The breaks are the jump step's nodes, a and b alone without jumps.
    Inside a cell f reads the base plus the jump step's value there, and
    the row at a break is the base's value plus the step's limits and
    value.  Without jumps the jump step is the constant -0.0, which
    leaves every base value as it is, bit for bit; +0.0 would read a
    base's -0.0 as +0.0.
    """

    __slots__ = ("_base", "_jump_step")

    def __init__(self, interval: Interval, base, jumps=()):
        super().__init__(interval)
        self._base = base
        a, b = interval.a, interval.b
        # The base's values are read as floats, so that one past the float
        # range, such as a large int, is refused here.
        base_a, base_b = as_floats((base(a), base(b)), "base values")
        span = base_b - base_a
        direction = math.copysign(1.0, span) if span else 0.0
        plus, minus, endpoint = [], [], 0.0
        for t, pre, post in sorted(tuple(as_floats((t, pre, post), "jumps"))
                                   for t, pre, post in jumps):
            interval.require(t)
            if t == a and pre != 0.0:
                raise DomainError("no left limit exists at the interval start")
            if t == b and post != 0.0:
                raise DomainError("no right limit exists at the interval end")
            for gap in (pre, post):
                if gap == 0.0:
                    continue
                if direction == 0.0:
                    direction = math.copysign(1.0, gap)
                elif math.copysign(1.0, gap) != direction:
                    raise DomainError(
                        f"jump at {t!r} points against the monotone direction")
            if t == b:
                endpoint += pre
            elif pre != 0.0:
                minus.append((t, pre))
            if post != 0.0:
                plus.append((t, post))
        js = self._jump_step = (
            step_from_jumps(interval, 0.0, plus_jumps=plus, minus_jumps=minus, endpoint=endpoint)
            if plus or minus or endpoint
            # x + -0.0 is x bit for bit, even for x = -0.0; + 0.0 is not.
            else StepFunction.constant(interval, -0.0))
        ys, yc, yd = js.nodes, js.node_values, js.interior_values
        self._breaks = ys
        self._pieces = tuple(partial(_shifted, base, d) for d in yd)
        xs = (base_a, *as_floats(map(base, ys[1:-1]), "base values"), base_b)
        self._limits = tuple([x + y for x, y in zip(xs, row)] for row in _limit_rows(yd, yc, yd))
        self._jumps = js.jump_points()
        fa, fb = self._limits[1][0], self._limits[1][-1]
        ends = (base_a, base_b, fa, fb)
        if not all(map(math.isfinite, ends)):
            raise DomainError(f"base and values {ends!r} at the ends overflow: not finite")
        # Monotone, so the variation is the total rise, exactly.  Where a
        # large base value absorbs the jumps, that rise rounds to far below
        # the jump step's alone, which rounding cannot explain; then the
        # base's and the jump step's rises, both in one direction, add.
        self._variation = abs(fb - fa)
        jump_rise = abs(yc[-1] - yc[0])
        if self._variation < 0.5 * jump_rise:
            self._variation = abs(base_b - base_a) + jump_rise
        self._sup = max(abs(fa), abs(fb))
        # Cheap guardrail, not certification: a handful of increments
        # must not contradict the claimed direction.  The samples are laid
        # out at half scale only where b - a overflows; clamping keeps them
        # in [a, b].
        s = 1.0 if b - a < math.inf else 2.0
        o, w = a / s, b / s - a / s
        samples = as_floats([base(min(max(s * (o + w * (i / 8)), a), b)) for i in range(9)],
                            "base values")
        if any(direction * (y - x) < 0 for x, y in zip(samples, samples[1:])):
            raise DomainError("base function violates its monotone direction")

    def _smooth_parts(self):
        if not hasattr(self._base, "derivative_bound_on"):
            return None
        return self._jump_step, (self._interval.a, self._interval.b), (self._base,), (0.0,)

    def approximate(self, eps: float) -> StepApproximation:
        """Bisect the continuous base until every cell's rise is at most
        2 * eps and take mid-range values, then add the jump step by the
        merge walk of ``+``.  The base cells form a division, and the walk
        makes the sum canonical.

        The cells' rises add up to the base's total rise, so a base that
        rises by more than 2 * eps * MAX_APPROX_CELLS is refused before
        any bisection.  The refusal names the cells eps needs, and its
        ``best_error``, rise / (2 * MAX_APPROX_CELLS), is the floor no
        approximant within the cell limit can beat."""
        if not eps > 0:
            raise DomainError(f"approximation tolerance must be positive, got {eps!r}")
        base = self._base
        a, b = self._interval.a, self._interval.b
        base_a, base_b = as_floats((base(a), base(b)), "base values")
        rise = abs(base_b - base_a)
        limit = 2.0 * eps
        needed = rise / limit
        if needed > MAX_APPROX_CELLS:
            count = (f"at least {needed:.3g} cells" if math.isfinite(needed)
                     else "a cell count that overflows")
            raise ApproximationError(f"needs {count} (limit {MAX_APPROX_CELLS})",
                                     rise / (2.0 * MAX_APPROX_CELLS), eps)
        nodes, at, on = [a], [base_a], []
        worst = 0.0
        stack = [(a, b, base_a, base_b, 0)]
        try:
            while stack:
                u, v, fu, fv, depth = stack.pop()
                osc = abs(fv - fu)
                if osc <= limit:
                    nodes.append(v)
                    at.append(fv)
                    level = 0.5 * (fu + fv)  # halving is exact where fu + fv overflows
                    on.append(level if math.isfinite(level) else 0.5 * fu + 0.5 * fv)
                    if osc > worst:
                        worst = osc
                    if len(on) > MAX_APPROX_CELLS:
                        # No tolerance is known to fit: best_error stays inf.
                        raise ApproximationError(
                            f"exceeds the cell limit {MAX_APPROX_CELLS}", tol=eps)
                    continue
                mid = 0.5 * u + 0.5 * v
                if depth >= 60 or not u < mid < v:
                    raise ApproximationError(
                        f"unreachable near {u!r} (discontinuity or resolution limit "
                        "in the base)", 0.5 * osc, eps)
                fm = base(mid)
                stack.append((mid, v, fm, fv, depth + 1))
                stack.append((u, mid, fu, fm, depth + 1))
        except OverflowError as exc:  # a base value past the float range, such as a large int
            raise DomainError(f"base values must be finite: {exc}") from None
        js = self._jump_step
        step = _merged(self._interval, (nodes, at, on),
                       (js.nodes, js.node_values, js.interior_values), operator.add)
        return StepApproximation(step, _nonzero(0.5 * worst, worst))
