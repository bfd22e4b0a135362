"""Built-in regulated-function families with certified step approximants.

Certification contract: each family derives its uniform error bounds
from analytic data supplied at construction -- Lipschitz constants per
piece, a monotone direction, explicit jump lists.  If that data is
wrong the certificates are wrong; nothing here estimates norms from
point samples.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .core import Frozen, Interval, RegulatedFunction, StepApproximation
from .errors import ApproximationError, DomainError
from .stepfun import StepFunction, step_from_jumps

# Hard ceiling on approximant size; past this the requested tolerance
# is treated as unreachable rather than allowed to exhaust memory.
MAX_APPROX_CELLS = 1 << 20


# ----------------------------------------------------------------------
# Formula catalog.  Each entry knows its own Lipschitz constant and a
# certified variation bound on any cell, which is what lets the DSL
# build functions whose certificates need no user-supplied constants.

class Affine(Frozen):
    """t -> slope * t + intercept."""

    __slots__ = ("slope", "intercept")

    def __init__(self, slope: float, intercept: float = 0.0):
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)

    def __call__(self, t: float) -> float:
        return self.slope * t + self.intercept

    def lipschitz_on(self, u: float, v: float) -> float:
        return abs(self.slope)

    def variation_on(self, u: float, v: float) -> float:
        return abs(self.slope) * (v - u)


class Power(Frozen):
    """t -> scale * t**exponent, exponent > 0.

    Non-integer exponents need u >= 0; exponents below 1 additionally
    need u > 0 to stay Lipschitz.
    """

    __slots__ = ("exponent", "scale")

    def __init__(self, exponent: float, scale: float = 1.0):
        if not exponent > 0:
            raise DomainError(f"power exponent must be positive, got {exponent!r}")
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "scale", scale)

    def __call__(self, t: float) -> float:
        return self.scale * t ** self.exponent

    def _check_cell(self, u: float, v: float) -> None:
        integral = float(self.exponent).is_integer()
        if u < 0 and not integral:
            raise DomainError(f"t**{self.exponent} undefined left of 0")
        if self.exponent < 1 and u <= 0:
            raise DomainError(f"t**{self.exponent} is not Lipschitz at 0")

    def lipschitz_on(self, u: float, v: float) -> float:
        self._check_cell(u, v)
        e, s = self.exponent, abs(self.scale)
        if e >= 1:
            return s * e * max(abs(u), abs(v)) ** (e - 1)
        return s * e * u ** (e - 1)

    def variation_on(self, u: float, v: float) -> float:
        self._check_cell(u, v)
        if u >= 0:  # monotone on [0, inf)
            return abs(self.scale) * abs(v ** self.exponent - u ** self.exponent)
        return self.lipschitz_on(u, v) * (v - u)


class SinWave(Frozen):
    """t -> amplitude * sin(freq * t + phase)."""

    __slots__ = ("freq", "amplitude", "phase")

    def __init__(self, freq: float, amplitude: float = 1.0, phase: float = 0.0):
        object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "phase", phase)

    def __call__(self, t: float) -> float:
        return self.amplitude * math.sin(self.freq * t + self.phase)

    def lipschitz_on(self, u: float, v: float) -> float:
        return abs(self.amplitude * self.freq)

    def variation_on(self, u: float, v: float) -> float:
        # Upper bound; the exact arc count is not worth tracking.
        return self.lipschitz_on(u, v) * (v - u)


# ----------------------------------------------------------------------


class PiecewiseLipschitz(RegulatedFunction):
    """One Lipschitz-continuous formula per piece, arbitrary values at
    the piece boundaries.  Jumps happen at breakpoints and nowhere else.

    ``pieces[i]`` must be defined and Lipschitz with constant
    ``lipschitz[i]`` on the closed cell ``[breaks[i], breaks[i+1]]``;
    one-sided limits at a breakpoint are the adjacent pieces' values
    there.  Default node values splice continuously from the right.
    """

    __slots__ = ("_breaks", "_pieces", "_lipschitz", "_node_values",
                 "_gap_total", "_jumps", "_variation", "_sup")

    def __init__(self, interval: Interval, breakpoints, pieces, lipschitz,
                 node_values=None):
        bks = interval.check_division(breakpoints, "breakpoints")
        pieces = tuple(pieces)
        lipschitz = tuple(float(c) for c in lipschitz)
        if len(pieces) != len(bks) - 1 or len(lipschitz) != len(pieces):
            raise DomainError("need one piece and one Lipschitz constant per cell")
        for c in lipschitz:
            if not (math.isfinite(c) and c >= 0):
                raise DomainError(f"bad Lipschitz constant {c!r}")
        # The certificates below read the pieces only at their cell ends.
        lefts = [p(u) for p, u in zip(pieces, bks)]
        rights = [p(v) for p, v in zip(pieces, bks[1:])]
        if node_values is None:
            node_values = lefts + rights[-1:]
        node_values = tuple(float(x) for x in node_values)
        if len(node_values) != len(bks):
            raise DomainError("need one node value per breakpoint")

        super().__init__(interval)
        self._breaks = tuple(bks)
        self._pieces = pieces
        self._lipschitz = lipschitz
        self._node_values = node_values
        # Gaps between each node value and the pieces' ends beside it.
        gap_total, jumps = 0.0, []
        for k, (t, val) in enumerate(zip(bks, node_values)):
            ends = rights[k - 1:k] + lefts[k:k + 1]
            for end in ends:
                gap_total += abs(val - end)
            if any(end != val for end in ends):
                jumps.append(t)
        self._gap_total = gap_total
        self._jumps = tuple(jumps)
        self._variation = math.fsum(
            c * (v - u) for c, u, v in zip(lipschitz, bks, bks[1:])) + gap_total
        # Any t in a cell [u, v] is within (v-u)/2 of the nearer end.
        sup = max(abs(v) for v in node_values)
        for fu, fv, c, u, v in zip(lefts, rights, lipschitz, bks, bks[1:]):
            sup = max(sup, max(abs(fu), abs(fv)) + 0.5 * c * (v - u))
        self._sup = sup

    @classmethod
    def from_formulas(cls, interval: Interval, breakpoints, formulas,
                      node_values=None) -> "PiecewiseLipschitz":
        """Build from catalog formulas, deriving Lipschitz constants and
        a tight variation bound analytically."""
        bks = interval.check_division(breakpoints, "breakpoints")
        formulas = tuple(formulas)
        lips = [fm.lipschitz_on(u, v) for fm, u, v in zip(formulas, bks, bks[1:])]
        self = cls(interval, bks, formulas, lips, node_values)
        pieces_var = math.fsum(
            fm.variation_on(u, v) for fm, u, v in zip(formulas, bks, bks[1:]))
        self._variation = pieces_var + self._gap_total
        return self

    # -- RegulatedFunction interface --------------------------------------

    def value(self, t: float) -> float:
        self._interval.require(t)
        i = bisect_left(self._breaks, t)
        if i < len(self._breaks) and self._breaks[i] == t:
            return self._node_values[i]
        return self._pieces[i - 1](t)

    def left_limit(self, t: float) -> float:
        if not self._interval.a < t <= self._interval.b:
            raise DomainError(f"left limit needs t in ({self._interval.a}, {self._interval.b}]")
        i = bisect_left(self._breaks, t)
        return self._pieces[i - 1](t)

    def right_limit(self, t: float) -> float:
        if not self._interval.a <= t < self._interval.b:
            raise DomainError(f"right limit needs t in [{self._interval.a}, {self._interval.b})")
        i = bisect_left(self._breaks, t)
        if self._breaks[i] == t:
            return self._pieces[i](t)
        return self._pieces[i - 1](t)

    @property
    def variation_bound(self) -> float:
        return self._variation

    @property
    def sup_bound(self) -> float:
        return self._sup

    def jump_points(self) -> tuple[float, ...]:
        return self._jumps

    def approximate(self, eps: float) -> StepApproximation:
        """Uniform grid per piece with spacing <= eps / Lipschitz;
        constant midpoint values inside cells, exact values at nodes.
        Achieved error is max over pieces of Lipschitz * spacing / 2."""
        if not eps > 0:
            raise DomainError(f"approximation tolerance must be positive, got {eps!r}")
        counts = []
        for c, u, v in zip(self._lipschitz, self._breaks, self._breaks[1:]):
            n = max(1, math.ceil(c * (v - u) / eps)) if c > 0 else 1
            counts.append(n)
        total = sum(counts)
        if total > MAX_APPROX_CELLS:
            scale = total / MAX_APPROX_CELLS
            raise ApproximationError(
                f"tolerance {eps!r} needs {total} cells (limit {MAX_APPROX_CELLS})",
                best_error=eps * scale)
        nodes: list[float] = [self._breaks[0]]
        node_values: list[float] = [self._node_values[0]]
        interior: list[float] = []
        err = 0.0
        for p, c, n, u, v, fv in zip(self._pieces, self._lipschitz, counts,
                                     self._breaks, self._breaks[1:],
                                     self._node_values[1:]):
            h = (v - u) / n
            err = max(err, 0.5 * c * h)
            for j in range(1, n):
                x = u + j * h
                interior.append(p(u + (j - 0.5) * h))
                nodes.append(x)
                node_values.append(p(x))
            interior.append(p(u + (n - 0.5) * h))
            nodes.append(v)
            node_values.append(fv)
        return StepApproximation(
            StepFunction(self._interval, nodes, node_values, interior), err)


class MonotoneFunction(RegulatedFunction):
    """Monotone function: a continuous monotone base plus finitely many
    explicit jumps, all pointing in the base's direction.

    Jumps are listed as ``(t, gap_before, gap_after)`` where
    ``gap_before = f(t) - f(t-)`` and ``gap_after = f(t+) - f(t)``.
    Approximants are certified by monotonicity alone: on any bisection
    cell the base stays between its endpoint values.
    """

    __slots__ = ("_base", "_jump_step", "_direction")

    def __init__(self, interval: Interval, base, jumps=()):
        super().__init__(interval)
        self._base = base
        jlist = sorted((float(t), float(pre), float(post)) for t, pre, post in jumps)
        plus, minus, endpoint = [], [], 0.0
        for t, pre, post in jlist:
            interval.require(t)
            if t == interval.a and pre != 0.0:
                raise DomainError("no left limit exists at the interval start")
            if t == interval.b and post != 0.0:
                raise DomainError("no right limit exists at the interval end")
            if t == interval.b:
                endpoint += pre
            elif pre != 0.0:
                minus.append((t, pre))
            if post != 0.0:
                plus.append((t, post))
        if plus or minus or endpoint:
            self._jump_step = step_from_jumps(
                interval, 0.0, plus_jumps=plus, minus_jumps=minus, endpoint=endpoint)
        else:
            self._jump_step = None

        span = base(interval.b) - base(interval.a)
        direction = math.copysign(1.0, span) if span else 0.0
        for t, pre, post in jlist:
            for gap in (pre, post):
                if gap == 0.0:
                    continue
                if direction == 0.0:
                    direction = math.copysign(1.0, gap)
                elif math.copysign(1.0, gap) != direction:
                    raise DomainError(
                        f"jump at {t!r} points against the monotone direction")
        self._direction = direction
        self._sanity_check_base()

    def _sanity_check_base(self) -> None:
        # Cheap guardrail, not certification: a handful of increments
        # must not contradict the claimed direction.
        a, b = self._interval.a, self._interval.b
        samples = [self._base(a + (b - a) * i / 8) for i in range(9)]
        for x, y in zip(samples, samples[1:]):
            if self._direction * (y - x) < 0:
                raise DomainError("base function violates its monotone direction")

    def value(self, t: float) -> float:
        self._interval.require(t)
        jump = self._jump_step.value(t) if self._jump_step is not None else 0.0
        return self._base(t) + jump

    def left_limit(self, t: float) -> float:
        if not self._interval.a < t <= self._interval.b:
            raise DomainError(f"left limit needs t in ({self._interval.a}, {self._interval.b}]")
        jump = self._jump_step.left_limit(t) if self._jump_step is not None else 0.0
        return self._base(t) + jump

    def right_limit(self, t: float) -> float:
        if not self._interval.a <= t < self._interval.b:
            raise DomainError(f"right limit needs t in [{self._interval.a}, {self._interval.b})")
        jump = self._jump_step.right_limit(t) if self._jump_step is not None else 0.0
        return self._base(t) + jump

    @property
    def variation_bound(self) -> float:
        # Monotone, so the variation is the total rise, exactly.
        return abs(self.value(self._interval.b) - self.value(self._interval.a))

    @property
    def sup_bound(self) -> float:
        return max(abs(self.value(self._interval.a)), abs(self.value(self._interval.b)))

    def jump_points(self) -> tuple[float, ...]:
        return self._jump_step.jump_points() if self._jump_step is not None else ()

    def approximate(self, eps: float) -> StepApproximation:
        """Bisect the continuous base until every cell's rise is at most
        2 * eps, take mid-range values, then add the jump part exactly.

        The cells' rises add up to the base's total rise, so a base that
        rises by more than 2 * eps * MAX_APPROX_CELLS is refused before
        any bisection.  The refusal names the cells eps needs, and its
        ``best_error``, rise / (2 * MAX_APPROX_CELLS), is the floor no
        approximant within the cell limit can beat."""
        if not eps > 0:
            raise DomainError(f"approximation tolerance must be positive, got {eps!r}")
        a, b = self._interval.a, self._interval.b
        base_a, base_b = self._base(a), self._base(b)
        rise = abs(base_b - base_a)
        needed = rise / (2.0 * eps)
        if needed > MAX_APPROX_CELLS:
            raise ApproximationError(
                f"tolerance {eps!r} needs at least {needed:.3g} cells "
                f"(limit {MAX_APPROX_CELLS})",
                best_error=rise / (2.0 * MAX_APPROX_CELLS))
        nodes = [a]
        node_values = [base_a]
        interior = []
        achieved = 0.0
        stack = [(a, b, base_a, base_b, 0)]
        while stack:
            u, v, fu, fv, depth = stack.pop()
            osc = abs(fv - fu)
            if osc <= 2.0 * eps:
                interior.append(0.5 * (fu + fv))
                nodes.append(v)
                node_values.append(fv)
                achieved = max(achieved, 0.5 * osc)
                if len(interior) > MAX_APPROX_CELLS:
                    raise ApproximationError(
                        f"tolerance {eps!r} exceeds the cell limit {MAX_APPROX_CELLS}",
                        best_error=max(achieved, 0.5 * osc))
                continue
            mid = 0.5 * (u + v)
            if depth >= 60 or not u < mid < v:
                raise ApproximationError(
                    f"tolerance {eps!r} unreachable near {u!r} "
                    "(discontinuity or resolution limit in the base)",
                    best_error=0.5 * osc)
            fm = self._base(mid)
            stack.append((mid, v, fm, fv, depth + 1))
            stack.append((u, mid, fu, fm, depth + 1))
        base_step = StepFunction(self._interval, nodes, node_values, interior)
        if self._jump_step is not None:
            base_step = base_step + self._jump_step
        return StepApproximation(base_step, achieved)
