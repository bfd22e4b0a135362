"""Finite step functions with exact evaluation, limits, variation and
sums, and their indicator-sum decomposition: the weights of the
five-shape table of elementary integrals, which the tests use as the
reference for the step-pair node walk.

A step function is stored by its division nodes
``sigma_0 < ... < sigma_m`` (the endpoints included), one value per
node and one value per open piece ``(sigma_{k-1}, sigma_k)``.  All node
lookups compare floats exactly: nodes are data, not approximations.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from typing import NamedTuple

from .core import Interval, RegulatedFunction, StepApproximation, checked_make
from .errors import DomainError


class StepFunction(RegulatedFunction):
    """Piecewise-constant function with finitely many pieces.

    Construction merges every interior node whose value agrees with
    both neighbouring pieces, so equal functions get equal
    representations and ``==`` is decidable.
    """

    __slots__ = ("_nodes", "_node_values", "_interior_values")

    def __init__(self, interval: Interval, nodes, node_values, interior_values):
        ns = interval.check_division(nodes, "nodes")
        cs = [float(x) for x in node_values]
        ds = [float(x) for x in interior_values]
        if len(cs) != len(ns) or len(ds) != len(ns) - 1:
            raise DomainError(
                f"length mismatch: {len(ns)} nodes need {len(ns)} node values "
                f"and {len(ns) - 1} interior values, got {len(cs)} and {len(ds)}")
        for x in cs + ds:
            if not math.isfinite(x):
                raise DomainError("step function values must be finite")
        # Canonical form: drop interior nodes invisible to the function.
        # A kept node's right piece is the one it had before the merge.
        drop = {k for k in range(1, len(ns) - 1) if cs[k] == ds[k - 1] == ds[k]}
        if drop:
            keep = [k for k in range(len(ns)) if k not in drop]
            ns = [ns[k] for k in keep]
            cs = [cs[k] for k in keep]
            ds = [ds[k] for k in keep[:-1]]
        super().__init__(interval)
        self._nodes = tuple(ns)
        self._node_values = tuple(cs)
        self._interior_values = tuple(ds)

    @classmethod
    def constant(cls, interval: Interval, value: float) -> "StepFunction":
        return cls(interval, (interval.a, interval.b), (value, value), (value,))

    # -- representation -------------------------------------------------

    @property
    def nodes(self) -> tuple[float, ...]:
        return self._nodes

    @property
    def node_values(self) -> tuple[float, ...]:
        return self._node_values

    @property
    def interior_values(self) -> tuple[float, ...]:
        return self._interior_values

    @property
    def piece_count(self) -> int:
        return len(self._interior_values)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (self._interval == other._interval
                and self._nodes == other._nodes
                and self._node_values == other._node_values
                and self._interior_values == other._interior_values)

    def __hash__(self):
        return hash((self._interval, self._nodes, self._node_values, self._interior_values))

    def __repr__(self):
        return (f"StepFunction({self._interval!r}, nodes={self._nodes!r}, "
                f"node_values={self._node_values!r}, interior_values={self._interior_values!r})")

    # -- evaluation ------------------------------------------------------

    def value(self, t: float) -> float:
        self._interval.require(t)
        i = bisect_left(self._nodes, t)
        if i < len(self._nodes) and self._nodes[i] == t:
            return self._node_values[i]
        return self._interior_values[i - 1]

    def left_limit(self, t: float) -> float:
        if not self._interval.a < t <= self._interval.b:
            raise DomainError(f"left limit needs t in ({self._interval.a}, {self._interval.b}]")
        # Node hit and interior hit both resolve to the piece left of t.
        i = bisect_left(self._nodes, t)
        return self._interior_values[i - 1]

    def right_limit(self, t: float) -> float:
        if not self._interval.a <= t < self._interval.b:
            raise DomainError(f"right limit needs t in [{self._interval.a}, {self._interval.b})")
        i = bisect_left(self._nodes, t)
        if self._nodes[i] == t:
            return self._interior_values[i]
        return self._interior_values[i - 1]

    # -- exact norms -----------------------------------------------------

    @property
    def variation_bound(self) -> float:
        """Total variation, exact: node-vs-piece oscillations summed."""
        cs, ds = self._node_values, self._interior_values
        return math.fsum(
            abs(ds[k] - cs[k]) + abs(cs[k + 1] - ds[k]) for k in range(len(ds)))

    @property
    def sup_bound(self) -> float:
        """sup |f|, exact."""
        return max(max(abs(v) for v in self._node_values),
                   max(abs(v) for v in self._interior_values))

    def jump_points(self) -> tuple[float, ...]:
        out = []
        m = self.piece_count
        for k, s in enumerate(self._nodes):
            left = k > 0 and self._node_values[k] != self._interior_values[k - 1]
            right = k < m and self._interior_values[k] != self._node_values[k]
            if left or right:
                out.append(s)
        return tuple(out)

    def approximate(self, eps: float) -> StepApproximation:
        if not eps > 0:
            raise DomainError(f"approximation tolerance must be positive, got {eps!r}")
        return StepApproximation(self, 0.0)

    # -- decomposition ----------------------------------------------------

    def decompose(self) -> "Decomposition":
        """Write f as

            c + sum_k c_k chi_(sigma_k, b] + sum_k d_k chi_[sigma_k, b]
              + d chi_[b]

        with c_k the right jumps and d_k the left jumps at the nodes.
        Zero-weight entries are dropped.
        """
        ns, cs, ds = self._nodes, self._node_values, self._interior_values
        m = self.piece_count
        plus = []
        for k in range(m):  # chi_(sigma_k, b], sigma_0 = a allowed
            w = ds[k] - cs[k]
            if w != 0.0:
                plus.append((ns[k], w))
        minus = []
        for k in range(1, m):  # chi_[sigma_k, b], interior nodes only
            w = cs[k] - ds[k - 1]
            if w != 0.0:
                minus.append((ns[k], w))
        return Decomposition(
            interval=self._interval,
            base=cs[0],
            plus_jumps=tuple(plus),
            minus_jumps=tuple(minus),
            endpoint=cs[m] - ds[m - 1],
        )

    # -- algebra -----------------------------------------------------------

    def _combine(self, other, op):
        """``self op other`` by one walk over the union of both node
        lists; a scalar operand is the constant step function."""
        if isinstance(other, (int, float)):
            other = StepFunction.constant(self._interval, float(other))
        if not isinstance(other, StepFunction):
            return NotImplemented
        if other._interval != self._interval:
            raise DomainError("step functions live on different intervals")
        xs, xc, xd = self._nodes, self._node_values, self._interior_values
        ys, yc, yd = other._nodes, other._node_values, other._interior_values
        nodes, at, on = [], [], []
        i = j = 0
        while True:
            # A node of one side lies inside a piece of the other unless
            # both sides have it; both lists start at a and end at b.
            x, y = xs[i], ys[j]
            nodes.append(x if x <= y else y)
            at.append(op(xc[i] if x <= y else xd[i - 1],
                         yc[j] if y <= x else yd[j - 1]))
            if x <= y:
                i += 1
            if y <= x:
                j += 1
            if i == len(xs):
                break
            on.append(op(xd[i - 1], yd[j - 1]))
        return StepFunction(self._interval, nodes, at, on)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return StepFunction(
            self._interval, self._nodes,
            [-v for v in self._node_values],
            [-v for v in self._interior_values])

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        lam = float(scalar)
        return StepFunction(
            self._interval, self._nodes,
            [lam * v for v in self._node_values],
            [lam * v for v in self._interior_values])

    __rmul__ = __mul__


def indicator(interval: Interval, lo: float, hi: float, *,
              closed_left: bool, closed_right: bool) -> StepFunction:
    """Indicator of the sub-interval from lo to hi with the requested
    endpoint inclusions; ``lo == hi`` gives the single-point indicator
    (both ends must then be closed)."""
    if not (interval.a <= lo <= hi <= interval.b):
        raise DomainError(
            f"indicator bounds [{lo}, {hi}] outside [{interval.a}, {interval.b}]")
    if lo == hi and not (closed_left and closed_right):
        raise DomainError("an open or half-open single-point indicator is empty")

    def hit(t: float) -> bool:
        left_ok = lo < t or (closed_left and t == lo)
        right_ok = t < hi or (closed_right and t == hi)
        return left_ok and right_ok

    nodes = sorted({interval.a, interval.b, lo, hi})
    node_values = [1.0 if hit(x) else 0.0 for x in nodes]
    interior = []
    for x, y in zip(nodes, nodes[1:]):
        # The open piece (x, y) never straddles lo or hi.
        interior.append(1.0 if (x >= lo and y <= hi) else 0.0)
    return StepFunction(interval, nodes, node_values, interior)


class Decomposition(NamedTuple("Decomposition", [
        ("interval", Interval), ("base", float),
        ("plus_jumps", tuple[tuple[float, float], ...]),
        ("minus_jumps", tuple[tuple[float, float], ...]), ("endpoint", float)])):
    """Weights of the indicator components of a step function.

    ``plus_jumps`` lists ``(sigma, w)`` for ``w * chi_(sigma, b]``
    (right jumps; sigma = a allowed), ``minus_jumps`` lists weights on
    ``chi_[sigma, b]`` (left jumps; interior sigma only), ``endpoint``
    weighs ``chi_[b]``.
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, interval: Interval, base: float, plus_jumps, minus_jumps,
                endpoint: float) -> "Decomposition":
        a, b = interval.a, interval.b
        for s, _ in plus_jumps:
            if not a <= s < b:
                raise DomainError(f"chi_(sigma, b] location {s!r} outside [{a}, {b})")
        for s, _ in minus_jumps:
            if not a < s < b:
                raise DomainError(f"chi_[sigma, b] location {s!r} outside ({a}, {b})")
        return super().__new__(cls, interval, base, plus_jumps, minus_jumps, endpoint)

    def value(self, t: float) -> float:
        self.interval.require(t)
        acc = self.base
        for s, w in self.plus_jumps:
            if t > s:
                acc += w
        for s, w in self.minus_jumps:
            if t >= s:
                acc += w
        if t == self.interval.b:
            acc += self.endpoint
        return acc

    def to_step(self) -> StepFunction:
        """One walk over the sorted jump locations.  The running sum is
        kept exactly, in units of 2**-1074 (every finite float is a whole
        number of them), and rounded once per value, so each value is
        the correctly rounded sum of the weights it collects."""
        a, b = self.interval.a, self.interval.b
        weights = {a: [0, 0], b: [0, 0]}  # location -> [plus, minus]
        try:
            for k, jumps in enumerate((self.plus_jumps, self.minus_jumps)):
                for s, w in jumps:
                    weights.setdefault(s, [0, 0])[k] += _scaled(w)
            nodes = sorted(weights)
            acc, at, on = _scaled(self.base), [], []
            for x in nodes:
                plus, minus = weights[x]
                acc += minus
                at.append((acc + _scaled(self.endpoint) if x == b else acc) / _SCALE)
                acc += plus
                on.append(acc / _SCALE)
        except (OverflowError, ValueError) as exc:  # a non-finite weight or value
            raise DomainError("step function values must be finite") from exc
        return StepFunction(self.interval, nodes, at, on[:-1])


_SCALE = 1 << 1074


def _scaled(x: float) -> int:
    # x * 2**1074 exactly; the ratio's denominator is a power of two.
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def step_from_jumps(interval: Interval, base: float = 0.0,
                    plus_jumps=(), minus_jumps=(), endpoint: float = 0.0) -> StepFunction:
    """Build the step function with the given indicator weights."""
    return Decomposition(
        interval=interval,
        base=float(base),
        plus_jumps=tuple((float(s), float(w)) for s, w in plus_jumps),
        minus_jumps=tuple((float(s), float(w)) for s, w in minus_jumps),
        endpoint=float(endpoint),
    ).to_step()
