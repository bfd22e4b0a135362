"""Finite step functions with exact evaluation, limits, variation and
sums, and their indicator-sum decomposition: the weights of the
five-shape table of elementary integrals, which the tests use as the
reference for the step-pair node walk.

A step function is stored by its division nodes
``sigma_0 < ... < sigma_m`` (the endpoints included), one value per
node and one value per open piece ``(sigma_{k-1}, sigma_k)``.  All node
lookups compare floats exactly: nodes are data, not approximations.

The stored form is canonical: an interior node whose value equals both
pieces beside it is invisible to the function and is dropped, and the
merged piece keeps the value of the piece before it (the two can differ
only in the sign of a zero).  So equal functions get equal
representations and ``==`` is decidable.  The public constructor
applies this rule after checking its input; ``+`` and ``-`` apply it
inside their merge walk; a scalar product applies it only where scaling
made a node value equal to the piece before it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from typing import NamedTuple

from .core import Interval, RegulatedFunction, StepApproximation, as_floats, checked_make
from .errors import DomainError, saturated


class StepFunction(RegulatedFunction):
    """Piecewise-constant function with finitely many pieces, stored in
    the canonical form of the module docstring."""

    __slots__ = ("_nodes", "_node_values", "_interior_values")

    def __init__(self, interval: Interval, nodes, node_values, interior_values):
        ns = interval.check_division(nodes, "nodes")
        cs = as_floats(node_values, "step function values")
        ds = as_floats(interior_values, "step function values")
        if len(cs) != len(ns) or len(ds) != len(ns) - 1:
            raise DomainError(
                f"length mismatch: {len(ns)} nodes need {len(ns)} node values "
                f"and {len(ns) - 1} interior values, got {len(cs)} and {len(ds)}")
        _check_finite(cs, ds)
        super().__init__(interval)
        self._nodes, self._node_values, self._interior_values = _drop_silent(ns, cs, ds)

    @classmethod
    def _trusted(cls, interval: Interval, nodes, node_values, interior_values) -> "StepFunction":
        """A step function from lists already in canonical form on a
        division of ``interval``; only finiteness is checked."""
        _check_finite(node_values, interior_values)
        self = cls.__new__(cls)
        RegulatedFunction.__init__(self, interval)
        self._nodes = tuple(nodes)
        self._node_values = tuple(node_values)
        self._interior_values = tuple(interior_values)
        return self

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
        if self._nodes[i] == t:
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

    def _limits_at(self, nodes) -> tuple[list, list, list]:
        """``RegulatedFunction._limits_at`` (same precondition) by the
        per-node merge walk over both node lists: a node inside a piece
        reads the piece's value three times; a shared node reads its own
        value between the two pieces beside it.  Step nodes may be as
        dense as the query nodes, where one bisection per node would
        cost more than the merge."""
        xs, cs, ds = self._nodes, self._node_values, self._interior_values
        values, hits = [], []
        i = 0
        for k, t in enumerate(nodes):
            while xs[i] < t:
                i += 1
            if xs[i] == t:
                values.append(cs[i])
                hits.append((k, i))
            else:
                values.append(ds[i - 1])
        before = cs[:1] + ds  # f(a-) := f(a)
        after = ds + cs[-1:]  # f(b+) := f(b)
        lefts, rights = values[:], values[:]
        for k, i in hits:
            lefts[k] = before[i]
            rights[k] = after[i]
        return lefts, values, rights

    # -- exact norms -----------------------------------------------------

    @property
    def variation_bound(self) -> float:
        """Total variation, exact: node-vs-piece oscillations summed."""
        cs, ds = self._node_values, self._interior_values
        return saturated(math.fsum, (
            abs(ds[k] - cs[k]) + abs(cs[k + 1] - ds[k]) for k in range(len(ds))))

    @property
    def sup_bound(self) -> float:
        """sup |f|, exact."""
        return max(max(abs(v) for v in self._node_values),
                   max(abs(v) for v in self._interior_values))

    def jump_points(self) -> tuple[float, ...]:
        # A node is a jump point where a limit beside it differs from its
        # value, with f(a-) := f(a) and f(b+) := f(b).
        cs, ds = self._node_values, self._interior_values
        return tuple(x for x, left, c, right in zip(self._nodes, cs[:1] + ds, cs, ds + cs[-1:])
                     if left != c or right != c)

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
        """``self op other`` by ``_merged``; a scalar operand is walked as
        the constant with nodes a and b."""
        if isinstance(other, (int, float)):
            s = as_floats((other,), "step function values")[0]
            ys, yc, yd = (self._interval.a, self._interval.b), (s, s), (s,)
        elif isinstance(other, StepFunction):
            if other._interval != self._interval:
                raise DomainError("step functions live on different intervals")
            ys, yc, yd = other._nodes, other._node_values, other._interior_values
        else:
            return NotImplemented
        return _merged(self._interval, (self._nodes, self._node_values, self._interior_values),
                       (ys, yc, yd), op)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return self * -1.0

    def __mul__(self, scalar):
        """``scalar * self`` on this function's nodes, which stay a
        division.  Rounding can make pieces agree (and 0 * f makes them
        all agree), so the canonical rule is applied again, but only
        when some node value now equals the piece before it."""
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        lam = as_floats((scalar,), "a step function's scalar factor")[0]
        ns = self._nodes
        cs = [lam * v for v in self._node_values]
        ds = [lam * v for v in self._interior_values]
        if any(map(operator.eq, cs[1:-1], ds)):
            ns, cs, ds = _drop_silent(ns, cs, ds)
        return StepFunction._trusted(self._interval, ns, cs, ds)

    __rmul__ = __mul__


def _merged(interval: Interval, first, second, op) -> StepFunction:
    """``first op second`` for step functions given by their lists (nodes,
    node values, piece values) on divisions of ``interval``: one merge
    walk over the union of both node lists, a division, which applies the
    canonical rule at each node, so ``first`` need not be canonical (a
    monotone approximant's base cells).  Only finiteness is left to check."""
    (xs, xc, xd), (ys, yc, yd) = first, second
    # A node of one side lies inside a piece of the other unless both
    # sides have it; both lists start at a and end at b.  ``piece`` is
    # the value right of the last node kept.
    nodes, at, on = [xs[0]], [op(xc[0], yc[0])], []
    piece = op(xd[0], yd[0])
    i = j = 1
    end = len(xs) - 1
    while True:
        x, y = xs[i], ys[j]
        if x < y:
            v, w = op(xc[i], yd[j - 1]), op(xd[i], yd[j - 1])
            i += 1
        elif y < x:
            x, v, w = y, op(xd[i - 1], yc[j]), op(xd[i - 1], yd[j])
            j += 1
        elif i == end:  # x == y == b
            break
        else:
            v, w = op(xc[i], yc[j]), op(xd[i], yd[j])
            i += 1
            j += 1
        if v == piece == w:
            continue
        nodes.append(x)
        at.append(v)
        on.append(piece)
        piece = w
    nodes.append(x)
    at.append(op(xc[i], yc[j]))
    on.append(piece)
    return StepFunction._trusted(interval, nodes, at, on)


def _check_finite(node_values, interior_values) -> None:
    # An inf or nan value makes a float sum inf or nan, so a finite total
    # clears every value at a fraction of a per-value isfinite; only an
    # inf or nan total, an overflow of finite values included, is checked
    # value by value.
    if math.isfinite(sum(node_values) + sum(interior_values)):
        return
    if not (all(map(math.isfinite, node_values)) and all(map(math.isfinite, interior_values))):
        raise DomainError("step function values must be finite")


def _drop_silent(ns, cs, ds) -> tuple[tuple, tuple, tuple]:
    """The lists of a step function in the module docstring's canonical
    form."""
    drop = {k for k, c, left, right in zip(range(1, len(ns) - 1), cs[1:], ds, ds[1:])
            if c == left == right}
    if drop:
        keep = [k for k in range(len(ns)) if k not in drop]
        ns = [ns[k] for k in keep]
        cs = [cs[k] for k in keep]
        ds = [ds[k] for k in keep[:-1]]
    return tuple(ns), tuple(cs), tuple(ds)


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
    base, endpoint = as_floats((base, endpoint), "step function values")
    return Decomposition(
        interval=interval,
        base=base,
        plus_jumps=tuple(tuple(as_floats((s, w), "jumps")) for s, w in plus_jumps),
        minus_jumps=tuple(tuple(as_floats((s, w), "jumps")) for s, w in minus_jumps),
        endpoint=endpoint,
    ).to_step()
