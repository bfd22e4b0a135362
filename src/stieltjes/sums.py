"""Stieltjes approximating sums and their a-priori bounds.

Two sums are computed for a tagged partition P of [a, b]:

    riemann_sum:  S(P)  = sum_j f(xi_j) [g(a_j) - g(a_{j-1})]

    young_sum:    SY(P) = sum_j ( f(a_{j-1}) [g(a_{j-1}+) - g(a_{j-1})]
                                + f(xi_j)    [g(a_j-)   - g(a_{j-1}+)]
                                + f(a_j)     [g(a_j)    - g(a_j-)] )

The Young sum reads the integrator's one-sided limits so that jumps of
g at division nodes are weighted by f's values at those nodes rather
than at the tags.  Both sums add their terms with ``math.fsum``, so
each is the correctly rounded sum of its computed terms.

Each sum has one implementation, which takes several partitions of one
division: the node data (g's values and one-sided limits, f's values)
is read once and only the tag terms are computed per partition.  A
refinement level's probe sums share that read; ``riemann_sum`` and
``young_sum`` are its one-partition calls.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .core import RegulatedFunction
from .errors import DomainError
from .partitions import Division, Partition

BOUND_SLACK = 1e-12  # a bound check holds while |observed| <= bound + this


class SumValue(NamedTuple):
    value: float
    kind: str  # "S" or "SY"
    partition_size: int


def _check_pair(f: RegulatedFunction, g: RegulatedFunction,
                partitions: Sequence[Partition]) -> Division:
    """The one division all ``partitions`` share, on the pair's interval."""
    if f.interval != g.interval:
        raise DomainError("integrand and integrator live on different intervals")
    division = partitions[0].division
    if division.interval != f.interval:
        raise DomainError("partition interval does not match the functions")
    if any(p.division != division for p in partitions):
        raise DomainError("partitions of one batched sum must share one division")
    return division


def _riemann_values(f: RegulatedFunction, g: RegulatedFunction,
                    partitions: Sequence[Partition]) -> list[float]:
    """S(P) for each of ``partitions`` (one division): g read once per node."""
    pts = _check_pair(f, g, partitions).points
    gvals = [g.value(x) for x in pts]
    dg = [r - l for l, r in zip(gvals, gvals[1:])]
    return [math.fsum([f.value(t) * d for t, d in zip(p.tags, dg)]) for p in partitions]


def _young_values(f: RegulatedFunction, g: RegulatedFunction,
                  partitions: Sequence[Partition]) -> list[float]:
    """SY(P) for each of ``partitions`` (one division): g's values and
    one-sided limits and f's values read once per node.  Each sum sees
    the terms c_j, tag term, d_j of cell j, in cell order."""
    pts = _check_pair(f, g, partitions).points
    gvals = [g.value(x) for x in pts]
    grights = [g.right_limit(x) for x in pts[:-1]]   # alpha_0 .. alpha_{nu-1}
    glefts = [g.left_limit(x) for x in pts[1:]]      # alpha_1 .. alpha_nu
    fvals = [f.value(x) for x in pts]
    inner = [l - r for r, l in zip(grights, glefts)]
    # c_j and d_j depend on the nodes alone; each partition fills in the
    # tag terms between them.
    frame = [0.0] * (3 * len(inner))
    frame[0::3] = [fx * (r - gx) for fx, r, gx in zip(fvals, grights, gvals)]
    frame[2::3] = [fx * (gx - l) for fx, gx, l in zip(fvals[1:], gvals[1:], glefts)]
    sums = []
    for p in partitions:
        terms = frame.copy()
        terms[1::3] = [f.value(t) * w for t, w in zip(p.tags, inner)]
        sums.append(math.fsum(terms))
    return sums


def riemann_sum(f: RegulatedFunction, g: RegulatedFunction, partition: Partition) -> SumValue:
    """S(P): tag values of f against increments of g."""
    return SumValue(_riemann_values(f, g, (partition,))[0], "S", partition.size)


def young_sum(f: RegulatedFunction, g: RegulatedFunction, partition: Partition) -> SumValue:
    """SY(P): jump-aware sum using g's one-sided limits at the nodes."""
    return SumValue(_young_values(f, g, (partition,))[0], "SY", partition.size)


class BoundCheck(NamedTuple):
    """One inequality: |observed| <= bound (within ``BOUND_SLACK``).

    ``holds`` is None when the needed norm is unknown and the check was
    skipped.
    """

    name: str
    observed: float
    bound: float | None
    slack: float | None
    holds: bool | None


class BoundsReport(tuple):
    """The BoundChecks of one report, in order."""

    __slots__ = ()

    @property
    def all_hold(self) -> bool:
        """True when no evaluated check failed (skipped checks pass)."""
        return all(c.holds is not False for c in self)


def _make_check(name: str, observed: float, bound: float | None) -> BoundCheck:
    if bound is None:
        return BoundCheck(name, observed, None, None, None)
    margin = bound - abs(observed)
    return BoundCheck(name, observed, bound, margin, margin >= -BOUND_SLACK)


def check_sum_bounds(f: RegulatedFunction, g: RegulatedFunction,
                     partition: Partition) -> BoundsReport:
    """The four a-priori sum bounds:

        |S|, |SY| <= sup|f| * var g
        |S|, |SY| <= (|f(a)| + |f(b)| + var f) * sup|g|

    Bounds whose norms are unavailable are reported as skipped.
    """
    s = riemann_sum(f, g, partition).value
    sy = young_sum(f, g, partition).value
    a, b = f.interval.a, f.interval.b
    var_f, var_g = f.variation_bound, g.variation_bound
    sup_var = None if var_g is None else f.sup_bound * var_g
    bv_sup = None if var_f is None else \
        (abs(f.value(a)) + abs(f.value(b)) + var_f) * g.sup_bound
    return BoundsReport((
        _make_check("riemann_sup_var", s, sup_var),
        _make_check("riemann_bv_sup", s, bv_sup),
        _make_check("young_sup_var", sy, sup_var),
        _make_check("young_bv_sup", sy, bv_sup),
    ))
