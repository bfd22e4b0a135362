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
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import RegulatedFunction
from .errors import DomainError
from .partitions import Partition

BOUND_SLACK = 1e-12  # a bound check holds while |observed| <= bound + this


class SumValue(NamedTuple):
    value: float
    kind: str  # "S" or "SY"
    partition_size: int


def _check_pair(f: RegulatedFunction, g: RegulatedFunction, partition: Partition) -> None:
    if f.interval != g.interval:
        raise DomainError("integrand and integrator live on different intervals")
    if partition.division.interval != f.interval:
        raise DomainError("partition interval does not match the functions")


def riemann_sum(f: RegulatedFunction, g: RegulatedFunction, partition: Partition) -> SumValue:
    """S(P): tag values of f against increments of g."""
    _check_pair(f, g, partition)
    pts = partition.division.points
    gvals = [g.value(x) for x in pts]
    value = math.fsum(f.value(t) * (gvals[j + 1] - gvals[j])
                      for j, t in enumerate(partition.tags))
    return SumValue(value, "S", partition.size)


def young_sum(f: RegulatedFunction, g: RegulatedFunction, partition: Partition) -> SumValue:
    """SY(P): jump-aware sum using g's one-sided limits at the nodes."""
    _check_pair(f, g, partition)
    pts = partition.division.points
    nu = partition.size
    gvals = [g.value(x) for x in pts]
    grights = [g.right_limit(pts[j]) for j in range(nu)]          # alpha_0 .. alpha_{nu-1}
    glefts = [g.left_limit(pts[j]) for j in range(1, nu + 1)]     # alpha_1 .. alpha_nu
    fvals = [f.value(x) for x in pts]
    terms = []
    for j, t in enumerate(partition.tags):
        terms.append(fvals[j] * (grights[j] - gvals[j]))
        terms.append(f.value(t) * (glefts[j] - grights[j]))
        terms.append(fvals[j + 1] * (gvals[j + 1] - glefts[j]))
    return SumValue(math.fsum(terms), "SY", partition.size)


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
