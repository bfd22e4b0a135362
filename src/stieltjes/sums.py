"""Stieltjes approximating sums and their a-priori bounds.

Two sums are computed for a tagged partition P of [a, b]:

    riemann_sum:  S(P)  = sum_j f(xi_j) [g(a_j) - g(a_{j-1})]

    young_sum:    SY(P) = sum_j ( f(a_{j-1}) [g(a_{j-1}+) - g(a_{j-1})]
                                + f(xi_j)    [g(a_j-)   - g(a_{j-1}+)]
                                + f(a_j)     [g(a_j)    - g(a_j-)] )

The Young sum reads the integrator's one-sided limits so that jumps of
g at division nodes are weighted by f's values at those nodes rather
than at the tags.  Both sums add their terms with ``math.fsum``, so
each is the correctly rounded sum of its computed terms; a sum past the
float range is refused with a StieltjesError.

Each sum has one implementation, which takes several probes of one
division: the node data (g's values and one-sided limits, f's values)
is read once and only the tag terms are computed per probe.  A probe
is a ``Partition`` or a ``partitions.SeededTags``, which draws its tags
only for the cells it is asked for.  The sum first finds the live
cells, those whose g factor below is nonzero, and then asks each probe
for the tags of those cells alone.  A refinement level's probe sums
share that read; ``riemann_sum`` and ``young_sum`` are its
one-partition calls.

A term whose g factor is exactly zero is left out: S(P) reads f only at
the tags of cells with g(a_j) != g(a_{j-1}), and SY(P) only at the tags
of cells with g(a_j-) != g(a_{j-1}+), in every partition.  With f finite,
as ``RegulatedFunction`` requires, such a term is +-0.0 and adds nothing
to ``math.fsum``, whose result is the correctly rounded sum of its terms
in any order, short of overflow; a sum of no terms, or of zeros only, is
+0.0 either way.
Against a step g whose jumps are all nodes, no Young tag term is left.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple, Sequence, Union

from .core import RegulatedFunction
from .errors import DomainError, finite_fsum
from .partitions import Division, Partition, SeededTags
from .regulated import UNIT_ROUNDOFF

BOUND_SLACK = 1e-12  # the least rounding allowance of a bound check
# What a batched sum reads tags from: a division and its tags at given cells.
Probe = Union[Partition, SeededTags]


class SumValue(NamedTuple):
    value: float
    kind: str  # "S" or "SY"
    partition_size: int


def _check_pair(f: RegulatedFunction, g: RegulatedFunction, probes: Sequence[Probe]) -> Division:
    """The one division all ``probes`` share, on the pair's interval."""
    if f.interval != g.interval:
        raise DomainError("integrand and integrator live on different intervals")
    division = probes[0].division
    if division.interval != f.interval:
        raise DomainError("partition interval does not match the functions")
    if any(p.division != division for p in probes):
        raise DomainError("partitions of one batched sum must share one division")
    return division


def _tag_sums(f: RegulatedFunction, probes: Sequence[Probe], frame: list[float],
              weights: list[float], what: str) -> list[float]:
    """For each probe, the sum of ``frame`` and f(xi_j) * weights[j] over
    the live cells j, those whose weight is nonzero, in cell order.  A
    probe is asked for the tags xi_j of the live cells only."""
    cells = [j for j, w in enumerate(weights) if w]
    live = [weights[j] for j in cells]
    fv = f.value
    return [finite_fsum(frame + [fv(t) * w for t, w in zip(p.tags_at(cells), live)], what)
            for p in probes]


def _riemann_values(f: RegulatedFunction, g: RegulatedFunction,
                    probes: Sequence[Probe]) -> list[float]:
    """S(P) for each of ``probes`` (one division): g read once per node,
    f only at the tags of cells where g's increment is nonzero."""
    gvals = [g.value(x) for x in _check_pair(f, g, probes).points]
    return _tag_sums(f, probes, [], list(map(operator.sub, gvals[1:], gvals)),
                     "the Riemann sum")


def _young_values(f: RegulatedFunction, g: RegulatedFunction,
                  probes: Sequence[Probe]) -> list[float]:
    """SY(P) for each of ``probes`` (one division): g's values and
    one-sided limits and f's values read once per node, f at the tags
    of cells where g(a_j-) - g(a_{j-1}+) is nonzero.  Each sum sees the
    nonzero node terms c_j and d_j in cell order, then the nonzero tag
    terms in cell order."""
    pts = _check_pair(f, g, probes).points
    gvals = [g.value(x) for x in pts]
    grights = [g.right_limit(x) for x in pts[:-1]]   # alpha_0 .. alpha_{nu-1}
    glefts = [g.left_limit(x) for x in pts[1:]]      # alpha_1 .. alpha_nu
    fvals = [f.value(x) for x in pts]
    # c_j and d_j depend on the nodes alone; each probe adds its tag
    # terms to them.
    frame = [0.0] * (2 * len(grights))
    frame[0::2] = [fx * (r - gx) for fx, r, gx in zip(fvals, grights, gvals)]
    frame[1::2] = [fx * (gx - l) for fx, gx, l in zip(fvals[1:], gvals[1:], glefts)]
    return _tag_sums(f, probes, [c for c in frame if c],
                     list(map(operator.sub, glefts, grights)), "the Young sum")


def riemann_sum(f: RegulatedFunction, g: RegulatedFunction, partition: Partition) -> SumValue:
    """S(P): tag values of f against increments of g."""
    return SumValue(_riemann_values(f, g, (partition,))[0], "S", partition.size)


def young_sum(f: RegulatedFunction, g: RegulatedFunction, partition: Partition) -> SumValue:
    """SY(P): jump-aware sum using g's one-sided limits at the nodes."""
    return SumValue(_young_values(f, g, (partition,))[0], "SY", partition.size)


class BoundCheck(NamedTuple):
    """One inequality: |observed| <= bound, within the rounding allowance
    of ``_norm_checks``; ``slack`` is bound - |observed|.

    ``holds`` is None when the needed norm is unknown, or the bound
    overflowed, and the check was skipped.
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


def _rounding_slack(n: int, scale: float, extra: float) -> float:
    """gamma_n * scale + extra, the most rounding can move a computed
    value past an exact one, with gamma_n = n u / (1 - n u); never less
    than BOUND_SLACK, which is also what a scale or extra past the float
    range gets.  The callers assume that each value they read is within
    a few ulps of its magnitude: ``math.sin`` at large arguments can miss
    by more."""
    slack = n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF) * scale + extra
    return slack if BOUND_SLACK < slack < math.inf else BOUND_SLACK


def _make_check(name: str, observed: float, bound: float | None, cells: int,
                reads: float) -> BoundCheck:
    if bound is None or not math.isfinite(bound):
        return BoundCheck(name, observed, None, None, None)
    margin = bound - abs(observed)
    return BoundCheck(name, observed, bound, margin,
                      margin >= -_rounding_slack(cells + 3, bound, reads))


def _norm_checks(f: RegulatedFunction, g: RegulatedFunction,
                 observed: Sequence[tuple[str, float]], cells: int,
                 error_bound: float = -0.0) -> BoundsReport:
    """For each (name, value) of ``observed``, the checks ``name_sup_var``
    and ``name_bv_sup`` of |value| against the two norm products, each
    plus ``error_bound`` (by default -0.0, which leaves every float as
    it is).  A bound whose norm is unknown, or which overflowed, is skipped.

    A check holds within the rounding of a value summed over ``cells``
    cells and of its bound: gamma_(N+3) times the bound for N cells, plus
    4 u sup|f| sup|g| for each of the 2(N + 1) values the differences read."""
    a, b = f.interval.a, f.interval.b
    var_f, var_g = f.variation_bound, g.variation_bound
    sup_var = None if var_g is None else f.sup_bound * var_g + error_bound
    bv_sup = None if var_f is None else \
        (abs(f.value(a)) + abs(f.value(b)) + var_f) * g.sup_bound + error_bound
    reads = 8.0 * (cells + 1) * UNIT_ROUNDOFF * f.sup_bound * g.sup_bound
    return BoundsReport(check for name, value in observed
                        for check in (_make_check(f"{name}_sup_var", value, sup_var, cells, reads),
                                      _make_check(f"{name}_bv_sup", value, bv_sup, cells, reads)))


def check_sum_bounds(f: RegulatedFunction, g: RegulatedFunction,
                     partition: Partition) -> BoundsReport:
    """The four a-priori sum bounds:

        |S|, |SY| <= sup|f| * var g
        |S|, |SY| <= (|f(a)| + |f(b)| + var f) * sup|g|

    each within the rounding of the sums and the bound.  Bounds whose
    norms are unavailable are reported as skipped.
    """
    return _norm_checks(f, g, (("riemann", riemann_sum(f, g, partition).value),
                               ("young", young_sum(f, g, partition).value)), partition.size)
