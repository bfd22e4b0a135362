"""Definitional cross-checks: refinement and gauge limits recomputed
from raw sums must reproduce the closed forms, and the two oracles must
reproduce each other.
"""

import math
import random

import pytest

from conftest import rand_step
from stieltjes import (Affine, DomainError, ElementaryIntegrand,
                       IndicatorKind, IntegralKind, Interval,
                       PiecewiseLipschitz, StepFunction, build_pair,
                       elementary_forward, indicator, integrate,
                       integrate_step_pair, oracle_gauge, oracle_refinement,
                       parse_spec)
from stieltjes import oracle

IV = Interval(0.0, 1.0)
K, Y, D = IntegralKind.KURZWEIL, IntegralKind.YOUNG, IntegralKind.DUSHNIK
IDENT = PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Affine(1.0),))


def chi(closed: bool) -> StepFunction:
    return indicator(IV, 0.5, 1.0, closed_left=closed, closed_right=True)


def test_refinement_rejects_kurzweil():
    with pytest.raises(DomainError):
        oracle_refinement(chi(True), IDENT, K)


def test_refinement_matches_elementary_table():
    cases = [
        (ElementaryIntegrand(IndicatorKind.OPEN_TAIL, 0.5), IDENT),
        (ElementaryIntegrand(IndicatorKind.CLOSED_TAIL, 0.5), chi(True)),
        (ElementaryIntegrand(IndicatorKind.OPEN_FROM_A), chi(False)),
        (ElementaryIntegrand(IndicatorKind.POINT_B), chi(True)),
        (ElementaryIntegrand(IndicatorKind.ONE), chi(False)),
    ]
    for e, g in cases:
        f = e.as_step(IV)
        for kind in (Y, D):
            want = elementary_forward(e, g, kind).value
            rep = oracle_refinement(f, g, kind, tol=1e-10)
            assert rep.converged and rep.kind is kind
            assert abs(rep.value - want) <= 1e-9


def test_gauge_matches_elementary_table():
    cases = [
        (ElementaryIntegrand(IndicatorKind.OPEN_TAIL, 0.5), IDENT),
        (ElementaryIntegrand(IndicatorKind.CLOSED_TAIL, 0.5), chi(True)),
        (ElementaryIntegrand(IndicatorKind.POINT_B), chi(True)),
    ]
    for e, g in cases:
        want = elementary_forward(e, g, K).value
        rep = oracle_gauge(e.as_step(IV), g, tol=1e-10)
        assert rep.converged and rep.kind is K
        assert abs(rep.value - want) <= 1e-9


def test_oracles_separate_dushnik_from_young():
    f, g = chi(False), chi(False)
    assert abs(oracle_refinement(f, g, Y, tol=1e-10).value - 0.0) <= 1e-9
    assert abs(oracle_refinement(f, g, D, tol=1e-10).value - 1.0) <= 1e-9


def test_oracles_on_the_classical_integral():
    rep = oracle_refinement(IDENT, IDENT, D, tol=1e-4)
    assert rep.converged and abs(rep.value - 0.5) <= 1e-3
    rep = oracle_gauge(IDENT, IDENT, tol=1e-4)
    assert rep.converged and abs(rep.value - 0.5) <= 1e-3


def test_gauge_telescopes_constant_integrand():
    one = StepFunction.constant(IV, 1.0)
    rng = random.Random(4)
    for _ in range(10):
        g = rand_step(rng)
        rep = oracle_gauge(one, g, tol=1e-12)
        assert rep.converged
        assert abs(rep.value - (g(1.0) - g(0.0))) <= 1e-11


def test_oracles_agree_on_step_pairs():
    # Young refinement limits and Kurzweil gauge limits coincide for
    # step pairs; two hundred random pairs, one shared tolerance.
    rng = random.Random(20260814)
    tol = 1e-9
    for _ in range(200):
        f, g = rand_step(rng), rand_step(rng)
        a = oracle_refinement(f, g, Y, tol=tol, seed=rng.randint(0, 10 ** 6))
        b = oracle_gauge(f, g, tol=tol, seed=rng.randint(0, 10 ** 6))
        assert a.converged and b.converged
        assert abs(a.value - b.value) <= 2.0 * tol
        want = integrate_step_pair(f, g, Y).value
        assert abs(a.value - want) <= 2.0 * tol


# Two jumps of g 0.0036 apart, closer than the level-1 override width
# 1/256.  An override that wide lets a cell tagged at one jump reach the
# other, and the gauge sums then settle on 4.0085039590110396.
CLOSE_JUMPS = (
    "oracle kind=K tol=1e-9 "
    "f=sin[0.0, 1.0]{freq: 3.409498075941292; amp: 0.9053204742519931; "
    "phase: 0.5713385137132037} "
    "g=step[0.0, 1.0]{nodes: 0.0, 0.21088321502013152, 0.4165531740114028, "
    "0.6325252089185363, 0.7675461022971052, 0.7711094513936149, 1.0; "
    "at: 0.6461357897219351, 0.6644690136415345, -1.253470669764274, "
    "-4.715568709114141, -2.8129674405657035, -2.8129674405657035, "
    "-2.8129674405657035; "
    "on: 3.036574066734369, -2.6263464257956914, 0.9376813640186645, "
    "2.3520487337971687, 2.227817508642059, 3.7736308010238933}")


def test_gauge_oracle_keeps_close_jumps_apart():
    job = parse_spec(CLOSE_JUMPS)
    f, g = build_pair(job)
    rep = oracle_gauge(f, g, tol=job.tol, seed=135)
    assert rep.converged
    assert abs(rep.value - integrate(f, g, K).value) <= 2.0 * job.tol


def test_probe_seed_invariance():
    rng = random.Random(7)
    for _ in range(20):
        f, g = rand_step(rng), rand_step(rng)
        r1 = oracle_refinement(f, g, D, tol=1e-9, seed=1)
        r2 = oracle_refinement(f, g, D, tol=1e-9, seed=2)
        assert r1.converged and r2.converged
        assert abs(r1.value - r2.value) <= 2e-9
        g1 = oracle_gauge(f, g, tol=1e-9, seed=1)
        g2 = oracle_gauge(f, g, tol=1e-9, seed=2)
        assert g1.converged and g2.converged
        assert abs(g1.value - g2.value) <= 2e-9


def test_convergence_claim_never_exceeds_tolerance():
    rng = random.Random(99)
    for _ in range(30):
        f, g = rand_step(rng), rand_step(rng)
        rep = oracle_refinement(f, g, Y, tol=1e-9)
        if rep.converged:
            assert rep.achieved_spread <= 1e-9
        rep = oracle_gauge(f, g, tol=1e-9)
        if rep.converged:
            assert rep.achieved_spread <= 1e-9


def test_unreachable_tolerance_reported_honestly():
    # Interior tags next to the integrator's jump keep wiggling the
    # Dushnik sums of a continuous integrand, so 1e-30 is hopeless.
    g = chi(True)
    rep = oracle_refinement(IDENT, g, D, tol=1e-30)
    assert not rep.converged
    assert rep.achieved_spread > 1e-30
    assert rep.value == pytest.approx(0.5, abs=1e-6)


def test_term_budget_stops_the_oracles(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_TERMS", 500)
    rep = oracle_refinement(IDENT, IDENT, Y, tol=1e-12)
    assert not rep.converged and rep.levels < oracle.MAX_LEVELS
    rep = oracle_gauge(IDENT, IDENT, tol=1e-12)
    assert not rep.converged and rep.levels < oracle.MAX_LEVELS


def test_first_level_runs_past_the_term_budget(monkeypatch):
    # One level of either oracle costs more than this budget; the first
    # level still runs, and only later levels are cut.
    monkeypatch.setattr(oracle, "MAX_TERMS", 1)
    f, g = chi(True), IDENT
    for rep in (oracle_refinement(f, g, Y, tol=1e-9), oracle_gauge(f, g, tol=1e-9)):
        assert rep.levels == 1 and not rep.converged
        assert math.isfinite(rep.value)
