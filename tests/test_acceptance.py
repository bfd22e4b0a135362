"""Acceptance gate for the package.

Seven independent criteria, each printing one [PASS]/[FAIL] line (run
with ``pytest -s`` to see them).  Every numeric claim is checked against
either a hand-derived closed form or a definitional brute-force oracle;
nothing here trusts the code under test to certify itself.
"""

import contextlib
import io
import json
import math
import random
import time

import jsonschema

from conftest import rand_division_points, rand_smooth, rand_step
from stieltjes import (Affine, Division, ElementaryIntegrand, IndicatorKind,
                       IntegralKind, Interval, PiecewiseLipschitz,
                       StepFunction, check_integral_bounds, check_sum_bounds,
                       cli, elementary_backward, elementary_forward, by_parts,
                       indicator, integrate, integrate_step_pair,
                       interior_tags, oracle_gauge, oracle_refinement,
                       parse_spec, render_job, step_from_jumps)
from stieltjes.integrate import integrate_limit

IV = Interval(0.0, 1.0)
K, Y, D = IntegralKind.KURZWEIL, IntegralKind.YOUNG, IntegralKind.DUSHNIK
KINDS = (K, Y, D)

MASTER_SEED = 20260814


def verdict(number: int, ok: bool, detail: str, elapsed: float,
            budget: float) -> None:
    mark = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{mark}] criterion-{number}: {detail} ({elapsed:.2f} s)")
    assert ok, f"criterion-{number}: {detail}"
    assert elapsed < budget, \
        f"criterion-{number} took {elapsed:.2f} s, budget {budget} s"


def identity_function() -> PiecewiseLipschitz:
    return PiecewiseLipschitz.from_formulas(IV, (0.0, 1.0), (Affine(1.0),))


def test_criterion_1_elementary_table_against_oracles():
    """Each of the five elementary shapes, against four integrators, in
    all three kinds and both argument orders: the closed-form table must
    match a definitional oracle within 1e-9."""
    start = time.time()
    rng = random.Random(MASTER_SEED)
    inner = sorted(rng.uniform(0.05, 0.95) for _ in range(2))
    g_random = StepFunction(IV, [0.0] + inner + [1.0],
                            [rng.uniform(-5.0, 5.0) for _ in range(4)],
                            [rng.uniform(-5.0, 5.0) for _ in range(3)])
    integrators = [
        identity_function(),
        indicator(IV, 0.5, 1.0, closed_left=False, closed_right=True),
        indicator(IV, 0.5, 1.0, closed_left=True, closed_right=True),
        g_random,
    ]
    shapes = [
        ElementaryIntegrand(IndicatorKind.ONE),
        ElementaryIntegrand(IndicatorKind.OPEN_FROM_A),
        ElementaryIntegrand(IndicatorKind.OPEN_TAIL, 0.5),
        ElementaryIntegrand(IndicatorKind.CLOSED_TAIL, 0.5),
        ElementaryIntegrand(IndicatorKind.POINT_B),
    ]

    checks = failures = 0
    worst = 0.0
    for e in shapes:
        e_step = e.as_step(IV)
        for g in integrators:
            for kind in KINDS:
                for forward in (True, False):
                    if forward:
                        want = elementary_forward(e, g, kind).value
                        pair = (e_step, g)
                    else:
                        want = elementary_backward(g, e, kind).value
                        pair = (g, e_step)
                    if kind is K:
                        rep = oracle_gauge(pair[0], pair[1], tol=1e-10, seed=3)
                    else:
                        rep = oracle_refinement(pair[0], pair[1], kind,
                                                tol=1e-10, seed=3)
                    checks += 1
                    gap = abs(rep.value - want)
                    worst = max(worst, gap)
                    if not rep.converged or gap > 1e-9:
                        failures += 1
    ok = failures == 0 and checks == 120
    verdict(1, ok,
            f"{checks - failures}/{checks} elementary-table entries match "
            f"the oracles within 1e-9 (worst gap {worst:.2e})",
            time.time() - start, 30.0)


def test_criterion_2_identities_on_seeded_pairs():
    """K = Y and the by-parts identity: exactly (1e-12) on 500 random
    step pairs through the closed forms, and within 2e-6 on 50 mixed
    pairs through the limit route at tol 1e-6."""
    start = time.time()
    rng = random.Random(MASTER_SEED)
    worst_ky = worst_parts = 0.0
    for _ in range(500):
        f, g = rand_step(rng), rand_step(rng)
        k = integrate(f, g, K).value
        y = integrate(f, g, Y).value
        d = integrate(g, f, D).value
        boundary = f(1.0) * g(1.0) - f(0.0) * g(0.0)
        worst_ky = max(worst_ky, abs(k - y))
        worst_parts = max(worst_parts, abs(k - (boundary - d)))
    exact_ok = worst_ky <= 1e-12 and worst_parts <= 1e-12

    worst_ky_lim = worst_parts_lim = 0.0
    for _ in range(50):
        f, g = rand_smooth(rng), rand_step(rng)
        k = integrate_limit(f, g, K, 1e-6).value
        y = integrate_limit(f, g, Y, 1e-6).value
        d = integrate_limit(g, f, D, 1e-6).value
        boundary = f(1.0) * g(1.0) - f(0.0) * g(0.0)
        worst_ky_lim = max(worst_ky_lim, abs(k - y))
        worst_parts_lim = max(worst_parts_lim, abs(k - (boundary - d)))
    limit_ok = worst_ky_lim <= 2e-6 and worst_parts_lim <= 2e-6

    verdict(2, exact_ok and limit_ok,
            f"identities on 500 step pairs (residuals {worst_ky:.1e}, "
            f"{worst_parts:.1e} <= 1e-12) and 50 limit-route pairs "
            f"(residuals {worst_ky_lim:.1e}, {worst_parts_lim:.1e} <= 2e-6)",
            time.time() - start, 60.0)


def test_criterion_3_norm_bounds_on_seeded_triples():
    """Four sum bounds and two integral bounds on 1000 seeded
    (pair, partition) triples; every evaluated slack >= -1e-12."""
    start = time.time()
    rng = random.Random(31459)
    triples = failures = evaluated = 0
    worst_deficit = 0.0
    for i in range(1000):
        roll = rng.random()
        if roll < 0.40:
            f, g, tol = rand_step(rng), rand_step(rng), 1e-9
        elif roll < 0.65:
            f, g, tol = rand_smooth(rng), rand_step(rng), 1e-6
        elif roll < 0.90:
            f, g, tol = rand_step(rng), rand_smooth(rng), 1e-6
        else:
            f, g, tol = rand_smooth(rng), rand_smooth(rng), 1e-2
        division = Division(IV, rand_division_points(rng, IV))
        tag_seed = rng.randrange(1 << 30)
        part = interior_tags(division, tag_seed if i % 2 else None)
        kind = KINDS[rng.randrange(3)]
        triples += 1
        res = integrate(f, g, kind, tol)
        for check in (list(check_sum_bounds(f, g, part))
                      + list(check_integral_bounds(res, f, g))):
            if check.holds is None:
                continue
            evaluated += 1
            if not check.holds:
                failures += 1
            worst_deficit = max(worst_deficit, -check.slack)
    ok = failures == 0 and triples == 1000
    verdict(3, ok,
            f"{evaluated} bound checks over {triples} triples, none below "
            f"-1e-12 (worst deficit {worst_deficit:.1e})",
            time.time() - start, 30.0)


def test_criterion_4_integrand_approximation_errors_obey_the_bound():
    """f_n -> f(t) = t with sup error exactly 2^-n against a fixed step
    integrator of variation 2: each kind's error stays within
    2^-n * var g and never increases with n."""
    start = time.time()
    g = StepFunction(IV, (0.0, 1.0 / 3.0, 5.0 / 6.0, 1.0),
                     (0.0, 1.0, 2.0, 2.0), (0.0, 1.0, 2.0))
    var_g = g.variation_bound
    assert var_g == 2.0
    f = identity_function()
    # True values by parts: the inner integral has a step integrand, so
    # it is a closed form with zero error bound.
    truth = {kind: by_parts(f, g, kind) for kind in KINDS}
    assert all(r.error_bound == 0.0 for r in truth.values())

    ok = True
    details = []
    prev = {kind: math.inf for kind in KINDS}
    for n in range(3, 11):
        f_n, sup_err = f.approximate(2.0 ** (1 - n))
        if sup_err != 2.0 ** -n:
            ok = False
        for kind in KINDS:
            err = abs(integrate_step_pair(f_n, g, kind).value
                      - truth[kind].value)
            if err > sup_err * var_g:
                ok = False
            if err > prev[kind] + 1e-12:
                ok = False
            prev[kind] = err
        details.append(prev[Y])
    verdict(4, ok,
            "integrand approximants at sup error 2^-n (n=3..10) stay "
            f"within 2^-n * var g for all kinds, errors nonincreasing "
            f"(Young errors {details[0]:.1e} -> {details[-1]:.1e})",
            time.time() - start, 10.0)


def test_criterion_5_integrator_approximation_errors_obey_the_bound():
    """Mirror image: fixed step integrand, integrator approximated by
    truncating a geometric jump series; errors within
    (|f(a)| + |f(b)| + var f) * sup|g - g_n| and nonincreasing."""
    start = time.time()
    f = StepFunction(IV, (0.0, 0.5, 1.0), (1.0, 3.0, 3.0), (1.0, 3.0))
    bv = abs(f(0.0)) + abs(f(1.0)) + f.variation_bound
    assert bv == 6.0
    terms = [(i / 13.0, 4.0 ** -i) for i in range(1, 13)]
    g_full = step_from_jumps(IV, 0.0, minus_jumps=terms)
    truth = {kind: integrate_step_pair(f, g_full, kind).value for kind in KINDS}

    ok = True
    prev = {kind: math.inf for kind in KINDS}
    spans = []
    for n in range(2, 12):
        g_n = step_from_jumps(IV, 0.0, minus_jumps=terms[:n])
        sup_err = math.fsum(w for _, w in terms[n:])
        spans.append(sup_err)
        for kind in KINDS:
            err = abs(integrate_step_pair(f, g_n, kind).value - truth[kind])
            if err > bv * sup_err:
                ok = False
            if err > prev[kind] + 1e-12:
                ok = False
            prev[kind] = err
    verdict(5, ok,
            "integrator truncations g_n (n=2..11, sup errors "
            f"{spans[0]:.1e} -> {spans[-1]:.1e}) stay within "
            "(|f(a)|+|f(b)|+var f) * sup|g-g_n| for all kinds",
            time.time() - start, 10.0)


def test_criterion_6_gauge_and_refinement_oracles_agree():
    """oracle_gauge and oracle_refinement(Y) on 100 seeded step pairs:
    both converge and agree within twice the tolerance."""
    start = time.time()
    rng = random.Random(606)
    tol = 1e-9
    pairs = failures = 0
    worst_gap = 0.0
    for _ in range(100):
        f, g = rand_step(rng), rand_step(rng)
        a = oracle_refinement(f, g, Y, tol=tol, seed=rng.randint(0, 9999))
        b = oracle_gauge(f, g, tol=tol, seed=rng.randint(0, 9999))
        pairs += 1
        gap = abs(a.value - b.value)
        worst_gap = max(worst_gap, gap)
        if not (a.converged and b.converged) or gap > 2.0 * tol:
            failures += 1
    verdict(6, failures == 0 and pairs == 100,
            f"{pairs - failures}/{pairs} step pairs: gauge and refinement "
            f"oracles converged and agree within 2e-9 (worst {worst_gap:.1e})",
            time.time() - start, 60.0)


# ----------------------------------------------------------------- CLI corpus

_NUM = {"type": "number"}
_SCHEMAS = {
    "integrate": {
        "type": "object",
        "required": ["command", "kind", "value", "error_bound", "seed"],
        "properties": {
            "command": {"const": "integrate"},
            "kind": {"enum": ["K", "Y", "D"]},
            "value": {"type": ["number", "null"]},
            "error_bound": _NUM,
            "seed": {"type": "integer"},
        },
        "additionalProperties": False,
    },
    "verify-main": {
        "type": "object",
        "required": ["command", "kind", "value", "error_bound", "residuals",
                     "ok", "seed"],
        "properties": {
            "command": {"const": "verify-main"},
            "kind": {"const": "K"},
            "value": {"type": ["number", "null"]},
            "error_bound": _NUM,
            "residuals": {
                "type": "object",
                "required": ["k_minus_y", "by_parts"],
                "properties": {"k_minus_y": _NUM, "by_parts": _NUM},
                "additionalProperties": False,
            },
            "ok": {"type": "boolean"},
            "seed": {"type": "integer"},
        },
        "additionalProperties": False,
    },
    "verify-bounds": {
        "type": "object",
        "required": ["command", "kind", "value", "error_bound", "residuals",
                     "ok", "seed"],
        "properties": {
            "command": {"const": "verify-bounds"},
            "kind": {"enum": ["K", "Y", "D"]},
            "value": {"type": ["number", "null"]},
            "error_bound": _NUM,
            "residuals": {
                "type": "object",
                "required": ["integral_sup_var", "integral_bv_sup",
                             "riemann_sup_var", "riemann_bv_sup",
                             "young_sup_var", "young_bv_sup"],
                "additionalProperties": {"type": ["number", "null"]},
            },
            "ok": {"type": "boolean"},
            "seed": {"type": "integer"},
        },
        "additionalProperties": False,
    },
    "oracle": {
        "type": "object",
        "required": ["command", "kind", "value", "error_bound", "converged",
                     "levels", "seed"],
        "properties": {
            "command": {"const": "oracle"},
            "kind": {"enum": ["K", "Y", "D"]},
            "value": {"type": ["number", "null"]},
            "error_bound": _NUM,
            "converged": {"type": "boolean"},
            "levels": {"type": "integer"},
            "seed": {"type": "integer"},
        },
        "additionalProperties": False,
    },
    "error": {
        "type": "object",
        "required": ["error"],
        "properties": {"error": {"type": "string"}},
        "additionalProperties": False,
    },
    "refused": {
        "type": "object",
        "required": ["error", "best_error"],
        "properties": {"error": {"type": "string"},
                       "best_error": {"type": ["number", "null"]}},
        "additionalProperties": False,
    },
}

_STEP = "step[0,1]{nodes:0,0.5,1; at:0,0,1; on:0,1}"            # chi_(0.5,1]
_STEP2 = "step[0,1]{nodes:0,0.25,0.75,1; at:1,-2,0.5,0.5; on:1,-1,0.5}"
_AFF = "affine[0,1]{slope:1}"
_MONO = "monotone_jumps[0,1]{base:power(exponent:2); jumps:0.5:0.25:0.25}"
_PIECES = ("lipschitz_pieces[0,1]{breaks:0,0.5,1; "
           "formulas:affine(slope:2,intercept:-1),sin(freq:3,amp:0.5); "
           "at:0,1,2}")

# (subcommand, job text, expected exit code)
CLI_CORPUS = [
    # valid inputs: every command, family and kind shows up at least once
    ("integrate", f"kind=K f={_STEP} g={_AFF}", 0),
    ("integrate", f"kind=D f={_AFF} g={_STEP}", 0),
    ("integrate", f"kind=Y f={_STEP} g={_STEP2}", 0),
    ("integrate", f"kind=D tol=1e-4 f={_MONO} g={_STEP2}", 0),
    ("integrate", f"tol=1e-4 f={_PIECES} g={_MONO}", 0),
    ("integrate", f"tol=1e-3 f=sin[0,1]{{freq:3; amp:0.5}} "
                  f"g=power[0,1]{{exponent:2; scale:2}}", 0),
    ("integrate", f"kind=Y seed=9 f={_STEP2} g={_STEP}", 0),
    ("verify-main", f"f={_STEP} g={_AFF}", 0),
    ("verify-main", f"f={_AFF} g={_STEP}", 0),
    ("verify-main", f"f={_STEP2} g={_STEP}", 0),
    ("verify-main", f"tol=1e-3 f=sin[0,1]{{freq:2}} g=sin[0,1]{{freq:5; amp:0.3}}", 0),
    ("verify-bounds", f"kind=Y seed=11 f={_STEP2} g={_STEP}", 0),
    ("verify-bounds", f"kind=D tol=1e-4 f={_PIECES} g={_STEP2}", 0),
    ("verify-bounds", f"tol=1e-3 f={_MONO} g={_AFF}", 0),
    ("oracle", f"kind=Y f={_STEP2} g={_STEP}", 0),
    ("oracle", f"kind=D seed=2 f={_STEP} g={_STEP2}", 0),
    ("oracle", f"kind=K f={_AFF} g={_STEP2}", 0),
    ("oracle", f"kind=K tol=1e-8 f={_STEP} g={_AFF}", 0),
    ("oracle", f"kind=D tol=1e-2 f=sin[0,1]{{freq:2}} g={_AFF}", 0),
    # invalid inputs: calibrated exit codes
    ("integrate", "f=step[0,1]{nodes:0", 2),
    ("integrate", f"kind=Q f={_STEP} g={_AFF}", 2),
    ("integrate", f"f=step[0,1]{{nodes:0,0.6,0.5; at:0,1,1,1; on:0,1,1}} g={_AFF}", 2),
    ("integrate", f"f=zigzag[0,1]{{a:1}} g={_AFF}", 2),
    ("integrate", f"transmogrify f={_STEP} g={_AFF}", 2),
    ("integrate", f"f={_STEP}", 2),
    ("integrate", f"f={_STEP} f={_STEP} g={_AFF}", 2),
    ("integrate", f"f={_STEP} g=affine[0,2]{{slope:1}}", 2),
    ("integrate", f"f=monotone_jumps[0,1]{{base:sin(freq:1)}} g={_AFF}", 2),
    ("integrate", "f=monotone_jumps[0,1]{base:affine(slope:1); "
                  f"jumps:0.5:-1:0}} g={_AFF}", 2),
    ("integrate", f"tol=0 f={_STEP} g={_AFF}", 2),
    ("verify-main", f"seed=2.5 f={_STEP} g={_AFF}", 2),
    ("integrate", "tol=1e-15 f=sin[0,1]{freq:3} g=sin[0,1]{freq:2}", 3),
    ("oracle", f"kind=D tol=1e-30 f={_AFF} g={_STEP}", 1),
]


def test_criterion_7_cli_corpus():
    """At least 30 job texts through the real CLI entry point: exact
    exit codes, schema-valid JSON on stdout, and canonical round-trips
    for every valid job."""
    start = time.time()
    assert len(CLI_CORPUS) >= 30
    failures = []
    for command, text, want_exit in CLI_CORPUS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--json", text])
        out = stdout.getvalue()
        label = f"{command} {text[:60]!r}"
        if code != want_exit:
            failures.append(f"{label}: exit {code}, wanted {want_exit}")
            continue
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            failures.append(f"{label}: bad JSON ({exc})")
            continue
        if want_exit == 3:
            schema = _SCHEMAS["refused"]
        else:
            schema = _SCHEMAS["error"] if "error" in report else _SCHEMAS[command]
        try:
            jsonschema.validate(report, schema)
        except jsonschema.ValidationError as exc:
            failures.append(f"{label}: schema violation ({exc.message})")
            continue
        if want_exit == 0:
            job = parse_spec(f"{command} {text}")
            if parse_spec(render_job(job)) != job:
                failures.append(f"{label}: canonical render does not round-trip")

    verdict(7, not failures,
            f"{len(CLI_CORPUS) - len(failures)}/{len(CLI_CORPUS)} CLI "
            "jobs: exit codes, JSON schemas and round-trips all exact"
            + ("" if not failures else " | " + "; ".join(failures[:4])),
            time.time() - start, 5.0)
