"""The rounding allowances of ``verify-main`` and ``verify-bounds``.

Both checks compare floats that round: a step pair's K and by-parts
values, and a sum against a norm product that it meets with equality.
An absolute allowance alone fails such pairs once their values pass
about 1e3, so each check allows the rounding of its own magnitudes.
These tests draw seeded families that meet that case, and check that a
value moved past the allowance, or a variation bound under-reported by
more than it, still fails.
"""

import random

from conftest import gamma

from stieltjes import IntegralKind, StepFunction, build_pair, by_parts, cli, integrate, parse_spec

U = 2.0 ** -53
AFFINE_AT_1E6 = "f=affine[0,1]{slope:0; intercept:1} g=affine[0,1]{slope:1e-6; intercept:1000000.3}"


def step_text(nodes, at, on) -> str:
    def join(xs):
        return ",".join(repr(float(x)) for x in xs)
    return f"step[0,1]{{nodes:{join(nodes)}; at:{join(at)}; on:{join(on)}}}"


def random_nodes(rng: random.Random, inner: int) -> list:
    return [0.0] + sorted(rng.uniform(0.01, 0.99) for _ in range(inner)) + [1.0]


def scaled_step_pairs(count: int):
    """Step/step jobs with 2-6 inner nodes each and values uniform in
    (-1, 1) times 10**k, one k in [-3, 8] per function."""
    rng = random.Random(3)
    for _ in range(count):
        texts = []
        for _ in range(2):
            k = rng.randint(-3, 8)
            nodes = random_nodes(rng, rng.randint(2, 6))
            texts.append(step_text(nodes,
                                   [rng.uniform(-1, 1) * 10.0 ** k for _ in nodes],
                                   [rng.uniform(-1, 1) * 10.0 ** k for _ in nodes[1:]]))
        yield f"f={texts[0]} g={texts[1]}"


def tight_pairs(count: int):
    """A constant f, c 10**k with k in [0, 8], against an increasing step
    g with 3-9 inner nodes: every sum and the integral equal
    sup|f| var g, so the sup_var checks hold with equality."""
    rng = random.Random(5)
    for _ in range(count):
        c = rng.uniform(1, 10) * 10.0 ** rng.randint(0, 8)
        nodes = random_nodes(rng, rng.randint(3, 9))
        levels = sorted(rng.uniform(0, 1) for _ in range(2 * len(nodes) - 1))
        yield (f"kind={rng.choice('KYD')} seed={rng.randrange(1000)} "
               f"f=affine[0,1]{{slope:0; intercept:{c!r}}} "
               f"g={step_text(nodes, levels[0::2], levels[1::2])}")


def run(command: str, job: str):
    code, report = cli.run_text(job, command, None, None)
    assert report.get("ok") is (code == 0), (job, report)
    return code, report


def test_verify_main_passes_exact_step_pairs_at_every_scale():
    for job in scaled_step_pairs(50):
        code, report = run("verify-main", job)
        assert code == 0, (job, report)
        assert report["error_bound"] == 0 and report["residuals"]["k_minus_y"] == 0


def test_verify_main_fails_a_by_parts_value_moved_past_its_allowance(monkeypatch):
    # The allowance, computed here from its formula, with n = 3.
    for job in scaled_step_pairs(10):
        f, g = build_pair(parse_spec(f"verify-main {job}"))
        k, p = integrate(f, g, "K").value, by_parts(f, g, "K").value
        scale = (abs(f.value(1.0) * g.value(1.0)) + abs(f.value(0.0) * g.value(0.0))
                 + f.sup_bound * g.variation_bound + g.sup_bound * f.variation_bound)
        allowance = max(1e-12, gamma(3) * scale + 2.0 * U * (abs(k) + abs(p)))

        def moved(*args, shift=10.0 * allowance):
            result = by_parts(*args)
            return result._replace(value=result.value + shift)
        monkeypatch.setattr(cli, "by_parts", moved)
        code, report = run("verify-main", job)
        assert code == 1 and report["residuals"]["by_parts"] > 9.0 * allowance, job


def test_verify_bounds_passes_tight_pairs_at_every_scale():
    for job in [*tight_pairs(50), AFFINE_AT_1E6]:
        code, report = run("verify-bounds", job)
        assert code == 0, (job, report)


class UnderReported(StepFunction):
    """A step function whose variation bound is short by ``cut``."""

    __slots__ = ()
    cut = 0.0

    @property
    def variation_bound(self) -> float:
        return super().variation_bound - self.cut


def test_verify_bounds_fails_a_variation_under_reported_past_its_allowance(monkeypatch):
    # verify-bounds sums over at most 13 cells, and the integral over g's
    # pieces; cut makes sup|f| times it 10 times the largest allowance.
    for job in tight_pairs(10):
        spec = parse_spec(f"verify-bounds {job}")
        f, g = build_pair(spec)
        n = max(13, g.piece_count)
        bound = f.sup_bound * g.variation_bound
        allowance = max(1e-12, gamma(n + 3) * bound + 8.0 * (n + 1) * U * f.sup_bound * g.sup_bound)
        monkeypatch.setattr(UnderReported, "cut", 10.0 * allowance / f.sup_bound)
        short = UnderReported(g.interval, g.nodes, g.node_values, g.interior_values)
        code, report = cli._RUNNERS["verify-bounds"](spec, f, short, IntegralKind(spec.kind))
        assert code == 1 and report["ok"] is False
        assert min(report["residuals"][name] for name in
                   ("integral_sup_var", "riemann_sup_var", "young_sup_var")) < -9.0 * allowance
