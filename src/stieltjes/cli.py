"""Command line front end.

    stieltjes integrate     f=... g=... [kind=K] [tol=...] [seed=...]
    stieltjes verify-main   f=... g=...
    stieltjes verify-bounds f=... g=...
    stieltjes oracle        f=... g=... kind=Y

Exit codes
----------
0   computed, verified, or converged
1   a verification failed, or the oracle did not converge
2   job text could not be parsed, or usage error
3   the computation itself refused (no variation bound, tolerance
    needs too many cells, gauge below float resolution, ...); the
    report's ``best_error`` is the smallest tol the route could certify,
    null when unknown

``--json`` prints one JSON object per job on stdout; without it a
human-readable block is printed.  ``--spec FILE`` runs every nonempty
non-# line of FILE as one job (the subcommand fills in the command when
a line omits it) and exits with the worst per-line code.
"""

from __future__ import annotations

import argparse
import random
import sys

from .core import Interval
from .errors import (ApproximationError, DomainError, DSLError, GaugeError,
                     GaugeTooFineError, StepPairError, VariationUnknownError,
                     check_tol)
from .dsl import COMMANDS, JobSpec, build_pair, parse_spec
from .integrate import IntegralKind, by_parts, check_integral_bounds, integrate
from .oracle import oracle_gauge, oracle_refinement
from .partitions import Division, interior_tags
from .sums import check_sum_bounds

RESIDUAL_TOL = 1e-12
_SUM_BOUND_NAMES = ("riemann_sup_var", "riemann_bv_sup",
                    "young_sup_var", "young_bv_sup")


def _cmd_integrate(job: JobSpec) -> tuple[int, dict]:
    f, g = build_pair(job)
    kind = IntegralKind.from_letter(job.kind)
    res = integrate(f, g, kind, job.tol)
    return 0, {"command": "integrate", "kind": kind.letter, "value": res.value,
               "error_bound": res.error_bound, "seed": job.seed}


def _cmd_verify_main(job: JobSpec) -> tuple[int, dict]:
    """Check the two structural identities the three kinds satisfy:
    K = Y, and K = boundary - D with the roles of f and g swapped."""
    f, g = build_pair(job)
    res_k = integrate(f, g, IntegralKind.KURZWEIL, job.tol)
    res_y = integrate(f, g, IntegralKind.YOUNG, job.tol)
    res_parts = by_parts(f, g, IntegralKind.KURZWEIL, job.tol)
    r_ky = abs(res_k.value - res_y.value)
    r_parts = abs(res_k.value - res_parts.value)
    ok = (r_ky <= res_k.error_bound + res_y.error_bound + RESIDUAL_TOL
          and r_parts <= res_k.error_bound + res_parts.error_bound + RESIDUAL_TOL)
    report = {"command": "verify-main", "kind": "K", "value": res_k.value,
              "error_bound": res_k.error_bound,
              "residuals": {"k_minus_y": r_ky, "by_parts": r_parts},
              "ok": ok, "seed": job.seed}
    return (0 if ok else 1), report


def _random_partition(interval: Interval, rng: random.Random, alternate: bool):
    inner = {rng.uniform(interval.a, interval.b) for _ in range(rng.randint(1, 12))}
    points = sorted({interval.a, interval.b}
                    | {x for x in inner if interval.a < x < interval.b})
    division = Division(interval, tuple(points))
    if alternate:
        return interior_tags(division)
    return interior_tags(division, rng.randrange(1 << 30))


def _cmd_verify_bounds(job: JobSpec) -> tuple[int, dict]:
    """Check |sum| and |integral| against the two norm products, the
    sums over a handful of seeded partitions."""
    f, g = build_pair(job)
    kind = IntegralKind.from_letter(job.kind)
    res = integrate(f, g, kind, job.tol)

    slacks: dict[str, float | None] = {}
    ok = True
    for check in check_integral_bounds(res, f, g):
        slacks[check.name] = check.slack
        ok = ok and check.holds is not False
    for name in _SUM_BOUND_NAMES:
        slacks[name] = None
    rng = random.Random(job.seed)
    for i in range(8):
        part = _random_partition(f.interval, rng, alternate=(i % 2 == 0))
        for check in check_sum_bounds(f, g, part):
            ok = ok and check.holds is not False
            if check.slack is not None:
                prev = slacks[check.name]
                slacks[check.name] = check.slack if prev is None else min(prev, check.slack)

    report = {"command": "verify-bounds", "kind": kind.letter, "value": res.value,
              "error_bound": res.error_bound, "residuals": slacks,
              "ok": ok, "seed": job.seed}
    return (0 if ok else 1), report


def _cmd_oracle(job: JobSpec) -> tuple[int, dict]:
    f, g = build_pair(job)
    kind = IntegralKind.from_letter(job.kind)
    if kind is IntegralKind.KURZWEIL:
        rep = oracle_gauge(f, g, tol=job.tol, seed=job.seed)
    else:
        rep = oracle_refinement(f, g, kind, tol=job.tol, seed=job.seed)
    report = {"command": "oracle", "kind": kind.letter, "value": rep.value,
              "error_bound": rep.achieved_spread, "converged": rep.converged,
              "levels": rep.levels, "seed": job.seed}
    return (0 if rep.converged else 1), report


_RUNNERS = {
    "integrate": _cmd_integrate,
    "verify-main": _cmd_verify_main,
    "verify-bounds": _cmd_verify_bounds,
    "oracle": _cmd_oracle,
}


def run_job(job: JobSpec) -> tuple[int, dict]:
    """Execute one parsed job; (exit code, report dict)."""
    try:
        return _RUNNERS[job.command](job)
    except (ApproximationError, VariationUnknownError, GaugeError,
            GaugeTooFineError, StepPairError, DomainError) as exc:
        # An unknown best_error (inf, or none at all) prints as null.
        return 3, {"error": str(exc), "best_error": getattr(exc, "best_error", None)}


def run_text(text: str, command: str, tol: float | None, seed: int | None) -> tuple[int, dict]:
    """Parse one job line (defaulting / enforcing the subcommand),
    apply flag overrides, execute."""
    stripped = text.strip()
    first = stripped.split(maxsplit=1)[0] if stripped else ""
    if first not in COMMANDS:
        stripped = f"{command} {stripped}"
    try:
        job = parse_spec(stripped)
        if job.command != command:
            raise DSLError(
                f"job says {job.command!r} but the subcommand is {command!r}")
        if tol is not None:
            check_tol(tol, DSLError, "tol")
            job = job._replace(tol=tol)
        if seed is not None:
            job = job._replace(seed=seed)
    except DSLError as exc:
        return 2, {"error": str(exc)}
    return run_job(job)


# ----------------------------------------------------------------------
# Rendering.  JSON floats carry full precision; non-finite floats have
# no JSON spelling and appear as null.

def _json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return "null"
        return format(value, ".17g")
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(value, dict):
        inner = ", ".join(f"{_json(str(k))}: {_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    raise TypeError(f"cannot serialize {value!r}")


def _human_value(value) -> str:
    if value is None:
        return "skipped"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _human(report: dict) -> str:
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                lines.append(f"{key}.{sub}: {_human_value(v)}")
        else:
            lines.append(f"{key}: {_human_value(value)}")
    return "\n".join(lines)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(_json(report))
    elif "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
    else:
        print(_human(report))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stieltjes",
        description="Stieltjes-type integrals of regulated functions "
                    "(Kurzweil, Young, Dushnik) with certified error bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "integrate": "compute one integral with a certified error bound",
        "verify-main": "check K = Y and integration by parts on a pair",
        "verify-bounds": "check sum and integral norm bounds on a pair",
        "oracle": "brute-force the integral from its limit definition",
    }
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd, help=helps[cmd])
        sp.add_argument("--json", action="store_true",
                        help="print machine-readable JSON on stdout")
        sp.add_argument("--tol", type=float, default=None,
                        help="error tolerance, overrides tol= in the job text")
        sp.add_argument("--seed", type=int, default=None,
                        help="random seed, overrides seed= in the job text")
        sp.add_argument("--spec", metavar="FILE", default=None,
                        help="run every nonempty non-# line of FILE as a job")
        sp.add_argument("text", nargs="*",
                        help="job text, e.g. f=step[0,1]{nodes:0,0.5,1; "
                             "at:0,1,1; on:0,1} g=affine[0,1]{slope:1}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.spec is not None and args.text:
        print("error: --spec and inline job text are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.spec is not None:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                jobs = [line.strip() for line in fh]
        except OSError as exc:
            print(f"error: cannot read {args.spec}: {exc}", file=sys.stderr)
            return 2
        jobs = [line for line in jobs if line and not line.startswith("#")]
        if not jobs:
            print(f"error: {args.spec} contains no jobs", file=sys.stderr)
            return 2
    elif args.text:
        jobs = [" ".join(args.text)]
    else:
        print("error: missing job text (or --spec FILE)", file=sys.stderr)
        return 2
    worst = 0
    for text in jobs:
        code, report = run_text(text, args.command, args.tol, args.seed)
        _emit(report, args.json)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
