"""Command line front end.

usage: stieltjes COMMAND [-h] [--json] [--tol TOL] [--seed SEED] [--spec FILE] [JOB ...]

COMMAND is integrate, verify-main, verify-bounds or oracle; JOB is the job
text ``f=... g=... [kind=K|Y|D] [tol=...] [seed=...]``.  The flags may come
in any order: before or after COMMAND, or between the words of JOB; each
value flag is also spelled ``--tol=TOL``.  A word is a flag only if it is
``-h`` or starts with ``--`` (no abbreviations), so a job word such as
``-1,`` is job text; ``--`` ends the flags.  ``-h`` or ``--help`` prints
this text.

Exit codes
----------
0   computed, verified, or converged
1   a verification failed, or the oracle did not converge; or stdout
    was closed before the reports were written
2   job text could not be parsed, or usage error; also a DSLError that
    ``run_job`` meets building a job nobody validated
3   the computation itself refused (no variation bound, tolerance
    needs too many cells, gauge below float resolution, ...); the
    report's ``best_error`` is the route's floor for tol (see
    ``integrate``), null when unknown

``--json`` prints one JSON object per job on stdout; without it a
human-readable block is printed.  ``--spec FILE`` runs every nonempty
non-# line of FILE as one job (COMMAND fills in the command when a line
omits it) and exits with the worst per-line code.  A process ends in
``launch``: ``gc.freeze()``, so the collections at shutdown skip the heap,
then ``sys.exit`` with the code.
"""

from __future__ import annotations

import gc
import math
import os
import random
import sys
from typing import NoReturn

from .core import Interval
from .errors import DSLError, StieltjesError, check_tol
from .dsl import COMMANDS, JobSpec, build_pair, parse_spec
from .integrate import IntegralKind, by_parts, check_integral_bounds, integrate
from .oracle import oracle_gauge, oracle_refinement
from .partitions import Division, interior_tags
from .regulated import UNIT_ROUNDOFF
from .sums import _rounding_slack, check_sum_bounds

# A runner takes (job, f, g, kind) and returns (exit code, fields): the
# report's kind, value and error_bound, then any fields of its own.
# run_job wraps them in the command and the seed.


def _cmd_integrate(job: JobSpec, f, g, kind: IntegralKind) -> tuple[int, dict]:
    res = integrate(f, g, kind, job.tol)
    return 0, {"kind": kind.value, "value": res.value, "error_bound": res.error_bound}


def _cmd_verify_main(job: JobSpec, f, g, kind: IntegralKind) -> tuple[int, dict]:
    """Check the two structural identities the three kinds satisfy:
    K = Y, and K = boundary - D with the roles of f and g swapped, each
    within the results' error bounds plus a rounding allowance.

    ``k_minus_y`` is 0 by construction: ``integrate`` takes the same
    route for K and Y, and the kind enters it only through the step-pair
    walk, whose K and Y branch is one, so the residual compares a value
    with itself.  Only the oracles test K = Y (``oracle_gauge`` against
    ``oracle_refinement``)."""
    res_k = integrate(f, g, IntegralKind.KURZWEIL, job.tol)
    res_y = integrate(f, g, IntegralKind.YOUNG, job.tol)
    res_parts = by_parts(f, g, IntegralKind.KURZWEIL, job.tol)
    r_ky = abs(res_k.value - res_y.value)
    r_parts = abs(res_k.value - res_parts.value)
    var_f, var_g = f.variation_bound, g.variation_bound
    scale = math.inf  # without both variations, the slack's floor
    if var_f is not None and var_g is not None:
        # n = 3: a walk term c (x - y) and each boundary product round
        # twice, and D's fsum, within u of |boundary| + |P|, once more.
        # The walk terms of K(f, dg) and D(g, df) add up in absolute
        # value to at most sup|f| var g and sup|g| var f.  The fsums and
        # the final subtraction add the 2u (|K| + |P|).
        a, b = f.interval.a, f.interval.b
        scale = (abs(f.value(b) * g.value(b)) + abs(f.value(a) * g.value(a))
                 + f.sup_bound * var_g + g.sup_bound * var_f)
    allowance = _rounding_slack(
        3, scale, 2.0 * UNIT_ROUNDOFF * (abs(res_k.value) + abs(res_parts.value)))
    ok = (r_ky <= res_k.error_bound + res_y.error_bound + allowance
          and r_parts <= res_k.error_bound + res_parts.error_bound + allowance)
    return (0 if ok else 1), {
        "kind": "K", "value": res_k.value, "error_bound": res_k.error_bound,
        "residuals": {"k_minus_y": r_ky, "by_parts": r_parts}, "ok": ok}


def _random_partition(interval: Interval, rng: random.Random, alternate: bool):
    inner = {rng.uniform(interval.a, interval.b) for _ in range(rng.randint(1, 12))}
    points = sorted({interval.a, interval.b}
                    | {x for x in inner if interval.a < x < interval.b})
    division = Division(interval, tuple(points))
    if alternate:
        return interior_tags(division)
    return interior_tags(division, rng.randrange(1 << 30))


def _cmd_verify_bounds(job: JobSpec, f, g, kind: IntegralKind) -> tuple[int, dict]:
    """Check |sum| and |integral| against the two norm products, the
    sums over a handful of seeded partitions; each residual is the
    smallest slack a check of that name left (null when all skipped)."""
    res = integrate(f, g, kind, job.tol)
    rng = random.Random(job.seed)
    reports = [check_integral_bounds(res, f, g)] + [
        check_sum_bounds(f, g, _random_partition(f.interval, rng, alternate=(i % 2 == 0)))
        for i in range(8)]
    slacks: dict[str, float | None] = {}
    for check in (check for report in reports for check in report):
        prev = slacks.get(check.name)
        if prev is None:
            slacks[check.name] = check.slack
        elif check.slack is not None:
            slacks[check.name] = min(prev, check.slack)
    ok = all(report.all_hold for report in reports)
    return (0 if ok else 1), {"kind": kind.value, "value": res.value,
                              "error_bound": res.error_bound, "residuals": slacks, "ok": ok}


def _cmd_oracle(job: JobSpec, f, g, kind: IntegralKind) -> tuple[int, dict]:
    if kind is IntegralKind.KURZWEIL:
        rep = oracle_gauge(f, g, tol=job.tol, seed=job.seed)
    else:
        rep = oracle_refinement(f, g, kind, tol=job.tol, seed=job.seed)
    return (0 if rep.converged else 1), {
        "kind": kind.value, "value": rep.value, "error_bound": rep.achieved_spread,
        "converged": rep.converged, "levels": rep.levels}


_RUNNERS = {
    "integrate": _cmd_integrate,
    "verify-main": _cmd_verify_main,
    "verify-bounds": _cmd_verify_bounds,
    "oracle": _cmd_oracle,
}


def run_job(job: JobSpec) -> tuple[int, dict]:
    """Build the pair, run the job's command; (exit code, report dict).
    A DSLError (a job that was never validated) exits 2, any other
    library refusal 3."""
    try:
        f, g = build_pair(job)
        code, fields = _RUNNERS[job.command](job, f, g, IntegralKind(job.kind))
    except DSLError as exc:
        return 2, {"error": str(exc)}
    except StieltjesError as exc:
        # An unknown best_error (inf, or none at all) prints as null.
        return 3, {"error": str(exc), "best_error": getattr(exc, "best_error", None)}
    return code, {"command": job.command, **fields, "seed": job.seed}


def run_text(text: str, command: str, tol: float | None, seed: int | None) -> tuple[int, dict]:
    """Parse one job line (defaulting / enforcing the command), apply
    flag overrides, execute."""
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


_USAGE = ("usage: stieltjes COMMAND [-h] [--json] [--tol TOL] [--seed SEED] "
          "[--spec FILE] [JOB ...]")  # as in the module docstring
_VALUE_FLAGS = {"--tol": float, "--seed": int, "--spec": str}


def _usage_error(message: str) -> int:
    print(f"{_USAGE}\nstieltjes: error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    # One scan of argv.  A word is a flag only if it is -h or starts with
    # "--", so a job word such as "-1," is text; "--" makes the rest text.
    flags = {"--json": False, "--tol": None, "--seed": None, "--spec": None}
    words, unknown = [], []
    rest = iter(sys.argv[1:] if argv is None else argv)
    for word in rest:
        if word == "--":
            words.extend(rest)
        elif word in ("-h", "--help"):
            print(__doc__ or _USAGE)  # python -OO strips the docstring
            return 0
        elif not word.startswith("--"):
            words.append(word)
        elif word == "--json":
            flags[word] = True
        elif word.partition("=")[0] in _VALUE_FLAGS:
            name, eq, value = word.partition("=")
            if not eq:
                value = next(rest, None)
                if value is None or value.startswith("--"):
                    return _usage_error(f"argument {name}: expected one argument")
            try:
                flags[name] = _VALUE_FLAGS[name](value)
            except ValueError:
                kind = _VALUE_FLAGS[name].__name__
                return _usage_error(f"argument {name}: invalid {kind} value: {value!r}")
        else:
            unknown.append(word)
    if not words:
        return _usage_error("the following arguments are required: command")
    command, *text = words
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        return _usage_error(
            f"argument command: invalid choice: {command!r} (choose from {choices})")
    if unknown:
        return _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    spec = flags["--spec"]
    if spec is not None and text:
        print("error: --spec and inline job text are mutually exclusive",
              file=sys.stderr)
        return 2
    if spec is not None:
        try:
            with open(spec, encoding="utf-8") as fh:
                jobs = [line.strip() for line in fh]
        except OSError as exc:
            print(f"error: cannot read {spec}: {exc}", file=sys.stderr)
            return 2
        jobs = [line for line in jobs if line and not line.startswith("#")]
        if not jobs:
            print(f"error: {spec} contains no jobs", file=sys.stderr)
            return 2
    elif text:
        jobs = [" ".join(text)]
    else:
        print("error: missing job text (or --spec FILE)", file=sys.stderr)
        return 2
    worst = 0
    try:
        for job in jobs:
            code, report = run_text(job, command, flags["--tol"], flags["--seed"])
            _emit(report, flags["--json"])
            worst = max(worst, code)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader went away.  As the Python docs advise, point stdout
        # at devnull so that the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return worst


def launch() -> NoReturn:
    """The process entry of ``python -m stieltjes.cli`` and of the
    ``stieltjes`` script: run ``main``, freeze, exit with its code.

    ``gc.freeze()`` moves every live object to the permanent generation,
    so the collections at interpreter shutdown do not walk them.  Exit
    is otherwise ``sys.exit``'s own: the flush of stdout and stderr and
    the atexit handlers.  ``main`` itself never freezes, as callers and
    tests run it in-process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    launch()
