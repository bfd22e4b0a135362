"""The repository benchmark: one workload per invocation, run from the
root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
``limit_route``, ``step_algebra``, ``oracle_crosscheck``, ``cli_jobs``.
Only the standard library is used; the package is imported from
``src/`` of the checkout (``PYTHONPATH=src``).

Each workload runs in its own fresh process (``worker.py``) as a
single-threaded closed loop: one client, the next operation issued when
the previous one returns.  Every output is checked against
``reference.py``, which shares no logic with the library.

``--trace 0`` prints the end-to-end metrics:

    setup_s         median over SETUP_SAMPLES fresh processes of process
                    start until the library's inputs are built (import,
                    input generation, building the functions)
    ops_per_s       ops per second of time spent inside ops
    latency_p50_ms  median op latency
    latency_tail_ms the highest of p50/p75/p90/p99/p99.9 with at least
                    TAIL_BEYOND samples beyond it (named in the summary)
    peak_rss_mb     peak resident memory of the workload process; for
                    cli_jobs, of the largest job process

Times are given at a fixed machine speed.  The machine this benchmark
was written on runs the same op at 0.6 to 2.3 times its usual time, in
phases that last from seconds to tens of minutes, because other work
shares its cores and caches.  So each worker times ``calibrate()``, a
fixed pure-Python task that shares no code with the library, right
before every op (and after set-up), and every time is scaled by
``CAL_REF_S`` over the median calibration time around it: an op that
took 12 ms while ``calibrate()`` took 1.2 ms reads 10 ms.  The raw
median latency and the machine's speed are printed in the summary line.

The summary line also names the peak memory the process had after
set-up and references, before the first op, and the share the ops
added above it.  ``failed_ratio`` and ``refused_ratio`` are printed
there too (with the failing or refused inputs) rather than as metrics,
because they are 0 on most workloads.  ``--trace 1`` runs the workload
untraced and then traced for half the time each and prints the
per-layer metrics of ``tracing.layer_metrics`` plus
``bench.trace_overhead_ratio``, the traced run's time per op over the
untraced run's on the ops both ran.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import CAL_REF_S

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("limit_route", "step_algebra", "oracle_crosscheck", "cli_jobs")
SETUP_SAMPLES = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int):
    """The highest percentile of TAIL_LADDER with at least TAIL_BEYOND of
    n samples beyond it, and how many lie beyond; None when even the
    median has fewer."""
    best = None
    for p in TAIL_LADDER:
        beyond = int(n * (100.0 - p) / 100.0 + 1e-6)
        if beyond >= TAIL_BEYOND:
            best = (p, beyond)
    return best


def at_reference_speed(latencies, cal):
    """Each latency scaled by CAL_REF_S over the median of the
    calibration samples taken just before and just after it."""
    return [t * CAL_REF_S / statistics.median(cal[i] + cal[i + 1])
            for i, t in enumerate(latencies)]


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def run_worker(workload: str, seed: int, seconds: float, *, setup_only=False, trace=None):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", trace]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> str:
    return (f"{platform.machine()} {platform.processor() or platform.node()}, "
            f"Python {platform.python_version()}, nproc {os.cpu_count()}")


def summary(workload: str, seed: int, res: dict) -> None:
    counts = res["counts"]
    attempted = sum(counts.values())
    print(f"workload {workload} seed {seed}: {attempted} ops attempted, "
          f"failed_ratio {counts['failed'] / attempted:.4g} ({counts['failed']}), "
          f"refused_ratio {counts['refused'] / attempted:.4g} ({counts['refused']})")
    for status in ("failed", "refused"):
        for note in res["notes"][status]:
            print(f"  {status}: {note}")
    if res["known_defect"]:
        print(f"  known defect, outside the ops: {res['known_defect']}")


def end_to_end(args):
    samples = [run_worker(args.workload, args.seed, 0, setup_only=True)
               for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker(args.workload, args.seed, args.seconds)
    samples.append(res)
    setups = [r["setup_s"] * CAL_REF_S / statistics.median(r["setup_cal"]) for r in samples]
    lat = at_reference_speed(res["latencies"], res["cal"])
    n = len(lat)
    tail = tail_percentile(n)
    if tail is None:
        tail_p, beyond, tail_v = 100.0, 0, max(lat)
    else:
        tail_p, beyond = tail
        tail_v = percentile(lat, tail_p)
    cal_ms = 1000.0 * statistics.median(x for pair in res["cal"] for x in pair)
    summary(args.workload, args.seed, res)
    print(f"  latency tail is p{tail_p:g} of {n} samples ({beyond} beyond it); "
          f"setup samples {', '.join(f'{s:.4f}' for s in setups)} s; {machine()}")
    print(f"  raw latency p50 {1000.0 * percentile(res['latencies'], 50.0):.4g} ms; "
          f"calibrate() took {cal_ms:.4g} ms against {1000.0 * CAL_REF_S:g} ms at reference speed")
    peak_mb = res["peak_rss_kb"] / 1024.0
    if res["setup_rss_kb"] is not None:
        setup_mb = res["setup_rss_kb"] / 1024.0
        print(f"  peak RSS {peak_mb:.1f} MB: {setup_mb:.1f} MB after set-up and references, "
              f"{peak_mb - setup_mb:.1f} MB added by the ops")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / sum(lat), "op/s"),
        "latency_p50_ms": (1000.0 * percentile(lat, 50.0), "ms"),
        "latency_tail_ms": (1000.0 * tail_v, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return [res], metrics


def per_layer(args):
    import tracing
    half = args.seconds / 2.0
    plain = run_worker(args.workload, args.seed, half)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    traced = run_worker(args.workload, args.seed, half, trace=path)
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    acc = tracing.reduce_spans(trace["dumps"])
    values = tracing.layer_metrics(acc, traced["tally"], trace["cli"])
    plain_lat = at_reference_speed(plain["latencies"], plain["cal"])
    traced_lat = at_reference_speed(traced["latencies"], traced["cal"])
    m = min(len(plain_lat), len(traced_lat))
    values["bench.trace_overhead_ratio"] = sum(traced_lat[:m]) / sum(plain_lat[:m]) - 1.0
    summary(args.workload, args.seed, plain)
    summary(args.workload, args.seed, traced)
    unused = sorted(k for k, v in values.items() if v == 0)
    print(f"  trace {os.path.relpath(path, ROOT)}: {acc['ops']} ops traced, "
          f"{len(plain['latencies'])} untraced; layers not exercised: {', '.join(unused) or 'none'}")
    metrics = {name: (v, tracing.LAYER_METRICS[name][0]) for name, v in values.items()}
    return [plain, traced], metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "stieltjes", "__init__.py")):
        print(f"no stieltjes package under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    # Installed users have bytecode; a fresh checkout does not yet, and
    # PYTHONDONTWRITEBYTECODE would keep imports from writing it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), BENCH],
                   check=True)
    runs, metrics = per_layer(args) if args.trace else end_to_end(args)
    failed = sum(r["counts"]["failed"] for r in runs)
    attempted = sum(sum(r["counts"].values()) for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
