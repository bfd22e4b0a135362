"""Run one workload in this process: set-up, then the timed closed loop.

    python3 bench/worker.py --workload NAME --seed N --seconds S --t0 T
                            [--setup-only] [--trace FILE]

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, shared by all processes on Linux), so
``setup_s`` runs from process start until the library's inputs are
built.  The workload's references are computed after that, untimed, and
the objects set-up made are then frozen out of the garbage collector, so
each op pays for collecting its own garbage and not for traversing the
benchmark's inputs and references.

Only the operation is timed.  Before each one, untimed, ``calibrate()``
runs ``CAL_RUNS`` times; ``run.py`` uses these samples to express every
time at the machine speed ``CAL_REF_S`` stands for (see there).  The
loop issues operations one after the other until they have taken
``--seconds`` at that speed and the workload's schedule has completed a
whole cycle, so that every run measures the same mix, and the same
number of ops whether the machine is in a fast or a slow phase (the op
count decides which percentile is the tail).  In a phase so slow that
the loop has run ``WALL_CAP`` times ``--seconds`` of wall time, it stops
at the next whole cycle instead, which bounds a run's length.

With ``--trace`` the entry points are rebound before any input is built
and the spans are written to FILE when the loop ends.  The result is one
JSON line on stdout.
"""

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

KEEP_NOTES = 5
INTERPRETER_RUNS = 7
CAL_SIZE = 2500
CAL_REF_S = 0.001     # calibrate()'s time at the machine speed times are given at
CAL_RUNS = 2          # calibration samples before each op
SETUP_CAL_RUNS = 5    # and right after set-up
WALL_CAP = 1.5        # the loop's wall time, in --seconds, after which it ends


def calibrate() -> float:
    """Wall seconds of one fixed pure-Python task of the kind the library
    spends its time on: build a list of floats, sort it, walk it with
    float arithmetic and bisect into it.  It shares no code with the
    library, so no change to the library moves it."""
    t0 = time.perf_counter()
    xs = [(k * 7919 % 1543) / 1543.0 for k in range(CAL_SIZE)]
    ys = sorted(xs)
    acc = 0.0
    for a, b in zip(ys, ys[1:]):
        acc += a * (b - a)
    [bisect.bisect_left(ys, x) for x in xs[::5]]
    return time.perf_counter() - t0


def interpreter_ms() -> float:
    """Median wall time of a bare ``python -c pass``."""
    times = []
    for _ in range(INTERPRETER_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliJobs:
        wl = cls(args.seed, ROOT, traced=tracer is not None)
    else:
        wl = cls(args.seed)
    run = wl.prepare(0)
    setup_s = time.perf_counter() - args.t0
    calibrate()  # warm-up, discarded
    setup_cal = [calibrate() for _ in range(SETUP_CAL_RUNS)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cal": setup_cal}))
        return 0
    wl.expect_all()
    gc.collect()
    gc.freeze()
    mark_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    latencies, cal, counts = [], [], {"ok": 0, "failed": 0, "refused": 0}
    notes = {"failed": [], "refused": []}
    child_dumps = []
    spent = 0.0   # op time so far, at reference speed
    wall_end = time.perf_counter() + WALL_CAP * args.seconds
    i = 0
    while True:
        cal.append([calibrate() for _ in range(CAL_RUNS)])
        if tracer:
            tracer.active, tracer.op = True, i
            rec = tracer.open("op")
        t_a = time.perf_counter()
        try:
            out, exc = run(), None
        except Exception as e:  # the check decides whether this was expected
            out, exc = None, e
        t_b = time.perf_counter()
        if tracer:
            tracer.close(rec)
            tracer.active = False
        latencies.append(t_b - t_a)
        spent += (t_b - t_a) * CAL_REF_S / statistics.median(cal[-1])
        status, note = wl.check(i, out, exc)
        counts[status] += 1
        if note and len(notes[status]) < KEEP_NOTES:
            notes[status].append(note)
        if tracer and status == "refused":
            rec[6] = {"refused": True}
        if tracer and out is not None and hasattr(out, "stderr"):
            for line in out.stderr.splitlines():
                if line.startswith("BENCH-TRACE "):
                    dump = json.loads(line[len("BENCH-TRACE "):])
                    for span in dump["spans"]:
                        span[1] = i
                    child_dumps.append(dump)
        out = exc = None  # a refusal's traceback holds its approximant alive
        i += 1
        if i % wl.cycle == 0 and (spent >= args.seconds or time.perf_counter() >= wall_end):
            break
        run = wl.prepare(i)
    cal.append([calibrate() for _ in range(CAL_RUNS)])

    children = cls is workloads.CliJobs
    result = {
        "setup_s": setup_s,
        "setup_cal": setup_cal,
        "latencies": latencies,
        "cal": cal,
        "counts": counts,
        "notes": notes,
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF).ru_maxrss,
        "setup_rss_kb": None if children else mark_kb,
        "tally": {"step_pairs": wl.tally.step_pairs, "exact_misses": wl.tally.exact_misses,
                  "bound_use": wl.tally.bound_use},
    }
    # After the peak memory is read: the probe is no part of the ops.
    known_defect = getattr(wl, "known_defect", None)
    result["known_defect"] = known_defect() if known_defect else None
    if tracer:
        cli = {}
        if cls is workloads.CliJobs:
            dumps = child_dumps
            cli = {"interpreter_ms": interpreter_ms(),
                   "import_ms": statistics.median(d["import_ms"] for d in dumps)}
        else:
            dumps = [tracer.snapshot()]
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"dumps": dumps, "cli": cli}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
