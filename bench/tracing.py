"""Spans around the calls into each library module, recorded from the
benchmark's own files.

``install(tracer)`` rebinds the entry points listed in ``SPANS``,
``LEAVES`` and ``COUNTERS``: methods on their classes, module functions
in every ``stieltjes`` namespace that holds them (``from .x import y``
copies included), so calls between modules are seen too.  Nothing in
``src/`` changes.

* A span records (id, op, parent, name, start, end, attributes).  Spans
  of one operation share its op id; the benchmark opens one ``op`` span
  per operation.
* Leaves (point reads of a step function) are called too often to keep
  one span each: they add their count and time to per-name totals and
  their time to the enclosing span, so that span's self time excludes
  them.
* Counters only count (gauge evaluations).

Spans stay in memory until the run ends, when the worker writes
``snapshot()`` to the trace file.  ``reduce_spans`` and ``layer_metrics``
turn snapshots into the per-layer metrics; a span's self time is its
duration minus its child spans and leaf calls.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaf_calls: dict[str, int] = {}
        self.leaf_time: dict[str, float] = {}
        self.leaf_under: dict[int, float] = {}
        self.counts: dict[str, int] = {}

    def open(self, name: str) -> list:
        rec = [len(self.spans), self.op, self.stack[-1] if self.stack else -1, name,
               _now(), 0.0, None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def close(self, rec: list, attrs=None) -> None:
        rec[5] = _now()
        self.stack.pop()
        rec[6] = attrs

    def snapshot(self) -> dict:
        """Everything recorded, as a JSON-ready dict."""
        return {"spans": self.spans, "leaf_calls": self.leaf_calls,
                "leaf_time": self.leaf_time,
                "leaf_under": {str(k): v for k, v in self.leaf_under.items()},
                "counts": self.counts}


def _span(tracer: Tracer, name: str, fn, annotate):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        rec = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(rec, {"error": type(exc).__name__})
            raise
        tracer.close(rec, annotate(args, out) if annotate else None)
        return out
    return wrapper


def _leaf(tracer: Tracer, name: str, fn):
    tracer.leaf_calls.setdefault(name, 0)
    tracer.leaf_time.setdefault(name, 0.0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _now() - t0
            tracer.leaf_calls[name] += 1
            tracer.leaf_time[name] += dt
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.leaf_under[parent] = tracer.leaf_under.get(parent, 0.0) + dt
    return wrapper


def _counter(tracer: Tracer, name: str, fn):
    tracer.counts.setdefault(name, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


# -- attributes read after the call; each is O(1) ----------------------

def _build_attrs(args, out):
    return {"nodes_in": len(args[2]), "nodes_out": len(args[0].nodes)}


def _cells_attrs(args, out):
    return {"cells": out[0].piece_count}


def _step_pair_attrs(args, out):
    f, g = args[0], args[1]
    step = f if hasattr(f, "piece_count") else g
    return {"terms": step.piece_count + 1}


def _riemann_attrs(args, out):
    return {"terms": args[2].size}


def _young_attrs(args, out):
    return {"terms": 3 * args[2].size}


def _oracle_attrs(args, out):
    return {"levels": out.levels, "converged": bool(out.converged)}


def _fine_cells_attrs(args, out):
    return {"cells": len(out)}


# (module, attribute path, span name, attributes)
SPANS = (
    ("stieltjes.stepfun", "StepFunction.__init__", "stepfun.build", _build_attrs),
    ("stieltjes.stepfun", "StepFunction.__add__", "stepfun.add", None),
    ("stieltjes.stepfun", "StepFunction.__radd__", "stepfun.add", None),
    ("stieltjes.stepfun", "StepFunction.__sub__", "stepfun.add", None),
    ("stieltjes.stepfun", "StepFunction.__mul__", "stepfun.scale", None),
    ("stieltjes.stepfun", "StepFunction.__rmul__", "stepfun.scale", None),
    ("stieltjes.stepfun", "StepFunction.__neg__", "stepfun.scale", None),
    ("stieltjes.regulated", "PiecewiseLipschitz.approximate", "regulated.approximate", _cells_attrs),
    ("stieltjes.regulated", "MonotoneFunction.approximate", "regulated.approximate", _cells_attrs),
    ("stieltjes.integrate", "integrate", "integrate.integrate", None),
    ("stieltjes.integrate", "integrate_limit", "integrate.limit", None),
    ("stieltjes.integrate", "integrate_step_pair", "integrate.step_pair", _step_pair_attrs),
    ("stieltjes.integrate", "by_parts", "integrate.by_parts", None),
    ("stieltjes.partitions", "_generate_fine_cells", "partitions.fine_cells", _fine_cells_attrs),
    ("stieltjes.partitions", "interior_tags", "partitions.tags", None),
    ("stieltjes.sums", "riemann_sum", "sums.sum", _riemann_attrs),
    ("stieltjes.sums", "young_sum", "sums.sum", _young_attrs),
    ("stieltjes.oracle", "oracle_refinement", "oracle.run", _oracle_attrs),
    ("stieltjes.oracle", "oracle_gauge", "oracle.run", _oracle_attrs),
    ("stieltjes.dsl", "parse_spec", "dsl.parse", None),
    ("stieltjes.dsl", "build_pair", "dsl.build", None),
    ("stieltjes.cli", "run_text", "cli.run", None),
    ("stieltjes.cli", "_emit", "cli.render", None),
)
LEAVES = (
    ("stieltjes.stepfun", "StepFunction.value", "stepfun.lookup"),
    ("stieltjes.stepfun", "StepFunction.left_limit", "stepfun.lookup"),
    ("stieltjes.stepfun", "StepFunction.right_limit", "stepfun.lookup"),
)
COUNTERS = (
    ("stieltjes.partitions", "Gauge.__call__", "partitions.gauge"),
)


def _rebind(module_name: str, path: str, make) -> None:
    import importlib
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        setattr(owner, attr, make(owner.__dict__[attr]))
        return
    original = getattr(module, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "stieltjes" or name.startswith("stieltjes."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every listed entry point; ``tracer.active`` switches them on."""
    import stieltjes.cli  # noqa: F401  (load every module before rebinding)
    for module, path, name, attrs in SPANS:
        _rebind(module, path, lambda fn, n=name, a=attrs: _span(tracer, n, fn, a))
    for module, path, name in LEAVES:
        _rebind(module, path, lambda fn, n=name: _leaf(tracer, n, fn))
    for module, path, name in COUNTERS:
        _rebind(module, path, lambda fn, n=name: _counter(tracer, n, fn))


# ----------------------------------------------------------------------
# Reduction.

def self_times(spans, leaf_under) -> dict[int, float]:
    child = {}
    for sid, op, parent, name, start, end, attrs in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {s[0]: (s[5] - s[4]) - child.get(s[0], 0.0) - leaf_under.get(s[0], 0.0)
            for s in spans}


def reduce_spans(dumps: list[dict]) -> dict:
    """Per-layer totals over one or more dumps (one per process)."""
    acc = {"ops": 0, "self": {}, "time": {}, "calls": {}, "attrs": {}, "leaf_calls": {},
           "leaf_time": {}, "counts": {}, "oracle_runs": 0,
           "oracle_levels": 0, "oracle_converged": 0, "refused_op_time": []}
    for d in dumps:
        spans = [s for s in d["spans"] if s[1] >= 0]
        leaf_under = {int(k): v for k, v in d["leaf_under"].items()}
        selfs = self_times(spans, leaf_under)
        for sid, op, parent, name, start, end, attrs in spans:
            if name == "op":
                acc["ops"] += 1
                if attrs and attrs.get("refused"):
                    acc["refused_op_time"].append(end - start)
                continue
            acc["self"][name] = acc["self"].get(name, 0.0) + selfs[sid]
            failed = bool(attrs and "error" in attrs)
            key = name + (".error" if failed else "")
            acc["time"][key] = acc["time"].get(key, 0.0) + (end - start)
            acc["calls"][key] = acc["calls"].get(key, 0) + 1
            for k, v in (attrs or {}).items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    acc["attrs"][(name, k)] = acc["attrs"].get((name, k), 0) + v
            if name == "oracle.run" and not failed:
                acc["oracle_runs"] += 1
                acc["oracle_levels"] += attrs["levels"]
                acc["oracle_converged"] += attrs["converged"]
        for k, v in d["leaf_calls"].items():
            acc["leaf_calls"][k] = acc["leaf_calls"].get(k, 0) + v
        for k, v in d["leaf_time"].items():
            acc["leaf_time"][k] = acc["leaf_time"].get(k, 0.0) + v
        for k, v in d["counts"].items():
            acc["counts"][k] = acc["counts"].get(k, 0) + v
    return acc


# Per-layer metric: (unit, which direction is better).
LAYER_METRICS = {
    "regulated.approximate_ms": ("ms", "lower"),
    "regulated.cells_per_s": ("1/s", "higher"),
    "regulated.cells_built": ("count", "lower"),
    "regulated.bound_use": ("1", "higher"),
    "regulated.refusal_ms": ("ms", "lower"),
    "stepfun.build_ms": ("ms", "lower"),
    "stepfun.nodes_in": ("count", "lower"),
    "stepfun.nodes_merged": ("count", "lower"),
    "stepfun.add_ms": ("ms", "lower"),
    "stepfun.lookup_calls": ("count", "lower"),
    "stepfun.lookup_ms": ("ms", "lower"),
    "integrate.step_pair_ms": ("ms", "lower"),
    "integrate.terms": ("count", "lower"),
    "integrate.terms_per_s": ("1/s", "higher"),
    "integrate.exact_miss_ratio": ("1", "lower"),
    "partitions.fine_cells_ms": ("ms", "lower"),
    "partitions.tags_ms": ("ms", "lower"),
    "partitions.gauge_calls": ("count", "lower"),
    "partitions.cells_accepted_ratio": ("1", "higher"),
    "sums.sum_ms": ("ms", "lower"),
    "sums.terms_per_s": ("1/s", "higher"),
    "oracle.self_ms": ("ms", "lower"),
    "oracle.levels": ("count", "lower"),
    "oracle.terms": ("count", "lower"),
    "oracle.converged_ratio": ("1", "higher"),
    "dsl.parse_ms": ("ms", "lower"),
    "dsl.build_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.run_ms": ("ms", "lower"),
    "cli.render_ms": ("ms", "lower"),
    "cli.interpreter_ms": ("ms", "lower"),
    "bench.trace_overhead_ratio": ("1", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(acc: dict, tally: dict, cli: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from reduced spans, the
    workload's check tallies and the CLI timings.  ``*_ms`` are self
    milliseconds per op; counts are per op unless named a ratio; a layer
    the workload does not exercise reads 0."""
    ops = acc["ops"]
    s, t, a = acc["self"], acc["time"], acc["attrs"]

    def per_op_ms(name):
        return 1000.0 * _ratio(s.get(name, 0.0), ops)

    cells = a.get(("regulated.approximate", "cells"), 0)
    approx_calls = acc["calls"].get("regulated.approximate", 0)
    nodes_in = a.get(("stepfun.build", "nodes_in"), 0)
    nodes_out = a.get(("stepfun.build", "nodes_out"), 0)
    gauge_calls = acc["counts"].get("partitions.gauge", 0)
    refusals = acc["refused_op_time"]
    return {
        "regulated.approximate_ms": per_op_ms("regulated.approximate"),
        "regulated.cells_per_s": _ratio(cells, t.get("regulated.approximate", 0.0)),
        "regulated.cells_built": _ratio(cells, approx_calls),
        "regulated.bound_use": statistics.median(tally["bound_use"]) if tally["bound_use"] else 0.0,
        "regulated.refusal_ms": 1000.0 * (statistics.fmean(refusals) if refusals else 0.0),
        "stepfun.build_ms": per_op_ms("stepfun.build"),
        "stepfun.nodes_in": _ratio(nodes_in, ops),
        "stepfun.nodes_merged": _ratio(nodes_in - nodes_out, ops),
        "stepfun.add_ms": per_op_ms("stepfun.add"),
        "stepfun.lookup_calls": _ratio(acc["leaf_calls"].get("stepfun.lookup", 0), ops),
        "stepfun.lookup_ms": 1000.0 * _ratio(acc["leaf_time"].get("stepfun.lookup", 0.0), ops),
        "integrate.step_pair_ms": per_op_ms("integrate.step_pair"),
        "integrate.terms": _ratio(a.get(("integrate.step_pair", "terms"), 0), ops),
        "integrate.terms_per_s": _ratio(a.get(("integrate.step_pair", "terms"), 0),
                                        t.get("integrate.step_pair", 0.0)),
        "integrate.exact_miss_ratio": _ratio(tally["exact_misses"], tally["step_pairs"]),
        "partitions.fine_cells_ms": per_op_ms("partitions.fine_cells"),
        "partitions.tags_ms": per_op_ms("partitions.tags"),
        "partitions.gauge_calls": _ratio(gauge_calls, ops),
        "partitions.cells_accepted_ratio": _ratio(a.get(("partitions.fine_cells", "cells"), 0),
                                                  gauge_calls),
        "sums.sum_ms": per_op_ms("sums.sum"),
        "sums.terms_per_s": _ratio(a.get(("sums.sum", "terms"), 0), t.get("sums.sum", 0.0)),
        "oracle.self_ms": per_op_ms("oracle.run"),
        "oracle.levels": _ratio(acc["oracle_levels"], acc["oracle_runs"]),
        "oracle.terms": _ratio(a.get(("sums.sum", "terms"), 0), acc["oracle_runs"]),
        "oracle.converged_ratio": _ratio(acc["oracle_converged"], acc["oracle_runs"]),
        "dsl.parse_ms": per_op_ms("dsl.parse"),
        "dsl.build_ms": per_op_ms("dsl.build"),
        "cli.import_ms": cli.get("import_ms", 0.0),
        "cli.run_ms": per_op_ms("cli.run"),
        "cli.render_ms": per_op_ms("cli.render"),
        "cli.interpreter_ms": cli.get("interpreter_ms", 0.0),
    }
