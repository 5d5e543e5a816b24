"""Closed-loop measurement of one workload and the result line.

One run: set the workload up SETUP_REPS times (median reported), compute
the gate references, then run operations back to back until the measured
operation time would pass the window, gating each output outside the timed
region.  With tracing on, the first operation warms up untraced and the
rest alternate traced / untraced; the layer metrics come from the traced
ones and ``trace.overhead_s`` is the traced minus the untraced median
CPU time of an operation.

The gated times (op_cpu_s, setup_s) are CPU seconds of this process, user
plus system.  The process computes on one thread (run.THREAD_ENV), so on an
idle machine CPU time equals wall time; on a shared machine wall time also
counts the time the process waits for a CPU, which swings by tens of
percent from minute to minute and would hide the program's own changes.
The window, the per-call split and the layer spans stay in wall time.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing

SETUP_REPS = 3

# Metric names and units, as BENCHMARK.json lists them.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Where the trace must put the time: (layer metrics, call, least share of the call).
LAYER_MAP = {
    "qp-maintained-n32": (tuple(n for n, unit in PER_LAYER.items() if unit == "s"
                                and n.startswith(("exactds.", "sketch."))),
                          "call.solve_s", 0.8),
    "svm-gaussian-cli": (("ipm.central_path_step.s",), "call.train_s", 0.8),
    "kernel-factor-n4000": (("kernel.gaussian_lowrank_factor.s",), "call.factor_s", 0.9),
}

# The calls the workloads time, in seconds.
CALLS = ("solve_s", "train_s", "predict_s", "factor_s", "featurize_s")


def environment(thread_env):
    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas(np), "openblas_scipy": blas(scipy),
            "threads": {k: os.environ.get(k) for k in thread_env}}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(workload, seed, seconds, trace, workdir, import_s=0.0, corrupt=None,
            log=print):
    """Run ``workload`` for about ``seconds`` of operation time; return the
    result dict (correct, attempted, failed, metrics) plus a ``detail`` dict
    and the tracer (None when untraced)."""
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.process_time()
        state = workload.setup(seed, workdir)
        setup_times.append(time.process_time() - t0)
    workload.prepare(state)
    rss_before_ops = _peak_rss_mb()

    tracer = tracing.Tracer() if trace else None
    ops = []
    busy = 0.0
    origin = time.perf_counter()
    with tracing.installed(tracer) if trace else contextlib.nullcontext():
        i = 0
        while True:
            inp = workload.input(state, i)
            traced = trace and i % 2 == 1
            warmup = trace and i == 0
            rec = {"traced": traced, "warmup": warmup, "calls": {}, "misses": [],
                   "counts": {}}
            if tracer is not None:
                tracer.run = i if traced else None
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rec["calls"], out = workload.op(state, inp)
            except Exception:  # an operation that raises is a failed operation
                traceback.print_exc()
                out = None
                rec["misses"].append("raised")
            finally:
                rec["op_s"] = time.perf_counter() - t0
                rec["op_cpu_s"] = time.process_time() - c0
                if tracer is not None:
                    tracer.run = None
            if out is not None:
                if corrupt is not None:
                    out = corrupt(out)
                rec["misses"] = workload.check(state, inp, out)
                if not rec["misses"]:
                    rec["counts"] = workload.counts(out)
            out = None
            ops.append(rec)
            busy += rec["op_s"]
            i += 1
            expected = statistics.median(r["op_s"] for r in ops)
            if busy + expected > seconds and i >= (3 if trace else 1):
                break

    failed = sum(1 for r in ops if r["misses"])
    for n, r in enumerate(ops):
        for miss in r["misses"]:
            log(f"operation {n} failed: {miss}")
    timed = [r for r in ops if not r["traced"]]
    detail = {
        "setup_s": {"import_s": import_s, "setup_reps_s": setup_times},
        "calls": {name: [r["calls"][name] for r in timed if name in r["calls"]]
                  for name in CALLS},
        "op_s": [r["op_s"] for r in timed],
        "op_cpu_s": [r["op_cpu_s"] for r in timed],
        "counts": [r["counts"] for r in ops],
        "failure_rate": failed / len(ops),
        "rss_before_ops_mb": rss_before_ops,
        "origin": origin,
    }
    if trace:
        metrics, detail["layers"] = _layer_metrics(tracer, ops)
    else:
        metrics = {
            "op_cpu_s": statistics.median(detail["op_cpu_s"]),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    return result, detail, tracer


def _layer_metrics(tracer, ops):
    """Medians over the traced operations, and the per-operation values."""
    per_op = []
    for n, r in enumerate(ops):
        if r["traced"]:
            extra = dict(r["calls"])
            extra.update(r["counts"])
            per_op.append(tracing.layer_values(tracer, n, extra, PER_LAYER))
    values = {name: statistics.median(v[name] for v in per_op) for name in per_op[0]}
    plain = [r["op_cpu_s"] for r in ops if not (r["traced"] or r["warmup"])]
    traced = [r["op_cpu_s"] for r in ops if r["traced"]]
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in PER_LAYER.items()}
    return metrics, per_op


def summary_lines(workload_name, seed, trace, result, detail, env):
    """Human-readable lines printed before the result line."""
    out = [f"perfbench workload={workload_name} seed={seed} trace={int(trace)}",
           f"environment {env}"]
    for name, samples in detail["calls"].items():
        if samples:
            out.append(f"{name} median {statistics.median(samples):.4f} s "
                       f"over {len(samples)} calls")
    for name in ("op_s", "op_cpu_s"):
        ops = detail[name]
        out.append(f"{name} median {statistics.median(ops):.4f} s over {len(ops)} operations")
    s = detail["setup_s"]
    out.append(f"setup_s = import {s['import_s']:.4f} s + median of "
               f"{len(s['setup_reps_s'])} set-ups {statistics.median(s['setup_reps_s']):.4f} s")
    out.append(f"peak_rss_mb {_peak_rss_mb():.1f} MB "
               f"({detail['rss_before_ops_mb']:.1f} MB before the first operation)")
    out.append(f"failure_rate {detail['failure_rate']:.4f} "
               f"({result['failed']} of {result['attempted']} operations)")
    out.append(f"counts per operation {detail['counts']}")
    if trace and workload_name in LAYER_MAP:
        out.append(layer_map(workload_name, result["metrics"])[0])
    return out


def layer_map(workload_name, metrics):
    """The layer-map line of a traced run, and whether the share is met."""
    layers, call, least = LAYER_MAP[workload_name]
    share = sum(metrics[n]["value"] for n in layers) / max(metrics[call]["value"], 1e-12)
    ok = share >= least
    return (f"layer map: {' + '.join(layers)} is {share:.3f} of {call} "
            f"(needs >= {least}) {'ok' if ok else 'NOT MET'}"), ok
