"""Spans around the public functions of rankqp, installed from outside the program.

Each wrapper is put at the name its caller looks up: module attributes that
are read at call time (``ipm.central_path_step``, ``exactds.woodbury_apply``,
which ``ipm`` imports inside the step), methods on the ``ExactDS`` and
``ApproxDS`` classes that ``cpm`` imported, and ``cli.parse_libsvm`` rather
than ``libsvm_io.parse_libsvm``.  Spans are named after the module that
defines the function.  They are kept in memory while the benchmark runs and
written out once at the end.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

from rankqp import cli, cpm, exactds, ipm, kernel, model, oracle, sketch, svm

MB = float(2 ** 20)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span; None directly under the benchmark
    run: int             # index of the benchmark operation the span belongs to


class Tracer:
    """Records a span per wrapped call while ``run`` names an operation."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))  # run -> counter -> value
        self.run = None
        self._stack = []

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.run is None:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(name, start, end, parent, self.run)
            if observe is not None:
                observe(self.counts[self.run], args, result)
            return result
        return traced

    def write(self, path, origin):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                rec = asdict(span)
                rec["id"] = sid
                rec["start"] -= origin
                rec["end"] -= origin
                fh.write(json.dumps(rec) + "\n")

    def layer_totals(self, run):
        """calls, inclusive seconds and self seconds per span name for one run."""
        child = defaultdict(float)
        mine = [(sid, s) for sid, s in enumerate(self.spans) if s.run == run]
        for _, s in mine:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = defaultdict(float)
        for sid, s in mine:
            out[s.name + ".calls"] += 1
            out[s.name + ".s"] += s.end - s.start
            out[s.name + ".self_s"] += s.end - s.start - child[sid]
        return out


def _observe_update(counts, args, result):
    counts["exactds.refreshed"] += result.idx.size
    counts["exactds.n"] = args[0].inst.n


def _observe_factor(counts, args, result):
    counts["kernel.rank"] = result.rank
    counts["kernel.n"] = result.U.shape[0]
    counts["kernel.factor_mb"] = (result.U.nbytes + result.V.nbytes) / MB


def _observe_parse(counts, args, result):
    counts["libsvm_io.mb"] += os.path.getsize(args[0]) / MB


def _targets():
    """(owner, attribute, span name, observer) for every wrapped function."""
    return [
        (model, "build_qp_instance", "model.build_qp_instance", None),
        (model, "augment_for_initial_point", "model.augment_for_initial_point", None),
        (model, "restrict_solution", "model.restrict_solution", None),
        (ipm, "centering", "ipm.centering", None),
        (ipm, "central_path_step", "ipm.central_path_step", None),
        (ipm, "compute_error_terms", "ipm.compute_error_terms", None),
        (exactds, "woodbury_apply", "exactds.woodbury_apply", None),
        (exactds.ExactDS, "__init__", "exactds.ExactDS.init", None),
        (exactds.ExactDS, "move", "exactds.ExactDS.move", None),
        (exactds.ExactDS, "update", "exactds.ExactDS.update", _observe_update),
        (sketch.ApproxDS, "__init__", "sketch.ApproxDS.init", None),
        (sketch.ApproxDS, "move_and_query", "sketch.ApproxDS.move_and_query", None),
        (sketch.ApproxDS, "update", "sketch.ApproxDS.update", None),
        (cpm, "centering_lowrank", "cpm.centering_lowrank", None),
        (kernel, "gaussian_lowrank_factor", "kernel.gaussian_lowrank_factor", _observe_factor),
        (kernel, "squared_radius", "kernel.squared_radius", None),
        (kernel, "feature_map", "kernel.feature_map", None),
        (svm, "train", "svm.train", None),
        (svm, "reduce_to_qp", "svm.reduce_to_qp", None),
        (svm, "recover_primal", "svm.recover_primal", None),
        (oracle, "kkt_residuals", "oracle.kkt_residuals", None),
        (cli, "parse_libsvm", "libsvm_io.parse_libsvm", _observe_parse),
        (cli, "dump_model", "cli.dump_model", None),
        (cli, "load_model", "cli.load_model", None),
        (cli, "cli_run", "cli.cli_run", None),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, observe in _targets():
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, observe))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _ratio(a, b):
    return a / b if b else 0.0


# Per-layer metrics that are not span totals ("calls"/"s"/"self_s" suffixes),
# from the span totals t and the operation's counters c.
DERIVED = {
    "exactds.refresh_frac": lambda t, c: _ratio(
        _ratio(c["exactds.refreshed"], t["exactds.ExactDS.update.calls"]), c["exactds.n"]),
    "cpm.iterations_per_rebuild": lambda t, c: _ratio(
        c["ipm.iterations"], t["sketch.ApproxDS.init.calls"]),
    "kernel.rank": lambda t, c: c["kernel.rank"],
    "kernel.rank_over_n": lambda t, c: _ratio(c["kernel.rank"], c["kernel.n"]),
    "kernel.factor_mb": lambda t, c: c["kernel.factor_mb"],
    "ipm.iterations": lambda t, c: c["ipm.iterations"],
    "libsvm_io.parse_libsvm.mb_per_s": lambda t, c: _ratio(
        c["libsvm_io.mb"], t["libsvm_io.parse_libsvm.s"]),
}


def layer_values(tracer, run, extra, names):
    """Every per-layer metric in ``names`` except trace.overhead_s, for one
    traced operation.  ``extra`` holds the operation's call times
    ("call." metrics) and program-reported counts."""
    totals = tracer.layer_totals(run)
    counts = defaultdict(float, tracer.counts[run])
    counts.update(extra)
    out = {}
    for name in names:
        if name in DERIVED:
            out[name] = float(DERIVED[name](totals, counts))
        elif name.startswith("call."):
            out[name] = float(counts.get(name[len("call."):], 0.0))
        elif name != "trace.overhead_s":
            out[name] = float(totals.get(name, 0.0))
    return out
