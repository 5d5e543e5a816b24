"""Self-test of the benchmark at toy sizes (same code paths, seconds to run).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the workloads the benchmark runs,
that every metric is printed with its unit, that traced counts
(ipm.iterations, kernel.rank, cpm.iterations_per_rebuild) repeat exactly at
one seed, and that a deliberately corrupted output of each workload is
counted as a failed operation.  Last, one traced operation of each workload
in harness.LAYER_MAP runs at full size and must meet its layer map; this
part takes about a minute.  Exits 1 on any failure.
"""
from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile

import run

DETERMINISTIC = ("ipm.iterations", "kernel.rank", "cpm.iterations_per_rebuild")


def _move_off_optimum(sol):
    sol.x = 0.5 * sol.x + 0.25
    return sol


def _edit_report(out, edit):
    with open(out["report"], encoding="utf-8") as fh:
        report = json.load(fh)
    edit(report)
    with open(out["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return out


def _misreport_dual(out):
    return _edit_report(out, lambda r: r.update(objective=r["objective"] * 1.01))


def _flip_labels(out):
    return _edit_report(out, lambda r: r.update(labels=[-label for label in r["labels"]]))


def _perturb_factor_column(out):
    out[0].U[:, 0] += 1e-3
    return out


CORRUPTIONS = {
    "qp-maintained-n32": _move_off_optimum,
    "svm-gaussian-cli": _misreport_dual,
    "svm-predict-cli": _flip_labels,
    "kernel-factor-n4000": _perturb_factor_column,
}


def main():
    if run.load_program() is None:
        print("selftest: no program under src/", file=sys.stderr)
        return 2
    import harness
    from workloads import TOY_WORKLOADS, WORKLOADS

    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    expect(sorted(WORKLOADS) == sorted(TOY_WORKLOADS) == sorted(CORRUPTIONS),
           "every workload has a toy size and a corruption")
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        for name, wl in TOY_WORKLOADS.items():
            traced = []
            for trace in (False, True, True):
                result, detail, _ = harness.measure(wl, 7, 0.5, trace, workdir,
                                                    log=lambda _: None)
                metrics = result["metrics"]
                expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                       and result["correct"] and result["failed"] == 0
                       and result["attempted"] >= 1,
                       f"{name} trace={int(trace)}: correct, "
                       f"{result['failed']} of {result['attempted']} failed")
                expect({k: v["unit"] for k, v in metrics.items()} == wanted[trace]
                       and all(math.isfinite(v["value"]) for v in metrics.values()),
                       f"{name} trace={int(trace)}: every metric printed with its unit")
                if not trace:
                    expect(all(v["value"] > 0 for v in metrics.values()),
                           f"{name}: end-to-end metrics are positive")
                else:
                    traced.append([{k: v[k] for k in DETERMINISTIC} for v in detail["layers"]])
            same = min(len(t) for t in traced)
            expect(traced[0][:same] == traced[1][:same],
                   f"{name}: {', '.join(DETERMINISTIC)} repeat at one seed, "
                   f"operation by operation: {traced[0][:min(same, 3)]}")
            result, _, _ = harness.measure(wl, 7, 0.5, False, workdir,
                                           corrupt=CORRUPTIONS[name], log=lambda _: None)
            expect(result["failed"] == result["attempted"] and not result["correct"],
                   f"{name}: corrupted outputs counted, {result['failed']} of "
                   f"{result['attempted']} failed")
        # The layer map holds at full size only: at toy sizes fixed costs
        # (parsing, the kernel factor) outweigh the ipm step.  Three
        # operations, one of them traced.
        for name in harness.LAYER_MAP:
            result, _, _ = harness.measure(WORKLOADS[name], 7, 0.0, True, workdir,
                                           log=lambda _: None)
            line, ok = harness.layer_map(name, result["metrics"])
            expect(ok and result["correct"], f"{name} at full size: {line}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
