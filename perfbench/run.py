"""rankqp benchmark: one workload, one process, one result line.

    python3 perfbench/run.py --workload svm-gaussian-cli --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ./src.
Workloads (see workloads.py): qp-maintained-n32, svm-gaussian-cli,
svm-predict-cli, kernel-factor-n4000.  An operation is one closed-loop unit
of a workload: one ``solve()`` on qp-maintained-n32, one ``train-svm`` on
svm-gaussian-cli, one ``predict`` on svm-predict-cli,
``gaussian_lowrank_factor`` then ``feature_map`` on kernel-factor-n4000.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones:

    op_cpu_s     median CPU time (user + system) of one operation (s)
    setup_s      CPU time of the imports plus the median of repeated input
                 set-ups: generation, LIBSVM emission, build_qp_instance (s)
    peak_rss_mb  high-water resident set size of the process (MB = 2^20 B)

With ``--trace 1`` they are the per_layer metrics of BENCHMARK.json,
medians over the traced operations, 0 for layers a workload never calls.
Every operation's output is gated (workloads.py); a raise, a nonzero CLI
exit code or a missed gate makes it a failed operation.  The lines before
the result give the environment, the wall time of each operation (op_s)
and its per-call split (solve_s, train_s, predict_s, factor_s, featurize_s)
with sample counts, and the failure rate.  harness.py says why the gated
times are CPU time.
Traced runs also write their spans to .perfbench_out/ at the checkout root.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread; the load runs in this one
# process.  This must happen before numpy is imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def load_program():
    """Pin the thread pools and import rankqp from the checkout's src/.
    Returns the import time, or None when there is no program to measure."""
    os.environ.update(THREAD_ENV)
    src = ROOT / "src"
    if not (src / "rankqp" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    t0 = time.process_time()
    import rankqp
    import harness  # noqa: F401  (these two pull in numpy, scipy and all of rankqp)
    import workloads  # noqa: F401
    import_s = time.process_time() - t0
    if Path(rankqp.__file__).resolve().parent != src / "rankqp":
        raise ImportError(f"rankqp imported from {rankqp.__file__}, not {src}")
    return import_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = load_program()
    if import_s is None:
        print(f"perfbench: no program at {ROOT / 'src' / 'rankqp'}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        result, detail, tracer = harness.measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            workdir, import_s=import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in harness.summary_lines(args.workload, args.seed, args.trace, result,
                                      detail, harness.environment(THREAD_ENV)):
        print(line)
    if tracer is not None:
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, detail["origin"])
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
