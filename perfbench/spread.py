"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload svm-gaussian-cli --seeds 1-10

Runs perfbench/run.py once per seed, one run at a time, for BENCHMARK.json's
run_seconds, and echoes each run's per-call times, set-up, memory and
failure rate.  With two seeds or
more it then prints per metric the median, the quartiles and the quartile
distance as a share of the median, against the metric's bound from
BENCHMARK.json.  ``--workload all`` covers every workload.  The benchmark is
steady when every share except setup_s stays below a third of its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Summary lines of run.py echoed per run: the per-call split, set-up, memory, failures.
SUMMARY = {"solve_s", "train_s", "predict_s", "factor_s", "featurize_s", "op_s",
           "op_cpu_s", "setup_s", "peak_rss_mb", "failure_rate"}


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args(argv)
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    steady = True
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
                 str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                if line.split(" ", 1)[0] in SUMMARY:
                    print(f"{name} seed {seed}: {line}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
                steady = False
            for metric, rec in result["metrics"].items():
                values[metric].append(rec["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        if len(args.seeds) < 2:
            continue
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            ok = share < m["bound"] / 3 or m["name"] == "setup_s"
            steady &= ok
            print(f"{name} {m['name']}: median {med:.4g} {m['unit']}, quartiles "
                  f"{q1:.4g}..{q3:.4g}, spread {share:.3f} of median "
                  f"(bound {m['bound']}) {'ok' if ok else 'TOO WIDE'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
