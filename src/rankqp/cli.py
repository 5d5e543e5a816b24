"""Command line interface.

Commands: solve-qp, train-svm, factor-kernel, verify, predict.  Every
command can write a versioned JSON report, bit-identical across runs on the
same input except for the timing block.  Only solve-qp --backend lowrank
draws anything (its sketch, when that has fewer rows than coordinates), so
only its report carries the --seed.

Exit codes: 0 success, 2 validation/parse error, 3 solver failure,
64 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import barrier, ipm, kernel, model, oracle, svm
from .exceptions import (InvariantViolation, ParseError, RankQPError,
                         SolverError, ValidationError)
from .libsvm_io import parse_libsvm
from .svm import dump_model, load_model

SCHEMA = 4
EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 64.  Flags match only when spelled out in full, so
    an unknown flag such as --mode is refused instead of being taken for an
    abbreviation of --model or --model-out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _jsonable(obj):
    if isinstance(obj, float):
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_report(report, path):
    # Compact: json uses its C encoder only when indent is None.
    text = json.dumps(_jsonable(report), sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _bound(block, i, key):
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"block {i} bound {key} is {value!r}, not a number")
    return value


def load_instance_json(path):
    """Instance file: JSON object with c, A, b, blocks [{lo, hi}...] and
    optional weights, R, r, L, and either U and V or Q."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        blocks = [barrier.BlockDomain.box(_bound(blk, i, "lo"), _bound(blk, i, "hi"))
                  for i, blk in enumerate(data["blocks"])]
        return model.build_qp_instance(
            c=data["c"], A=data.get("A"), b=data.get("b", []), blocks=blocks,
            weights=data.get("weights"), R=data.get("R"), r=data.get("r"),
            L=data.get("L"),
            U=data.get("U"), V=data.get("V"), Q=data.get("Q"))
    except KeyError as exc:
        raise ValidationError(f"instance file missing field {exc}") from exc


def _kkt_block(inst, x, s, y):
    rep = oracle.kkt_residuals(inst, x, s, y)
    return {"stationarity": rep.stationarity,
            "primal_residual_l1": rep.primal_residual_l1,
            "duality_gap": rep.duality_gap,
            "objective": rep.objective}


def _cmd_solve_qp(args):
    inst = load_instance_json(args.instance)
    t0 = time.perf_counter()
    sol = ipm.solve(inst, args.epsilon, backend=args.backend, seed=args.seed)
    elapsed = time.perf_counter() - t0
    report = {"schema": SCHEMA, "command": "solve-qp",
              "parameters": {"epsilon": args.epsilon,
                             "backend": sol.report["backend"]},
              "objective": sol.report["objective"],
              "iterations": sol.report["iterations"],
              "solution": {"x": sol.x, "s": sol.s, "y": sol.y},
              "kkt": _kkt_block(inst, sol.x, sol.s, sol.y),
              "solve": sol.report,
              "timing": {"seconds": elapsed}}
    if args.oracle:
        xo, so, yo, rep = oracle.dense_solve_qp(inst, tol=1e-9)
        report["oracle"] = {"objective": rep.objective,
                            "gap_vs_oracle": sol.report["objective"] - rep.objective,
                            "budget": sol.report["error_budget"]}
    _write_report(report, args.report)
    return EXIT_OK


def _cmd_train_svm(args):
    ds = parse_libsvm(args.data)
    X = ds.to_dense()
    y = None if args.variant == "one-class" else ds.y
    spec = svm.SvmSpec(X=X, y=y, variant=args.variant, kernel=args.kernel,
                       C=args.C, nu=args.nu, eps_tube=args.eps_tube,
                       box_cap=args.radius_R)
    t0 = time.perf_counter()
    mdl = svm.train(spec, eps_solve=args.epsilon)
    elapsed = time.perf_counter() - t0
    report = {"schema": SCHEMA, "command": "train-svm",
              "parameters": {"variant": args.variant, "kernel": args.kernel,
                             "C": args.C, "nu": args.nu,
                             "eps_tube": args.eps_tube,
                             "epsilon": args.epsilon},
              "objective": mdl.dual_objective,
              "iterations": mdl.solve_report["iterations"],
              "bias": mdl.bias,
              "n_support": int(mdl.support.size),
              "solve": mdl.solve_report,
              "timing": {"seconds": elapsed}}
    if args.model_out:
        dump_model(mdl, args.model_out)
        report["model_path"] = args.model_out
    _write_report(report, args.report)
    return EXIT_OK


def _cmd_factor_kernel(args):
    ds = parse_libsvm(args.data)
    X = ds.to_dense()
    t0 = time.perf_counter()
    fact = kernel.gaussian_lowrank_factor(X, args.epsilon)
    elapsed = time.perf_counter() - t0
    report = {"schema": SCHEMA, "command": "factor-kernel",
              "parameters": {"epsilon": args.epsilon},
              "degree": fact.degree, "rank": fact.rank,
              "radius_B": fact.radius,
              "certified_sup_error": fact.sup_error,
              "prune_slack": fact.prune_slack,
              "rank_bound": kernel.rank_bound(X.shape[1], fact.degree),
              "timing": {"seconds": elapsed}}
    _write_report(report, args.report)
    return EXIT_OK


def _cmd_verify(args):
    inst = load_instance_json(args.instance)
    with open(args.report_file, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict):
        raise ValidationError("report to verify must be a JSON object")
    try:
        sol, stored = report["solution"], report["kkt"]
        if not (isinstance(sol, dict) and isinstance(stored, dict)):
            raise ValidationError("the report's solution and kkt must be JSON objects")
        x, s, y = (np.array(sol[k], dtype=float) for k in ("x", "s", "y"))
        for name, v, size in (("x", x, inst.n), ("s", s, inst.n), ("y", y, inst.m)):
            if v.shape != (size,):
                raise ValidationError(f"solution {name} has shape {v.shape}; "
                                      f"the instance needs ({size},)")
        fresh = _kkt_block(inst, x, s, y)
        worst = max(abs(fresh[k] - stored[k]) / max(1.0, abs(stored[k])) for k in fresh)
    except KeyError as exc:
        raise ValidationError(f"report to verify has no field {exc}") from exc
    ok = worst <= args.tolerance
    _write_report({"schema": SCHEMA, "command": "verify",
                   "recomputed": fresh, "stored": stored,
                   "max_relative_difference": worst,
                   "tolerance": args.tolerance, "match": ok}, args.report)
    return EXIT_OK if ok else EXIT_SOLVER


def _cmd_predict(args):
    mdl = load_model(args.model)
    ds = parse_libsvm(args.data)
    d = mdl.spec.X.shape[1]
    if ds.d > d:
        raise ValidationError(f"query dimension {ds.d} != training dimension {d}")
    X = ds.to_dense()
    if X.shape[1] < d:
        # LIBSVM omits zero features, so trailing columns may be absent.
        X = np.hstack([X, np.zeros((X.shape[0], d - X.shape[1]))])
    dec, labels = svm.predict(mdl, X)
    report = {"schema": SCHEMA, "command": "predict",
              "decision_values": dec, "labels": labels}
    if ds.y.size and mdl.spec.variant in svm.CLASSIFICATION:
        report["accuracy"] = float(np.mean(np.sign(dec) == ds.y))
    _write_report(report, args.report)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="rankqp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--epsilon", type=float, default=1e-3)
        p.add_argument("--report", default=None, help="write the JSON report here")

    p = sub.add_parser("solve-qp", help="solve a QP instance from a JSON file")
    p.add_argument("instance")
    common(p)
    p.add_argument("--backend", choices=["auto", "dense", "lowrank"], default="auto")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the lowrank sketch; used only when it has "
                        "fewer rows than coordinates")
    p.add_argument("--oracle", action="store_true",
                   help="also run the dense reference solver and report the gap")
    p.set_defaults(func=_cmd_solve_qp)

    p = sub.add_parser("train-svm", help="train an SVM from LIBSVM data")
    p.add_argument("data")
    common(p)
    p.add_argument("--variant", default="c-svc")
    p.add_argument("--kernel", choices=["linear", "gaussian"], default="linear")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--eps-tube", type=float, default=0.1)
    p.add_argument("--radius-R", type=float, default=None,
                   help="box cap for the hard-margin dual")
    p.add_argument("--model-out", default=None)
    p.set_defaults(func=_cmd_train_svm)

    p = sub.add_parser("factor-kernel", help="low-rank factor a Gaussian kernel")
    p.add_argument("data")
    common(p)
    p.set_defaults(func=_cmd_factor_kernel)

    p = sub.add_parser("verify", help="recompute a report's KKT residuals")
    p.add_argument("report_file")
    p.add_argument("instance")
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("predict", help="predict with a dumped model")
    p.add_argument("data")
    p.add_argument("--model", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_predict)
    return parser


def cli_run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ValidationError, ParseError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SolverError, InvariantViolation) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except RankQPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main():
    raise SystemExit(cli_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
