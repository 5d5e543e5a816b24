"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest -s tests/test_acceptance.py -v` to see the summary lines.
"""
import math
import time

import numpy as np

from rankqp import barrier, build_qp_instance, ipm, kernel, model, oracle
from rankqp.barrier import BlockDomain
from rankqp.exactds import ExactDS, woodbury_apply
from rankqp.exceptions import ParseError
from rankqp.ipm import (IpmParams, central_path_step, centering,
                        compute_error_terms, step_direction)
from rankqp.libsvm_io import Dataset, emit_libsvm_lines, parse_libsvm_lines
from rankqp.sketch import BatchSketch
from rankqp.exactds import UpdateDeltas
from rankqp.svm import SvmSpec, predict, train

from conftest import exact_box_qp, random_lowrank_instance


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_solution_quality():
    # 100 random low-rank QPs (n <= 50, k <= 5, m <= 2), eps = 1e-3:
    # objective within eps L R (R+1) of the oracle, and of the exact
    # reference when n <= 8, l1 feasibility within 3 eps (R ||A||_1 + ||b||_1),
    # under 60 s total.
    rng = np.random.default_rng(101)
    eps = 1e-3
    t0 = time.perf_counter()
    worst_gap_ratio = 0.0
    worst_feas_ratio = 0.0
    exact = 0
    for trial in range(100):
        n = int(rng.integers(5, 51))
        k = int(rng.integers(1, 6))
        m = int(rng.integers(0, 3))
        inst = random_lowrank_instance(rng, n=n, k=k, m=m,
                                       c_scale=float(rng.uniform(0.2, 2.0)))
        sol = ipm.solve(inst, eps)
        _, _, _, rep = oracle.dense_solve_qp(inst, tol=1e-8)
        budget = eps * inst.L * inst.R * (inst.R + 1)
        gap = sol.report["objective"] - rep.objective
        worst_gap_ratio = max(worst_gap_ratio, gap / budget)
        if n <= 8:
            exact += 1
            opt = exact_box_qp(inst)
            assert abs(rep.objective - opt) <= 1e-8 + 1e-12 * abs(opt)
            worst_gap_ratio = max(worst_gap_ratio,
                                  abs(sol.report["objective"] - opt) / budget)
        if m:
            bound = 3 * eps * (inst.R * np.abs(inst.A).sum() + np.abs(inst.b).sum())
            worst_feas_ratio = max(worst_feas_ratio,
                                   sol.report["primal_residual_l1"] / bound)
    elapsed = time.perf_counter() - t0
    ok = worst_gap_ratio <= 1.0 and worst_feas_ratio <= 1.0 and elapsed <= 60.0
    _report(1, ok, f"100 instances ({exact} also exact), "
                   f"worst gap ratio {worst_gap_ratio:.3f}, "
                   f"worst feasibility ratio {worst_feas_ratio:.3g}, {elapsed:.1f}s")


def test_criterion_02_analytic_svm():
    t0 = time.perf_counter()
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1.0, -1.0])
    mdl = train(SvmSpec(X=X, y=y, variant="hard"), eps_solve=1e-3)
    elapsed = time.perf_counter() - t0
    errs = {
        "alpha": float(np.abs(mdl.alpha - 0.5).max()),
        "w": float(np.abs(mdl.w - [1.0, 0.0]).max()),
        "b": abs(mdl.bias),
        "objective": abs(mdl.dual_objective - 0.5),
    }
    ok = all(v <= 1e-4 for v in errs.values()) and elapsed < 1.0
    _report(2, ok, f"errors {errs}, {elapsed:.2f}s")


def test_criterion_03_exactds_fidelity():
    # 200 Move/Update rounds at n=200, k=4, m=2 against a dense shadow.
    rng = np.random.default_rng(303)
    n, k, m = 200, 4, 2
    inst = random_lowrank_instance(rng, n=n, k=k, m=m, c_scale=0.3)
    params = IpmParams.for_instance(inst, mode="theory")
    x = np.full(n, 0.5) + rng.uniform(-0.02, 0.02, size=n)
    g = barrier.grad_vec(inst.lo, inst.hi, x)
    h = barrier.hess_vec(inst.lo, inst.hi, x)
    mu_target = rng.uniform(-1.0, 1.0, size=n) * (inst.w / 100.0) * np.sqrt(h)
    s = mu_target - inst.w * g
    ds = ExactDS(inst, params, x.copy(), s.copy(), x.copy(), s.copy(), 1.0)
    xs, ss = x.copy(), s.copy()
    xb, sb = x.copy(), s.copy()
    worst_dev = 0.0
    worst_inv = 0.0

    def verify_invariants():
        # relative residual per maintained quantity
        hinv = 1.0 / ds.hdiag
        hm12 = 1.0 / np.sqrt(ds.hdiag)

        def rel(have, want):
            scale = max(1.0, float(np.abs(want).max()))
            return float(np.abs(have - want).max()) / scale

        checks = [
            rel(ds.h, hm12 * ds.dmu_bar),
            rel(ds.hhat, hm12[:, None] * inst.U),
            rel(ds.htil, hm12[:, None] * inst.A.T),
            rel(ds.u1, inst.U.T @ (hinv[:, None] * inst.A.T)),
            rel(ds.u2, inst.V.T @ (hinv[:, None] * inst.A.T)),
            rel(ds.u3, inst.A @ (hinv[:, None] * inst.A.T)),
            rel(ds.u4, inst.A @ (hinv * ds.dmu_bar)),
            rel(ds.u5, inst.V.T @ (hinv * ds.dmu_bar)),
            rel(ds.u6, inst.V.T @ (hinv[:, None] * inst.U)),
        ]
        mu, gamma = compute_error_terms(inst, ds.x_bar, ds.s_bar, ds.t_bar)
        z = params.lam * gamma / inst.w
        checks.append(rel(np.array(ds.alpha_bar),
                          np.array(float(np.sum(np.cosh(z) ** 2 / inst.w)))))
        dmu = step_direction(mu, gamma, params, inst.w)
        checks.append(rel(ds.dmu_bar, math.sqrt(ds.alpha_bar) * dmu))
        return max(checks)

    for rnd in range(200):
        mu, gamma = compute_error_terms(inst, xb, sb, 1.0)
        dmu = step_direction(mu, gamma, params, inst.w)
        dx, dsl, _ = central_path_step(inst, xb, sb, 1.0, dmu, backend="dense")
        xs += dx
        ss += dsl
        ds.move()
        xo, so = ds.output()
        worst_dev = max(worst_dev,
                        float(np.abs(xo - xs).max() / max(1.0, np.abs(xs).max())),
                        float(np.abs(so - ss).max() / max(1.0, np.abs(ss).max())))
        idx = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        dxb = np.zeros(n)
        dsb = np.zeros(n)
        dxb[idx] = xo[idx] - xb[idx]
        dsb[idx] = so[idx] - sb[idx]
        ds.update(dxb, dsb)
        xb += dxb
        sb += dsb
        if (rnd + 1) % 10 == 0:
            worst_inv = max(worst_inv, verify_invariants())
    ok = worst_dev <= 1e-8 and worst_inv <= 1e-9
    _report(3, ok, f"200 rounds, worst output deviation {worst_dev:.2e}, "
                   f"worst invariant residual {worst_inv:.2e}")


def test_criterion_04_woodbury():
    rng = np.random.default_rng(404)
    n, k = 100, 8
    worst = 0.0
    for _ in range(100):
        hd = rng.uniform(0.5, 2.0, size=n)
        U = rng.normal(size=(n, k))
        t = float(rng.uniform(0.5, 2.0))
        rhs = rng.normal(size=n)
        dense = np.linalg.solve(U @ U.T + t * np.diag(hd), rhs)
        wood = woodbury_apply(hd, U, U, t, rhs)
        worst = max(worst, float(np.abs(dense - wood).max()
                                 / max(1.0, np.abs(dense).max())))
    ok = worst <= 1e-10
    _report(4, ok, f"100 instances, worst relative error {worst:.2e}")


def test_criterion_05_potential_invariant():
    # Theory mode on n <= 10: Phi <= cosh(lam/64) and ||delta_mu||* <= alpha
    # at every iteration of a 400-step run.
    rng = np.random.default_rng(505)
    inst = random_lowrank_instance(rng, n=8, k=2, m=1, c_scale=0.5)
    aug, x0, s0 = model.augment_for_initial_point(inst, 0.1)
    base = aug.base
    params = IpmParams.for_instance(base, mode="theory")
    steps = 400
    res = centering(base, x0, s0, 1.0, (1.0 - params.h) ** steps, params,
                    collect_trace=True)
    cap = math.cosh(params.lam / 64.0)
    worst_phi = max(rec["phi"] for rec in res.trace)
    worst_dmu = max(rec["delta_mu_dual_norm"] for rec in res.trace)
    ok = (res.iterations == steps and worst_phi <= cap
          and worst_dmu <= params.alpha * (1 + 1e-9))
    _report(5, ok, f"{steps} theory iterations, max Phi {worst_phi:.2f} "
                   f"(cap {cap:.2f}), max ||dmu||* {worst_dmu:.2e} "
                   f"(alpha {params.alpha:.2e})")


def test_criterion_06_kernel_factorization():
    rng = np.random.default_rng(606)
    n, d = 500, 5
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    B0 = kernel.squared_radius(X)
    X *= math.sqrt(3.9 / B0)
    t0 = time.perf_counter()
    eps = 1e-6
    fact = kernel.gaussian_lowrank_factor(X, eps)
    K = kernel.exact_gaussian_kernel(X)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=n)
        worst = max(worst, float(np.abs(K @ v - fact.U @ (fact.V.T @ v)).max()
                                 / np.abs(v).sum()))
    elapsed = time.perf_counter() - t0
    kbound = kernel.rank_bound(d, fact.degree)
    ok = worst <= eps and fact.rank <= kbound and elapsed <= 120.0
    _report(6, ok, f"B={kernel.squared_radius(X):.2f} q={fact.degree} "
                   f"k={fact.rank} (bound {kbound:.3g}), worst ratio "
                   f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_end_to_end_gaussian_svm():
    rng = np.random.default_rng(707)
    n, d = 200, 4
    c1 = rng.normal(size=(n // 2, d)) * 0.15 + np.array([0.8, 0, 0, 0])
    c2 = rng.normal(size=(n // 2, d)) * 0.15 - np.array([0.8, 0, 0, 0])
    X = np.vstack([c1, c2])
    B0 = kernel.squared_radius(X)
    if B0 > 3.9:
        X *= math.sqrt(3.9 / B0)
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    spec = SvmSpec(X=X, y=y, variant="c-svc", kernel="gaussian", C=5.0)
    t0 = time.perf_counter()
    mdl = train(spec, eps_solve=1e-4)
    _, labels = predict(mdl, X)
    accuracy = float(np.mean(labels == y))
    # dense exact-kernel oracle for the same dual program
    K = kernel.exact_gaussian_kernel(X)
    Q = K * np.outer(y, y)
    inst = build_qp_instance(c=-np.ones(n), A=y[None, :], b=[0.0],
                             blocks=[BlockDomain.nonneg_box(5.0)] * n, Q=Q,
                             L=max(math.sqrt(n), 1.05 * n))
    _, _, _, rep = oracle.dense_solve_qp(inst, tol=1e-8)
    oracle_obj = -rep.objective
    rel = abs(mdl.dual_objective - oracle_obj) / abs(oracle_obj)
    elapsed = time.perf_counter() - t0
    ok = accuracy == 1.0 and rel <= 1e-3
    _report(7, ok, f"accuracy {accuracy}, dual {mdl.dual_objective:.6f} vs "
                   f"oracle {oracle_obj:.6f} (rel {rel:.2e}), {elapsed:.1f}s")


def test_criterion_08_heavy_entry_detection():
    rng = np.random.default_rng(808)
    n, k, m = 256, 3, 2
    eps = 0.05
    betas = (0.0, 0.0, np.zeros(k), np.zeros(k), np.zeros(m), np.zeros(m))
    hits = 0
    empty_ok = True
    for trial in range(100):
        bs = BatchSketch(n, rng.normal(size=n), rng.normal(size=(n, k)),
                         rng.normal(size=(n, m)), rng.normal(size=n),
                         rng.normal(size=n), betas, delta_apx=0.01, seed=trial)
        empty_ok &= bs.query_heavy("x", 0, eps) == []
        planted = int(rng.integers(n))
        d = UpdateDeltas(idx=np.array([planted]), h=np.zeros(1),
                         hhat=np.zeros((1, k)), htil=np.zeros((1, m)),
                         xhat_scaled=np.array([10 * eps]),
                         shat_scaled=np.zeros(1))
        bs.update(d)
        hits += planted in bs.query_heavy("x", 0, eps)
    ok = hits >= 99 and empty_ok
    _report(8, ok, f"recall {hits}/100, zero-movement queries empty: {empty_ok}")


def test_criterion_09_iteration_scaling():
    rng = np.random.default_rng(909)
    eps = 1e-3
    results = {}
    for n in (16, 64, 256):
        inst = random_lowrank_instance(rng, n=n, k=3, m=2)
        sol = ipm.solve(inst, eps, backend="dense")
        kappa = inst.kappa + 1.0  # augmented tau block
        bound = math.sqrt(kappa) * math.log(n * kappa * inst.R / (eps * inst.r))
        results[n] = (sol.report["iterations"], bound)
    C = 1.5 * results[16][0] / results[16][1]
    ok = all(results[n][0] <= C * results[n][1] for n in (64, 256))
    detail = ", ".join(f"n={n}: {results[n][0]} iters (cap {C * results[n][1]:.0f})"
                       for n in (16, 64, 256))
    _report(9, ok, f"C={C:.2f} fit at n=16; {detail}")


def test_criterion_10_parser_round_trip():
    rng = np.random.default_rng(1010)
    n, d = 1000, 10
    X = rng.normal(size=(n, d)) * rng.lognormal(size=(n, d))
    X[rng.random(size=X.shape) < 0.5] = 0.0
    y = np.round(rng.normal(size=n), 8)
    ds = Dataset.from_dense(X, y)
    lines = emit_libsvm_lines(ds)
    assert len(lines) == n
    parsed = parse_libsvm_lines(lines)
    bit_exact = emit_libsvm_lines(parsed) == lines
    rejected = 0
    for lineno, bad in [(1, ["+1 3:1 2:1"]), (3, ["+1 1:1", "-1 1:1", "x 1:1"]),
                        (2, ["+1 1:1", "+1 0:2"])]:
        try:
            parse_libsvm_lines(bad)
        except ParseError as err:
            rejected += err.line == lineno
    ok = bit_exact and rejected == 3
    _report(10, ok, f"1000-line corpus bit exact: {bit_exact}, "
                    f"malformed lines rejected with numbers: {rejected}/3")
