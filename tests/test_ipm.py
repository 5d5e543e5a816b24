import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from rankqp import barrier, build_qp_instance, ipm, model
from rankqp.barrier import BlockDomain
from rankqp.exceptions import SolverError, ValidationError
from rankqp.ipm import (IpmParams, central_path_step, centering,
                        compute_error_terms, potential, step_direction)

from conftest import random_lowrank_instance, wall_instance


def _one_block_instance(c=0.0):
    return build_qp_instance(c=[c], A=None, b=[], blocks=[BlockDomain.box(0, 2)])


def test_error_terms_at_center():
    inst = _one_block_instance()
    mu, gamma = compute_error_terms(inst, np.array([1.0]), np.array([0.0]), 1.0)
    assert mu[0] == 0.0
    assert gamma[0] == 0.0


def test_error_terms_off_center():
    inst = _one_block_instance()
    mu, gamma = compute_error_terms(inst, np.array([1.0]), np.array([2.0]), 2.0)
    assert mu[0] == pytest.approx(1.0)
    assert gamma[0] == pytest.approx(1.0 / math.sqrt(2.0))


def test_error_terms_scale_invariance(rng):
    inst = random_lowrank_instance(rng, n=8, k=2, m=1)
    x = rng.uniform(0.2, 0.8, size=8)
    s = rng.normal(size=8)
    mu1, g1 = compute_error_terms(inst, x, s, 0.7)
    mu2, g2 = compute_error_terms(inst, 1.0 * x, 3.0 * s, 3.0 * 0.7)
    assert np.allclose(mu1, mu2)
    assert np.allclose(g1, g2)


def test_potential_values():
    assert potential(np.zeros(5), 10.0, np.ones(5)) == pytest.approx(5.0)
    assert potential(np.array([1.0]), 1.0, np.ones(1)) == pytest.approx(1.5430806348152437)
    # cosh >= 1 always
    assert potential(np.array([0.3, 0.0, 2.0]), 7.0, np.ones(3)) >= 3.0


def test_potential_overflow_guard():
    val = potential(np.array([20.0]), 64.0, np.ones(1))
    assert val == math.inf  # would overflow cosh; flagged, not crashed


def test_step_direction_tanh_case():
    params = IpmParams(lam=1.0, eps_bar=0.2, alpha=0.1, eps_t=0.01, h=1e-3,
                       h0=1e-3, mode="theory")
    dmu = step_direction(np.array([1.0]), np.array([1.0]), params, np.ones(1))
    assert dmu[0] == pytest.approx(-0.1 * math.tanh(1.0), abs=1e-12)


def test_step_direction_zero_error():
    params = IpmParams(lam=2.0, eps_bar=0.2, alpha=0.1, eps_t=0.01, h=1e-3,
                       h0=1e-3, mode="theory")
    dmu = step_direction(np.zeros(3), np.zeros(3), params, np.ones(3))
    assert np.all(dmu == 0.0)


def test_delta_mu_norm_bound(rng):
    # ||delta_mu||*_{w,xbar} <= alpha on random states (Lemma-style invariant)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        lo = np.zeros(n)
        hi = np.full(n, 2.0)
        w = rng.uniform(1.0, 4.0, size=n)
        x = rng.uniform(0.05, 1.95, size=n)
        s = rng.normal(size=n) * rng.uniform(0.1, 10)
        t = float(rng.uniform(0.01, 2.0))
        inst = build_qp_instance(c=np.zeros(n), A=None, b=[],
                                 blocks=[BlockDomain.box(0, 2)] * n, weights=w)
        params = IpmParams.for_instance(inst, mode="theory")
        mu, gamma = compute_error_terms(inst, x, s, t)
        dmu = step_direction(mu, gamma, params, w)
        metric = barrier.metric_at(lo, hi, w, x)
        assert barrier.weighted_dual_norm(metric, dmu) <= params.alpha * (1 + 1e-9)


def test_central_path_step_unconstrained():
    # m=0, Q=0: the projection vanishes, B = t H, so dx = dmu / H and ds = 0.
    inst = build_qp_instance(c=[0.0], A=None, b=[], blocks=[BlockDomain.box(0, 4)])
    x = np.array([1.0])
    dmu = np.array([0.5])
    dx, ds, dy = central_path_step(inst, x, np.array([0.0]), 1.0, dmu, backend="dense")
    h = barrier.hess_vec(inst.lo, inst.hi, x)[0]
    assert dx[0] == pytest.approx(0.5 / h)
    assert abs(ds[0]) < 1e-15
    assert dy.size == 0


def test_central_path_step_newton_residuals(rng):
    for _ in range(25):
        inst = random_lowrank_instance(rng, n=14, k=3, m=2)
        x = rng.uniform(0.2, 0.8, size=14)
        s = rng.normal(size=14)
        t = float(rng.uniform(0.05, 1.0))
        mu, gamma = compute_error_terms(inst, x, s, t)
        params = IpmParams.for_instance(inst, mode="theory")
        dmu = step_direction(mu, gamma, params, inst.w)
        dx, ds, dy = central_path_step(inst, x, s, t, dmu, backend="dense")
        scale = 1.0 + float(np.linalg.norm(ds))
        assert np.abs(inst.A @ dx).max() <= 1e-9 * (1 + np.abs(inst.A).max())
        resid = ds - inst.q_matvec(dx) - inst.A.T @ dy
        assert np.linalg.norm(resid) <= 1e-9 * scale


def test_lowrank_step_matches_dense(rng):
    for _ in range(20):
        n = int(rng.integers(5, 50))
        k = int(rng.integers(1, 6))
        m = int(rng.integers(0, 3))
        inst = random_lowrank_instance(rng, n=n, k=k, m=m)
        x = rng.uniform(0.2, 0.8, size=n)
        s = rng.normal(size=n)
        t = float(rng.uniform(0.05, 1.0))
        dmu = rng.normal(size=n)
        dx1, ds1, dy1 = central_path_step(inst, x, s, t, dmu, backend="dense")
        dx2, ds2, dy2 = central_path_step(inst, x, s, t, dmu, backend="woodbury")
        scale = max(1.0, np.abs(dx1).max())
        assert np.abs(dx1 - dx2).max() <= 1e-8 * scale
        assert np.abs(ds1 - ds2).max() <= 1e-8 * max(1.0, np.abs(ds1).max())
        if m:
            assert np.abs(dy1 - dy2).max() <= 1e-8 * max(1.0, np.abs(dy1).max())


def test_centering_zero_iterations():
    inst = _one_block_instance()
    aug, x0, s0 = model.augment_for_initial_point(inst, 0.25)
    params = IpmParams.for_instance(aug.base, mode="theory")
    res = centering(aug.base, x0, s0, 1.0, 1.0, params)
    assert res.iterations == 0
    assert np.allclose(res.x, x0)


def test_centering_rejects_bad_range():
    inst = _one_block_instance()
    aug, x0, s0 = model.augment_for_initial_point(inst, 0.25)
    params = IpmParams.for_instance(aug.base, mode="theory")
    with pytest.raises(ValidationError):
        centering(aug.base, x0, s0, 1.0, 2.0, params)


def test_theory_mode_invariants_short_run(rng):
    # Theory-mode trace on small instances: potential stays below cosh(lam/64),
    # ||delta_mu||* <= alpha, ||delta_x||_{w,x} <= (9/8) alpha,
    # ||delta_s||*_{w,x} <= (17/8) alpha t.
    inst = random_lowrank_instance(rng, n=6, k=2, m=1, c_scale=0.5)
    aug, x0, s0 = model.augment_for_initial_point(inst, 0.1)
    base = aug.base
    params = IpmParams.for_instance(base, mode="theory")
    steps = 300
    t_end = (1.0 - params.h) ** steps
    res = centering(base, x0, s0, 1.0, t_end, params, collect_trace=True)
    assert res.iterations == steps
    cap = math.cosh(params.lam / 64.0)
    for rec in res.trace:
        assert rec["phi"] <= cap
        assert rec["delta_mu_dual_norm"] <= params.alpha * (1 + 1e-9)
        assert rec["delta_x_norm"] <= 9.0 / 8.0 * params.alpha * (1 + 1e-9)
        assert rec["delta_s_dual_norm"] <= 17.0 / 8.0 * params.alpha * rec["t"] * (1 + 1e-6)
        # step feasibility certificates
        assert rec["eq_residual"] <= 1e-9
        assert rec["range_residual"] <= 1e-9 * rec["delta_s_scale"]


def test_theory_mode_potential_decreases_in_band(rng):
    # Inside [cosh(lam/128), cosh(lam/64)] the potential is non-increasing
    # under the theory step.
    n = 2
    inst = build_qp_instance(c=np.zeros(n), A=None, b=[],
                             blocks=[BlockDomain.box(0, 2)] * n)
    params = IpmParams.for_instance(inst, mode="theory")
    lo_band = math.cosh(params.lam / 128.0)
    hi_band = math.cosh(params.lam / 64.0)
    target = 0.5 * (lo_band + hi_band)
    z = math.acosh(target / n)
    # midpoint start: hess = 2, grad = 0, so s = gamma sqrt(hess) hits the target
    gamma_t = z / params.lam
    x = np.ones(n)
    s = np.full(n, gamma_t * math.sqrt(2.0))
    steps = 200
    res = centering(inst, x, s, 1.0, (1 - params.h) ** steps, params,
                    collect_trace=True)
    phis = [rec["phi"] for rec in res.trace]
    assert lo_band <= phis[0] <= hi_band
    for prev, cur in zip(phis, phis[1:]):
        if prev >= lo_band:
            assert cur <= prev * (1 + 1e-12)


def test_weighted_instance_solve(rng):
    from rankqp import oracle
    n, k, m = 20, 2, 1
    G = rng.normal(size=(n, k))
    A = rng.normal(size=(m, n))
    b = A @ np.full(n, 0.5)
    w = rng.uniform(1.0, 3.0, size=n)
    inst = build_qp_instance(c=rng.normal(size=n), A=A, b=b,
                             blocks=[BlockDomain.box(0, 1)] * n,
                             weights=w, U=G, V=G)
    eps = 1e-3
    sol = ipm.solve(inst, eps)
    _, _, _, rep = oracle.dense_solve_qp(inst, tol=1e-9)
    assert sol.report["objective"] <= rep.objective + eps * inst.L * inst.R * (inst.R + 1)


def test_theory_mode_flags_potential_violation(rng):
    # An off-center start in theory mode must trip the invariant check.
    from rankqp.exceptions import InvariantViolation
    inst = random_lowrank_instance(rng, n=6, k=1, m=0)
    params = IpmParams.for_instance(inst, mode="theory")
    x = np.full(6, 0.5)
    s = np.full(6, 5.0)  # far from any central point at t = 1
    with pytest.raises(InvariantViolation):
        centering(inst, x, s, 1.0, 0.5, params)


def test_centering_iteration_cap(rng):
    inst = random_lowrank_instance(rng, n=5, k=1, m=0)
    aug, x0, s0 = model.augment_for_initial_point(inst, 0.2)
    params = dataclasses.replace(IpmParams.for_instance(aug.base, mode="theory"),
                                 max_iter=3)
    with pytest.raises(SolverError, match="centering exceeded 3 iterations"):
        centering(aug.base, x0, s0, 1.0, 1e-6, params)


@pytest.mark.parametrize("backend", ["dense", "auto"])
def test_predictor_corrector_iteration_cap(rng, monkeypatch, backend):
    # The cap is read when the solve runs: a solve that needs one iteration
    # more than it allows fails loudly instead of returning.
    inst = random_lowrank_instance(rng, n=20, k=2, m=1)
    needed = ipm.solve(inst, 1e-6, backend=backend).report["iterations"]
    monkeypatch.setattr(ipm, "_PC_MAX_ITER", needed)
    assert ipm.solve(inst, 1e-6, backend=backend).report["iterations"] == needed
    monkeypatch.setattr(ipm, "_PC_MAX_ITER", needed - 1)
    with pytest.raises(SolverError, match=f"predictor-corrector exceeded {needed - 1} "):
        ipm.solve(inst, 1e-6, backend=backend)


def test_practical_solve_reaches_oracle_gap(rng):
    from rankqp import oracle
    inst = random_lowrank_instance(rng, n=20, k=3, m=2)
    eps = 1e-3
    sol = ipm.solve(inst, eps, backend="dense")
    x_star, _, _, rep = oracle.dense_solve_qp(inst, tol=1e-10)
    assert sol.report["objective"] <= rep.objective + eps * inst.L * inst.R * (inst.R + 1)


def test_dense_q_box_instance(rng):
    # n=20 dense PSD objective: solver gap within the budget vs the oracle
    from rankqp import oracle
    n = 20
    G = rng.normal(size=(n, n))
    Q = G @ G.T / n
    A = rng.normal(size=(2, n))
    b = A @ rng.uniform(0.3, 0.7, size=n)
    inst = build_qp_instance(c=rng.normal(size=n), A=A, b=b,
                             blocks=[BlockDomain.box(0, 1)] * n, Q=Q)
    eps = 1e-3
    sol = ipm.solve(inst, eps)
    _, _, _, rep = oracle.dense_solve_qp(inst, tol=1e-9)
    assert sol.report["objective"] <= rep.objective + eps * inst.L * inst.R * (inst.R + 1)


def test_infeasible_shapes_rejected():
    inst = _one_block_instance()
    with pytest.raises(ValidationError):
        ipm.solve(inst, 0.9)  # eps out of range
    with pytest.raises(ValidationError):
        ipm.solve(inst, 1e-3, backend="bogus")


def _assert_sound(inst, sol, rep, eps):
    # The returned triple is stationary, and x meets the equality-residual bound.
    assert rep.stationarity <= 1e-8 * max(1.0, inst.L)
    bound = 3 * eps * (inst.R * np.abs(inst.A).sum() + np.abs(inst.b).sum())
    assert sol.report["primal_residual_l1"] <= bound


def _assert_matches_oracle(inst, sol, eps):
    # Objective within the budget of the oracle's on both sides, the measured
    # gap within the budget, and a sound returned triple.
    from rankqp import oracle
    _, _, _, ref = oracle.dense_solve_qp(inst, tol=1e-9)
    budget = sol.report["error_budget"]
    assert abs(sol.report["objective"] - ref.objective) <= budget
    assert sol.report["duality_gap"] <= budget
    _assert_sound(inst, sol, oracle.kkt_residuals(inst, sol.x, sol.s, sol.y), eps)


def test_returned_triple_certifies_gap(rng):
    # The measured duality gap of solve's own (x, s, y) is within the budget.
    from rankqp import oracle
    inst = random_lowrank_instance(rng, n=12, k=2, m=1)
    eps = 1e-2
    sol = ipm.solve(inst, eps)
    rep = oracle.kkt_residuals(inst, sol.x, sol.s, sol.y)
    assert rep.duality_gap <= sol.report["duality_gap"] <= sol.report["error_budget"]
    _assert_sound(inst, sol, rep, eps)


def test_solve_iteration_budget(rng):
    # Iterations <= C sqrt(kappa) log(n kappa R / (eps r)) with C fit once.
    eps = 1e-3
    counts = {}
    for n in (16, 64):
        inst = random_lowrank_instance(rng, n=n, k=3, m=2)
        sol = ipm.solve(inst, eps, backend="dense")
        kappa = inst.kappa + 1
        bound = math.sqrt(kappa) * math.log(n * kappa * inst.R / (eps * inst.r))
        counts[n] = (sol.report["iterations"], bound)
    C = 1.5 * counts[16][0] / counts[16][1]
    assert counts[64][0] <= C * counts[64][1]


@pytest.mark.parametrize("backend,step", [("dense", "dense"), ("auto", "woodbury"),
                                          ("lowrank", "lowrank")])
def test_returned_triple_is_stationary(rng, backend, step):
    # solve returns y with Qx + c + A'y = s; kkt_residuals measures exactly that.
    # At n = 20, k = 3, m = 2, auto takes the Woodbury step (10(k + m) <= 7n).
    from rankqp import oracle
    inst = random_lowrank_instance(rng, n=20, k=3, m=2)
    sol = ipm.solve(inst, 1e-3, backend=backend)
    assert sol.report["backend"] == step
    rep = oracle.kkt_residuals(inst, sol.x, sol.s, sol.y)
    assert rep.stationarity <= 1e-8 * max(1.0, inst.L)


@pytest.mark.parametrize("backend,step", [("dense", "dense"), ("auto", "woodbury")])
def test_practical_solve_never_augments(rng, monkeypatch, backend, step):
    # Practical mode solves the caller's instance: no tau coordinate, no
    # eps*rho-scaled copy, nothing to restrict.
    def refuse(*args, **kwargs):
        raise AssertionError("practical solve built the augmented instance")
    monkeypatch.setattr(model, "augment_for_initial_point", refuse)
    monkeypatch.setattr(model, "restrict_solution", refuse)
    inst = random_lowrank_instance(rng, n=20, k=3, m=2)
    sol = ipm.solve(inst, 1e-3, backend=backend)
    assert sol.report["backend"] == step
    assert "tau" not in sol.report
    assert sol.report["duality_gap"] <= sol.report["error_budget"]


def test_woodbury_practical_never_forms_q(rng, monkeypatch):
    def refuse(self):
        raise AssertionError("the Woodbury step formed the n x n Q")
    monkeypatch.setattr(model.QPInstance, "q_dense", refuse)
    sol = ipm.solve(random_lowrank_instance(rng, n=400, k=3, m=2), 1e-3)
    assert sol.report["backend"] == "woodbury"
    assert sol.report["duality_gap"] <= sol.report["error_budget"]


@pytest.mark.parametrize("n", [256, 1024, 2048])
def test_ladder_practical_iterations(rng, n):
    # The ROADMAP ladder family: boxes [0, 1], Q = GG' with G n x 3, m = 2.
    sol = ipm.solve(random_lowrank_instance(rng, n=n, k=3, m=2), 1e-3)
    assert sol.report["backend"] == "woodbury"
    assert sol.report["iterations"] <= 60
    assert sol.report["duality_gap"] <= sol.report["error_budget"]
    assert sol.report["ridge_uses"] == 0


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("backend,second", [("lowrank", 1.0), ("auto", 1.0), ("auto", 0.0)])
def test_degenerate_equality_rows_count_ridge(rng, backend, second):
    # A second row equal to the first (or zero, with b = 0) makes the
    # normal matrix A B^-1 A' singular; the retried solves are counted in
    # the report, and the answer is the one-row program's, which the
    # reference also finds on the two-row program itself.
    from rankqp import oracle
    n = 40
    data = dict(c=rng.normal(size=n), blocks=[BlockDomain.box(0, 1)] * n,
                U=rng.normal(size=(n, 3)))
    data["V"] = data["U"]
    a = rng.normal(size=(1, n))
    b = a @ rng.uniform(0.3, 0.7, size=n)
    inst = build_qp_instance(A=np.vstack([a, second * a]), b=np.concatenate([b, second * b]),
                             **data)
    sol = ipm.solve(inst, 1e-3, backend=backend)
    assert sol.report["ridge_uses"] >= 1
    _, _, _, ref = oracle.dense_solve_qp(build_qp_instance(A=a, b=b, **data), tol=1e-9)
    assert abs(sol.report["objective"] - ref.objective) <= sol.report["error_budget"]
    _, _, _, two_row = oracle.dense_solve_qp(inst, tol=1e-9)
    assert abs(two_row.objective - ref.objective) <= 1e-8
    assert abs(sol.report["objective"] - two_row.objective) <= sol.report["error_budget"]


def test_dense_newton_matrix_is_q_plus_diagonal(rng, monkeypatch):
    # The dense step adds d to a copy of Q's diagonal; the matrix it factors
    # is Q + diag(d) bit for bit.
    inst = random_lowrank_instance(rng, n=50, k=20, m=1)
    d = 10.0 ** rng.uniform(-6, 6, size=50)
    seen = []
    factor = scipy.linalg.cho_factor

    def record(B, *args, **kwargs):
        seen.append(np.array(B))
        return factor(B, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", record)
    ipm.factor_newton(inst, d, "dense")
    assert len(seen) == 1
    assert np.array_equal(seen[0], inst.q_dense() + np.diag(d))


def test_dense_newton_factor_memory(rng):
    # At n = 1000 the dense factor holds B and the copy cho_factor factors,
    # plus cho_factor's n x n boolean finiteness check, and no diag(d).
    n = 1000
    inst = random_lowrank_instance(rng, n=n, k=n, m=1)
    inst.q_dense()
    d = rng.uniform(0.5, 2.0, size=n)
    ipm.factor_newton(inst, d, "dense")  # scipy's lazy imports, outside the trace
    tracemalloc.start()
    try:
        ipm.factor_newton(inst, d, "dense")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n * n + n * n + 2 ** 17


@pytest.mark.parametrize("n,k,m,step", [(300, 150, 1, "woodbury"), (100, 69, 1, "woodbury"),
                                        (100, 70, 1, "dense"), (40, 40, 2, "dense"),
                                        (30, 45, 1, "dense")])
def test_auto_crossover(rng, n, k, m, step):
    # auto takes the Woodbury step while 10(k + m) <= 7n, dense beyond, and
    # always dense once k >= n.
    inst = random_lowrank_instance(rng, n=n, k=k, m=m)
    sol = ipm.solve(inst, 1e-3)
    assert sol.report["backend"] == step
    assert sol.report["duality_gap"] <= sol.report["error_budget"]


@pytest.mark.parametrize("seed", [53, 92, 209])
def test_non_finite_newton_matrix_raises_solver_error(seed):
    inst, eps = wall_instance(seed)
    with pytest.raises(SolverError, match="not finite"):
        ipm.solve(inst, eps)


def test_solve_within_budget_of_exact_reference(exact_cases):
    for inst, opt in exact_cases:
        sol = ipm.solve(inst, 1e-3)
        assert abs(sol.report["objective"] - opt) <= sol.report["error_budget"]


def test_auto_matches_oracle(rng):
    from rankqp import oracle
    inst = random_lowrank_instance(rng, n=400, k=3, m=2)
    sol = ipm.solve(inst, 1e-3)
    assert sol.report["backend"] == "woodbury"
    _assert_matches_oracle(inst, sol, 1e-3)


def test_edge_cases_within_budget(rng):
    n = 15
    G = rng.normal(size=(n, 2))
    A = rng.normal(size=(2, n))
    b = A @ rng.uniform(0.3, 0.7, size=n)
    H = rng.normal(size=(n, n))
    blocks = [BlockDomain.box(0, 1)] * n
    cases = {
        "m=0": dict(A=None, b=[], U=G, V=G),
        "k=0": dict(A=A, b=b),
        "dense Q": dict(A=A, b=b, Q=H @ H.T / n),
    }
    for name, data in cases.items():
        inst = build_qp_instance(c=rng.normal(size=n), blocks=blocks, **data)
        sol = ipm.solve(inst, 1e-3)
        _assert_matches_oracle(inst, sol, 1e-3)
