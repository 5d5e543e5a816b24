import dataclasses

import numpy as np
import pytest

from rankqp import barrier, build_qp_instance, ipm, model, oracle, sketch
from rankqp.barrier import BlockDomain
from rankqp.cpm import CentralPathMaintenance, centering_lowrank, restart_threshold
from rankqp.exceptions import SolverError
from rankqp.ipm import IpmParams

from conftest import random_lowrank_instance


def test_restart_threshold_formula():
    assert restart_threshold(100, 3, 2) == 5   # ceil(sqrt(100/5))
    assert restart_threshold(4, 8, 8) == 1
    assert restart_threshold(50, 0, 0) == 8    # m + k = 0 guarded to 1


def test_lowrank_solve_matches_dense(rng):
    eps = 1e-3
    inst = random_lowrank_instance(rng, n=24, k=2, m=1)
    dense = ipm.solve(inst, eps, backend="dense")
    low = ipm.solve(inst, eps, backend="lowrank", seed=11)
    budget = eps * inst.L * inst.R * (inst.R + 1)
    assert abs(dense.report["objective"] - low.report["objective"]) <= 2 * budget
    from rankqp import oracle
    _, _, _, rep = oracle.dense_solve_qp(inst, tol=1e-9)
    assert low.report["objective"] <= rep.objective + budget


def test_lowrank_report_gives_sketch_rows(rng):
    # n = 24 plus the augmentation coordinate: an exact 25-row sketch, the
    # same solution for every seed; the other backends report no sketch.
    inst = random_lowrank_instance(rng, n=24, k=2, m=1)
    a, b = (ipm.solve(inst, 1e-2, backend="lowrank", seed=seed) for seed in (1, 2))
    assert a.report["sketch_rows"] == b.report["sketch_rows"] == 25
    assert np.array_equal(a.x, b.x) and a.report["iterations"] == b.report["iterations"]
    assert "sketch_rows" not in ipm.solve(inst, 1e-2, backend="dense").report


def test_lowrank_solve_feasibility(rng):
    eps = 1e-3
    inst = random_lowrank_instance(rng, n=20, k=2, m=2)
    low = ipm.solve(inst, eps, backend="lowrank", seed=3)
    bound = 3 * eps * (inst.R * np.abs(inst.A).sum() + np.abs(inst.b).sum())
    assert low.report["primal_residual_l1"] <= bound


def test_restart_on_time_drift(rng):
    inst = random_lowrank_instance(rng, n=30, k=2, m=1, c_scale=0.2)
    params = IpmParams.for_instance(inst, mode="theory")
    x = np.full(30, 0.5)
    s = -inst.w * (np.zeros(30))  # centered start: grad is zero at midpoints
    cpm = CentralPathMaintenance(inst, params, x, s, 1.0, delta_apx=0.05, seed=0)
    n_restarts = cpm._restarts
    # big t move forces a rebuild
    cpm.multiply_and_move(0.5)
    assert cpm._restarts == n_restarts + 1
    # tiny t moves within the band do not
    before = cpm._restarts
    cpm.multiply_and_move(0.5 * (1 - 0.1 * params.eps_t))
    assert cpm._restarts == before


def test_restart_after_q_iterations(rng):
    inst = random_lowrank_instance(rng, n=16, k=2, m=1, c_scale=0.1)
    params = IpmParams.for_instance(inst, mode="theory")
    x = np.full(16, 0.5)
    s = np.zeros(16)
    cpm = CentralPathMaintenance(inst, params, x, s, 1.0, delta_apx=0.05, seed=0)
    q = cpm.q
    t = 1.0
    seen = cpm._restarts
    for i in range(q + 1):
        t *= 1 - 0.01 * params.eps_t
        cpm.multiply_and_move(t)
    assert cpm._restarts > seen


def test_iteration_cap(rng):
    # The maintained path on the augmented instance, as solve(backend="lowrank")
    # runs it, with its iteration cap lowered to 3.
    inst = random_lowrank_instance(rng, n=8, k=1, m=1)
    aug, x0, s0 = model.augment_for_initial_point(inst, 1e-3)
    params = dataclasses.replace(IpmParams.for_instance(aug.base), max_iter=3)
    t_end = 1e-6 / (4.0 * aug.base.kappa)
    with pytest.raises(SolverError, match="centering exceeded 3 iterations"):
        centering_lowrank(aug.base, x0, s0, 1.0, t_end, params)


@pytest.fixture
def sketch_updates(monkeypatch):
    """Counts the node-sketch updates that are actually applied."""
    calls = []
    apply = sketch.VectorSketch.update

    def counted(self, idx, deltas, ts):
        calls.append(ts)
        return apply(self, idx, deltas, ts)

    monkeypatch.setattr(sketch.VectorSketch, "update", counted)
    return calls


def test_practical_lowrank_solve_applies_no_sketch_update(sketch_updates):
    # The benchmark's low-rank box QP (n = 32, Q = GG' with G n x 3, two
    # equality rows): practical mode rebuilds the structure on every step,
    # so each step's recorded deltas are dropped before any query reads them.
    rng = np.random.default_rng([5101, 0])
    n = 32
    G = rng.normal(size=(n, 3))
    A = rng.normal(size=(2, n))
    z = rng.uniform(0.3, 0.7, size=n)
    inst = build_qp_instance(c=rng.normal(size=n), A=A, b=A @ z,
                             blocks=[BlockDomain.box(0.0, 1.0)] * n, U=G, V=G)
    eps = 1e-3
    sol = ipm.solve(inst, eps, backend="lowrank")
    assert sketch_updates == []
    ref = oracle.dense_solve_qp(inst, tol=1e-9)[3].objective
    assert inst.objective(sol.x) - ref <= eps * inst.L * inst.R * (inst.R + 1)


def test_theory_lowrank_centering_applies_updates_and_matches_dense(rng, sketch_updates):
    # Theory mode keeps a structure for q steps, so its queries apply the
    # recorded deltas; the maintained path must still track the dense one.
    inst = random_lowrank_instance(rng, n=40, k=2, m=1)
    aug, x0, s0 = model.augment_for_initial_point(inst, 1e-2)
    base = aug.base
    params = IpmParams.for_instance(base, mode="theory")
    t_end = (1.0 - params.h) ** 150
    low = centering_lowrank(base, x0, s0, 1.0, t_end, params, seed=0, collect_trace=True)
    dense = ipm.centering(base, x0, s0, 1.0, t_end, params)
    assert low.iterations == dense.iterations >= 150
    assert low.trace[-1]["restarts"] > 1
    assert sketch_updates
    hess = barrier.hess_vec(base.lo, base.hi, dense.x)
    assert np.max(np.sqrt(hess) * np.abs(low.x - dense.x)) <= params.eps_bar
