import numpy as np
import pytest

from rankqp import build_qp_instance, oracle
from rankqp.barrier import BlockDomain
from rankqp.exceptions import ValidationError

from conftest import random_lowrank_instance


def test_box_qp_interior_optimum():
    # min 1/2 x^2 - x on [0, 2] has x* = 1
    inst = build_qp_instance(c=[-1.0], A=None, b=[], blocks=[BlockDomain.box(0, 2)],
                             Q=[[1.0]])
    x, s, y, rep = oracle.dense_solve_qp(inst, tol=1e-10)
    assert x[0] == pytest.approx(1.0, abs=1e-6)
    assert rep.objective == pytest.approx(-0.5, abs=1e-9)


def test_two_point_svm_qp():
    inst = build_qp_instance(c=[-1.0, -1.0], A=[[1.0, -1.0]], b=[0.0],
                             blocks=[BlockDomain.nonneg_box(20.0)] * 2,
                             U=[[1.0], [1.0]], V=[[1.0], [1.0]])
    x, s, y, rep = oracle.dense_solve_qp(inst, tol=1e-10)
    assert np.abs(x - 0.5).max() <= 1e-6


def test_oracle_dominates_grid(rng):
    # no feasible grid point beats the oracle
    for _ in range(5):
        G = rng.normal(size=(2, 2))
        c = rng.normal(size=2)
        inst = build_qp_instance(c=c, A=None, b=[],
                                 blocks=[BlockDomain.box(0, 1)] * 2, U=G, V=G)
        x, _, _, rep = oracle.dense_solve_qp(inst, tol=1e-10)
        grid = np.linspace(0.01, 0.99, 40)
        for a in grid:
            for bb in grid:
                assert rep.objective <= inst.objective(np.array([a, bb])) + 1e-6


def test_oracle_kkt_residuals_small(rng):
    inst = random_lowrank_instance(rng, n=20, k=3, m=2)
    x, s, y, rep = oracle.dense_solve_qp(inst, tol=1e-9)
    # s = Qx + c + A'y, so stationarity is rounding only
    assert rep.stationarity <= 1e-12 * max(1.0, inst.L)
    assert rep.primal_residual_l1 <= 1e-9
    assert rep.duality_gap <= 1e-9
    assert oracle.certified_gap(inst, x, y) <= 1e-9
    assert np.all(np.isfinite([rep.objective, rep.stationarity,
                               rep.primal_residual_l1, rep.duality_gap]))


def test_kkt_zero_instance():
    inst = build_qp_instance(c=[0.0], A=None, b=[], blocks=[BlockDomain.box(0, 2)])
    rep = oracle.kkt_residuals(inst, np.array([1.0]), np.zeros(1), np.zeros(0))
    assert rep.stationarity == 0.0
    assert rep.primal_residual_l1 == 0.0
    assert rep.duality_gap == 0.0


def test_kkt_primal_residual_linearity(rng):
    inst = random_lowrank_instance(rng, n=10, k=2, m=2)
    x, s, y, _ = oracle.dense_solve_qp(inst, tol=1e-9)
    base = oracle.kkt_residuals(inst, x, s, y).primal_residual_l1
    x2 = x.copy()
    x2[0] += 0.1
    moved = oracle.kkt_residuals(inst, x2, s, y).primal_residual_l1
    want = float(np.abs(inst.A[:, 0]).sum()) * 0.1
    assert moved == pytest.approx(base + want, abs=1e-6)


def test_oracle_cap():
    inst = build_qp_instance(c=np.zeros(1), A=None, b=[],
                             blocks=[BlockDomain.box(0, 2)])
    object.__setattr__(inst, "c", np.zeros(1))  # instance is fine; cap check only
    big = build_qp_instance(c=np.zeros(2001), A=None, b=[],
                            blocks=[BlockDomain.box(0, 2)] * 2001)
    with pytest.raises(ValidationError):
        oracle.dense_solve_qp(big)


def test_oracle_agrees_with_main_solver(rng):
    from rankqp import ipm
    eps = 1e-3
    for _ in range(10):
        n = int(rng.integers(8, 40))
        inst = random_lowrank_instance(rng, n=n, k=3, m=2)
        sol = ipm.solve(inst, eps, backend="dense")
        _, _, _, rep = oracle.dense_solve_qp(inst, tol=1e-10)
        assert sol.report["objective"] <= rep.objective + eps * inst.L * inst.R * (inst.R + 1)


@pytest.mark.parametrize("seed", [74, 146])
def test_oracle_solves_widely_scaled_boxes(seed):
    # Box widths from 1e-3 to 1e2 spread the Newton matrix's diagonal over
    # many orders of magnitude.
    rng = np.random.default_rng(seed)
    n, m, k = (int(rng.integers(lo, hi)) for lo, hi in ((4, 25), (1, 4), (1, 4)))
    lo = 3.0 * rng.normal(size=n)
    width = 10.0 ** rng.uniform(-3, 2, size=n)
    z = lo + width * rng.uniform(0.2, 0.8, size=n)
    A = rng.normal(size=(m, n))
    G = rng.normal(size=(n, k))
    inst = build_qp_instance(c=rng.normal(size=n), A=A, b=A @ z,
                             blocks=[BlockDomain.box(a, a + w) for a, w in zip(lo, width)],
                             U=G, V=G)
    x, s, y, rep = oracle.dense_solve_qp(inst, tol=1e-8)
    assert rep.primal_residual_l1 <= 1e-8 * max(1.0, float(np.abs(inst.b).sum()))
    assert oracle.certified_gap(inst, x, y) <= 1e-6 * max(1.0, abs(rep.objective))


def test_oracle_matches_exact_reference(exact_cases):
    # Above OPT by at most the certified gap, below it by at most the worth
    # of an equality residual <= tol.
    tol = 1e-9
    for inst, opt in exact_cases:
        rep = oracle.dense_solve_qp(inst, tol=tol)[3]
        assert abs(rep.objective - opt) <= tol + 1e-12 * (1.0 + abs(opt))


def test_certified_gap_bounds_exact_error(exact_cases):
    # certified_gap(x, y) >= f(x) - OPT for every x in the box, on Ax = b or
    # off it, and every y: random points, and points near the optimum, where
    # the bound is tight.
    rng = np.random.default_rng(2702)
    for inst, opt in exact_cases:
        x_ref, _, y_ref, _ = oracle.dense_solve_qp(inst, tol=1e-9)
        lo, hi, n, m = inst.lo, inst.hi, inst.n, inst.m
        # a direction along Ax = b, scaled to stay in the box
        null = np.linalg.svd(inst.A.reshape(m, n))[2][m:].T if m else np.eye(n)
        d = null @ rng.normal(size=null.shape[1])
        reach = oracle.max_step(np.concatenate([x_ref - lo, hi - x_ref]),
                                np.concatenate([d, -d]))
        points = [x_ref, x_ref + rng.uniform() * min(reach, 1.0) * d,
                  lo + (hi - lo) * rng.uniform(size=n),
                  np.clip(x_ref + 1e-3 * (hi - lo) * rng.normal(size=n), lo, hi)]
        duals = [y_ref, y_ref + 0.1 * rng.normal(size=m), 10.0 * rng.normal(size=m)]
        for x in points:
            for y in duals:
                assert (inst.objective(x) - opt
                        <= oracle.certified_gap(inst, x, y) + 1e-10 * (1.0 + abs(opt)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(50))
def test_oracle_certifies_narrow_boxes(seed):
    # Boxes [0, w] with w from 1e-3 to 1e2: the reference certifies
    # f(x) - OPT <= 1e-10 without a floating-point warning on the way.
    rng = np.random.default_rng([14, seed])
    n, m, k = (int(rng.integers(lo, hi)) for lo, hi in ((4, 25), (1, 4), (1, 4)))
    width = 10.0 ** rng.uniform(-3, 2, size=n)
    z = width * rng.uniform(0.2, 0.8, size=n)
    A = rng.normal(size=(m, n))
    G = rng.normal(size=(n, k))
    inst = build_qp_instance(c=rng.normal(size=n), A=A, b=A @ z,
                             blocks=[BlockDomain.box(0.0, w) for w in width],
                             U=G, V=G)
    x, s, y, rep = oracle.dense_solve_qp(inst, tol=1e-10)
    assert rep.primal_residual_l1 <= 1e-10
    # the certificate recomputes Qx as U(V'x): allow its rounding
    assert oracle.certified_gap(inst, x, y) <= 1e-10 + 1e-13 * (1.0 + abs(rep.objective))
