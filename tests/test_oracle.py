import numpy as np
import pytest

from rankqp import barrier, build_qp_instance, oracle
from rankqp.barrier import BlockDomain
from rankqp.exceptions import DomainError, ValidationError

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


@pytest.mark.parametrize("error, swallowed", [
    (DomainError("projection not interior"), True),
    (np.linalg.LinAlgError("singular AA'"), True),
    (KeyError("unrelated fault"), False),
], ids=["domain", "linalg", "other"])
def test_feasibility_projection_catches_only_expected_failures(monkeypatch, error, swallowed):
    # The projection's interiority check is the oracle's first; a failure
    # there either skips the projection (the two expected failures) or
    # propagates.
    inst = build_qp_instance(c=[-1.0, -1.0], A=[[1.0, -1.0]], b=[0.0],
                             blocks=[BlockDomain.nonneg_box(20.0)] * 2,
                             U=[[1.0], [1.0]], V=[[1.0], [1.0]])
    real, calls = barrier.check_interior, []

    def fail_first(lo, hi, x):
        calls.append(x)
        if len(calls) == 1:
            raise error
        return real(lo, hi, x)

    monkeypatch.setattr(barrier, "check_interior", fail_first)
    if swallowed:
        x = oracle.dense_solve_qp(inst, tol=1e-10)[0]
        assert np.abs(x - 0.5).max() <= 1e-6
    else:
        with pytest.raises(KeyError, match="unrelated fault"):
            oracle.dense_solve_qp(inst, tol=1e-10)
    assert calls


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
    assert rep.stationarity <= 1e-5 * max(1.0, inst.L)
    assert rep.primal_residual_l1 <= 1e-8
    assert rep.duality_gap <= 1e-8 * max(1.0, abs(rep.objective)) + 1e-8
    assert rep.dual_domain <= 1e-6
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
    # Box widths from 1e-3 to 1e2 spread the barrier curvature over many
    # orders of magnitude.  On these two instances the Schur complement step
    # alone stalls the line search; steps it cannot solve to its residual
    # tolerance go to LU on the full KKT matrix.
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
