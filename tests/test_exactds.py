import numpy as np
import pytest

from rankqp import barrier, build_qp_instance
from rankqp.barrier import BlockDomain
from rankqp.exactds import ExactDS, woodbury_apply
from rankqp.exceptions import DomainError, SolverError
from rankqp.ipm import IpmParams, central_path_step, compute_error_terms, step_direction

from conftest import random_lowrank_instance


def _make_state(rng, n=40, k=3, m=2, tbar=1.0, c_scale=1.0):
    """Near-centered state: gamma_i/w_i stays inside the 1/64 working band,
    which is where the potential-based direction is meaningful."""
    inst = random_lowrank_instance(rng, n=n, k=k, m=m, c_scale=c_scale)
    params = IpmParams.for_instance(inst, mode="theory")
    x = np.full(n, 0.5) + rng.uniform(-0.05, 0.05, size=n)
    g = barrier.grad_vec(inst.lo, inst.hi, x)
    h = barrier.hess_vec(inst.lo, inst.hi, x)
    mu_target = rng.uniform(-1.0, 1.0, size=n) * (inst.w / 100.0) * np.sqrt(h)
    s = tbar * (mu_target - inst.w * g)
    ds = ExactDS(inst, params, x.copy(), s.copy(), x.copy(), s.copy(), tbar)
    return inst, params, ds, x, s


# -- woodbury ---------------------------------------------------------------

def test_woodbury_no_lowrank_part(rng):
    h = rng.uniform(0.5, 2.0, size=12)
    rhs = rng.normal(size=12)
    out = woodbury_apply(h, np.zeros((12, 0)), np.zeros((12, 0)), 2.0, rhs)
    assert np.allclose(out, rhs / (2.0 * h))


def test_woodbury_scalar_case():
    # M = U V' + t H = 1 + 1 = 2, so applying the inverse halves the input.
    out = woodbury_apply(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]),
                         1.0, np.array([3.0]))
    assert out[0] == pytest.approx(1.5)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
def test_woodbury_vs_dense_inverse(rng, shared):
    # A shared factor takes the Cholesky capacitance; a distinct V = UM, with
    # M symmetric positive definite so that UV' is PSD, takes the LU one.
    for _ in range(100):
        n, k = 100, 8
        h = rng.uniform(0.5, 3.0, size=n)
        U = rng.normal(size=(n, k))
        if shared:
            V = U
        else:
            G = rng.normal(size=(k, k))
            V = U @ (G @ G.T / k + np.eye(k))
        t = float(rng.uniform(0.2, 2.0))
        rhs = rng.normal(size=n)
        dense = np.linalg.solve(U @ V.T + t * np.diag(h), rhs)
        wood = woodbury_apply(h, U, V, t, rhs)
        assert np.abs(dense - wood).max() <= 1e-10 * max(1.0, np.abs(dense).max())


def test_woodbury_cholesky_wide_diagonal(rng):
    # h spread over 1e-8 ... 1e12, as near a box wall late in a solve, with
    # W spanning two row blocks.  The Woodbury formula itself loses digits at
    # this spread (both capacitances read about 1e-5 relative residual, a
    # dense Cholesky of B about 1e-7); the Cholesky one is no worse than LU.
    n, k = 1200, 150
    h = 10.0 ** rng.uniform(-8, 12, size=n)
    U = rng.normal(size=(n, k))
    rhs = rng.normal(size=(n, 3))

    def rel_residual(x):
        return np.linalg.norm(U @ (U.T @ x) + h[:, None] * x - rhs) / np.linalg.norm(rhs)

    chol = rel_residual(woodbury_apply(h, U, U, 1.0, rhs))
    lu = rel_residual(woodbury_apply(h, U, U.copy(), 1.0, rhs))
    assert chol <= 1e-4
    assert chol <= 2.0 * lu


def test_woodbury_cholesky_non_finite_raises():
    # W'W overflows: the capacitance is infinite, and the step must not go on.
    U = np.full((3, 2), 1e200)
    with pytest.raises(SolverError, match="not finite"):
        woodbury_apply(np.ones(3), U, U, 1.0, np.ones(3))


def test_woodbury_singular_capacitance():
    # U V' = -t H on a subspace makes the capacitance singular.
    h = np.ones(2)
    U = np.array([[1.0], [0.0]])
    V = np.array([[-1.0], [0.0]])
    with pytest.raises(SolverError):
        woodbury_apply(h, U, V, 1.0, np.ones(2))


# -- initialize -------------------------------------------------------------

def test_initialize_output_identity(rng):
    _, _, ds, x, s = _make_state(rng)
    xo, so = ds.output()
    assert np.allclose(xo, x)
    assert np.allclose(so, s)


def test_initialize_summaries_match_dense(rng):
    inst, _, ds, _, _ = _make_state(rng)
    hinv = 1.0 / ds.hdiag
    A = inst.A
    assert np.abs(ds.u1 - inst.U.T @ (hinv[:, None] * A.T)).max() < 1e-12
    assert np.abs(ds.u2 - inst.V.T @ (hinv[:, None] * A.T)).max() < 1e-12
    assert np.abs(ds.u3 - A @ (hinv[:, None] * A.T)).max() < 1e-12
    assert np.abs(ds.u4 - A @ (hinv * ds.dmu_bar)).max() < 1e-12
    assert np.abs(ds.u5 - inst.V.T @ (hinv * ds.dmu_bar)).max() < 1e-12
    assert np.abs(ds.u6 - inst.V.T @ (hinv[:, None] * inst.U)).max() < 1e-12


def test_alpha_bar_at_perfect_centering():
    # all gamma = 0, unit weights: alpha_bar = sum cosh^2(0)/w = n
    n = 7
    inst = build_qp_instance(c=np.zeros(n), A=None, b=[],
                             blocks=[BlockDomain.box(0, 2)] * n)
    params = IpmParams.for_instance(inst, mode="theory")
    x = np.ones(n)
    s = np.zeros(n)
    ds = ExactDS(inst, params, x, s, x.copy(), s.copy(), 1.0)
    assert ds.alpha_bar == pytest.approx(float(n))


def test_initialize_rejects_exterior(rng):
    inst = random_lowrank_instance(rng, n=5, k=1, m=1)
    params = IpmParams.for_instance(inst, mode="theory")
    bad = np.array([0.5, 0.5, 1.5, 0.5, 0.5])
    with pytest.raises(DomainError):
        ExactDS(inst, params, bad, np.zeros(5), bad, np.zeros(5), 1.0)


# -- move -------------------------------------------------------------------

def test_move_v1_matches_dense(rng):
    inst, _, ds, _, _ = _make_state(rng)
    t = ds.t_bar
    Hinv = 1.0 / ds.hdiag
    B = inst.q_dense() + t * np.diag(ds.hdiag)
    v1_dense = inst.A @ np.linalg.solve(B, inst.A.T)
    v0 = np.eye(inst.k) + ds.u6 / t
    v1 = ds.u3 / t - (ds.u1.T @ np.linalg.solve(v0, ds.u2)) / t**2
    assert np.abs(v1 - v1_dense).max() <= 1e-10 * max(1.0, np.abs(v1_dense).max())


def test_move_matches_dense_step(rng):
    inst, params, ds, x, s = _make_state(rng)
    mu, gamma = compute_error_terms(inst, ds.x_bar, ds.s_bar, ds.t_bar)
    dmu = step_direction(mu, gamma, params, inst.w)
    dx, dsl, dy = central_path_step(inst, ds.x_bar, ds.s_bar, ds.t_bar, dmu,
                                    backend="dense")
    ds.move()
    xo, so = ds.output()
    assert np.abs(xo - (x + dx)).max() <= 1e-8 * max(1.0, np.abs(dx).max())
    assert np.abs(so - (s + dsl)).max() <= 1e-8 * max(1.0, np.abs(dsl).max())
    assert np.abs(ds.last_dy - dy).max() <= 1e-8 * max(1.0, np.abs(dy).max())


# -- update -----------------------------------------------------------------

def test_update_zero_deltas(rng):
    _, _, ds, _, _ = _make_state(rng)
    deltas = ds.update(np.zeros(40), np.zeros(40))
    assert deltas.idx.size == 0
    assert deltas.h.size == 0


def test_update_preserves_pair(rng):
    inst, _, ds, _, _ = _make_state(rng)
    ds.move()
    before = ds.output()
    for _ in range(10):
        i = int(rng.integers(inst.n))
        dxb = np.zeros(inst.n)
        dsb = np.zeros(inst.n)
        dxb[i] = rng.uniform(-0.005, 0.005)
        dsb[i] = rng.normal() * 0.005
        ds.update(dxb, dsb)
        after = ds.output()
        assert np.abs(after[0] - before[0]).max() <= 1e-10
        assert np.abs(after[1] - before[1]).max() <= 1e-10


def test_update_support_is_exact(rng):
    inst, _, ds, _, _ = _make_state(rng)
    dxb = np.zeros(inst.n)
    dsb = np.zeros(inst.n)
    touched = sorted(rng.choice(inst.n, size=4, replace=False).tolist())
    for i in touched:
        dxb[i] = 0.01
    deltas = ds.update(dxb, dsb)
    assert deltas.idx.tolist() == touched
    assert deltas.hhat.shape == (4, inst.k)
    assert deltas.htil.shape == (4, inst.m)


def test_update_deltas_survive_later_updates(rng):
    # The sketches hold emitted deltas until their next query, so a later
    # update must not write into them.
    inst, _, ds, _, _ = _make_state(rng)
    dxb = np.zeros(inst.n)
    dxb[[2, 7]] = 0.01
    first = ds.update(dxb, np.zeros(inst.n))
    kept = {f: np.copy(getattr(first, f))
            for f in ("idx", "h", "hhat", "htil", "xhat_scaled", "shat_scaled")}
    ds.move()
    dxb[[2, 7, 9]] = -0.02
    ds.update(dxb, 0.01 * np.ones(inst.n))
    for f, val in kept.items():
        assert np.array_equal(getattr(first, f), val), f


def test_summaries_after_many_sparse_updates(rng):
    inst, _, ds, _, _ = _make_state(rng, n=60)
    for _ in range(100):
        i = int(rng.integers(inst.n))
        dxb = np.zeros(inst.n)
        dsb = np.zeros(inst.n)
        dxb[i] = rng.uniform(-0.01, 0.01)
        dsb[i] = rng.normal() * 0.01
        ds.update(dxb, dsb)
    hinv = 1.0 / ds.hdiag
    u6_fresh = inst.V.T @ (hinv[:, None] * inst.U)
    assert np.abs(ds.u6 - u6_fresh).max() <= 1e-9 * max(1.0, np.abs(u6_fresh).max())
    u3_fresh = inst.A @ (hinv[:, None] * inst.A.T)
    assert np.abs(ds.u3 - u3_fresh).max() <= 1e-9 * max(1.0, np.abs(u3_fresh).max())


def test_update_rejects_exterior(rng):
    inst, _, ds, _, _ = _make_state(rng)
    dxb = np.zeros(inst.n)
    dxb[3] = 5.0
    with pytest.raises(DomainError):
        ds.update(dxb, np.zeros(inst.n))


# -- queries ----------------------------------------------------------------

def test_query_matches_output(rng):
    inst, _, ds, _, _ = _make_state(rng)
    ds.move()
    xo, so = ds.output()
    for i in range(inst.n):
        assert ds.query_x(i) == pytest.approx(xo[i], abs=1e-14)
        assert ds.query_s(i) == pytest.approx(so[i], abs=1e-14)
    with pytest.raises(IndexError):
        ds.query_x(inst.n)


def test_no_dense_square_allocations(rng):
    # The lowrank path never materializes an n x n array.
    inst, _, ds, _, _ = _make_state(rng, n=50)
    ds.move()
    ds.update(np.zeros(inst.n), np.zeros(inst.n))
    n = inst.n
    for name, val in vars(ds).items():
        if isinstance(val, np.ndarray) and val.ndim == 2:
            assert min(val.shape) <= max(inst.k, inst.m), \
                f"{name} has shape {val.shape}"


def test_long_shadow_trajectory(rng):
    # Alternating Move / sparse Update rounds against a dense recomputation.
    inst, params, ds, x, s = _make_state(rng, n=50, k=3, m=2)
    xs, ss = x.copy(), s.copy()
    xb, sb = x.copy(), s.copy()
    for rnd in range(60):
        mu, gamma = compute_error_terms(inst, xb, sb, 1.0)
        dmu = step_direction(mu, gamma, params, inst.w)
        dx, dsl, _ = central_path_step(inst, xb, sb, 1.0, dmu, backend="dense")
        xs += dx
        ss += dsl
        ds.move()
        xo, so = ds.output()
        scale = max(1.0, np.abs(xs).max())
        assert np.abs(xo - xs).max() <= 1e-8 * scale
        assert np.abs(so - ss).max() <= 1e-8 * max(1.0, np.abs(ss).max())
        idx = rng.choice(inst.n, size=2, replace=False)
        dxb = np.zeros(inst.n)
        dsb = np.zeros(inst.n)
        dxb[idx] = xo[idx] - xb[idx]
        dsb[idx] = so[idx] - sb[idx]
        ds.update(dxb, dsb)
        xb += dxb
        sb += dsb
