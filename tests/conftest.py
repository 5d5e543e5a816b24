import itertools

import numpy as np
import pytest

from rankqp import build_qp_instance
from rankqp.barrier import BlockDomain


def random_lowrank_instance(rng, n=30, k=3, m=2, c_scale=1.0, box=(0.0, 1.0)):
    """Random PSD low-rank box QP with a strictly feasible interior point."""
    G = rng.normal(size=(n, k))
    A = rng.normal(size=(m, n)) if m else None
    z = rng.uniform(box[0] + 0.3 * (box[1] - box[0]),
                    box[0] + 0.7 * (box[1] - box[0]), size=n)
    b = A @ z if m else []
    c = c_scale * rng.normal(size=n)
    blocks = [BlockDomain.box(*box)] * n
    return build_qp_instance(c=c, A=A, b=b, blocks=blocks, U=G, V=G)


def wall_instance(seed):
    """(instance, eps): a box QP with m = n = 3, so one feasible point, and
    box widths 10^U(-6, 3).  On seeds 53, 92 and 209 an iterate of the
    predictor-corrector reaches a box wall in floating point."""
    rng = np.random.default_rng(seed)
    lo = rng.normal(size=3)
    width = 10.0 ** rng.uniform(-6, 3, 3)
    z = lo + width * rng.uniform(0.2, 0.8, 3)
    A = rng.normal(size=(3, 3))
    eps = 10.0 ** rng.uniform(-6, -1)
    inst = build_qp_instance(c=rng.normal(size=3), A=A, b=A @ z,
                             blocks=[BlockDomain.box(a, a + w) for a, w in zip(lo, width)],
                             U=np.zeros((3, 0)), V=np.zeros((3, 0)))
    return inst, eps


def exact_box_qp(inst):
    """OPT of a box QP with n <= 8 and finite boxes by enumeration; shares no
    code with the solver.

    Each coordinate is at lo, at hi or free (3^n patterns).  For a pattern
    the KKT system [Q_FF A_F'; A_F 0] (x_F, y) = (-c_F - Q_FX x_X, b - A_X x_X)
    is solved by least squares (one solve per free set F, every lo/hi choice
    on the fixed set X a column of the right-hand side), and the pattern is
    kept when its residual is at rounding level, x_F lies in the box and
    s = Qx + c + A'y is >= 0 at lo and <= 0 at hi.  Any KKT point of a
    convex QP is optimal, so every kept pattern must give the same objective.
    """
    n, m = inst.n, inst.m
    assert n <= 8 and np.all(np.isfinite(inst.hi))
    Q, c, A, b = inst.q_dense(), inst.c, inst.A.reshape(m, n), inst.b
    lo, hi = inst.lo[:, None], inst.hi[:, None]
    scale = 1.0 + np.abs(Q).max() + np.abs(c).max() + (np.abs(A).max() if m else 0.0)
    objectives = []
    for free in itertools.product((False, True), repeat=n):
        free = np.array(free)
        fixed = ~free
        nf = int(free.sum())
        at_hi = np.array(list(itertools.product((False, True), repeat=n - nf)),
                         dtype=bool).reshape(2 ** (n - nf), n - nf).T
        X = np.zeros((n, at_hi.shape[1]))
        X[fixed] = np.where(at_hi, hi[fixed], lo[fixed])
        K = np.zeros((nf + m, nf + m))
        K[:nf, :nf] = Q[np.ix_(free, free)]
        K[:nf, nf:] = A[:, free].T
        K[nf:, :nf] = A[:, free]
        rhs = np.vstack([-c[free, None] - Q[free] @ X, b[:, None] - A @ X])
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        X[free] = sol[:nf]
        Y = sol[nf:]
        size = scale * (1.0 + np.abs(X).max(axis=0) + np.abs(Y).max(axis=0, initial=0.0))
        S = Q @ X + c[:, None] + A.T @ Y
        ok = np.abs(K @ sol - rhs).max(axis=0, initial=0.0) <= 1e-9 * size
        slack = 1e-9 * (1.0 + np.abs(X).max(axis=0))
        ok &= np.all((X[free] >= lo[free] - slack) & (X[free] <= hi[free] + slack), axis=0)
        ok &= np.all(np.where(at_hi, S[fixed] <= 1e-9 * size, S[fixed] >= -1e-9 * size),
                     axis=0)
        Xk = X[:, ok]
        objectives.extend(0.5 * np.einsum("ij,ij->j", Xk, Q @ Xk) + c @ Xk)
    assert objectives, "no pattern satisfies KKT"
    objectives = np.array(objectives)
    assert np.ptp(objectives) <= 1e-7 * (1.0 + np.abs(objectives).max()), objectives
    return float(objectives.min())


@pytest.fixture(scope="session")
def exact_cases():
    """(instance, OPT) for 30 seeded tiny box QPs: n 1-8, m 0-2, k 0-3, boxes
    of widths 10^U(-3, 2) around a point z with Az = b."""
    rng = np.random.default_rng(2701)
    cases = []
    for _ in range(30):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, min(n, 2) + 1))
        k = int(rng.integers(0, 4))
        lo = rng.normal(size=n)
        width = 10.0 ** rng.uniform(-3, 2, size=n)
        z = lo + width * rng.uniform(0.2, 0.8, size=n)
        A = rng.normal(size=(m, n)) if m else None
        G = rng.normal(size=(n, k))
        inst = build_qp_instance(c=rng.normal(size=n), A=A, b=A @ z if m else [],
                                 blocks=[BlockDomain.box(a, a + w)
                                         for a, w in zip(lo, width)], U=G, V=G)
        cases.append((inst, exact_box_qp(inst)))
    return cases


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
