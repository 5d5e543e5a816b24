"""Dense reference solver and KKT measurement harness.

The oracle follows the classical increasing-t log-barrier scheme with an
infeasible-start damped Newton inner loop (fraction-to-boundary step caps,
backtracking on the KKT residual norm).  It shares only the barrier
evaluations with the main solver, so agreement between the two is a
meaningful check.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from . import barrier, model
from .exceptions import DomainError, SolverError, ValidationError

_DENSE_CAP = 2000
# Largest relative KKT residual accepted from the Schur complement step.
_SCHUR_RTOL = 1e-10
# Newton decrement that ends a barrier stage.  Only the last stage, whose
# point is returned, is centred tightly; an earlier one only warm-starts the
# next.  (Growing t by 100 per stage instead of 10 stalls the line search
# near t = 5e10 on about 1 in 250 of the qp-maintained-n32 instances.)
_STAGE_DECREMENT = 1e-2
_FINAL_DECREMENT = 1e-7


@dataclass
class KktReport:
    objective: float
    stationarity: float        # ||Qx + c + A'y - s||_2
    primal_residual_l1: float  # ||Ax - b||_1
    dual_domain: float         # max_i ||s_i/t + w_i grad phi_i||*_{x_i}, nan if t unknown
    duality_gap: float         # box complementarity bound on f(x) - OPT


def duality_gap(inst: model.QPInstance, x, s):
    """Box complementarity sum_i s_i^+ (x_i - lo_i) + s_i^- (hi_i - x_i).

    When Ax = b and s = Qx + c + A'y, weak duality makes it a bound on
    f(x) - OPT; it is infinite if s_i < 0 on a block without upper bound.
    """
    s_neg = np.maximum(-s, 0.0)
    upper = np.where(s_neg > 0, inst.hi - x, 0.0)
    return float((np.maximum(s, 0.0) * (x - inst.lo) + s_neg * upper).sum())


def certified_gap(inst: model.QPInstance, x, y):
    """Bound on f(x) - OPT measured from (x, y) alone.

    With s = Qx + c + A'y exactly, convexity gives, for every feasible x*,
    f(x) - f(x*) <= s'(x - x*) + y'(b - Ax) <= duality_gap(x, s) + |y'(b - Ax)|,
    so neither a stationarity nor an equality residual of x goes unseen.
    """
    s = inst.q_matvec(x) + inst.c + (inst.A.T @ y if inst.m else 0.0)
    r_p = inst.b - inst.A @ x if inst.m else np.zeros(0)
    return duality_gap(inst, x, s) + abs(float(y @ r_p))


def kkt_residuals(inst: model.QPInstance, x, s, y, t=None) -> KktReport:
    """Measured optimality of (x, s, y) in the convention Qx + c + A'y = s."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float).reshape(inst.m)
    grad_f = inst.q_matvec(x) + inst.c
    stat = grad_f + (inst.A.T @ y if inst.m else 0.0) - s
    if t is not None:
        g = barrier.grad_vec(inst.lo, inst.hi, x)
        h = barrier.hess_vec(inst.lo, inst.hi, x)
        mu = s / t + inst.w * g
        dual_domain = float(np.max(np.abs(mu) / np.sqrt(h)))
    else:
        dual_domain = float("nan")
    return KktReport(objective=inst.objective(x),
                     stationarity=float(np.linalg.norm(stat)),
                     primal_residual_l1=inst.primal_residual_l1(x),
                     dual_domain=dual_domain,
                     duality_gap=duality_gap(inst, x, s))


def max_step(v, dv):
    """Largest a >= 0 with v + a dv >= 0 componentwise; inf if dv >= 0."""
    neg = dv < 0
    return float(np.min(v[neg] / -dv[neg])) if neg.any() else math.inf


def boundary_step(v, dv):
    """Fraction-to-boundary rule: 99% of max_step(v, dv), capped at 1."""
    return min(1.0, 0.99 * max_step(v, dv))


def _boundary_cap(inst, x, dx):
    """Largest multiple of dx keeping x strictly interior, damped to 99%."""
    return boundary_step(np.concatenate([x - inst.lo, inst.hi - x]),
                         np.concatenate([dx, -dx]))


def _schur_step(Hmat, A, r_dual, r_pri):
    """Newton step (dx, dnu) by one Cholesky factor of Hmat: with m > 0,
    (A Hmat^{-1} A') dnu = r_pri - A Hmat^{-1} r_dual and
    dx = -Hmat^{-1} (r_dual + A' dnu).

    Raises LinAlgError when Hmat or the Schur complement is not numerically
    positive definite, or when the step leaves a KKT residual above
    _SCHUR_RTOL relative to the right-hand side: on widely spread barrier
    curvatures the Schur complement loses digits that LU on the full KKT
    matrix keeps."""
    cho = scipy.linalg.cho_factor(Hmat)
    hi_rd = scipy.linalg.cho_solve(cho, r_dual)
    if not r_pri.size:
        return -hi_rd, np.zeros(0)
    hi_at = scipy.linalg.cho_solve(cho, A.T)
    dnu = scipy.linalg.solve(A @ hi_at, r_pri - A @ hi_rd, assume_a="pos")
    dx = -(hi_rd + hi_at @ dnu)
    res = math.hypot(float(np.linalg.norm(Hmat @ dx + A.T @ dnu + r_dual)),
                     float(np.linalg.norm(A @ dx + r_pri)))
    if not res <= _SCHUR_RTOL * math.hypot(float(np.linalg.norm(r_dual)),
                                           float(np.linalg.norm(r_pri))):
        raise scipy.linalg.LinAlgError("inaccurate Schur complement step")
    return dx, dnu


def _kkt_step(Hmat, A, r_dual, r_pri):
    """Newton step (dx, dnu) from the full KKT matrix by LU, by least squares
    when that is singular."""
    n, m = Hmat.shape[0], r_pri.size
    if not m:
        return scipy.linalg.lstsq(Hmat, -r_dual)[0], np.zeros(0)
    K = np.zeros((n + m, n + m))
    K[:n, :n] = Hmat
    K[:n, n:] = A.T
    K[n:, :n] = A
    rhs = -np.concatenate([r_dual, r_pri])
    try:
        sol = scipy.linalg.solve(K, rhs)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        sol = scipy.linalg.lstsq(K, rhs)[0]
    return sol[:n], sol[n:]


def _newton_stage(inst, x, nu, t_o, decrement_tol, max_iter=80):
    """Infeasible-start damped Newton for min t_o f(x) + phi_w(x) s.t. Ax = b.

    Stops once primal feasibility is tight and the Newton decrement (affine
    invariant) is at most decrement_tol; tolerates a stall at decrement
    <= 0.25, which only costs a (1 + decrement) factor in the certified gap.
    """
    m = inst.m
    Q = inst.q_dense()
    b_scale = 1.0 + (float(np.linalg.norm(inst.b)) if m else 0.0)
    decrement = math.inf
    for _ in range(max_iter):
        g = barrier.grad_vec(inst.lo, inst.hi, x)
        h = barrier.hess_vec(inst.lo, inst.hi, x)
        grad = t_o * (inst.q_matvec(x) + inst.c) + inst.w * g
        r_dual = grad + (inst.A.T @ nu if m else 0.0)
        r_pri = inst.A @ x - inst.b if m else np.zeros(0)
        res = math.hypot(float(np.linalg.norm(r_dual)), float(np.linalg.norm(r_pri)))
        Hmat = t_o * Q + np.diag(inst.w * h)
        # Barrier endgames make these systems structurally ill conditioned;
        # the damped steps remain productive, so the warning is noise here.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            try:
                dx, dnu = _schur_step(Hmat, inst.A, r_dual, r_pri)
            except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
                dx, dnu = _kkt_step(Hmat, inst.A, r_dual, r_pri)
        decrement = math.sqrt(max(float(dx @ (Hmat @ dx)), 0.0))
        feasible = float(np.linalg.norm(r_pri)) <= 1e-10 * b_scale
        if feasible and decrement <= decrement_tol:
            return x, nu, decrement
        step = _boundary_cap(inst, x, dx)
        improved = False
        for _ in range(60):
            x_new = x + step * dx
            nu_new = nu + step * dnu
            g_new = barrier.grad_vec(inst.lo, inst.hi, x_new)
            grad_new = t_o * (inst.q_matvec(x_new) + inst.c) + inst.w * g_new
            rd_new = grad_new + (inst.A.T @ nu_new if m else 0.0)
            rp_new = inst.A @ x_new - inst.b if m else np.zeros(0)
            res_new = math.hypot(float(np.linalg.norm(rd_new)),
                                 float(np.linalg.norm(rp_new)))
            if res_new <= (1.0 - 0.25 * step) * res or res_new < res * (1 - 1e-12):
                improved = True
                break
            step *= 0.5
            if step < 1e-14:
                break
        if not improved:
            # float64 floor near the boundary; a sub-0.25 decrement only
            # inflates the certified gap by a (1 + decrement) factor
            if feasible and decrement <= 0.25:
                return x, nu, decrement
            raise SolverError("oracle line search stalled")
        x, nu = x_new, nu_new
    if decrement <= 0.25:
        return x, nu, decrement
    raise SolverError("oracle Newton did not converge within the iteration cap")


def dense_solve_qp(inst: model.QPInstance, tol=1e-9):
    """High-accuracy reference solution; returns (x, s, y, KktReport).

    Follows the increasing-t barrier path until the certified gap
    kappa / t_o drops below tol (absolute, in objective units), centring
    loosely at every stage but the last.
    """
    if inst.n > _DENSE_CAP:
        raise ValidationError(f"oracle cap is n <= {_DENSE_CAP}, got {inst.n}")
    kappa = inst.kappa
    x = model.analytic_center_point(inst)
    nu = np.zeros(inst.m)
    if inst.m:
        # Feasibility projection: interiority is restored by the Newton
        # phase if the projection lands too close to a wall.
        AAt = inst.A @ inst.A.T
        try:
            corr = inst.A.T @ scipy.linalg.solve(AAt, inst.b - inst.A @ x, assume_a="pos")
            x_proj = x + corr
            barrier.check_interior(inst.lo, inst.hi, x_proj)
            x = x_proj
        except (DomainError, np.linalg.LinAlgError):
            pass
    t_end = kappa / tol
    t_o = max(1.0, kappa / max(abs(inst.objective(x)), 1.0))
    for _ in range(200):
        last = t_o >= t_end
        x, nu, _ = _newton_stage(inst, x, nu, t_o,
                                 _FINAL_DECREMENT if last else _STAGE_DECREMENT)
        if last:
            break
        t_o = min(10.0 * t_o, t_end)
    else:
        raise SolverError("oracle barrier path did not reach the gap target")
    g = barrier.grad_vec(inst.lo, inst.hi, x)
    s = -(inst.w * g) / t_o
    y = nu / t_o
    return x, s, y, kkt_residuals(inst, x, s, y, t=1.0 / t_o)
