"""Robust interior point driver for the generic QP form.

The central path for  min 1/2 x'Qx + c'x, Ax = b, x in K  is

    s/t + grad phi_w(x) = mu,   Ax = b,   -Qx + A'y + s = c,

followed from t = 1 down to t_end with a soft-max potential over the
per-block error norms gamma_i = ||mu_i||*_{x_i}.  The dense backend
recomputes the approximation pair (xbar, sbar) = (x, s) exactly every
iteration; the lowrank backend delegates maintenance to ``cpm``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import barrier, model
from .exceptions import InvariantViolation, SolverError, ValidationError

# Practical-mode safeguard: keep every gamma_i / w_i at or below this level
# (the bound the approximate-optimality argument needs is 1, with margin).
_GAMMA_GUARD = 1.0 / 64.0


@dataclass
class IpmParams:
    lam: float
    eps_bar: float
    alpha: float
    eps_t: float
    h: float               # theory step size (also the floor in practical mode)
    h0: float              # starting step size
    mode: str              # "theory" or "practical"
    max_iter: int = 2_000_000

    @staticmethod
    def for_instance(inst: model.QPInstance, mode="practical", max_iter=None):
        if mode not in ("theory", "practical"):
            raise ValidationError(f"unknown mode {mode!r}")
        n = inst.n
        wsum = float(inst.w.sum())
        kappa = inst.kappa
        lam_theory = 64.0 * math.log(256.0 * n * wsum)
        eps_bar_theory = 1.0 / (1440.0 * lam_theory)
        alpha_theory = eps_bar_theory / 2.0
        h_theory = alpha_theory / (64.0 * math.sqrt(kappa))
        if mode == "theory":
            lam, eps_bar, alpha, h0 = lam_theory, eps_bar_theory, alpha_theory, h_theory
        else:
            # Practical mode: damped Newton centering with the direction norm
            # capped at 0.25 instead of the 1/(8 lam) proof constant, which
            # limits progress to ~alpha/sqrt(kappa) per step and is orders of
            # magnitude too slow at any usable size.
            lam = 16.0 * math.log(16.0 * n)
            alpha = 0.25
            eps_bar = 1.0 / (4.0 * lam)
            h0 = 0.5 / math.sqrt(kappa)
        eps_t = (eps_bar / 4.0) * float(np.min(inst.w / (inst.w + inst.nu)))
        if max_iter is None:
            max_iter = 2_000_000 if mode == "theory" else 200_000
        return IpmParams(lam=lam, eps_bar=eps_bar, alpha=alpha, eps_t=eps_t,
                         h=h_theory, h0=h0, mode=mode, max_iter=max_iter)


def compute_error_terms(inst: model.QPInstance, x_bar, s_bar, t_bar):
    """Coordinate errors mu_i = s_i/t + w_i phi_i'(x_i) and their dual norms."""
    if t_bar <= 0:
        raise ValidationError("t must be positive")
    barrier.check_interior(inst.lo, inst.hi, x_bar)
    g = barrier.grad_vec(inst.lo, inst.hi, x_bar)
    h = barrier.hess_vec(inst.lo, inst.hi, x_bar)
    mu = s_bar / t_bar + inst.w * g
    gamma = np.abs(mu) / np.sqrt(h)
    return mu, gamma


def potential(gamma, lam, w):
    """Soft-max potential sum_i cosh(lam * gamma_i / w_i), overflow-safe."""
    z = lam * np.asarray(gamma) / np.asarray(w)
    zmax = float(z.max(initial=0.0))
    if zmax <= 700.0:
        return float(np.cosh(z).sum())
    # Terms overflow float64; the sum is dominated by exp(zmax)/2.
    return math.inf


def log_cosh(z):
    z = abs(z)
    return z + math.log1p(math.exp(-2.0 * z)) - math.log(2.0)


def _softmax_pieces(gamma, lam, w):
    """Stable pieces of the step scaling: with z_i = lam*gamma_i/w_i returns
    (sinh(z_i)/D, 1/D, z) where D = sqrt(sum_j cosh^2(z_j)/w_j)."""
    z = lam * gamma / w
    shift = max(float(z.max(initial=0.0)) - 300.0, 0.0)
    sinh_s = 0.5 * (np.exp(z - shift) - np.exp(-z - shift))
    cosh_s = 0.5 * (np.exp(z - shift) + np.exp(-z - shift))
    denom = math.sqrt(float(np.sum(cosh_s * cosh_s / w)))
    return sinh_s / denom, math.exp(-shift) / denom, z


def step_direction(mu, gamma, params: IpmParams, w):
    """delta_mu_i = -alpha c_i mu_i; the gamma_i -> 0 limit is handled exactly."""
    gamma = np.asarray(gamma, dtype=float)
    w = np.asarray(w, dtype=float)
    ratio, inv_norm, z = _softmax_pieces(gamma, params.lam, w)
    small = z < 1e-8
    coef = np.zeros_like(ratio)
    np.divide(ratio, gamma, out=coef, where=~small)
    # sinh(z)/gamma -> lam/w as gamma -> 0
    coef[small] = (params.lam / w[small]) * inv_norm
    return -params.alpha * coef * mu


def _solve_normal(G, rhs, context):
    try:
        return scipy.linalg.solve(G, rhs, assume_a="pos")
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        pass
    reg = 1e-12 * np.trace(G) / G.shape[0]
    try:
        return scipy.linalg.solve(G + reg * np.eye(G.shape[0]), rhs, assume_a="pos")
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise SolverError(f"{context}: normal matrix numerically singular") from exc


def central_path_step(inst: model.QPInstance, x_bar, s_bar, t_bar, delta_mu,
                      backend="dense"):
    """One robust central path step (delta_x, delta_s, delta_y).

    With H = H_{w,xbar} and B = Q + t H:
        delta_x = t (B^-1 - B^-1 A'(A B^-1 A')^-1 A B^-1) delta_mu
        delta_s = t (delta_mu - H delta_x)
        delta_y solves  delta_s - Q delta_x - A' delta_y = 0.
    The lowrank backend applies B^-1 through the Woodbury identity and
    never forms an n x n matrix.
    """
    hw = inst.w * barrier.hess_vec(inst.lo, inst.hi, x_bar)
    if backend == "dense":
        B = inst.q_dense() + t_bar * np.diag(hw)
        try:
            cho = scipy.linalg.cho_factor(B)
            binv = lambda v: scipy.linalg.cho_solve(cho, v)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
            binv = lambda v: scipy.linalg.solve(B, v)
    elif backend == "lowrank":
        from .exactds import woodbury_apply
        if inst.U is None:
            U = V = np.zeros((inst.n, 0))
        else:
            U, V = inst.U, inst.V
        binv = lambda v: woodbury_apply(hw, U, V, t_bar, v)
    else:
        raise ValidationError(f"unknown backend {backend!r}")
    z = binv(delta_mu)
    if inst.m:
        BiAt = binv(inst.A.T)
        xi = _solve_normal(inst.A @ BiAt, inst.A @ z, "central_path_step")
        dx = t_bar * (z - BiAt @ xi)
    else:
        xi = np.zeros(0)
        dx = t_bar * z
    ds = t_bar * (delta_mu - hw * dx)
    dy = t_bar * xi
    return dx, ds, dy


@dataclass
class CenteringResult:
    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    t: float
    iterations: int
    trace: list = field(default_factory=list)


def centering(inst: model.QPInstance, x, s, t_start, t_end, params: IpmParams,
              backend="dense", collect_trace=False):
    """Follow the central path from t_start down to t_end.

    Theory mode enforces the potential invariant Phi <= cosh(lam/64) and
    uses the fixed theory step size.  Practical mode starts from a larger
    step and halves it whenever any gamma_i/w_i leaves the 1/64 band,
    restoring multiplicatively on quiet iterations.
    """
    if not 0 < t_end <= t_start:
        raise ValidationError("need 0 < t_end <= t_start")
    x = np.array(x, dtype=float)
    s = np.array(s, dtype=float)
    y = np.zeros(inst.m)
    t = t_bar = float(t_start)
    h = params.h if params.mode == "theory" else params.h0
    phi_cap = log_cosh(params.lam / 64.0)
    trace = []
    it = 0
    while t > t_end:
        if it >= params.max_iter:
            raise SolverError(f"centering exceeded {params.max_iter} iterations")
        if params.mode == "practical":
            # Decrement first so the Newton correction absorbs the drift
            # caused by the t move within the same iteration.
            _, gamma_pre = compute_error_terms(inst, x, s, t_bar)
            guard = float(np.max(gamma_pre / inst.w))
            if guard > _GAMMA_GUARD:
                h = max(0.5 * h, params.h)
            else:
                h = min(1.1 * h, params.h0)
            t = max((1.0 - h) * t, t_end)
            t_bar = t
            mu, gamma = compute_error_terms(inst, x, s, t_bar)
            phi = potential(gamma, params.lam, inst.w)
            mu_norm = math.sqrt(float(np.sum(gamma * gamma / inst.w)))
            theta = min(1.0, params.alpha / mu_norm) if mu_norm > 0 else 1.0
            delta_mu = -theta * mu
        else:
            if abs(t_bar - t) > params.eps_t * t_bar:
                t_bar = t
            mu, gamma = compute_error_terms(inst, x, s, t_bar)
            guard = float(np.max(gamma / inst.w))
            phi = potential(gamma, params.lam, inst.w)
            if math.log(phi) > phi_cap + 1e-9:
                raise InvariantViolation(
                    f"potential {phi:g} exceeds cosh(lam/64) at iteration {it}")
            delta_mu = step_direction(mu, gamma, params, inst.w)
            t = max((1.0 - h) * t, t_end)
        dx, ds, dy = central_path_step(inst, x, s, t_bar, delta_mu, backend=backend)
        if collect_trace:
            metric = barrier.metric_at(inst.lo, inst.hi, inst.w, x)
            eq_resid = float(np.abs(inst.A @ dx).max()) if inst.m else 0.0
            range_resid = float(np.linalg.norm(
                ds - inst.q_matvec(dx) - (inst.A.T @ dy if inst.m else 0.0)))
            trace.append({
                "t": t, "phi": phi, "h": h,
                "delta_mu_dual_norm": barrier.weighted_dual_norm(metric, delta_mu),
                "delta_x_norm": barrier.weighted_norm(metric, dx),
                "delta_s_dual_norm": barrier.weighted_dual_norm(metric, ds),
                "gamma_max_over_w": guard,
                "eq_residual": eq_resid,
                "range_residual": range_resid,
                "delta_s_scale": 1.0 + float(np.linalg.norm(ds)),
            })
        x += dx
        s += ds
        y += dy
        it += 1
    return CenteringResult(x=x, s=s, y=y, t=t, iterations=it, trace=trace)


@dataclass
class Solution:
    x: np.ndarray
    s: np.ndarray             # dual slack for the original program
    y: np.ndarray             # equality multipliers for the original program
    report: dict


def solve(inst: model.QPInstance, eps, mode="practical", backend="auto",
          seed=0, max_iter=None):
    """Solve the instance to additive objective error eps * L * R(R+1).

    Augments for the initial point, centers from t = 1 to t = eps^2/(4 kappa),
    and restricts.  backend "auto" picks the lowrank maintenance path when
    the factorization is thin enough to pay off, dense otherwise.
    """
    if not 0 < eps <= 0.5:
        raise ValidationError(f"eps must be in (0, 1/2], got {eps}")
    aug, x0, s0 = model.augment_for_initial_point(inst, eps)
    base = aug.base
    params = IpmParams.for_instance(base, mode=mode, max_iter=max_iter)
    t_end = eps * eps / (4.0 * base.kappa)
    if backend == "auto":
        # The sketch-maintained path only pays off once dense factorizations
        # dominate the restart overhead; below that the dense loop is faster.
        backend = ("lowrank" if inst.U is not None and base.n > 1024
                   and 4 * (base.k + base.m) <= base.n else "dense")
    if backend == "lowrank":
        from .cpm import centering_lowrank
        result = centering_lowrank(base, x0, s0, 1.0, t_end, params, seed=seed)
    else:
        result = centering(base, x0, s0, 1.0, t_end, params, backend=backend)
    x, feas = model.restrict_solution(aug, result.x)
    scale = aug.epsilon * aug.rho
    s_orig = result.s[: inst.n] / scale
    y_orig = result.y / scale
    gap_estimate = 4.0 * result.t * base.kappa / scale
    report = {
        "objective": feas.objective,
        "primal_residual_l1": feas.primal_residual_l1,
        "tau": feas.tau,
        "duality_gap_estimate": gap_estimate,
        "iterations": result.iterations,
        "t_final": result.t,
        "epsilon": eps,
        "mode": mode,
        "backend": backend,
        "seed": seed,
        "radii": {"R": inst.R, "r": inst.r},
        "lipschitz": inst.L,
        "error_budget": eps * inst.L * inst.R * (inst.R + 1.0),
    }
    return Solution(x=x, s=s_orig, y=y_orig, report=report)
