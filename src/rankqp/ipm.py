"""Interior point solvers for the generic QP form

    min 1/2 x'Qx + c'x   s.t.  Ax = b,  x in K,

with multipliers in the convention Qx + c + A'y = s.

``solve`` runs a Mehrotra predictor-corrector on the instance itself with
the dense or the Woodbury step (``predictor_corrector``), or, for backend
"lowrank", follows the central path of the initial-point augmentation by
damped steps through ExactDS + sketch maintenance (``cpm``).

The paper's short-step robust central path ("theory mode")

    s/t + grad phi_w(x) = mu,   Ax = b,   Qx + c + A'y = s,

from t = 1 down to t_end under a soft-max potential over the per-block error
norms gamma_i = ||mu_i||*_{x_i}, is a fidelity component that the tests
drive directly: ``IpmParams.for_instance(inst, mode="theory")``,
``centering`` and ``cpm.centering_lowrank``.  It is not a ``solve`` option:
its step h is 2e-10 to 7e-9, so a solve would need 5.5e8 (n = 1,
eps = 0.5) to 1.1e11 (n = 300, eps = 1e-3) steps.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import barrier, exactds, model, oracle
from .exceptions import InvariantViolation, SolverError, ValidationError

# Iteration cap of the practical predictor-corrector.
_PC_MAX_ITER = 200


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
    def for_instance(inst: model.QPInstance, mode="practical"):
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
            # Practical mode on the maintained path: damped Newton centering
            # with the direction norm capped at 0.25 instead of the 1/(8 lam)
            # proof constant, which limits progress to ~alpha/sqrt(kappa) per
            # step and is orders of magnitude too slow at any usable size.
            lam = 16.0 * math.log(16.0 * n)
            alpha = 0.25
            eps_bar = 1.0 / (4.0 * lam)
            h0 = 0.5 / math.sqrt(kappa)
        eps_t = (eps_bar / 4.0) * float(np.min(inst.w / (inst.w + inst.nu)))
        return IpmParams(lam=lam, eps_bar=eps_bar, alpha=alpha, eps_t=eps_t,
                         h=h_theory, h0=h0, mode=mode,
                         max_iter=2_000_000 if mode == "theory" else 200_000)


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


def _solve_normal(G, rhs, counts=None):
    """Solve with the positive semidefinite normal matrix G.  A numerically
    singular G is retried once with a 1e-12 tr(G)/m ridge, and the retry is
    counted in ``counts["ridge_uses"]``."""
    try:
        return scipy.linalg.solve(G, rhs, assume_a="pos")
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        pass
    reg = 1e-12 * np.trace(G) / G.shape[0]
    try:
        sol = scipy.linalg.solve(G + reg * np.eye(G.shape[0]), rhs, assume_a="pos")
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise SolverError("normal matrix A B^-1 A' numerically singular") from exc
    if counts is not None:
        counts["ridge_uses"] += 1
    return sol


def factor_newton(inst: model.QPInstance, d, backend, counts=None):
    """Factor B = Q + diag(d) once; returns (r, r_p) -> (dx, dy) solving

        B dx + A'dy = r,   A dx = r_p

    through the Schur complement S = A B^-1 A'.  "dense" forms B and takes
    its Cholesky factor (LU if B is not numerically positive definite);
    "woodbury" keeps Q = UV' factored and applies B^-1 through the k x k
    capacitance, never forming an n x n matrix.  A ridged solve with S is
    counted in ``counts["ridge_uses"]`` (see _solve_normal).  A non-finite d
    raises SolverError.
    """
    if not np.all(np.isfinite(d)):
        raise SolverError("Newton matrix diagonal is not finite: an iterate "
                          "reached a box wall in floating point")
    if backend == "dense":
        B = inst.q_dense() + np.diag(d)
        try:
            binv = functools.partial(scipy.linalg.cho_solve, scipy.linalg.cho_factor(B))
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
            binv = functools.partial(scipy.linalg.lu_solve, scipy.linalg.lu_factor(B))
    elif backend == "woodbury":
        binv = exactds.woodbury_factor(d, inst.U, inst.V, 1.0)
    else:
        raise ValidationError(f"unknown backend {backend!r}")
    if not inst.m:
        return lambda r, r_p: (binv(r), np.zeros(0))
    BiAt = binv(inst.A.T)
    S = inst.A @ BiAt

    def solve(r, r_p):
        z = binv(r)
        dy = _solve_normal(S, inst.A @ z - r_p, counts)
        return z - BiAt @ dy, dy

    return solve


def central_path_step(inst: model.QPInstance, x_bar, s_bar, t_bar, delta_mu,
                      backend="dense", counts=None):
    """One robust central path step (delta_x, delta_s, delta_y).

    With H = H_{w,xbar} and B = Q + t H:
        delta_x = t (B^-1 - B^-1 A'(A B^-1 A')^-1 A B^-1) delta_mu
        delta_s = t (delta_mu - H delta_x)
        delta_y solves  delta_s - Q delta_x - A' delta_y = 0.
    A ridged normal solve is counted in ``counts["ridge_uses"]``.
    """
    hw = inst.w * barrier.hess_vec(inst.lo, inst.hi, x_bar)
    solve = factor_newton(inst, t_bar * hw, backend, counts)
    z, xi = solve(delta_mu, np.zeros(inst.m))
    dx = t_bar * z
    ds = t_bar * (delta_mu - hw * dx)
    dy = t_bar * xi
    return dx, ds, dy


@dataclass
class CenteringResult:
    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    iterations: int
    trace: list = field(default_factory=list)
    ridge_uses: int = 0       # normal solves retried with a ridge (see _solve_normal)
    sketch_rows: int = 0      # rows of the maintained path's sketches (cpm only)


def centering(inst: model.QPInstance, x, s, t_start, t_end, params: IpmParams,
              collect_trace=False):
    """Follow the central path from t_start down to t_end in theory mode,
    with the dense step.

    Enforces the potential invariant Phi <= cosh(lam/64) and takes the
    fixed theory step size.  ``solve`` does not call it (see the module
    docstring); ``cpm.centering_lowrank`` is its maintained counterpart.
    """
    if params.mode != "theory":
        raise ValidationError("centering runs theory mode only")
    if not 0 < t_end <= t_start:
        raise ValidationError("need 0 < t_end <= t_start")
    x = np.array(x, dtype=float)
    s = np.array(s, dtype=float)
    y = np.zeros(inst.m)
    t = t_bar = float(t_start)
    h = params.h
    phi_cap = log_cosh(params.lam / 64.0)
    counts = Counter()
    trace = []
    it = 0
    while t > t_end:
        if it >= params.max_iter:
            raise SolverError(f"centering exceeded {params.max_iter} iterations")
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
        dx, ds, dy = central_path_step(inst, x, s, t_bar, delta_mu, counts=counts)
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
    return CenteringResult(x=x, s=s, y=y, iterations=it, trace=trace,
                           ridge_uses=counts["ridge_uses"])


def predictor_corrector(inst: model.QPInstance, gap_target, resid_target,
                        backend="dense"):
    """Mehrotra predictor-corrector from the analytic centre of the boxes.

    Splits the multipliers into bound multipliers zl, zu and solves, with
    gl = x - lo and gu = hi - x,

        Qx + c + A'y = zl - zu,   Ax = b,   gl zl = gu zu = sigma mu,

    by Newton steps from x = analytic centre, y = 0, zl = 1/gl, zu = 1/gu.
    Each iteration factors B = Q + zl/gl + zu/gu once; the predictor
    (sigma = 0) and the corrector (sigma = (mu_aff/mu)^3 plus the
    second-order term) share that factor, and both parts take one common
    step, 99% of the way to the boundary.  The Newton right-hand side
    carries the measured residuals, so the start need not satisfy Ax = b and
    rounding never accumulates.  Stops once ``oracle.certified_gap`` of
    (x, y) is at most gap_target and ||b - Ax||_1 at most resid_target, and
    returns s = Qx + c + A'y, the slack that certificate measures.
    """
    lo, hi = inst.lo, inst.hi
    x = model.analytic_center_point(inst)
    y = np.zeros(inst.m)
    zl = 1.0 / (x - lo)
    zu = 1.0 / (hi - x)
    n_pairs = 2 * inst.n
    At = inst.A.T
    # The dense step forms Q = UV' anyway; multiplying by it beats UV'x when k > n.
    q_matvec = inst.q_dense().dot if backend == "dense" else inst.q_matvec
    counts = Counter()
    it = 0
    while True:
        gl = x - lo
        gu = hi - x
        # oracle.certified_gap, sharing its products with the Newton residuals
        s = q_matvec(x) + inst.c + At @ y
        r_p = inst.b - inst.A @ x
        gap = oracle.duality_gap(inst, x, s) + abs(float(y @ r_p))
        if gap <= gap_target and float(np.abs(r_p).sum()) <= resid_target:
            return CenteringResult(x=x, s=s, y=y, iterations=it,
                                   ridge_uses=counts["ridge_uses"])
        if it >= _PC_MAX_ITER:
            raise SolverError(f"predictor-corrector exceeded {_PC_MAX_ITER} iterations")
        r_d = zl - zu - s
        solve = factor_newton(inst, zl / gl + zu / gu, backend, counts)

        def newton(rl, ru):
            dx, dy = solve(r_d + rl / gl - ru / gu, r_p)
            return dx, dy, (rl - zl * dx) / gl, (ru + zu * dx) / gu

        # Every gap and multiplier must stay positive.
        v = np.concatenate([gl, gu, zl, zu])
        mu = (gl @ zl + gu @ zu) / n_pairs
        dx, _, dzl, dzu = newton(-gl * zl, -gu * zu)
        a = min(1.0, oracle.max_step(v, np.concatenate([dx, -dx, dzl, dzu])))
        mu_aff = ((gl + a * dx) @ (zl + a * dzl)
                  + (gu - a * dx) @ (zu + a * dzu)) / n_pairs
        sigma = (mu_aff / mu) ** 3
        dx, dy, dzl, dzu = newton(sigma * mu - gl * zl - dx * dzl,
                                  sigma * mu - gu * zu + dx * dzu)
        a = oracle.boundary_step(v, np.concatenate([dx, -dx, dzl, dzu]))
        if not a > 0 or not np.all(np.isfinite(dx)):
            raise SolverError(f"predictor-corrector stalled at iteration {it}")
        x += a * dx
        y += a * dy
        zl += a * dzl
        zu += a * dzu
        it += 1


@dataclass
class Solution:
    x: np.ndarray
    s: np.ndarray             # dual slack for the original program
    y: np.ndarray             # equality multipliers for the original program
    report: dict


def solve(inst: model.QPInstance, eps, backend="auto", seed=0):
    """Solve the instance to additive objective error eps * L * R(R+1).

    With the dense or Woodbury step, ``predictor_corrector`` runs on the
    instance itself until the measured duality gap is at most that budget
    and ||b - Ax||_1 at most 3 eps (R ||A||_1 + ||b||_1), both in the
    instance's own units.  backend "auto" takes the Woodbury step when
    Q = UV' is thin (4(k + m) <= n), dense otherwise.  backend "lowrank"
    augments for the initial point, follows the central path from t = 1 to
    t = eps^2/(4 kappa) through ``cpm.centering_lowrank`` (seed draws its
    sketches) and restricts the result.  The returned multipliers satisfy
    Qx + c + A'y = s.  The report's "ridge_uses" counts the linear solves
    retried with a small ridge (0 on a well-posed run); with backend
    "lowrank" it also gives the "seed" and the rows of the sketches built,
    "sketch_rows" (n of the augmented instance when the sketch is exact).
    """
    if not 0 < eps <= 0.5:
        raise ValidationError(f"eps must be in (0, 1/2], got {eps}")
    if backend not in ("auto", "dense", "lowrank"):
        raise ValidationError(f"unknown backend {backend!r}")
    budget = eps * inst.L * inst.R * (inst.R + 1.0)
    if backend == "auto":
        backend = ("woodbury" if inst.U is not None
                   and 4 * (inst.k + inst.m) <= inst.n else "dense")
    if backend != "lowrank":
        resid_bound = 3.0 * eps * (inst.R * float(np.abs(inst.A).sum())
                                   + float(np.abs(inst.b).sum()))
        result = predictor_corrector(inst, budget, resid_bound, backend=backend)
        x, s, y = result.x, result.s, result.y
        gap = oracle.certified_gap(inst, x, y)
    else:
        from .cpm import centering_lowrank
        aug, x0, s0 = model.augment_for_initial_point(inst, eps)
        base = aug.base
        params = IpmParams.for_instance(base)
        t_end = eps * eps / (4.0 * base.kappa)
        result = centering_lowrank(base, x0, s0, 1.0, t_end, params, seed=seed)
        scale = aug.epsilon * aug.rho
        x = model.restrict_solution(aug, result.x)
        s = result.s[: inst.n] / scale
        y = result.y / scale
        gap = oracle.certified_gap(base, result.x, result.y) / scale
    report = {
        "objective": inst.objective(x),
        "primal_residual_l1": inst.primal_residual_l1(x),
        "duality_gap": gap,
        "iterations": result.iterations,
        "ridge_uses": result.ridge_uses,
        "epsilon": eps,
        "backend": backend,
        "radii": {"R": inst.R, "r": inst.r},
        "lipschitz": inst.L,
        "error_budget": budget,
    }
    if backend == "lowrank":
        report["seed"] = seed
        report["sketch_rows"] = result.sketch_rows
    return Solution(x=x, s=s, y=y, report=report)
