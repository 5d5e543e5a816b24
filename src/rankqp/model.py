"""Generic QP instances and the initial-point augmentation, which the
maintained central path (``ipm.solve``'s lowrank backend, and the theory
path the tests drive) starts from.

An instance is

    min 1/2 x'Qx + c'x   s.t.  Ax = b,  x_i in K_i,

with Q given either densely or as a rank-k factorization Q = UV'.  All
blocks K_i are scalar intervals (see ``barrier``), so the block count n
equals the total dimension.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import barrier
from .exceptions import DomainError, ValidationError

_PSD_CHECK_LIMIT = 400  # eigensolve cap for the dense PSD sanity check
_SYM_TOL = 1e-10


def _freeze(a):
    # A read-only view in the array's own layout: the caller's array keeps
    # its flags, and no copy is made.
    a = np.asarray(a, dtype=float).view()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QPInstance:
    c: np.ndarray
    A: np.ndarray            # (m, n); m may be 0
    b: np.ndarray
    blocks: tuple            # of barrier.BlockDomain, one per coordinate
    w: np.ndarray            # per-block weights, all >= 1
    R: float                 # outer radius of K
    r: float                 # inner radius (reported, not verified)
    L: float                 # Lipschitz bound: ||Q|| <= L, ||c||_2 <= L
    U: np.ndarray = None     # (n, k) or None
    V: np.ndarray = None
    Q: np.ndarray = None     # dense (n, n) or None
    lo: np.ndarray = field(default=None, repr=False)
    hi: np.ndarray = field(default=None, repr=False)
    nu: np.ndarray = field(default=None, repr=False)

    @property
    def n(self):
        return self.c.shape[0]

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def k(self):
        return 0 if self.U is None else self.U.shape[1]

    @property
    def kappa(self):
        return float(np.dot(self.w, self.nu))

    def q_matvec(self, x):
        if self.U is not None:
            return self.U @ (self.V.T @ x)
        if self.Q is not None:
            return self.Q @ x
        return np.zeros_like(x)

    def q_dense(self):
        if self.Q is not None:
            return self.Q
        cached = getattr(self, "_q_dense_cache", None)
        if cached is None:
            cached = self.U @ self.V.T if self.U is not None else np.zeros((self.n, self.n))
            object.__setattr__(self, "_q_dense_cache", cached)
        return cached

    def objective(self, x):
        return 0.5 * float(x @ self.q_matvec(x)) + float(self.c @ x)

    def primal_residual_l1(self, x):
        if self.m == 0:
            return 0.0
        return float(np.abs(self.A @ x - self.b).sum())


def build_qp_instance(c, A, b, blocks, weights=None, R=None, r=None, L=None,
                      U=None, V=None, Q=None):
    """Validate problem data and build an immutable instance.

    Exactly one of (U, V) / Q may describe the objective; both absent means
    a linear objective.  A symmetric factor given as V is U stays one array:
    the instance's V is its U.  R defaults to the tightest ball enclosing
    the boxes, r to a quarter of the smallest box half-width, and L to
    max(||c||_2, crude bound on ||Q||).
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.shape[0]
    if A is None or np.size(A) == 0:
        if b is not None and np.size(b):
            raise ValidationError(f"b has {np.size(b)} entries but A has no rows")
        A = np.zeros((0, n))
        b = np.zeros(0)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.ndim != 2 or A.shape[1] != n:
        raise ValidationError(f"A has shape {A.shape}, expected ({A.shape[0]}, {n})")
    if b.shape[0] != A.shape[0]:
        raise ValidationError(f"b has {b.shape[0]} entries for {A.shape[0]} rows of A")
    if len(blocks) != n:
        raise ValidationError(f"{len(blocks)} blocks for dimension {n}")

    if (U is None) != (V is None):
        raise ValidationError("factors U and V must be given together")
    if U is not None and Q is not None:
        raise ValidationError("give either factors (U, V) or dense Q, not both")
    if U is not None:
        shared = V is U
        U = np.asarray(U, dtype=float)
        V = U if shared else np.asarray(V, dtype=float)
        if U.ndim != 2 or U.shape != V.shape or U.shape[0] != n:
            raise ValidationError(f"factor shapes {U.shape}, {V.shape} do not match n={n}")
    if Q is not None:
        Q = np.asarray(Q, dtype=float)
    if weights is None:
        weights = np.ones(n)
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    # Every number must be finite; BlockDomain.box already rejects infinite
    # bounds, so only the half line reaches infinity.
    for name, arr in (("c", c), ("A", A), ("b", b), ("U", U), ("V", V), ("Q", Q),
                      ("weights", weights)):
        if arr is not None and not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} has non-finite entries")
    if weights.shape[0] != n:
        raise ValidationError(f"{weights.shape[0]} weights for {n} blocks")
    if np.any(weights < 1.0):
        raise ValidationError("all weights must be >= 1")
    if Q is not None:
        if Q.shape != (n, n):
            raise ValidationError(f"dense Q has shape {Q.shape}, expected ({n}, {n})")
        scale = max(1.0, float(np.abs(Q).max()))
        if np.abs(Q - Q.T).max() > _SYM_TOL * scale:
            raise ValidationError("dense Q is not symmetric")
        if n <= _PSD_CHECK_LIMIT:
            lam_min = float(np.linalg.eigvalsh(Q)[0])
            if lam_min < -1e-8 * scale:
                raise ValidationError(f"dense Q is not PSD (min eigenvalue {lam_min:g})")

    lo, hi, nu = barrier.pack_bounds(blocks)
    if R is None:
        widths = np.where(np.isfinite(hi), np.maximum(np.abs(lo), np.abs(hi)), np.abs(lo) + 1.0)
        R = float(np.linalg.norm(widths))
    if r is None:
        finite = np.isfinite(hi)
        r = 0.25 * float((hi[finite] - lo[finite]).min()) if finite.any() else 1.0
    if not R > 0 or not r > 0:
        raise ValidationError("radii R, r must be positive")
    if L is None:
        if U is not None:
            qbound = float(np.linalg.norm(U) * np.linalg.norm(V))
        elif Q is not None:
            qbound = float(np.linalg.norm(Q, 2))
        else:
            qbound = 0.0
        L = max(float(np.linalg.norm(c)), qbound, 1e-12)
    if not L > 0:
        raise ValidationError("Lipschitz bound L must be positive")

    frozen_U = None if U is None else _freeze(U)
    return QPInstance(c=_freeze(c), A=_freeze(A), b=_freeze(b), blocks=tuple(blocks),
                      w=_freeze(weights), R=float(R), r=float(r), L=float(L),
                      U=frozen_U, V=frozen_U if V is U else _freeze(V),
                      Q=None if Q is None else _freeze(Q),
                      lo=_freeze(lo), hi=_freeze(hi), nu=_freeze(nu))


@dataclass(frozen=True)
class AugmentedInstance:
    base: QPInstance          # dimension n + 1, objective scaled by eps*rho
    epsilon: float
    rho: float
    parent: QPInstance


def analytic_center_point(inst: QPInstance):
    """Minimizer of the box barriers, the midpoint of every box."""
    if np.isinf(inst.hi).any():
        raise DomainError("half-line barrier has no analytic center")
    return 0.5 * (inst.lo + inst.hi)


def augment_for_initial_point(inst: QPInstance, eps: float):
    """Initial-point reduction: returns (augmented instance, x0_bar, s0_bar).

    The auxiliary coordinate tau starts at 1 with a half-line log barrier
    and unit weight; the scaled objective makes the analytic-center start
    dual-feasible up to eps in the local dual norm.
    """
    if not 0 < eps <= 0.5:
        raise ValidationError(f"eps must be in (0, 1/2], got {eps}")
    n = inst.n
    rho = 1.0 / (inst.L * inst.R * (inst.R + 1.0))
    x0 = analytic_center_point(inst)
    s0 = eps * rho * (inst.c + inst.q_matvec(x0))

    c_aug = np.concatenate([eps * rho * inst.c, [1.0]])
    if inst.m > 0:
        A_aug = np.hstack([inst.A, (inst.b - inst.A @ x0)[:, None]])
    else:
        A_aug = np.zeros((0, n + 1))
    b_aug = inst.b.copy()

    U_aug = V_aug = Q_aug = None
    if inst.U is not None:
        U_aug = np.vstack([eps * rho * inst.U, np.zeros((1, inst.k))])
        V_aug = np.vstack([inst.V, np.zeros((1, inst.k))])
    elif inst.Q is not None:
        Q_aug = np.zeros((n + 1, n + 1))
        Q_aug[:n, :n] = eps * rho * inst.Q

    blocks_aug = tuple(inst.blocks) + (barrier.BlockDomain.half_line(),)
    w_aug = np.concatenate([inst.w, [1.0]])
    base = build_qp_instance(c_aug, A_aug, b_aug, blocks_aug, weights=w_aug,
                             R=float(np.hypot(inst.R, 2.0)), r=inst.r,
                             L=max(eps * rho * inst.L, float(np.linalg.norm(c_aug))),
                             U=U_aug, V=V_aug, Q=Q_aug)
    x0_bar = np.concatenate([x0, [1.0]])
    s0_bar = np.concatenate([s0, [1.0]])
    return AugmentedInstance(base=base, epsilon=eps, rho=rho, parent=inst), x0_bar, s0_bar


def restrict_solution(aug: AugmentedInstance, x_bar):
    """Project an augmented iterate back to the original variables."""
    return np.asarray(x_bar, dtype=float)[: aug.parent.n].copy()
