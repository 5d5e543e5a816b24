"""SVM training by reduction to the generic QP form.

Every variant becomes  min 1/2 a'Qa + p'a  over a box with one or two
equality rows; maximization forms are negated in and the reported dual
objective negated back out.  Classification objectives carry
Q = (yy') o K through label-scaled kernel factors, regression variants
stack to dimension 2n with factors [U; -U], [V; -V].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import barrier, ipm, kernel, model
from .exceptions import ValidationError

VARIANTS = ("hard", "c-svc", "nu-svc", "one-class", "eps-svr", "nu-svr")
_CLASSIFICATION = ("hard", "c-svc", "nu-svc")
_SUPPORT_REL = 1e-5


@dataclass(frozen=True)
class SvmSpec:
    X: np.ndarray
    y: np.ndarray = None          # +-1 labels, real targets for regression, None for one-class
    variant: str = "c-svc"
    kernel: str = "linear"        # "linear" or "gaussian"
    C: float = 1.0
    nu: float = 0.5
    eps_tube: float = 0.1
    box_cap: float = None         # hard-margin cap on alpha; default 10 n

    def __post_init__(self):
        object.__setattr__(self, "X", np.atleast_2d(np.asarray(self.X, dtype=float)))
        if self.y is not None:
            object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if not np.all(np.isfinite(self.X)):
            raise ValidationError("X has non-finite entries")
        if self.y is not None and not np.all(np.isfinite(self.y)):
            raise ValidationError("y has non-finite entries")
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        if self.kernel not in ("linear", "gaussian"):
            raise ValidationError(f"unknown kernel {self.kernel!r}")
        n = self.X.shape[0]
        if self.variant == "one-class":
            if self.y is not None:
                raise ValidationError("one-class takes no labels")
        else:
            if self.y is None:
                raise ValidationError(f"variant {self.variant} needs labels")
            if self.y.shape != (n,):
                raise ValidationError("labels must be one per row of X")
        if self.variant in _CLASSIFICATION and not np.all(np.abs(self.y) == 1.0):
            raise ValidationError("classification labels must be +1 or -1")
        if self.variant in ("c-svc", "eps-svr", "nu-svr") and not self.C > 0:
            raise ValidationError("C must be positive")
        if self.variant in ("nu-svc", "one-class", "nu-svr"):
            if not 0 < self.nu <= 1:
                raise ValidationError("nu must lie in (0, 1]")
        if self.variant == "nu-svc":
            kplus = int(np.sum(self.y > 0))
            kminus = n - kplus
            bound = 2.0 * min(kplus, kminus) / n
            if self.nu > bound + 1e-12:
                raise ValidationError(
                    f"nu-SVC infeasible: nu={self.nu} exceeds 2*min(k-,k+)/n={bound:.6g}")
        if self.variant == "eps-svr" and not self.eps_tube >= 0:
            raise ValidationError("eps_tube must be nonnegative")


def _kernel_factors(spec: SvmSpec, eps_factor):
    """(U, V, report): the factor of K, and the Gaussian factor's degree,
    rank and errors (None for the linear kernel, whose U and V are X)."""
    if spec.kernel == "linear":
        return spec.X, spec.X, None
    fact = kernel.gaussian_lowrank_factor(spec.X, eps_factor)
    report = {"degree": fact.degree, "rank": fact.rank,
              "sup_error": fact.sup_error, "prune_slack": fact.prune_slack}
    return fact.U, fact.V, report


def _stack_negated(F):
    """[F; -F] written into one new array."""
    out = np.empty((2 * F.shape[0], F.shape[1]))
    out[:F.shape[0]] = F
    np.negative(F, out=out[F.shape[0]:])
    return out


@dataclass
class ReducedQP:
    instance: model.QPInstance
    maximization: bool
    factor_report: dict = None     # Gaussian factor's degree, rank and errors; None for linear
    dim: int = 0


def reduce_to_qp(spec: SvmSpec, eps_factor=1e-6) -> ReducedQP:
    """Transcribe the variant into the solver's minimization form.

    A Gaussian factor is built for this call alone, so classification scales
    its rows by the labels in place and the instance holds the only copy;
    the linear kernel's factor is the caller's X, which gets one scaled
    copy shared by U and V.  Regression stacks each factor into one new
    array and drops the unstacked one before stacking the next; the linear
    kernel's U and V share one stacked [X; -X]."""
    n = spec.X.shape[0]
    U, V, factor_report = _kernel_factors(spec, eps_factor)
    gaussian = factor_report is not None
    ones = np.ones(n)
    # trace(UV') without an n x k temporary; equals trace(K) up to eps
    trace_bound = float(np.einsum("ij,ij->", U, V))

    if spec.variant in _CLASSIFICATION:
        U, V = kernel.scale_by_labels(U, V, spec.y, in_place=gaussian)
    elif spec.variant in ("eps-svr", "nu-svr"):
        # Rebinding U drops the unstacked factor before V is stacked.
        shared = V is U
        U = _stack_negated(U)
        V = U if shared else _stack_negated(V)
        trace_bound *= 2.0

    if spec.variant in ("hard", "c-svc"):
        cap = spec.C if spec.variant == "c-svc" else (spec.box_cap or 10.0 * n)
        p = -ones
        A = spec.y[None, :]
        b = np.zeros(1)
        boxes = [barrier.BlockDomain.nonneg_box(cap)] * n
        maximization = True
    elif spec.variant == "nu-svc":
        p = np.zeros(n)
        A = np.vstack([spec.y, ones])
        b = np.array([0.0, spec.nu])
        boxes = [barrier.BlockDomain.nonneg_box(1.0 / n)] * n
        maximization = False
    elif spec.variant == "one-class":
        p = np.zeros(n)
        A = ones[None, :]
        b = np.array([spec.nu])
        boxes = [barrier.BlockDomain.nonneg_box(1.0 / n)] * n
        maximization = False
    elif spec.variant == "eps-svr":
        p = np.concatenate([spec.eps_tube * ones + spec.y,
                            spec.eps_tube * ones - spec.y])
        A = np.concatenate([ones, -ones])[None, :]
        b = np.zeros(1)
        boxes = [barrier.BlockDomain.nonneg_box(spec.C)] * (2 * n)
        maximization = False
    else:  # nu-svr
        p = np.concatenate([spec.y, -spec.y])
        A = np.vstack([np.concatenate([ones, -ones]),
                       np.concatenate([ones, ones])])
        b = np.array([0.0, spec.C * spec.nu])
        boxes = [barrier.BlockDomain.nonneg_box(spec.C / n)] * (2 * n)
        maximization = False

    caps = np.array([d.hi for d in boxes])
    R = float(np.linalg.norm(caps))
    r = float(caps.min()) / 4.0
    L = max(float(np.linalg.norm(p)), abs(trace_bound) * 1.05, 1.0)
    inst = model.build_qp_instance(p, A, b, boxes, R=R, r=r, L=L, U=U, V=V)
    return ReducedQP(instance=inst, maximization=maximization,
                     factor_report=factor_report, dim=inst.n)


@dataclass
class SvmModel:
    spec: SvmSpec
    alpha: np.ndarray
    bias: float
    w: np.ndarray = None           # primal normal vector, linear kernel only
    dual_objective: float = 0.0
    solve_report: dict = field(default_factory=dict)

    @property
    def support(self):
        """Indices of the dual coordinates with active alpha."""
        return np.nonzero(self.alpha > _SUPPORT_REL * float(np.max(self.alpha, initial=1.0)))[0]


def _dual_coef(spec, alpha):
    """Coefficient on K(x_j, .) in the decision function."""
    n = spec.X.shape[0]
    if spec.variant in _CLASSIFICATION:
        return alpha * spec.y
    if spec.variant == "one-class":
        return alpha
    return -(alpha[:n] - alpha[n:])


# Kernel entries per query block of the decision function (512 KiB of float64).
_BLOCK_ENTRIES = 1 << 16


def _decision_sum(spec, coef, Xq):
    """coef @ K(train, Xq) for the exact kernel, one block of query columns
    at a time, so that no n_train x n_query array is formed."""
    X = spec.X
    gaussian = spec.kernel == "gaussian"
    if gaussian:
        sq = np.sum(X**2, axis=1)[:, None]
        sq_q = np.sum(Xq**2, axis=1)
    out = np.empty(Xq.shape[0])
    step = max(1, _BLOCK_ENTRIES // max(X.shape[0], 1))
    for i in range(0, Xq.shape[0], step):
        cols = slice(i, i + step)
        K = X @ Xq[cols].T
        if gaussian:
            # exp(-max(|x|^2 + |q|^2 - 2 x'q, 0)), in place
            K *= -2.0
            K += sq + sq_q[None, cols]
            np.maximum(K, 0.0, out=K)
            np.negative(K, out=K)
            np.exp(K, out=K)
        out[cols] = coef @ K
    return out


def recover_primal(alpha, spec: SvmSpec, y_eq):
    """Primal normal vector (linear kernel only) and bias.

    Every dual puts the bias row first (y'a = 0, 1'a = nu or the stacked
    regression balance), so the bias is minus that row's multiplier; unlike
    an average over interior supports it exists when every alpha sits on a
    bound.
    """
    w = spec.X.T @ _dual_coef(spec, alpha) if spec.kernel == "linear" else None
    return w, -float(y_eq[0])


def train(spec: SvmSpec, eps_solve=1e-4, mode="practical", backend="auto", seed=0):
    """Train to additive dual-objective error eps_solve against the exact
    optimum of the reduced program (Gaussian kernels add the certified
    entrywise kernel error on top).

    The factor's entrywise target eps_solve / (n R^2) is clamped into
    [1e-12, 1e-3]; the report gives the target ("kernel_eps_target") beside
    the tolerance the factor was built to ("kernel_eps")."""
    n = spec.X.shape[0]
    if spec.kernel == "gaussian":
        R_est = _outer_radius_estimate(spec)
        target = eps_solve / (max(n, 2) * R_est**2)
        eps1 = min(max(target, 1e-12), 1e-3)
    else:
        target = eps1 = None
    red = reduce_to_qp(spec, eps_factor=eps1)
    inst = red.instance
    eps_qp = min(0.5, eps_solve / (inst.L * inst.R * (inst.R + 1.0)))
    sol = ipm.solve(inst, eps_qp, mode=mode, backend=backend, seed=seed)
    alpha = sol.x
    dual_obj = inst.objective(alpha)
    if red.maximization:
        dual_obj = -dual_obj
    w, b = recover_primal(alpha, spec, sol.y)
    from . import oracle
    kkt = oracle.kkt_residuals(inst, alpha, sol.s, sol.y)
    report = dict(sol.report)
    report.update({"dual_objective": dual_obj, "variant": spec.variant,
                   "kernel": spec.kernel, "eps_solve": eps_solve,
                   "kernel_eps": eps1, "kernel_eps_target": target,
                   "kernel_factor": red.factor_report,
                   "equality_residual_l1": inst.primal_residual_l1(alpha),
                   "kkt": {"stationarity": kkt.stationarity,
                           "primal_residual_l1": kkt.primal_residual_l1,
                           "duality_gap": kkt.duality_gap}})
    return SvmModel(spec=spec, alpha=alpha, bias=b, w=w, dual_objective=dual_obj,
                    solve_report=report)


def _outer_radius_estimate(spec):
    n = spec.X.shape[0]
    if spec.variant in ("hard",):
        cap = spec.box_cap or 10.0 * n
    elif spec.variant in ("c-svc", "eps-svr"):
        cap = spec.C
    elif spec.variant == "nu-svr":
        cap = spec.C / n
    else:
        cap = 1.0 / n
    dim = 2 * n if spec.variant in ("eps-svr", "nu-svr") else n
    return cap * math.sqrt(dim)


def predict(mdl: SvmModel, Xq):
    """Decision values and labels for query points.

    The decision evaluates the exact kernel against every training row, so
    Gaussian predictions carry no factorization error at any query.  It is
    summed one block of queries at a time (_BLOCK_ENTRIES kernel entries),
    so memory stays flat in the number of queries.  Query points must be
    finite (ValidationError otherwise).  Classification and one-class
    return sign labels; regression returns the fitted values as labels.
    """
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    if Xq.shape[1] != mdl.spec.X.shape[1]:
        raise ValidationError(
            f"query dimension {Xq.shape[1]} != training dimension {mdl.spec.X.shape[1]}")
    if not np.all(np.isfinite(Xq)):
        raise ValidationError("query points have non-finite entries")
    f_nb = _decision_sum(mdl.spec, _dual_coef(mdl.spec, mdl.alpha), Xq)
    if mdl.spec.variant in _CLASSIFICATION or mdl.spec.variant == "one-class":
        dec = f_nb - mdl.bias
        return dec, np.sign(dec)
    dec = f_nb + mdl.bias
    return dec, dec
