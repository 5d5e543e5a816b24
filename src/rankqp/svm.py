"""SVM training by reduction to the generic QP form.

Every variant becomes  min 1/2 a'Qa + p'a  over a box with one or two
equality rows; maximization forms are negated in and the reported dual
objective negated back out.  Every objective is Q = GG' with one factor G
built from a factor F of the kernel, K ~ FF': classification carries
Q = (yy') o K through the label-scaled D_y F, regression stacks to
dimension 2n with [F; -F].  The plain-text model file
(``dump_model``/``load_model``) is kept here beside the model it holds.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import barrier, ipm, kernel, model
from .exceptions import ParseError, ValidationError

VARIANTS = ("hard", "c-svc", "nu-svc", "one-class", "eps-svr", "nu-svr")
CLASSIFICATION = ("hard", "c-svc", "nu-svc")
_SUPPORT_REL = 1e-5
# The first Gaussian factor's tr(E), as a fraction of eps_solve.
_FIRST_TRACE = 0.1


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
        if self.variant in CLASSIFICATION and not np.all(np.abs(self.y) == 1.0):
            raise ValidationError("classification labels must be +1 or -1")
        if self.variant in ("c-svc", "eps-svr", "nu-svr") and not self.C > 0:
            raise ValidationError("C must be positive")
        if self.variant == "hard" and self.box_cap is not None and not self.box_cap > 0:
            raise ValidationError(f"box_cap must be positive, got {self.box_cap}")
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


def dual_box(spec: SvmSpec):
    """(cap, dim): the variant's dual lives in the box [0, cap]^dim, with
    dim = 2n for the stacked regression duals and n otherwise."""
    n = spec.X.shape[0]
    if spec.variant == "hard":
        cap = 10.0 * n if spec.box_cap is None else spec.box_cap
    elif spec.variant in ("c-svc", "eps-svr"):
        cap = spec.C
    elif spec.variant == "nu-svr":
        cap = spec.C / n
    else:
        cap = 1.0 / n
    return cap, 2 * n if spec.variant in ("eps-svr", "nu-svr") else n


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


def reduce_to_qp(spec: SvmSpec, factor: kernel.PivotedCholesky = None) -> ReducedQP:
    """Transcribe the variant into the solver's minimization form, with
    Q = GG' and one array G as both U and V.

    The linear kernel's G is built from the caller's X.  The Gaussian kernel
    needs ``factor`` (K ~ LL'), whose L becomes the instance's own:
    classification scales its rows by the labels in place, and scaling again
    by the labels restores them exactly.  Otherwise G is X or L itself
    (one-class), one label-scaled copy of X (classification), or one new
    stacked [F; -F] (regression)."""
    n = spec.X.shape[0]
    gaussian = spec.kernel == "gaussian"
    if gaussian and factor is None:
        raise ValidationError("the Gaussian kernel reduces only with its factor")
    G = factor.L if gaussian else spec.X
    ones = np.ones(n)
    # trace(GG') without an n x k temporary
    trace_bound = float(np.einsum("ij,ij->", G, G))

    if spec.variant in CLASSIFICATION:
        G = kernel.scale_by_labels(G, G, spec.y, in_place=gaussian)[0]
    elif spec.variant in ("eps-svr", "nu-svr"):
        G = _stack_negated(G)
        trace_bound *= 2.0

    if spec.variant in ("hard", "c-svc"):
        p = -ones
        A = spec.y[None, :]
        b = np.zeros(1)
    elif spec.variant == "nu-svc":
        p = np.zeros(n)
        A = np.vstack([spec.y, ones])
        b = np.array([0.0, spec.nu])
    elif spec.variant == "one-class":
        p = np.zeros(n)
        A = ones[None, :]
        b = np.array([spec.nu])
    elif spec.variant == "eps-svr":
        p = np.concatenate([spec.eps_tube * ones + spec.y,
                            spec.eps_tube * ones - spec.y])
        A = np.concatenate([ones, -ones])[None, :]
        b = np.zeros(1)
    else:  # nu-svr
        p = np.concatenate([spec.y, -spec.y])
        A = np.vstack([np.concatenate([ones, -ones]),
                       np.concatenate([ones, ones])])
        b = np.array([0.0, spec.C * spec.nu])

    cap, dim = dual_box(spec)
    boxes = [barrier.BlockDomain.nonneg_box(cap)] * dim
    caps = np.array([d.hi for d in boxes])
    R = float(np.linalg.norm(caps))
    r = float(caps.min()) / 4.0
    L = max(float(np.linalg.norm(p)), abs(trace_bound) * 1.05, 1.0)
    inst = model.build_qp_instance(p, A, b, boxes, R=R, r=r, L=L, U=G, V=G)
    return ReducedQP(instance=inst, maximization=spec.variant in ("hard", "c-svc"))


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
    if spec.variant in CLASSIFICATION:
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


def train(spec: SvmSpec, eps_solve=1e-4):
    """Train to a dual objective certified within eps_solve of the exact
    kernel's optimum: the report's "certificate" bounds f_K(alpha) - OPT_K
    in the reduced minimization form, K being the exact kernel.

    The reduced program is solved by ``ipm.solve`` with the automatic
    backend choice, that is by the predictor-corrector with the dense or
    the Woodbury step.  The linear kernel is exact: its certificate is the
    solve's certified duality gap, and the solve runs to eps_solve.

    The Gaussian kernel trains on a pivoted-Cholesky factor K = LL' + E,
    first built to tr(E) <= eps_solve / 10, with the solve run to
    eps_solve / 2.  E is positive semidefinite, so f_L <= f_K everywhere,
    OPT_L <= OPT_K and

        f_K(alpha) - OPT_K <= gap_L + beta'E beta / 2 <= gap_L + tr(E) ||beta||^2 / 2,

    beta being the decision function's coefficients (``_dual_coef``).  While
    that certificate exceeds eps_solve, the same factor is extended until
    its term fits in half the room the next solve leaves, and the program
    is solved again.  The report's "kernel_factor" gives the method, the
    rank, tr(E) and the number of extensions (None for the linear kernel).
    A hard margin whose alpha reaches the cap raises ValidationError: the
    data are not separable by a hard margin at that cap.
    """
    gaussian = spec.kernel == "gaussian"
    factor = (kernel.pivoted_cholesky_factor(spec.X, _FIRST_TRACE * eps_solve)
              if gaussian else None)
    share = 0.5 if gaussian else 1.0
    extensions = 0
    while True:
        red = reduce_to_qp(spec, factor)
        inst = red.instance
        eps_qp = min(0.5, share * eps_solve / (inst.L * inst.R * (inst.R + 1.0)))
        sol = ipm.solve(inst, eps_qp)
        certificate = sol.report["duality_gap"]
        if not gaussian:
            break
        beta_sq = float(np.sum(_dual_coef(spec, sol.x) ** 2))
        certificate += 0.5 * factor.trace_residual * beta_sq
        if certificate <= eps_solve:
            break
        if spec.variant in CLASSIFICATION:  # undo reduce_to_qp's label scaling
            kernel.scale_by_labels(factor.L, factor.L, spec.y, in_place=True)
        room = eps_solve - sol.report["error_budget"]
        factor = kernel.pivoted_cholesky_factor(spec.X, room / beta_sq, state=factor)
        extensions += 1
    alpha = sol.x
    if spec.variant == "hard":
        # An alpha at the cap (within _SUPPORT_REL of it, the scale at which
        # ``support`` calls a coordinate active) makes this a soft margin.
        cap, _ = dual_box(spec)
        at_cap = int(np.count_nonzero(alpha >= (1.0 - _SUPPORT_REL) * cap))
        if at_cap:
            raise ValidationError(
                f"data not separable by a hard margin at cap {cap:g}: {at_cap} "
                f"of {alpha.size} alpha reach the cap; train c-svc, or raise the cap")
    dual_obj = inst.objective(alpha)
    if red.maximization:
        dual_obj = -dual_obj
    w, b = recover_primal(alpha, spec, sol.y)
    from . import oracle
    kkt = oracle.kkt_residuals(inst, alpha, sol.s, sol.y)
    report = dict(sol.report)
    report.update({"dual_objective": dual_obj, "variant": spec.variant,
                   "kernel": spec.kernel, "eps_solve": eps_solve,
                   "certificate": certificate,
                   "kernel_factor": {
                       "method": "pivoted-cholesky", "rank": factor.rank,
                       "trace_residual": factor.trace_residual,
                       "extensions": extensions} if gaussian else None,
                   "equality_residual_l1": inst.primal_residual_l1(alpha),
                   "kkt": {"stationarity": kkt.stationarity,
                           "primal_residual_l1": kkt.primal_residual_l1,
                           "duality_gap": kkt.duality_gap}})
    return SvmModel(spec=spec, alpha=alpha, bias=b, w=w, dual_objective=dual_obj,
                    solve_report=report)


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
    if mdl.spec.variant in CLASSIFICATION or mdl.spec.variant == "one-class":
        dec = f_nb - mdl.bias
        return dec, np.sign(dec)
    dec = f_nb + mdl.bias
    return dec, dec


# -- plain-text model file ----------------------------------------------------
#
# The header line, then one "key value" line each for variant, kernel, C,
# nu, eps_tube, box_cap and bias, then the arrays X, y (absent for
# one-class) and alpha, each as a "name shape..." line followed by a line of
# values.  Floats are written with repr, so a round trip is bit exact.

MODEL_HEADER = "rankqp-svm-model 2"
_SPEC_FLOATS = ("C", "nu", "eps_tube", "box_cap")


def _write_array(fh, name, a):
    a = np.asarray(a, dtype=float)
    fh.write(" ".join([name, *map(str, a.shape)]) + "\n")
    fh.write(" ".join(repr(float(v)) for v in a.ravel()) + "\n")


def _read_field(lines, name):
    parts = lines.pop(0).split()
    if len(parts) < 2 or parts[0] != name:
        raise ParseError(f"expected {name}, got {' '.join(parts)!r}")
    return parts[1:]


def _read_array(lines, name):
    shape = tuple(int(v) for v in _read_field(lines, name))
    vals = np.array([float(t) for t in lines.pop(0).split()])
    if vals.size != int(np.prod(shape)):
        raise ParseError(f"section {name}: expected {shape} values, got {vals.size}")
    return vals.reshape(shape)


def dump_model(mdl: SvmModel, path):
    spec = mdl.spec
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODEL_HEADER + "\n")
        fh.write(f"variant {spec.variant}\nkernel {spec.kernel}\n")
        for name in _SPEC_FLOATS:
            value = getattr(spec, name)
            fh.write(f"{name} {None if value is None else float(value)!r}\n")
        fh.write(f"bias {float(mdl.bias)!r}\n")
        _write_array(fh, "X", spec.X)
        if spec.y is not None:
            _write_array(fh, "y", spec.y)
        _write_array(fh, "alpha", mdl.alpha)


def load_model(path):
    """Read a model file back into an SvmModel; the spec is validated again."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines.pop(0).strip() != MODEL_HEADER:
        raise ParseError(f"not a {MODEL_HEADER!r} file", line=1)
    try:
        variant = _read_field(lines, "variant")[0]
        kern = _read_field(lines, "kernel")[0]
        params = {}
        for name in _SPEC_FLOATS:
            text = _read_field(lines, name)[0]
            params[name] = None if text == "None" else float(text)
        bias = float(_read_field(lines, "bias")[0])
        X = _read_array(lines, "X")
        y = None if variant == "one-class" else _read_array(lines, "y")
        alpha = _read_array(lines, "alpha")
    except ParseError:
        raise
    except (IndexError, ValueError) as exc:
        raise ParseError(f"malformed model file: {exc}") from None
    spec = SvmSpec(X=X, y=y, variant=variant, kernel=kern, **params)
    _, dim = dual_box(spec)
    if alpha.shape != (dim,) or not np.all(np.isfinite(alpha)) or not np.isfinite(bias):
        raise ParseError(f"model needs {dim} finite alpha values and a finite bias")
    # recover_primal reads the bias as minus the first equality multiplier,
    # so [-bias] gives back the stored bias along with the derived w.
    w, bias = recover_primal(alpha, spec, [-bias])
    return SvmModel(spec=spec, alpha=alpha, bias=bias, w=w)
