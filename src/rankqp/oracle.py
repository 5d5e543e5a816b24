"""Certificates, KKT measurement and the dense reference solution.

``certified_gap`` bounds f(x) - OPT from a primal point x in the box and
multipliers y alone, by weak duality, whatever produced them; it is the
ground truth every solve is judged by.  ``dense_solve_qp`` is the reference
that tests compare against: the solver's own predictor-corrector with the
dense step, run until that certificate proves f(x) - OPT <= tol.  What it
returns can be checked from (x, y) alone, outside the loop; the tests also
compare it with an exact enumeration that shares no code with the solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .exceptions import ValidationError

_DENSE_CAP = 2000


@dataclass
class KktReport:
    objective: float
    stationarity: float        # ||Qx + c + A'y - s||_2
    primal_residual_l1: float  # ||Ax - b||_1
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


def kkt_residuals(inst: model.QPInstance, x, s, y) -> KktReport:
    """Measured optimality of (x, s, y) in the convention Qx + c + A'y = s."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float).reshape(inst.m)
    stat = inst.q_matvec(x) + inst.c + (inst.A.T @ y if inst.m else 0.0) - s
    return KktReport(objective=inst.objective(x),
                     stationarity=float(np.linalg.norm(stat)),
                     primal_residual_l1=inst.primal_residual_l1(x),
                     duality_gap=duality_gap(inst, x, s))


def max_step(v, dv):
    """Largest a >= 0 with v + a dv >= 0 componentwise; inf if dv >= 0."""
    neg = dv < 0
    return float(np.min(v[neg] / -dv[neg])) if neg.any() else math.inf


def boundary_step(v, dv):
    """Fraction-to-boundary rule: 99% of max_step(v, dv), capped at 1."""
    return min(1.0, 0.99 * max_step(v, dv))


def dense_solve_qp(inst: model.QPInstance, tol=1e-9):
    """High-accuracy reference solution; returns (x, s, y, KktReport).

    Runs ``ipm.predictor_corrector`` with the dense step until
    certified_gap(inst, x, y) and ||b - Ax||_1 are both at most tol
    (absolute, in the instance's units), so f(x) - OPT <= tol is measured,
    not assumed.  s = Qx + c + A'y is the slack that certificate measures.
    """
    if inst.n > _DENSE_CAP:
        raise ValidationError(f"oracle cap is n <= {_DENSE_CAP}, got {inst.n}")
    from . import ipm  # ipm imports this module for the certificate
    res = ipm.predictor_corrector(inst, tol, tol, backend="dense")
    return res.x, res.s, res.y, kkt_residuals(inst, res.x, res.s, res.y)
