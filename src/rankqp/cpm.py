"""Central path maintenance: ExactDS + ApproxDS glued into the solve loop.

The structure restarts (rebuilds both data structures from an exact Output)
whenever the held timestamp tbar drifts from t beyond tolerance or after q
iterations, with q = max(1, ceil(sqrt(n / (k + m)))).
"""
from __future__ import annotations

import math

import numpy as np

from . import barrier, ipm, model
from .exactds import ExactDS
from .exceptions import SolverError
from .sketch import ApproxDS

# Practical-mode safeguard of the maintained path: keep every gamma_i / w_i
# at or below this level (the bound the approximate-optimality argument
# needs is 1, with margin).
_GAMMA_GUARD = 1.0 / 64.0


def restart_threshold(n, k, m):
    return max(1, math.ceil(math.sqrt(n / max(k + m, 1))))


class CentralPathMaintenance:
    def __init__(self, inst: model.QPInstance, params: ipm.IpmParams, x, s, t,
                 delta_apx, seed):
        self.inst = inst
        self.params = params
        self.delta_apx = delta_apx
        self.q = restart_threshold(inst.n, inst.k, inst.m)
        self._seed = seed
        self._restarts = 0
        self._retired_ridge_uses = 0
        self._build(np.array(x, dtype=float), np.array(s, dtype=float), float(t))

    def _build(self, x, s, t):
        self.exact = ExactDS(self.inst, self.params, x, s, x.copy(), s.copy(), t)
        self.approx = ApproxDS(self.exact, self.q,
                               eps_apx_x=self.params.eps_bar,
                               eps_apx_s=self.params.eps_bar * t,
                               delta_apx=self.delta_apx,
                               seed=self._seed + self._restarts)
        self.ell = 0
        self._restarts += 1

    def multiply_and_move(self, t):
        """One robust step at path parameter t; returns the accumulated dy."""
        self.ell += 1
        if abs(self.exact.t_bar - t) > self.params.eps_t * self.exact.t_bar \
                or self.ell > self.q:
            x, s = self.exact.output()
            self._retired_ridge_uses += self.exact.ridge_uses
            self._build(x, s, t)
        betas = self.exact.move()
        dy = self.exact.last_dy.copy()
        delta_x, delta_s = self.approx.move_and_query(betas)
        deltas = self.exact.update(delta_x, delta_s)
        self.approx.update(deltas)
        return dy

    def output(self):
        return self.exact.output()

    @property
    def ridge_uses(self):
        """Moves, over every rebuild, whose v1 solve needed a ridge."""
        return self._retired_ridge_uses + self.exact.ridge_uses

    def gamma_guard(self):
        return float(np.max(self.exact.gamma / self.inst.w))


def centering_lowrank(inst: model.QPInstance, x, s, t_start, t_end,
                      params: ipm.IpmParams, seed=0, collect_trace=False):
    """Centering loop with sketch-maintained (xbar, sbar).

    Matches the dense ``ipm.centering`` contract; the exact pair is held
    implicitly and materialized once at the end.
    """
    kappa = inst.kappa
    n_est = max(math.sqrt(kappa) * math.log(max(inst.n, 2))
                * math.log(max(t_start / t_end, 2.0)), 2.0)
    delta_apx = min(0.1, 1.0 / n_est)
    cpm = CentralPathMaintenance(inst, params, x, s, t_start, delta_apx, seed)
    t = float(t_start)
    y = np.zeros(inst.m)
    h = params.h if params.mode == "theory" else params.h0
    trace = []
    it = 0
    while t > t_end:
        if it >= params.max_iter:
            raise SolverError(f"centering exceeded {params.max_iter} iterations")
        guard = cpm.gamma_guard()
        if params.mode == "practical":
            if guard > _GAMMA_GUARD:
                h = max(0.5 * h, params.h)
            else:
                h = min(1.1 * h, params.h0)
        t = max((1.0 - h) * t, t_end)
        y += cpm.multiply_and_move(t)
        if collect_trace:
            trace.append({"t": t, "h": h, "gamma_max_over_w": guard,
                          "restarts": cpm._restarts})
        it += 1
    x_out, s_out = cpm.output()
    barrier.check_interior(inst.lo, inst.hi, x_out)
    return ipm.CenteringResult(x=x_out, s=s_out, y=y, iterations=it, trace=trace,
                               ridge_uses=cpm.ridge_uses, sketch_rows=cpm.approx.bs.r)
