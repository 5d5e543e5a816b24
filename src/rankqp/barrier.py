"""Self-concordant barriers for interval blocks and the local metrics they induce.

Every variable block handled by this package is a one-dimensional interval,
so barriers, gradients and Hessians are scalar per block and the weighted
Hessian H_{w,x} is diagonal.  The auxiliary coordinate introduced by the
initial-point augmentation lives on the half line [0, inf) and uses a
one-sided log barrier: -log(x - lo) - log(hi - x) on a box, -log(x - lo) on
the half line.  Blocks are packed into lo/hi arrays once per instance
(hi = +inf marks a half line), and ``grad_vec``/``hess_vec`` evaluate the
derivatives of every block at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, ValidationError


@dataclass(frozen=True)
class BlockDomain:
    """One variable block: an interval (lo, hi) or the half line (lo, inf).

    ``nu`` is the self-concordance parameter of the block barrier: 2 for a
    bounded box (sum of two log terms), 1 for the half line.
    """

    lo: float
    hi: float
    nu: float

    @staticmethod
    def box(lo, hi):
        _check_finite_bound("lo", lo)
        _check_finite_bound("hi", hi)
        if not lo < hi:
            raise ValidationError(f"box requires lo < hi, got [{lo}, {hi}]")
        return BlockDomain(float(lo), float(hi), 2.0)

    @staticmethod
    def nonneg_box(cap):
        _check_finite_bound("cap", cap)
        if not cap > 0:
            raise ValidationError(f"cap must be positive, got {cap}")
        return BlockDomain(0.0, float(cap), 2.0)

    @staticmethod
    def half_line():
        return BlockDomain(0.0, math.inf, 1.0)


def _check_finite_bound(name, value):
    # A box has an analytic centre only when both ends are finite; the
    # half line is built by half_line() and never passes through here.
    if not math.isfinite(value):
        raise ValidationError(f"box bound {name} must be finite, got {value}")


def pack_bounds(blocks):
    lo = np.array([d.lo for d in blocks], dtype=float)
    hi = np.array([d.hi for d in blocks], dtype=float)
    nu = np.array([d.nu for d in blocks], dtype=float)
    return lo, hi, nu


def check_interior(lo, hi, x):
    a = x - lo
    b = hi - x
    ok = (a > 0.0) & ((b > 0.0) | np.isinf(hi))
    if not ok.all():
        i = int(np.argmin(ok))
        raise DomainError(f"coordinate {i} = {x[i]} not interior to [{lo[i]}, {hi[i]}]")


def grad_vec(lo, hi, x):
    g = -1.0 / (x - lo)
    upper = np.isfinite(hi)
    g[upper] += 1.0 / (hi[upper] - x[upper])
    return g


def hess_vec(lo, hi, x):
    h = 1.0 / (x - lo) ** 2
    upper = np.isfinite(hi)
    h[upper] += 1.0 / (hi[upper] - x[upper]) ** 2
    return h


@dataclass(frozen=True)
class LocalMetric:
    """Weighted barrier Hessian at a point: ``whdiag`` is the diagonal of
    H_{w,x}, i.e. w_i * H_{x,i} blockwise."""

    whdiag: np.ndarray


def metric_at(lo, hi, w, x) -> LocalMetric:
    check_interior(lo, hi, x)
    return LocalMetric(whdiag=w * hess_vec(lo, hi, x))


def weighted_norm(metric: LocalMetric, v):
    """||v||_{w,x} = ||H_{w,x}^{1/2} v||_2 over the whole domain."""
    return math.sqrt(float(np.sum(metric.whdiag * v * v)))


def weighted_dual_norm(metric: LocalMetric, v):
    """||v||*_{w,x} = ||H_{w,x}^{-1/2} v||_2 over the whole domain."""
    return math.sqrt(float(np.sum(v * v / metric.whdiag)))
