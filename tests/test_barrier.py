import math

import numpy as np
import pytest

from rankqp import barrier, model
from rankqp.barrier import BlockDomain
from rankqp.exceptions import DomainError, ValidationError


def _derivs(blocks, x):
    lo, hi, _ = barrier.pack_bounds(blocks)
    x = np.asarray(x, dtype=float)
    return barrier.grad_vec(lo, hi, x), barrier.hess_vec(lo, hi, x)


def _value(d, x):
    # The block barrier: -log(x - lo) - log(hi - x), one-sided on the half line.
    upper = -np.log(d.hi - x) if math.isfinite(d.hi) else 0.0
    return -np.log(x - d.lo) + upper


def test_box_midpoint_values():
    g, h = _derivs([BlockDomain.box(0.0, 2.0)], [1.0])
    assert g[0] == 0.0
    assert h[0] == 2.0  # 1/1^2 + 1/1^2


def test_box_off_center_values():
    g, h = _derivs([BlockDomain.box(0.0, 2.0)] * 2, [0.5, 1.5])
    assert g[0] == pytest.approx(-4.0 / 3.0, abs=1e-15)
    assert g[1] == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert h == pytest.approx([1 / 0.25 + 1 / 2.25] * 2, abs=1e-12)
    g, h = _derivs([BlockDomain.half_line()], [0.5])
    assert (g[0], h[0]) == (-2.0, 4.0)


@pytest.mark.parametrize("x", [0.0, 2.0, -0.5, 2.5])
def test_boundary_and_exterior_rejected(x):
    lo, hi, _ = barrier.pack_bounds([BlockDomain.box(0.0, 2.0), BlockDomain.half_line()])
    with pytest.raises(DomainError):
        barrier.check_interior(lo, hi, np.array([x, 1.0]))
    if x > 0:  # the half line has no upper wall
        barrier.check_interior(lo, hi, np.array([1.0, x]))
    else:
        with pytest.raises(DomainError):
            barrier.check_interior(lo, hi, np.array([1.0, x]))


def test_bad_box_rejected():
    with pytest.raises(ValidationError):
        BlockDomain.box(1.0, 1.0)
    with pytest.raises(ValidationError):
        BlockDomain.nonneg_box(0.0)


def _sample(rng, d, size):
    hi = d.hi if math.isfinite(d.hi) else d.lo + 10.0
    return rng.uniform(d.lo + 0.05 * (hi - d.lo), hi - 0.05 * (hi - d.lo), size=size)


def test_gradient_matches_finite_differences(rng):
    domains = [BlockDomain.box(-1.0, 3.0), BlockDomain.nonneg_box(5.0),
               BlockDomain.box(0.0, 2.0), BlockDomain.half_line()]
    checked = 0
    for d in domains:
        x = _sample(rng, d, 250)
        blocks = [d] * x.size
        g, h = _derivs(blocks, x)
        eps = 1e-6 * np.maximum(1.0, np.abs(x))
        g_fd = (_value(d, x + eps) - _value(d, x - eps)) / (2 * eps)
        assert np.all(np.abs(g - g_fd) <= 1e-6 * np.maximum(1.0, np.abs(g)))
        h_fd = (_derivs(blocks, x + eps)[0] - _derivs(blocks, x - eps)[0]) / (2 * eps)
        assert np.all(np.abs(h - h_fd) <= 1e-5 * np.maximum(1.0, np.abs(h)))
        checked += x.size
    assert checked == 1000


def test_self_concordance_spot_check(rng):
    # |phi'''| <= 2 phi''^{3/2}, with phi''' a central difference of hess_vec.
    d = BlockDomain.box(0.0, 2.0)
    x = rng.uniform(0.05, 1.95, size=300)
    blocks = [d] * x.size
    _, h = _derivs(blocks, x)
    eps = 1e-6
    third = (_derivs(blocks, x + eps)[1] - _derivs(blocks, x - eps)[1]) / (2 * eps)
    assert np.all(np.abs(third) <= 2.0 * h**1.5 * (1 + 1e-6) + 1e-9)


def test_nu_bound(rng):
    # ||grad phi||*_x^2 <= nu at interior points
    for d in [BlockDomain.box(0.0, 2.0), BlockDomain.nonneg_box(7.0), BlockDomain.half_line()]:
        hi = d.hi if math.isfinite(d.hi) else 50.0
        x = rng.uniform(d.lo + 1e-3, hi - 1e-3, size=200)
        g, h = _derivs([d] * x.size, x)
        assert np.all(g * g / h <= d.nu + 1e-9)


def test_analytic_centers():
    inst = model.build_qp_instance(
        c=[0.0, 0.0], A=None, b=[],
        blocks=[BlockDomain.box(0.0, 2.0), BlockDomain.nonneg_box(7.0)])
    assert model.analytic_center_point(inst).tolist() == [1.0, 3.5]
    aug, _, _ = model.augment_for_initial_point(inst, 0.1)
    with pytest.raises(DomainError):
        model.analytic_center_point(aug.base)


def test_aggregate_norms_cauchy_schwarz(rng):
    lo = np.zeros(20)
    hi = np.full(20, 2.0)
    w = rng.uniform(1.0, 3.0, size=20)
    x = rng.uniform(0.2, 1.8, size=20)
    metric = barrier.metric_at(lo, hi, w, x)
    for _ in range(50):
        v = rng.normal(size=20)
        p = barrier.weighted_norm(metric, v)
        d = barrier.weighted_dual_norm(metric, v)
        assert p * d >= float(v @ v) - 1e-9


def test_metric_requires_interior():
    lo = np.zeros(3)
    hi = np.full(3, 2.0)
    with pytest.raises(DomainError):
        barrier.metric_at(lo, hi, np.ones(3), np.array([1.0, 2.0, 1.0]))
