import math

import numpy as np
import pytest

from rankqp import barrier
from rankqp.barrier import BlockDomain
from rankqp.exceptions import DomainError, ValidationError


def test_box_midpoint_values():
    d = BlockDomain.box(0.0, 2.0)
    value, grad, hess = barrier.barrier_eval(d, 1.0)
    assert value == 0.0
    assert grad == 0.0
    assert hess == 2.0  # 1/1^2 + 1/1^2


def test_box_off_center_values():
    d = BlockDomain.box(0.0, 2.0)
    value, grad, hess = barrier.barrier_eval(d, 0.5)
    assert value == pytest.approx(-math.log(0.5) - math.log(1.5), abs=1e-15)
    assert grad == pytest.approx(-4.0 / 3.0, abs=1e-15)
    assert hess == pytest.approx(1 / 0.25 + 1 / 2.25, abs=1e-12)


@pytest.mark.parametrize("x", [0.0, 2.0, -0.5, 2.5])
def test_boundary_and_exterior_rejected(x):
    d = BlockDomain.box(0.0, 2.0)
    with pytest.raises(DomainError):
        barrier.barrier_eval(d, x)


def test_bad_box_rejected():
    with pytest.raises(ValidationError):
        BlockDomain.box(1.0, 1.0)
    with pytest.raises(ValidationError):
        BlockDomain.nonneg_box(0.0)


def test_gradient_matches_finite_differences(rng):
    domains = [BlockDomain.box(-1.0, 3.0), BlockDomain.nonneg_box(5.0),
               BlockDomain.box(0.0, 2.0), BlockDomain.half_line()]
    checked = 0
    for d in domains:
        hi = d.hi if math.isfinite(d.hi) else d.lo + 10.0
        xs = rng.uniform(d.lo + 0.05 * (hi - d.lo), hi - 0.05 * (hi - d.lo), size=250)
        for x in xs:
            _, g, h = barrier.barrier_eval(d, x)
            eps = 1e-6 * max(1.0, abs(x))
            vp = barrier.barrier_eval(d, x + eps)[0]
            vm = barrier.barrier_eval(d, x - eps)[0]
            g_fd = (vp - vm) / (2 * eps)
            assert abs(g - g_fd) <= 1e-6 * max(1.0, abs(g))
            gp = barrier.barrier_eval(d, x + eps)[1]
            gm = barrier.barrier_eval(d, x - eps)[1]
            h_fd = (gp - gm) / (2 * eps)
            assert abs(h - h_fd) <= 1e-5 * max(1.0, abs(h))
            checked += 1
    assert checked == 1000


def test_self_concordance_spot_check(rng):
    d = BlockDomain.box(0.0, 2.0)
    xs = rng.uniform(0.05, 1.95, size=300)
    for x in xs:
        _, _, h = barrier.barrier_eval(d, x)
        third = barrier.barrier_third_derivative(d, x)
        assert abs(third) <= 2.0 * h**1.5 + 1e-9


def test_nu_bound(rng):
    # ||grad phi||*_x^2 <= nu at interior points
    for d in [BlockDomain.box(0.0, 2.0), BlockDomain.nonneg_box(7.0), BlockDomain.half_line()]:
        hi = d.hi if math.isfinite(d.hi) else 50.0
        xs = rng.uniform(d.lo + 1e-3, hi - 1e-3, size=200)
        for x in xs:
            _, g, h = barrier.barrier_eval(d, x)
            assert g * g / h <= d.nu + 1e-9


def test_analytic_centers():
    assert barrier.analytic_center(BlockDomain.box(0.0, 2.0)) == 1.0
    assert barrier.analytic_center(BlockDomain.nonneg_box(7.0)) == 3.5
    with pytest.raises(DomainError):
        barrier.analytic_center(BlockDomain.half_line())


def test_local_norms_scalar_cases():
    w = np.array([1.0])
    m1 = barrier.LocalMetric(hdiag=np.array([1.0]), whdiag=np.array([1.0]), w=w)
    assert barrier.local_norms(m1, 0, 3.0) == (3.0, 3.0)
    m4 = barrier.LocalMetric(hdiag=np.array([4.0]), whdiag=np.array([4.0]), w=w)
    primal, dual = barrier.local_norms(m4, 0, 1.0)
    assert primal == pytest.approx(2.0)
    assert dual == pytest.approx(0.5)


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
