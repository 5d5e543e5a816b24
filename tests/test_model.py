import numpy as np
import pytest

from rankqp import barrier, build_qp_instance, ipm, model
from rankqp.barrier import BlockDomain
from rankqp.exceptions import ValidationError
from rankqp.svm import SvmSpec

from conftest import random_lowrank_instance


def test_minimal_instance():
    inst = build_qp_instance(c=[0.0], A=None, b=[], blocks=[BlockDomain.box(0, 2)],
                             Q=[[0.0]])
    assert inst.kappa == 2.0
    assert inst.m == 0


def test_factored_instance_shapes():
    inst = build_qp_instance(c=[0.0, 0.0], A=[[1.0, -1.0]], b=[0.0],
                             blocks=[BlockDomain.box(0, 2)] * 2,
                             U=[[1.0], [1.0]], V=[[1.0], [1.0]])
    assert inst.m == 1
    assert inst.k == 1
    assert np.allclose(inst.q_dense(), [[1, 1], [1, 1]])


@pytest.mark.parametrize("A", [None, []])
def test_rhs_without_rows_rejected(A):
    with pytest.raises(ValidationError, match="A has no rows"):
        build_qp_instance(c=[0.0], A=A, b=[5.0], blocks=[BlockDomain.box(0, 2)])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        build_qp_instance(c=[0.0, 0.0], A=[[1.0, 0.0, 2.0]], b=[0.0],
                          blocks=[BlockDomain.box(0, 2)] * 2)


def test_weight_and_radius_validation():
    blocks = [BlockDomain.box(0, 2)]
    with pytest.raises(ValidationError):
        build_qp_instance(c=[0.0], A=None, b=[], blocks=blocks, weights=[0.5])
    with pytest.raises(ValidationError):
        build_qp_instance(c=[0.0], A=None, b=[], blocks=blocks, R=-1.0)


def test_asymmetric_dense_rejected():
    with pytest.raises(ValidationError):
        build_qp_instance(c=[0.0, 0.0], A=None, b=[],
                          blocks=[BlockDomain.box(0, 2)] * 2,
                          Q=[[1.0, 0.5], [0.0, 1.0]])


def test_non_psd_dense_rejected():
    with pytest.raises(ValidationError):
        build_qp_instance(c=[0.0, 0.0], A=None, b=[],
                          blocks=[BlockDomain.box(0, 2)] * 2,
                          Q=[[1.0, 2.0], [2.0, 1.0]])


def test_kappa_recomputes_from_blocks(rng):
    inst = random_lowrank_instance(rng, n=17, k=2, m=1)
    assert inst.kappa == pytest.approx(float(np.dot(inst.w, inst.nu)), abs=0)


def test_augment_trivial_center():
    inst = build_qp_instance(c=[0.0], A=None, b=[], blocks=[BlockDomain.box(0, 2)])
    aug, x0, s0 = model.augment_for_initial_point(inst, 0.25)
    assert np.allclose(x0, [1.0, 1.0])
    assert np.allclose(s0, [0.0, 1.0])
    assert aug.base.n == 2


def test_augment_scaled_slack():
    # rho = 1/(L R (R+1)) = 1/6, s0 = eps rho (c + Q x0) = 0.1/6
    inst = build_qp_instance(c=[1.0], A=None, b=[], blocks=[BlockDomain.box(0, 2)],
                             R=2.0, L=1.0)
    aug, x0, s0 = model.augment_for_initial_point(inst, 0.1)
    assert aug.rho == pytest.approx(1.0 / 6.0)
    assert s0[0] == pytest.approx(1.0 / 60.0)


def test_augment_rejects_bad_eps():
    inst = build_qp_instance(c=[0.0], A=None, b=[], blocks=[BlockDomain.box(0, 2)])
    for eps in (0.0, 0.7, -0.1):
        with pytest.raises(ValidationError):
            model.augment_for_initial_point(inst, eps)


def test_augmented_equality_holds(rng):
    for _ in range(20):
        inst = random_lowrank_instance(rng, n=12, k=2, m=2)
        aug, x0, _ = model.augment_for_initial_point(inst, 0.2)
        assert np.abs(aug.base.A @ x0 - aug.base.b).max() < 1e-10


def test_initial_dual_feasibility_bound(rng):
    # ||s0 + grad phibar_w(x0)||*_{x0} <= eps on random instances
    for trial in range(50):
        n = int(rng.integers(2, 15))
        inst = random_lowrank_instance(rng, n=n, k=2, m=1,
                                       c_scale=float(rng.uniform(0.1, 3.0)))
        eps = float(rng.uniform(0.01, 0.5))
        aug, x0, s0 = model.augment_for_initial_point(inst, eps)
        base = aug.base
        g = barrier.grad_vec(base.lo, base.hi, x0)
        h = barrier.hess_vec(base.lo, base.hi, x0)
        resid = s0 + base.w * g
        norm = np.sqrt(np.sum(resid**2 / (base.w * h)))
        assert norm <= eps + 1e-12, f"trial {trial}: {norm} > {eps}"


def test_augmented_objective_scales_feasible_points(rng):
    # evaluating the augmented objective at [x; 0] gives eps*rho*(original)
    inst = random_lowrank_instance(rng, n=10, k=2, m=0)
    aug, _, _ = model.augment_for_initial_point(inst, 0.3)
    for _ in range(20):
        x = rng.uniform(0.05, 0.95, size=10)
        lifted = np.concatenate([x, [0.0]])
        lhs = 0.5 * lifted @ aug.base.q_matvec(lifted) + aug.base.c @ lifted
        rhs = 0.3 * aug.rho * inst.objective(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_restrict_identity():
    inst = build_qp_instance(c=[0.0], A=None, b=[], blocks=[BlockDomain.box(0, 2)])
    aug, x0, _ = model.augment_for_initial_point(inst, 0.25)
    x = model.restrict_solution(aug, x0)
    assert x.shape == (1,)
    assert x[0] == 1.0
    assert inst.primal_residual_l1(x) == 0.0


def test_restrict_after_solve_feasibility(rng):
    eps = 1e-3
    inst = random_lowrank_instance(rng, n=16, k=2, m=2)
    sol = ipm.solve(inst, eps, backend="dense")
    bound = 3 * eps * (inst.R * np.abs(inst.A).sum() + np.abs(inst.b).sum())
    assert sol.report["primal_residual_l1"] <= bound


def test_build_leaves_caller_arrays_writable():
    # The instance keeps read-only views; the caller's own arrays keep their flags.
    c = np.array([1.0, -1.0])
    A = np.array([[1.0, 1.0]])
    U = np.array([[1.0], [0.5]])
    inst = build_qp_instance(c=c, A=A, b=[1.0], blocks=[BlockDomain.box(0, 2)] * 2,
                             U=U, V=U)
    assert c.flags.writeable and A.flags.writeable and U.flags.writeable
    assert not (inst.c.flags.writeable or inst.A.flags.writeable
                or inst.U.flags.writeable or inst.V.flags.writeable)
    c[0] = 5.0
    with pytest.raises(ValueError):
        inst.c[0] = 5.0


def test_build_shares_fortran_ordered_factors():
    # Factors are kept in their own layout: an F-ordered U and V become
    # read-only views of the caller's memory, which stays writable.
    rng = np.random.default_rng(3)
    U = np.asfortranarray(rng.normal(size=(6, 4)))
    V = np.asfortranarray(rng.normal(size=(6, 4)))
    inst = build_qp_instance(c=np.zeros(6), A=None, b=None,
                             blocks=[BlockDomain.box(0, 1)] * 6, U=U, V=V)
    assert np.shares_memory(inst.U, U) and np.shares_memory(inst.V, V)
    assert inst.U.flags.f_contiguous and not inst.U.flags.writeable
    assert U.flags.writeable and V.flags.writeable
    assert np.array_equal(inst.q_dense(), U @ V.T)


_FINITE_DATA = dict(c=[1.0, -1.0], A=[[1.0, 1.0]], b=[1.0], U=[[1.0], [0.5]],
                    V=[[1.0], [0.5]], weights=[1.0, 2.0])


@pytest.mark.parametrize("field", ["c", "A", "b", "U", "V", "Q", "weights", "X", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_data_rejected(field, bad):
    if field in ("X", "y"):
        build, data = SvmSpec, dict(X=[[1.0, 0.0], [-1.0, 0.0]], y=[1.0, -1.0])
    else:
        build = build_qp_instance
        data = dict(_FINITE_DATA, blocks=[BlockDomain.half_line()] * 2)
        if field == "Q":
            del data["U"], data["V"]
            data["Q"] = np.eye(2)
    build(**data)  # finite data on half-line blocks is accepted
    arr = np.array(data[field], dtype=float)
    arr.flat[0] = bad
    data[field] = arr
    with pytest.raises(ValidationError):
        build(**data)
