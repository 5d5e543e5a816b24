import importlib
import tracemalloc

import numpy as np
import pytest

from rankqp import kernel
from rankqp.exceptions import ValidationError
from rankqp.cli import cli_run
from rankqp.libsvm_io import Dataset, emit_libsvm
from rankqp.svm import SvmModel, SvmSpec, predict, reduce_to_qp, train

TWO_POINT_X = np.array([[1.0, 0.0], [-1.0, 0.0]])
TWO_POINT_Y = np.array([1.0, -1.0])


# -- spec validation ----------------------------------------------------------

def test_variant_validation():
    with pytest.raises(ValidationError):
        SvmSpec(X=TWO_POINT_X, y=TWO_POINT_Y, variant="soft")
    with pytest.raises(ValidationError):
        SvmSpec(X=TWO_POINT_X, y=None, variant="c-svc")
    with pytest.raises(ValidationError):
        SvmSpec(X=TWO_POINT_X, y=np.array([1.0, 0.0]), variant="c-svc")
    with pytest.raises(ValidationError):
        SvmSpec(X=TWO_POINT_X, y=TWO_POINT_Y, variant="c-svc", C=-1.0)


def test_nu_svc_feasibility_bound():
    X = np.vstack([TWO_POINT_X, [[0.5, 1.0], [0.2, -1.0]]])
    y = np.array([1.0, -1.0, 1.0, 1.0])  # k- = 1, bound = 2/4
    SvmSpec(X=X, y=y, variant="nu-svc", nu=0.5)
    with pytest.raises(ValidationError):
        SvmSpec(X=X, y=y, variant="nu-svc", nu=0.6)


# -- reductions ---------------------------------------------------------------

def test_reduce_hard_margin_structure():
    spec = SvmSpec(X=TWO_POINT_X, y=TWO_POINT_Y, variant="hard")
    red = reduce_to_qp(spec)
    inst = red.instance
    assert inst.n == 2 and inst.m == 1
    assert np.array_equal(inst.A, TWO_POINT_Y[None, :])
    assert np.array_equal(inst.b, [0.0])
    assert all(d.lo == 0.0 and d.hi == 20.0 for d in inst.blocks)  # cap 10 n
    assert red.maximization
    assert np.allclose(inst.q_dense(), [[1.0, 1.0], [1.0, 1.0]])


def test_reduce_c_svc_structure():
    spec = SvmSpec(X=TWO_POINT_X, y=TWO_POINT_Y, variant="c-svc", C=0.7)
    inst = reduce_to_qp(spec).instance
    assert all(d.hi == 0.7 for d in inst.blocks)
    assert np.allclose(inst.c, -1.0)


def test_reduce_nu_svc_structure():
    X = np.vstack([TWO_POINT_X, -TWO_POINT_X])
    y = np.array([1.0, -1.0, -1.0, 1.0])
    spec = SvmSpec(X=X, y=y, variant="nu-svc", nu=0.5)
    inst = reduce_to_qp(spec).instance
    assert inst.m == 2
    assert np.array_equal(inst.A[0], y)
    assert np.array_equal(inst.A[1], np.ones(4))
    assert np.array_equal(inst.b, [0.0, 0.5])
    assert all(d.hi == pytest.approx(0.25) for d in inst.blocks)  # 1/n
    assert np.all(inst.c == 0.0)


def test_reduce_one_class_structure():
    spec = SvmSpec(X=TWO_POINT_X, variant="one-class", nu=0.4)
    inst = reduce_to_qp(spec).instance
    assert inst.m == 1
    assert np.array_equal(inst.A[0], np.ones(2))
    assert np.array_equal(inst.b, [0.4])
    assert all(d.hi == 0.5 for d in inst.blocks)


def test_reduce_eps_svr_structure():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.1, 0.9, 2.2])
    spec = SvmSpec(X=X, y=y, variant="eps-svr", C=2.0, eps_tube=0.05)
    inst = reduce_to_qp(spec).instance
    assert inst.n == 6
    assert np.array_equal(inst.A[0], [1, 1, 1, -1, -1, -1])
    assert np.allclose(inst.c, np.concatenate([0.05 + y, 0.05 - y]))
    assert all(d.hi == 2.0 for d in inst.blocks)
    K = X @ X.T
    want = np.block([[K, -K], [-K, K]])
    assert np.allclose(inst.q_dense(), want)


def test_reduce_nu_svr_structure():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.3, 0.8])
    spec = SvmSpec(X=X, y=y, variant="nu-svr", C=1.5, nu=0.4)
    inst = reduce_to_qp(spec).instance
    assert inst.n == 4 and inst.m == 2
    assert np.array_equal(inst.A[0], [1, 1, -1, -1])
    assert np.array_equal(inst.A[1], [1, 1, 1, 1])
    assert np.allclose(inst.b, [0.0, 0.6])
    assert all(d.hi == 0.75 for d in inst.blocks)  # C/n


# -- training -----------------------------------------------------------------

def test_two_point_hard_margin_analytic():
    spec = SvmSpec(X=TWO_POINT_X, y=TWO_POINT_Y, variant="hard")
    mdl = train(spec, eps_solve=1e-3)
    assert np.abs(mdl.alpha - 0.5).max() <= 1e-4
    assert np.abs(mdl.w - [1.0, 0.0]).max() <= 2e-4
    assert abs(mdl.bias) <= 1e-6
    assert mdl.dual_objective == pytest.approx(0.5, abs=1e-4)


def test_two_point_brute_force_grid():
    # brute-force oracle for the same dual program
    spec = SvmSpec(X=TWO_POINT_X, y=TWO_POINT_Y, variant="hard")
    grid = np.linspace(0.0, 2.0, 4001)
    vals = 2 * grid - 2 * grid**2  # alpha1 = alpha2 = a on the feasible line
    best = grid[np.argmax(vals)]
    assert best == pytest.approx(0.5, abs=1e-3)
    mdl = train(spec, eps_solve=1e-3)
    assert mdl.dual_objective >= vals.max() - 1e-4


def test_hard_margin_dual_matches_oracle():
    # 60 nearly separable points in 3-d: the box cap 10n is far from the
    # optimum, and the trained dual must still be within eps_solve of it.
    from rankqp import oracle
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 3)) * 0.4
    y = np.where(X[:, 0] + 0.3 * X[:, 1] >= 0, 1.0, -1.0)
    X[:, 0] += 0.3 * y
    spec = SvmSpec(X=X, y=y, variant="hard")
    mdl = train(spec, eps_solve=1e-4)
    _, _, _, rep = oracle.dense_solve_qp(reduce_to_qp(spec).instance, tol=1e-9)
    assert abs(mdl.dual_objective - (-rep.objective)) <= 1e-4


def test_svm_equality_residual_bound():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(size=(10, 3)) + 2.0, rng.normal(size=(10, 3)) - 2.0])
    y = np.concatenate([np.ones(10), -np.ones(10)])
    spec = SvmSpec(X=X, y=y, variant="c-svc", C=1.0)
    eps_solve = 1e-3
    mdl = train(spec, eps_solve=eps_solve)
    assert abs(float(mdl.alpha @ y)) <= 3 * eps_solve


def test_linear_factors_share_one_array(rng):
    # The linear kernel's U and V are one array: the caller's X for one-class,
    # one label-scaled copy for classification, one stacked [X; -X] for
    # regression.  The caller's X stays writable.
    X = rng.normal(size=(12, 3))
    inst = reduce_to_qp(SvmSpec(X=X, variant="one-class", nu=0.5)).instance
    assert np.shares_memory(inst.U, inst.V)
    assert np.shares_memory(inst.U, X) and X.flags.writeable
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    inst = reduce_to_qp(SvmSpec(X=X, y=y, variant="c-svc")).instance
    assert np.shares_memory(inst.U, inst.V)
    assert np.allclose(inst.q_dense(), np.outer(y, y) * (X @ X.T), rtol=1e-12, atol=1e-12)
    for variant in ("eps-svr", "nu-svr"):
        inst = reduce_to_qp(SvmSpec(X=X, y=X[:, 0], variant=variant, nu=0.5)).instance
        assert np.shares_memory(inst.U, inst.V) and not np.shares_memory(inst.U, X)
        assert np.array_equal(inst.U, np.vstack([X, -X]))
    assert X.flags.writeable


def _two_clusters(n, seed=7):
    """The svm-gaussian-cli recipe: two clusters in 4 dimensions, squared radius 3.9."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    X = rng.normal(size=(n, 4)) * 0.15
    X[:, 0] += 0.8 * y
    d2 = np.sum(X * X, axis=1)
    X *= np.sqrt(3.9 / float((d2[:, None] + d2[None, :] - 2.0 * (X @ X.T)).max()))
    return X, y


def _traced_peak(spec):
    importlib.import_module("scipy.linalg")  # loaded on first use; not counted here
    tracemalloc.start()
    try:
        rep = train(spec, eps_solve=1e-4).solve_report
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep, peak


def test_gaussian_regression_stacks_without_copies():
    # One eps-SVR training holds the stacked [U; -U] and [V; -V] (2 x the
    # bytes of U and V) and, while the second is written, one unstacked
    # factor: 2.5 x, not the 3.5 x of stacking beside both unstacked ones.
    n = 120
    X, y = _two_clusters(n)
    rep, peak = _traced_peak(SvmSpec(X=X, y=X[:, 0] + 0.5 * X[:, 1], variant="eps-svr",
                                     C=5.0, eps_tube=0.05, kernel="gaussian"))
    rank = rep["kernel_factor"]["rank"]
    assert rank > n
    assert peak <= 2.6 * (16 * n * rank)  # U.nbytes + V.nbytes


def test_gaussian_training_holds_one_factor():
    # One Gaussian c-SVC training on the svm-gaussian-cli recipe (two
    # clusters in 4 dimensions, squared radius 3.9, C = 5) allocates little
    # beyond the one label-scaled U and V that its instance holds.
    n = 120
    X, y = _two_clusters(n)
    rep, peak = _traced_peak(SvmSpec(X=X, y=y, variant="c-svc", C=5.0, kernel="gaussian"))
    rank = rep["kernel_factor"]["rank"]
    assert rank > n
    assert peak <= 1.5 * (16 * n * rank)  # U.nbytes + V.nbytes


def test_kernel_eps_clamp_is_reported():
    # At C = 1e4 the factor's target eps_solve / (n R^2) falls below the
    # 1e-12 floor; the report gives both the target and the applied value.
    X = np.array([[0.0, 0.0], [0.3, 0.1], [1.0, 1.0], [0.9, 1.2]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    rep = train(SvmSpec(X=X, y=y, variant="c-svc", C=1e4, kernel="gaussian"),
                eps_solve=1e-4).solve_report
    assert rep["kernel_eps_target"] == pytest.approx(1e-4 / (4 * 1e8 * 4))
    assert rep["kernel_eps"] == 1e-12
    factor = rep["kernel_factor"]
    assert factor["sup_error"] + factor["prune_slack"] <= 1e-12
    assert factor["degree"] >= 1 and factor["rank"] >= 1
    rep = train(SvmSpec(X=X, y=y, variant="c-svc", C=1.0), eps_solve=1e-4).solve_report
    assert rep["kernel_eps"] is None and rep["kernel_eps_target"] is None
    assert rep["kernel_factor"] is None


def test_linear_c_svc_iterations_at_n_10k():
    # Linear c-SVC, d = 10, two clusters offset +-0.8 per coordinate, C = 1,
    # trained by the practical solver on the reduced instance itself.
    rng = np.random.default_rng(0)
    n = 10_000
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    X = rng.normal(size=(n, 10)) + 0.8 * y[:, None]
    rep = train(SvmSpec(X=X, y=y, variant="c-svc", C=1.0), eps_solve=1e-3).solve_report
    assert rep["backend"] == "woodbury"
    assert rep["iterations"] <= 45
    assert rep["duality_gap"] <= rep["error_budget"]
    assert rep["equality_residual_l1"] <= 1e-9


def test_gaussian_two_point_accuracy():
    spec = SvmSpec(X=TWO_POINT_X, y=TWO_POINT_Y, variant="c-svc", C=5.0,
                   kernel="gaussian")
    mdl = train(spec, eps_solve=1e-4)
    _, labels = predict(mdl, TWO_POINT_X)
    assert np.array_equal(labels, TWO_POINT_Y)


def test_two_point_margin_and_antisymmetry():
    spec = SvmSpec(X=TWO_POINT_X, y=TWO_POINT_Y, variant="hard")
    mdl = train(spec, eps_solve=1e-3)
    dec, _ = predict(mdl, TWO_POINT_X)
    assert np.all(np.abs(dec) >= 1.0 - 1e-3)
    flipped = SvmSpec(X=TWO_POINT_X, y=-TWO_POINT_Y, variant="hard")
    mdl_f = train(flipped, eps_solve=1e-3)
    dec_f, _ = predict(mdl_f, TWO_POINT_X)
    assert np.abs(dec + dec_f).max() <= 1e-6


def test_nu_svc_trains_offset_clusters(rng):
    Xp = rng.normal(size=(10, 2)) * 0.2 + [3.0, 0.0]
    Xm = rng.normal(size=(10, 2)) * 0.2 + [1.0, 0.0]
    X = np.vstack([Xp, Xm])
    y = np.concatenate([np.ones(10), -np.ones(10)])
    mdl = train(SvmSpec(X=X, y=y, variant="nu-svc", nu=0.3), eps_solve=1e-5)
    _, labels = predict(mdl, X)
    assert np.array_equal(labels, y)
    assert abs(float(mdl.alpha @ y)) <= 3e-5
    assert abs(float(mdl.alpha.sum()) - 0.3) <= 1e-3


def test_symmetric_dataset_zero_bias(rng):
    pts = rng.normal(size=(12, 2)) + np.array([2.5, 0.0])
    X = np.vstack([pts, -pts])
    y = np.concatenate([np.ones(12), -np.ones(12)])
    mdl = train(SvmSpec(X=X, y=y, variant="c-svc", C=1.0), eps_solve=1e-4)
    assert abs(mdl.bias) <= 1e-6


def test_two_point_c_svc_all_alpha_at_bound(tmp_path):
    # At C = 0.1 both multipliers sit at C and no support vector is interior;
    # the bias still comes from the equality multiplier.
    spec = SvmSpec(X=TWO_POINT_X, y=TWO_POINT_Y, variant="c-svc", C=0.1)
    mdl = train(spec, eps_solve=1e-6)
    assert np.abs(mdl.alpha - 0.1).max() <= 1e-6
    assert abs(mdl.bias) <= 1e-6
    _, labels = predict(mdl, TWO_POINT_X)
    assert np.array_equal(labels, TWO_POINT_Y)
    path = tmp_path / "two_point.svm"
    emit_libsvm(Dataset.from_dense(TWO_POINT_X, TWO_POINT_Y), path)
    assert cli_run(["train-svm", str(path), "--variant", "c-svc", "--C", "0.1",
                    "--epsilon", "1e-6"]) == 0


def test_predict_dimension_mismatch():
    spec = SvmSpec(X=TWO_POINT_X, y=TWO_POINT_Y, variant="hard")
    mdl = train(spec, eps_solve=1e-2)
    with pytest.raises(ValidationError):
        predict(mdl, np.zeros((1, 3)))


def test_predict_never_forms_the_full_kernel(rng):
    # One full 300 x 20 000 float64 kernel would be 48 MB; allow an eighth.
    n, n_query = 300, 20_000
    spec = SvmSpec(X=rng.normal(size=(n, 4)), y=rng.choice([-1.0, 1.0], size=n),
                   variant="c-svc", kernel="gaussian")
    mdl = SvmModel(spec=spec, alpha=rng.uniform(size=n), bias=0.1)
    Xq = rng.normal(size=(n_query, 4))
    tracemalloc.start()
    try:
        dec, _ = predict(mdl, Xq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n_query / 8
    d2 = np.sum((spec.X[:, None, :] - Xq[None, :50, :]) ** 2, axis=2)
    assert np.allclose(dec[:50], (mdl.alpha * spec.y) @ np.exp(-d2) - mdl.bias,
                       rtol=0.0, atol=1e-12)


def test_complementary_slackness_separable(rng):
    pts = rng.normal(size=(8, 2)) * 0.3
    X = np.vstack([pts + [3.0, 0.0], pts - [3.0, 0.0]])
    y = np.concatenate([np.ones(8), -np.ones(8)])
    spec = SvmSpec(X=X, y=y, variant="hard")
    mdl = train(spec, eps_solve=1e-5)
    dec, _ = predict(mdl, X)
    margins = y * dec
    slack = mdl.alpha * (margins - 1.0)
    assert np.abs(slack).max() <= 1e-2 * max(1.0, np.abs(mdl.alpha).max())


def test_eps_svr_fits_linear_data(rng):
    X = np.linspace(-1, 1, 12)[:, None]
    y_true = 0.8 * X[:, 0] + 0.2
    spec = SvmSpec(X=X, y=y_true, variant="eps-svr", C=20.0, eps_tube=0.05)
    mdl = train(spec, eps_solve=1e-4)
    fit, _ = predict(mdl, X)
    assert np.abs(fit - y_true).max() <= 0.05 + 2e-2


def test_nu_svr_runs(rng):
    X = np.linspace(-1, 1, 10)[:, None]
    y_true = -0.5 * X[:, 0] + 0.1
    spec = SvmSpec(X=X, y=y_true, variant="nu-svr", C=50.0, nu=0.6)
    mdl = train(spec, eps_solve=1e-4)
    fit, _ = predict(mdl, X)
    assert np.abs(fit - y_true).max() <= 0.2


def test_gaussian_error_chain(rng):
    # |objective(alpha; Q) - objective(alpha; Qtilde)| <= eps1 n ||alpha||_2^2
    n = 60
    X = rng.normal(size=(n, 3)) * 0.4
    y = np.sign(rng.normal(size=n))
    y[y == 0] = 1.0
    spec = SvmSpec(X=X, y=y, variant="c-svc", C=1.0, kernel="gaussian")
    mdl = train(spec, eps_solve=1e-3)
    eps1 = mdl.solve_report["kernel_eps"]
    K = kernel.exact_gaussian_kernel(X)
    Q = K * np.outer(y, y)
    fact = kernel.gaussian_lowrank_factor(X, eps1)
    Qt = fact.U @ fact.V.T * np.outer(y, y)
    a = mdl.alpha
    diff = abs(0.5 * a @ (Q @ a) - 0.5 * a @ (Qt @ a))
    assert diff <= 0.5 * eps1 * n * float(a @ a) + 1e-14


def test_one_class_covers_inliers(rng):
    X = rng.normal(size=(30, 2)) * 0.3
    spec = SvmSpec(X=X, variant="one-class", nu=0.2, kernel="gaussian")
    mdl = train(spec, eps_solve=1e-5)
    dec, _ = predict(mdl, X)
    # at most a nu fraction of training points fall outside (plus slack for
    # the strictly interior iterate)
    outliers = float(np.mean(dec < -1e-4))
    assert outliers <= 0.2 + 1.0 / 30.0
