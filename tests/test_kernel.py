import math
import tracemalloc

import numpy as np
import pytest

from rankqp import kernel
from rankqp.exceptions import ValidationError


def test_exact_kernel_identical_points():
    X = np.array([[0.3, -0.2], [0.3, -0.2], [0.3, -0.2]])
    K = kernel.exact_gaussian_kernel(X)
    assert np.allclose(K, 1.0)


def test_exact_kernel_unit_diagonal(rng):
    X = rng.normal(size=(25, 4))
    K = kernel.exact_gaussian_kernel(X)
    assert np.allclose(np.diag(K), 1.0)
    assert np.allclose(K, K.T)


def test_exact_kernel_psd(rng):
    X = rng.normal(size=(30, 3))
    K = kernel.exact_gaussian_kernel(X)
    assert np.linalg.eigvalsh(K)[0] >= -1e-10


def test_exact_kernel_cap(monkeypatch):
    monkeypatch.setattr(kernel, "_ORACLE_CAP", 5)
    with pytest.raises(ValidationError):
        kernel.exact_gaussian_kernel(np.zeros((10, 1)))


def test_chebyshev_endpoint_and_certificate():
    coeffs, err = kernel.chebyshev_exp_coeffs(1.0, 6)
    assert abs(np.polynomial.polynomial.polyval(0.0, coeffs) - 1.0) <= err
    assert err < 1e-5


def test_chebyshev_degree_one_has_error():
    _, err = kernel.chebyshev_exp_coeffs(1.0, 1)
    assert err > 1e-3  # a line cannot match exp(-x) on [0, 1]


def test_certified_error_decreases_with_degree():
    # monotone until the float64 noise floor
    errs = [kernel.chebyshev_exp_coeffs(4.0, q)[1] for q in range(1, 21)]
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi * (1 + 1e-9) or hi < 1e-13
    assert errs[-1] < 1e-12


def test_poly_degree_loose_target():
    assert kernel.poly_degree(1.0, 0.9) <= 3


def test_poly_degree_monotone_in_eps():
    assert kernel.poly_degree(4.0, 1e-7) >= kernel.poly_degree(4.0, 1e-3)


def test_poly_degree_matches_theory_scaling():
    # q should land within a factor 4 of sqrt(B ln(1/eps)) for B=4, eps=1e-6.
    q = kernel.poly_degree(4.0, 1e-6)
    ref = math.sqrt(4.0 * math.log(1e6))
    assert ref / 4.0 <= q <= 4.0 * ref


def test_poly_degree_refusal_names_the_radius():
    with pytest.raises(ValidationError, match=r"eps = 2e-11 for squared radius B = 8\b.*"
                                              r"squared radius is too large"):
        kernel.poly_degree(8.0, 2e-11)


def test_poly_degree_validates_inputs():
    with pytest.raises(ValidationError):
        kernel.poly_degree(0.5, 1e-3)
    with pytest.raises(ValidationError):
        kernel.poly_degree(2.0, 1.5)


def test_factor_two_identical_points():
    X = np.array([[0.1, 0.4], [0.1, 0.4]])
    fact = kernel.gaussian_lowrank_factor(X, 1e-6)
    approx = fact.U @ fact.V.T
    assert np.abs(approx - 1.0).max() <= 1e-6


def test_factor_ln2_distance():
    X = np.array([[0.0], [math.sqrt(math.log(2.0))]])
    fact = kernel.gaussian_lowrank_factor(X, 1e-8)
    approx = fact.U @ fact.V.T
    assert approx[0, 1] == pytest.approx(0.5, abs=1e-8)


def test_factor_entrywise_error_bounded_by_certificate(rng):
    X = rng.normal(size=(50, 3)) * 0.6
    fact = kernel.gaussian_lowrank_factor(X, 1e-6)
    K = kernel.exact_gaussian_kernel(X)
    approx = fact.U @ fact.V.T
    assert np.abs(K - approx).max() <= fact.sup_error + fact.prune_slack + 1e-14
    assert np.abs(approx - approx.T).max() <= 1e-12


def test_factor_rank_bound(rng):
    X = rng.normal(size=(30, 4)) * 0.5
    fact = kernel.gaussian_lowrank_factor(X, 1e-5)
    assert fact.rank <= kernel.rank_bound(4, fact.degree)


def test_factor_linf_guarantee_random_vectors(rng):
    X = rng.normal(size=(200, 4)) * 0.5
    eps = 1e-6
    fact = kernel.gaussian_lowrank_factor(X, eps)
    K = kernel.exact_gaussian_kernel(X)
    for _ in range(100):
        v = rng.normal(size=200)
        assert np.abs(K @ v - fact.U @ (fact.V.T @ v)).max() <= eps * np.abs(v).sum()


def test_factor_rank_cap_error(rng, monkeypatch):
    X = rng.normal(size=(20, 8))
    monkeypatch.setattr(kernel, "_FACTOR_BYTES_CAP", 16 * 20 * 100)
    with pytest.raises(ValidationError):
        kernel.gaussian_lowrank_factor(X, 1e-9)


def test_factor_byte_cap_counts_rows(rng, monkeypatch):
    # The same rank fits for few rows and is refused for many, with both the
    # needed bytes and the cap in the message; the cap is checked before U
    # and V exist, so a small cap keeps this test small.
    X = rng.uniform(-0.25, 0.25, size=(400, 3))  # squared radius < 1: B = 1
    fact = kernel.gaussian_lowrank_factor(X[:10], 1e-6)
    need = 16 * 400 * math.comb(fact.degree + 4, 4)
    cap = 16 * 10 * math.comb(fact.degree + 4, 4)
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_FACTOR_BYTES_CAP", cap)
        assert kernel.gaussian_lowrank_factor(X[:10], 1e-6).rank == fact.rank
        with pytest.raises(ValidationError, match=f"need {need} bytes.*cap of {cap} bytes"):
            kernel.gaussian_lowrank_factor(X, 1e-6)
    # The default cap refuses n = 2000, d = 8 at rank binom(21, 9) (about
    # 9.4 GB) and admits kernel-sized factors such as n = 4000 at rank 5005.
    assert 16 * 2000 * math.comb(21, 9) > kernel._FACTOR_BYTES_CAP
    assert 16 * 4000 * 5005 <= kernel._FACTOR_BYTES_CAP


def test_feature_map_queries(rng):
    X = rng.normal(size=(40, 3)) * 0.4
    fact = kernel.gaussian_lowrank_factor(X, 1e-7)
    Xq = rng.normal(size=(5, 3)) * 0.4
    feat = kernel.feature_map(fact, Xq)
    approx = fact.U @ feat.T
    d2 = ((X[:, None, :] - Xq[None, :, :]) ** 2).sum(-1)
    assert np.abs(np.exp(-d2) - approx).max() <= 5e-7


def test_scale_by_labels_identity(rng):
    U = rng.normal(size=(6, 2))
    V = rng.normal(size=(6, 2))
    Uy, Vy = kernel.scale_by_labels(U, V, np.ones(6))
    assert np.array_equal(Uy, U)
    assert np.array_equal(Vy, V)


def test_scale_by_labels_sign_pattern():
    U = np.array([[1.0], [1.0]])
    V = np.array([[1.0], [1.0]])
    Uy, Vy = kernel.scale_by_labels(U, V, np.array([1.0, -1.0]))
    assert np.allclose(Uy @ Vy.T, [[1.0, -1.0], [-1.0, 1.0]])


def test_scale_by_labels_hadamard_oracle(rng):
    U = rng.normal(size=(9, 3))
    V = rng.normal(size=(9, 3))
    y = rng.choice([-1.0, 1.0], size=9)
    Uy, Vy = kernel.scale_by_labels(U, V, y)
    want = (U @ V.T) * np.outer(y, y)
    assert np.abs(Uy @ Vy.T - want).max() <= 1e-14


def test_scale_by_labels_rejects_bad_labels():
    with pytest.raises(ValidationError):
        kernel.scale_by_labels(np.ones((2, 1)), np.ones((2, 1)), np.array([1.0, 0.5]))


def test_factor_quadratic_form_error_within_eps_n(rng):
    # |v'(K - UV')v| <= eps n ||v||^2, from the entrywise-l1 guarantee
    X = rng.normal(size=(60, 3)) * 0.5
    eps = 1e-5
    fact = kernel.gaussian_lowrank_factor(X, eps)
    K = kernel.exact_gaussian_kernel(X)
    Kt = fact.U @ fact.V.T
    for _ in range(40):
        v = rng.normal(size=60)
        lhs = abs(v @ (K - Kt) @ v)
        assert lhs <= eps * 60 * (v @ v) + 1e-12


def _scaled(X, radius):
    """X scaled so that its largest squared pairwise distance is radius."""
    return X * math.sqrt(radius / kernel.squared_radius(X))


def test_squared_radius_matches_dense_formula(rng):
    X = rng.normal(size=(600, 3))  # several row blocks, the last one partial
    sq = np.sum(X * X, axis=1)
    dense = float((sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)).max())
    assert kernel.squared_radius(X) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("pruned", [True, False])
def test_feature_map_of_training_rows_is_the_factor(rng, pruned):
    if pruned:  # clustered 4-d data at the tiny eps that svm.train asks for
        X = np.vstack([c + 0.2 * rng.normal(size=(30, 4)) for c in rng.normal(size=(3, 4))])
        X, eps = _scaled(X, 3.9), 4e-11
    else:
        X, eps = _scaled(rng.uniform(-1.0, 1.0, size=(60, 5)), 3.9), 1e-6
    fact = kernel.gaussian_lowrank_factor(X, eps)
    d = X.shape[1]
    full_rank = math.comb(fact.degree + d + 1, d + 1)
    assert (fact.rank < full_rank) == pruned
    assert fact.kept_columns.shape == (full_rank,)
    assert int(fact.kept_columns.sum()) == fact.rank
    assert np.array_equal(kernel.feature_map(fact, X), fact.V)


@pytest.mark.parametrize("Xq, match", [
    (np.zeros((3, 1)), "4 columns"),
    (np.full((3, 4), np.nan), "non-finite"),
    (np.full((3, 4), np.inf), "non-finite"),
], ids=["width", "nan", "inf"])
def test_feature_map_rejects_bad_queries(rng, Xq, match):
    fact = kernel.gaussian_lowrank_factor(rng.normal(size=(20, 4)) * 0.4, 1e-6)
    with pytest.raises(ValidationError, match=match):
        kernel.feature_map(fact, Xq)


def _traced_peak(fn, *args):
    """Result of fn(*args) and the peak of the memory tracemalloc saw it
    allocate."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_factor_build_memory_is_linear_in_output(rng):
    n = 2000
    X = _scaled(rng.uniform(-1.0, 1.0, size=(n, 5)), 3.9)
    fact, peak = _traced_peak(kernel.gaussian_lowrank_factor, X, 1e-6)
    assert peak <= 1.5 * (fact.U.nbytes + fact.V.nbytes)
    feats, peak = _traced_peak(kernel.feature_map, fact, X)
    assert peak <= 1.6 * feats.nbytes
    del fact, feats
    _, peak = _traced_peak(kernel.squared_radius, X)
    assert peak <= 0.5 * 8 * n * n


# -- pivoted Cholesky ---------------------------------------------------------

def test_pivoted_cholesky_residual_is_the_trace(rng):
    # diag(E) sums to tr(K) - ||L||_F^2 = n - ||L||_F^2, and tr(E) <= tol.
    X = _scaled(rng.uniform(-1.0, 1.0, size=(300, 4)), 3.9)
    fac = kernel.pivoted_cholesky_factor(X, 1e-5)
    assert fac.L.flags.f_contiguous and fac.L.shape == (300, fac.rank)
    assert fac.trace_residual <= 1e-5 < 1e-5 * 300
    assert fac.trace_residual == pytest.approx(300 - np.sum(fac.L ** 2), rel=0, abs=1e-11)
    assert np.all(fac.residual >= 0.0) and np.all(fac.residual[fac.pivots] == 0.0)
    assert np.unique(fac.pivots).size == fac.rank


def test_pivoted_cholesky_residual_is_psd(rng):
    X = rng.normal(size=(200, 3)) * 0.5
    fac = kernel.pivoted_cholesky_factor(X, 1e-4)
    assert 0 < fac.rank < 200
    E = kernel.exact_gaussian_kernel(X) - fac.L @ fac.L.T
    assert np.linalg.eigvalsh(E)[0] >= -1e-12
    assert np.allclose(np.diag(E), fac.residual, rtol=0, atol=1e-12)
    assert np.trace(E) == pytest.approx(fac.trace_residual, rel=0, abs=1e-12)


def test_pivoted_cholesky_extension_equals_one_shot(rng):
    X = rng.normal(size=(150, 3)) * 0.6
    tight = kernel.pivoted_cholesky_factor(X, 1e-8)
    loose = kernel.pivoted_cholesky_factor(X, 1e-2)
    grown = kernel.pivoted_cholesky_factor(X, 1e-8, state=loose)
    assert loose.rank < grown.rank
    assert np.array_equal(grown.L, tight.L)
    assert np.array_equal(grown.pivots, tight.pivots)
    assert np.array_equal(grown.residual, tight.residual)
    # the state itself is left as it was
    assert np.array_equal(loose.L, tight.L[:, :loose.rank])


def test_pivoted_cholesky_full_rank_reproduces_kernel(rng):
    X = rng.normal(size=(40, 2))
    fac = kernel.pivoted_cholesky_factor(X, 0.0)
    assert fac.rank == 40 and fac.trace_residual == 0.0
    assert np.abs(fac.L @ fac.L.T - kernel.exact_gaussian_kernel(X)).max() <= 1e-12


def test_pivoted_cholesky_duplicate_points(rng):
    # Each repeated point leaves an exact zero residual, so the factor stops
    # at the distinct points without dividing by zero.
    base = rng.normal(size=(15, 2)) * 3.0
    X = np.vstack([base, base, base[:5]])
    with np.errstate(divide="raise", invalid="raise"):
        fac = kernel.pivoted_cholesky_factor(X, 0.0)
    assert fac.rank == 15 and fac.trace_residual == 0.0
    assert np.all(np.isfinite(fac.L))
    assert np.abs(fac.L @ fac.L.T - kernel.exact_gaussian_kernel(X)).max() <= 1e-12


def test_pivoted_cholesky_validates_inputs():
    with pytest.raises(ValidationError, match="non-finite"):
        kernel.pivoted_cholesky_factor(np.array([[0.0], [np.nan]]), 1e-3)
    with pytest.raises(ValidationError, match="tol"):
        kernel.pivoted_cholesky_factor(np.zeros((2, 1)), -1.0)
    fac = kernel.pivoted_cholesky_factor(np.zeros((2, 1)), 0.0)
    with pytest.raises(ValidationError, match="state"):
        kernel.pivoted_cholesky_factor(np.zeros((3, 1)), 0.0, state=fac)


def test_pivoted_cholesky_memory_is_linear_in_output(rng):
    # No n x n array: at n = 4000 the peak is L's final buffer, grown a
    # quarter at a time, plus O(n d) per column.
    n = 4000
    X = _scaled(rng.uniform(-1.0, 1.0, size=(n, 3)), 3.9)
    kernel.pivoted_cholesky_factor(X[:10], 0.0)  # first-call set-up is not counted
    fac, peak = _traced_peak(kernel.pivoted_cholesky_factor, X, 1e-4)
    assert 0 < fac.rank < n // 4
    assert peak <= 1.3 * fac.L.nbytes + 64 * n * X.shape[1]


def test_pivoted_cholesky_under_a_profiler(rng):
    # A profiler holds the bound resize method, and so a reference to the
    # growing buffer: the factor grows past its first buffer all the same.
    import cProfile
    X = rng.normal(size=(300, 3))
    profile = cProfile.Profile()
    fac = profile.runcall(kernel.pivoted_cholesky_factor, X, 1e-8)
    assert fac.rank > kernel._PIVOT_CAPACITY
    assert np.array_equal(fac.L, kernel.pivoted_cholesky_factor(X, 1e-8).L)


def test_pivoted_cholesky_refuses_over_the_byte_cap(rng, monkeypatch):
    # At 300 rows, 64 and then 80 columns (153 600 and 192 000 bytes) fit;
    # growing to 100 would not, and is refused before it is allocated.
    monkeypatch.setattr(kernel, "_FACTOR_BYTES_CAP", 200_000)
    X = rng.normal(size=(300, 3))
    assert kernel.pivoted_cholesky_factor(X[:100], 0.0).rank == 100
    with pytest.raises(ValidationError, match="needs 240000 bytes"):
        kernel.pivoted_cholesky_factor(X, 1e-8)
