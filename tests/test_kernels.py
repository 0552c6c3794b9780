import numpy as np
import pytest
from conftest import centering_matrix, kernel_eval, random_psd

from nkcca.kernels import KernelColumns, KernelSpec, center, cross_gram, gram


def test_kernel_eval_zero_distance():
    spec = KernelSpec(sigma=0.7)
    x = np.array([1.0, -2.0, 3.0])
    assert kernel_eval(spec, x, x) == 1.0


def test_kernel_eval_forced_value():
    # ||x - y|| = sigma sqrt(2) forces exp(-1)
    sigma = 1.3
    spec = KernelSpec(sigma=sigma)
    x = np.zeros(2)
    y = np.array([sigma * np.sqrt(2.0), 0.0])
    assert kernel_eval(spec, x, y) == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_kernel_eval_direct_formula():
    spec = KernelSpec(sigma=1.0)
    val = kernel_eval(spec, [0.0], [1.0])
    assert val == pytest.approx(0.6065306597126334, abs=1e-15)  # exp(-0.5)


def test_kernel_eval_dimension_mismatch():
    spec = KernelSpec()
    with pytest.raises(ValueError):
        kernel_eval(spec, [0.0, 1.0], [0.0])


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(sigma=0.0)
    # 2 sigma^2 must be a finite, normal double
    for sigma in (1e200, 1e155, 1e-155, 1e-200, float("nan")):
        with pytest.raises(ValueError, match="normal double"):
            KernelSpec(sigma=sigma)
    for sigma in (1e150, 1e-150):
        assert KernelSpec(sigma=sigma).sigma == sigma


def test_points_whose_squared_distances_overflow_are_rejected():
    # at 1e200, ||x||^2 + ||y||^2 - 2 x.y is inf - inf = NaN; at 1e150,
    # the bound 4 d max |x_ij|^2 = 8e300 still fits in a double
    spec = KernelSpec(sigma=1.0)
    X = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 1.0]])
    big = X.copy()
    big[1, 0] = 1e200
    with pytest.raises(ValueError, match="overflow"):
        KernelColumns(spec, big)
    oracle = KernelColumns(spec, X)
    with pytest.raises(ValueError, match="overflow"):
        oracle.cross(big)
    with pytest.raises(ValueError, match="non-finite"):
        oracle.cross([[np.nan, 0.0]])
    X[1, 0] = 1e150
    cols = KernelColumns(spec, X).columns([0, 1, 2])
    assert np.isfinite(cols).all() and cols[1, 1] == 1.0


def test_gram_single_point():
    K = gram(KernelSpec(), np.array([[2.0, 3.0]]))
    np.testing.assert_array_equal(K, [[1.0]])
    assert K.shape == (1, 1)


def test_gram_identical_rows():
    X = np.array([[1.0, 2.0], [1.0, 2.0]])
    K = gram(KernelSpec(sigma=2.0), X)
    np.testing.assert_allclose(K, np.ones((2, 2)), atol=1e-15)


def test_gram_matches_pairwise_oracle():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(3, 4))
    spec = KernelSpec(sigma=0.8)
    K = gram(spec, X)
    for i in range(3):
        for j in range(3):
            assert K[i, j] == pytest.approx(kernel_eval(spec, X[i], X[j]),
                                            abs=1e-12)


def test_gram_symmetric_and_unit_diagonal():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(17, 3))
    K = gram(KernelSpec(sigma=1.5), X)
    np.testing.assert_array_equal(K, K.T)
    np.testing.assert_array_equal(np.diag(K), np.ones(17))


def _gram_inputs():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 3))
    return {
        "C": X,
        "F": np.asfortranarray(X),
        "strided": rng.normal(size=(80, 6))[::2, ::2],
        "integer": rng.integers(-3, 4, size=(30, 2)),
        "d1": rng.normal(size=(25, 1)),
        "n1": rng.normal(size=(1, 4)),
    }


@pytest.mark.parametrize("layout", list(_gram_inputs()))
def test_gram_is_exactly_symmetric_in_every_layout(layout):
    X = _gram_inputs()[layout]
    spec = KernelSpec(sigma=1.3)
    K = gram(spec, X)
    n = X.shape[0]
    assert K.shape == (n, n)
    np.testing.assert_array_equal(K, K.T)
    np.testing.assert_array_equal(np.diag(K), np.ones(n))
    for i, j in ((0, n - 1), (n // 2, n // 3)):
        assert K[i, j] == pytest.approx(kernel_eval(spec, X[i], X[j]),
                                        rel=0, abs=1e-12)


def test_gram_psd_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 51))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        K = gram(KernelSpec(sigma=float(rng.uniform(0.3, 3.0))), X)
        evals = np.linalg.eigvalsh(K)
        assert evals.min() >= -1e-8 * np.abs(evals).max()


def test_center_all_ones_annihilated():
    K = np.ones((4, 4))
    np.testing.assert_allclose(center(K), np.zeros((4, 4)), atol=1e-14)


def test_center_identity_two_points():
    # H I H for N = 2, from the explicit multiply
    out = center(np.eye(2))
    np.testing.assert_allclose(out, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_center_matches_dense_hkh():
    rng = np.random.default_rng(6)
    K = random_psd(rng, 9)
    H = centering_matrix(9)
    np.testing.assert_allclose(center(K), H @ K @ H, atol=1e-12)


def test_center_rows_and_columns_sum_to_zero():
    rng = np.random.default_rng(7)
    K = random_psd(rng, 12)
    C = center(K)
    tol = 1e-10 * 12 * np.abs(K).max()
    assert np.abs(C.sum(axis=0)).max() < tol
    assert np.abs(C.sum(axis=1)).max() < tol


def test_center_idempotent():
    rng = np.random.default_rng(8)
    K = random_psd(rng, 10)
    once = center(K)
    twice = center(once)
    np.testing.assert_allclose(twice, once, atol=1e-10)


def test_center_never_increases_spectral_norm():
    rng = np.random.default_rng(9)
    for _ in range(5):
        K = random_psd(rng, 8)
        assert (np.linalg.norm(center(K), 2)
                <= np.linalg.norm(K, 2) + 1e-12)


def test_center_kills_constant_vector():
    rng = np.random.default_rng(10)
    K = random_psd(rng, 15)
    C = center(K)
    assert np.abs(C @ np.ones(15)).max() < 1e-10 * np.abs(K).max() * 15


def test_column_oracle_lazy_matches_dense():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(8, 3))
    spec = KernelSpec(sigma=1.1)
    lazy = KernelColumns.from_data(spec, X)
    K = gram(spec, X)
    for i in (0, 3, 7):
        np.testing.assert_allclose(lazy.column(i), K[:, i], atol=1e-12)
    np.testing.assert_allclose(lazy.columns([7, 0, 3]), K[:, [7, 0, 3]],
                               atol=1e-12)
    np.testing.assert_allclose(lazy.dense(), K, atol=1e-12)
    with pytest.raises(IndexError):
        lazy.column(8)
    with pytest.raises(IndexError):
        lazy.columns([0, 8])


def test_cross_gram_dimension_mismatch():
    with pytest.raises(ValueError):
        cross_gram(KernelSpec(), np.ones((2, 3)), np.ones((4, 2)))


def test_column_oracle_rejects_bad_data():
    spec = KernelSpec()
    with pytest.raises(ValueError, match="2-D"):
        KernelColumns.from_data(spec, np.ones(5))
    with pytest.raises(ValueError, match="2-D"):
        KernelColumns.from_data(spec, np.ones((2, 3, 4)))
    X = np.ones((4, 2))
    X[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        KernelColumns.from_data(spec, X)
    X[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        KernelColumns.from_data(spec, X)
