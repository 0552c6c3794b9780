import numpy as np
import pytest
import scipy.linalg
from conftest import ArrayColumns, random_psd
from scipy.stats import spearmanr

from nkcca.datasets import synthetic_circles
from nkcca.kernels import KernelSpec, gram
from nkcca.leverage import (approx_leverage, effective_dimension,
                            exact_leverage, make_distribution)


def dense_inverse_scores(K, gamma):
    n = K.shape[0]
    return np.diag(K @ np.linalg.inv(K + n * gamma * np.eye(n)))


def test_exact_leverage_matches_mrrr_driver_on_clustered_ring_kernel():
    # the RBF spectrum of ring data at a narrow bandwidth is tightly
    # clustered: the case where the eigensolver drivers differ in speed
    ds = synthetic_circles(300, 0)
    K = gram(KernelSpec(sigma=0.2), ds.X).entries
    gamma = 1e-2
    sig, U = scipy.linalg.eigh(K, driver="evr")
    sig = np.maximum(sig, 0.0)
    shrink = sig / (sig + 300 * gamma)
    lv = exact_leverage(K, gamma)
    np.testing.assert_allclose(lv.scores, np.einsum("ij,j,ij->i", U, shrink, U),
                               rtol=0, atol=1e-10)
    assert lv.d_eff == pytest.approx(shrink.sum(), abs=1e-10)
    assert effective_dimension(K, gamma) == pytest.approx(shrink.sum(),
                                                          abs=1e-10)


def test_exact_identity_kernel():
    lv = exact_leverage(np.eye(2), gamma=0.5)
    np.testing.assert_allclose(lv.scores, [0.5, 0.5], atol=1e-14)
    assert lv.d_eff == pytest.approx(1.0, abs=1e-14)


def test_exact_zero_kernel():
    lv = exact_leverage(np.zeros((3, 3)), gamma=0.2)
    np.testing.assert_allclose(lv.scores, np.zeros(3), atol=1e-14)
    assert lv.d_eff == pytest.approx(0.0, abs=1e-14)


def test_exact_matches_dense_inverse_oracle():
    rng = np.random.default_rng(0)
    K = random_psd(rng, 4)
    lv = exact_leverage(K, gamma=0.1)
    np.testing.assert_allclose(lv.scores, dense_inverse_scores(K, 0.1),
                               atol=1e-10)


def test_exact_scores_are_squared_row_norms():
    rng = np.random.default_rng(1)
    for _ in range(3):
        n = int(rng.integers(3, 51))
        K = random_psd(rng, n)
        gamma = float(rng.uniform(0.01, 1.0))
        sig, U = scipy.linalg.eigh(K)
        sig = np.maximum(sig, 0.0)
        B = U * np.sqrt(sig / (sig + n * gamma))
        lv = exact_leverage(K, gamma)
        np.testing.assert_allclose(lv.scores, np.sum(B * B, axis=1), atol=1e-10)


def test_exact_requires_positive_gamma():
    with pytest.raises(ValueError):
        exact_leverage(np.eye(3), gamma=0.0)


def test_effective_dimension_identity():
    assert effective_dimension(np.eye(3), gamma=1.0 / 3.0) == pytest.approx(1.5)


def test_effective_dimension_trace_bound():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        K = random_psd(rng, n)
        gamma = float(rng.uniform(0.01, 2.0))
        assert (effective_dimension(K, gamma)
                <= np.trace(K) / (n * gamma) + 1e-10)


def test_effective_dimension_eigenvalue_oracle():
    rng = np.random.default_rng(3)
    K = random_psd(rng, 5)
    gamma = 0.3
    sig = np.linalg.eigvalsh(K)
    expected = np.sum(sig / (sig + 5 * gamma))
    assert effective_dimension(K, gamma) == pytest.approx(expected, abs=1e-10)


def test_leverage_monotone_in_gamma():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        K = random_psd(rng, n)
        g1, g2 = sorted(rng.uniform(0.01, 2.0, size=2))
        if g1 == g2:
            continue
        lo = exact_leverage(K, g2)
        hi = exact_leverage(K, g1)
        assert np.all(hi.scores >= lo.scores - 1e-12)
        assert hi.d_eff >= lo.d_eff - 1e-12


def test_scores_within_unit_interval():
    rng = np.random.default_rng(5)
    K = random_psd(rng, 25)
    lv = exact_leverage(K, 0.05)
    assert np.all(lv.scores >= 0) and np.all(lv.scores <= 1)
    assert lv.d_eff == pytest.approx(lv.scores.sum(), rel=1e-8)


# --- approximate scores ----------------------------------------------------

def test_approx_full_sketch_equals_exact():
    rng = np.random.default_rng(6)
    n = 30
    K = random_psd(rng, n, jitter=1e-6)
    gamma = 0.05
    oracle = ArrayColumns(K)
    approx = approx_leverage(oracle, gamma, sketch_size=n, seed=0)
    exact = exact_leverage(K, gamma)
    np.testing.assert_allclose(approx.scores, exact.scores, atol=1e-6)


class RecordingColumns(ArrayColumns):
    """A column oracle that records which columns were fetched."""

    def __init__(self, K):
        super().__init__(K)
        self.fetched = []

    def column(self, i):
        self.fetched.append(int(i))
        return super().column(i)


@pytest.mark.parametrize("rank", [None, 8], ids=["full-rank", "rank-8"])
def test_approx_matches_dense_pinv_oracle(rank):
    # L = C pinv(W) C^T formed densely, with the estimator's eps threshold
    # on the eigenvalues of W; at rank 8 the 20-column sketch block W is
    # singular and the threshold drops 12 of its directions
    rng = np.random.default_rng(10)
    n, s, gamma = 50, 20, 0.05
    K = random_psd(rng, n, rank=rank, jitter=0.0 if rank else 1e-3)
    oracle = RecordingColumns(K)
    approx = approx_leverage(oracle, gamma, sketch_size=s, seed=4)
    idx = np.array(oracle.fetched)
    assert len(set(idx)) == s
    C = K[:, idx]
    W = C[idx, :]
    sig = np.linalg.eigvalsh(W)
    tol = sig.max() * s * np.finfo(float).eps
    if rank:
        assert np.count_nonzero(sig > tol) == rank
    L = C @ np.linalg.pinv(W, rcond=s * np.finfo(float).eps,
                           hermitian=True) @ C.T
    L = 0.5 * (L + L.T)
    expected = np.diag(np.linalg.solve(L + n * gamma * np.eye(n), L))
    np.testing.assert_allclose(approx.scores, expected, rtol=0, atol=1e-12)
    assert approx.d_eff == pytest.approx(expected.sum(), abs=1e-11)


def test_approx_identity_kernel_symmetric():
    oracle = ArrayColumns(np.eye(12))
    lv = approx_leverage(oracle, gamma=0.1, sketch_size=12, seed=1)
    assert np.ptp(lv.scores) < 1e-6


def test_approx_deterministic_for_seed():
    rng = np.random.default_rng(7)
    K = random_psd(rng, 20)
    oracle = ArrayColumns(K)
    a = approx_leverage(oracle, 0.1, 10, seed=42)
    b = approx_leverage(oracle, 0.1, 10, seed=42)
    np.testing.assert_array_equal(a.scores, b.scores)


def test_approx_never_exceeds_exact():
    rng = np.random.default_rng(8)
    K = random_psd(rng, 24)
    oracle = ArrayColumns(K)
    exact = exact_leverage(K, 0.08)
    approx = approx_leverage(oracle, 0.08, sketch_size=10, seed=3)
    assert np.all(approx.scores <= exact.scores + 1e-9)


def test_approx_rank_correlation_on_ring_data():
    ds = synthetic_circles(500, seed=0)
    K = gram(KernelSpec(sigma=1.0), ds.X)
    oracle = ArrayColumns(K)
    gamma = 1e-3
    exact = exact_leverage(K, gamma)
    approx = approx_leverage(oracle, gamma, sketch_size=250, seed=0)
    corr = spearmanr(exact.scores, approx.scores).statistic
    assert corr >= 0.9


def test_approx_sketch_size_validation():
    oracle = ArrayColumns(np.eye(5))
    with pytest.raises(ValueError):
        approx_leverage(oracle, 0.1, sketch_size=0, seed=0)
    with pytest.raises(ValueError):
        approx_leverage(oracle, 0.1, sketch_size=6, seed=0)


# --- sampling distributions -------------------------------------------------

def test_make_distribution_uniform():
    lv = exact_leverage(np.eye(4), 0.25)
    dist = make_distribution(lv, mix_uniform=1.0)
    np.testing.assert_allclose(dist.p, np.full(4, 0.25), atol=1e-15)


def test_make_distribution_pure_ridge():
    lv = exact_leverage(np.diag([5.0, 30.0, 5.0]), 0.4)
    # normalization identity: p = l / d_eff
    dist = make_distribution(lv, mix_uniform=0.0)
    np.testing.assert_allclose(dist.p, lv.scores / lv.d_eff, atol=1e-12)


def test_make_distribution_half_mix():
    # frozen from 0.5 * [0.2, 0.6, 0.2] + 0.5 * (1/3)
    from nkcca.leverage import LeverageScores
    lv = LeverageScores(scores=np.array([0.2, 0.6, 0.2]), gamma=0.1,
                        d_eff=1.0)
    dist = make_distribution(lv, mix_uniform=0.5)
    np.testing.assert_allclose(dist.p, [0.26666666666666666,
                                        0.4666666666666667,
                                        0.26666666666666666], atol=1e-12)


def test_make_distribution_sums_to_one_exactly():
    rng = np.random.default_rng(9)
    K = random_psd(rng, 35)
    dist = make_distribution(exact_leverage(K, 0.02), mix_uniform=0.25)
    assert dist.p.sum() == pytest.approx(1.0, abs=1e-15)


def test_make_distribution_zero_scores_error():
    lv = exact_leverage(np.zeros((3, 3)), 0.1)
    with pytest.raises(ValueError):
        make_distribution(lv, mix_uniform=0.0)
    dist = make_distribution(lv, mix_uniform=1.0)
    np.testing.assert_allclose(dist.p, np.full(3, 1 / 3))
