import numpy as np
import pytest
import scipy.linalg
from conftest import ArrayColumns, eigen_leverage, random_psd, traced_peak
from scipy.stats import spearmanr

from nkcca.datasets import synthetic_circles
from nkcca.kernels import KernelColumns, KernelSpec, gram
from nkcca.leverage import (_SOLVE_ROWS, SamplingDistribution, _sketch_eigh,
                            _whitening, approx_leverage, effective_dimension,
                            exact_leverage, make_distribution)


def dense_inverse_scores(K, gamma):
    n = K.shape[0]
    return np.diag(K @ np.linalg.inv(K + n * gamma * np.eye(n)))


def test_exact_leverage_matches_mrrr_driver_on_clustered_ring_kernel():
    # the RBF spectrum of ring data at a narrow bandwidth is tightly
    # clustered: the case where the eigensolver drivers differ in speed
    ds = synthetic_circles(300, 0)
    K = gram(KernelSpec(sigma=0.2), ds.X)
    gamma = 1e-2
    scores, d_eff = eigen_leverage(K, gamma, driver="evr")
    lv = exact_leverage(K, gamma)
    np.testing.assert_allclose(lv.scores, scores, rtol=0, atol=1e-10)
    assert lv.d_eff == pytest.approx(d_eff, abs=1e-10)
    assert effective_dimension(K, gamma) == pytest.approx(d_eff, abs=1e-10)


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


def test_exact_rejects_a_shift_that_leaves_k_indefinite():
    # K = -I with N gamma = 0.4 < 1: K + N gamma I = -0.6 I
    with pytest.raises(np.linalg.LinAlgError, match="gamma = 0.1"):
        exact_leverage(-np.eye(4), gamma=0.1)


def test_exact_rejects_non_finite_kernel():
    K = np.eye(3)
    K[0, 0] = np.nan
    with pytest.raises(ValueError, match="^K has non-finite entries"):
        exact_leverage(K, gamma=0.1)


def test_effective_dimension_rejects_non_finite_kernel():
    K = np.eye(5)
    K[1, 2] = np.nan
    with pytest.raises(ValueError, match="^K has non-finite entries"):
        effective_dimension(K, gamma=0.1)


def _dtrtri_leverage(K, gamma):
    """exact_leverage as it was before its factor moved to _inverse_factor:
    K's lower triangle shifted and factored, dtrtri, squared row norms.
    Returns (scores, d_eff)."""
    n = K.shape[0]
    S = np.array(K.T, order="F")
    S[np.diag_indices_from(S)] += n * gamma
    R = scipy.linalg.cholesky(S, lower=False, overwrite_a=True)
    Rinv, _ = scipy.linalg.lapack.dtrtri(R, lower=0, overwrite_c=1)
    shrunk = np.einsum("ij,ij->i", Rinv, Rinv)
    shrunk *= n * gamma
    return np.clip(1.0 - shrunk, 0.0, 1.0), float(n - shrunk.sum())


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("kind", ["gram", "asymmetric"])
def test_exact_leverage_is_bitwise_its_dtrtri_form(kind, order):
    # the asymmetric matrix tells the triangles apart: the scores read K's
    # lower one, as effective_dimension's eigh does, in either layout
    rng = np.random.default_rng(15)
    K = (gram(KernelSpec(sigma=0.3), synthetic_circles(300, 2).X)
         if kind == "gram" else random_psd(rng, 300, rank=40)
         + 1e-13 * rng.normal(size=(300, 300)))
    K = np.array(K, order=order)
    scores, d_eff = _dtrtri_leverage(K, 1e-3)
    lv = exact_leverage(K, 1e-3)
    np.testing.assert_array_equal(lv.scores, scores)
    assert lv.d_eff == d_eff


def test_exact_requires_positive_gamma():
    with pytest.raises(ValueError):
        exact_leverage(np.eye(3), gamma=0.0)


@pytest.mark.parametrize("gamma", [np.nan, np.inf], ids=["nan", "inf"])
def test_leverage_rejects_non_finite_gamma(gamma):
    # NaN gave NaN estimates and inf all-zero ones, with no error
    K = np.eye(5)
    with pytest.raises(ValueError, match="finite"):
        approx_leverage(ArrayColumns(K), gamma, sketch_size=3, seed=0)
    with pytest.raises(ValueError, match="finite"):
        effective_dimension(K, gamma)


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

    def columns(self, idx):
        self.fetched += [int(i) for i in idx]
        return super().columns(idx)


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


def test_sketch_eigh_in_place_is_bitwise_the_copying_form():
    # the symmetrized block is factored in its own F-ordered buffer: the
    # same values LAPACK read from a copy, and W is left as it was
    W = np.random.default_rng(8).normal(size=(60, 60))
    before = W.copy()
    sig, U = _sketch_eigh(W)
    ref_sig, ref_U = scipy.linalg.eigh(0.5 * (W + W.T), driver="evd")
    np.testing.assert_array_equal(sig, np.maximum(ref_sig, 0.0))
    np.testing.assert_array_equal(U, ref_U)
    np.testing.assert_array_equal(W, before)


def test_approx_leverage_holds_one_sketch_sized_array():
    # the kernel block is released before the sketch eigh, which holds W,
    # its symmetrized copy and the evd driver's 2 s^2 workspace (4 s^2 =
    # 1.6 n s here), and F is written over the block fetched again; with C
    # and F both live it peaked at 2.61 n s doubles
    n, s = 1200, 480
    oracle = KernelColumns(KernelSpec(sigma=1.0), synthetic_circles(n, 1).X)
    peak = traced_peak(approx_leverage, oracle, 1e-6, s, seed=5)
    assert peak <= 8 * 1.65 * n * s


class RowMajorColumns(ArrayColumns):
    """A column oracle that serves C-ordered blocks (``ArrayColumns`` and
    ``KernelColumns`` blocks are F-ordered)."""

    def columns(self, idx):
        return np.ascontiguousarray(super().columns(idx))


@pytest.mark.parametrize("n", [2 * _SOLVE_ROWS + 1, 2 * _SOLVE_ROWS + 37],
                         ids=["one-row-remainder", "37-row-remainder"])
@pytest.mark.parametrize("oracle_type", [KernelColumns, ArrayColumns,
                                         RowMajorColumns],
                         ids=lambda t: t.__name__)
def test_approx_leverage_matches_one_product_and_solve(n, oracle_type):
    # F is written over C by row blocks, and one dtrsm solves it in place
    # where C is F-ordered, in a copy where it is C-ordered; the reference
    # takes F = C U+ S+^-1/2 as one product and the scores as the squared
    # column norms of R^-T F^T
    s, gamma, seed = 200, 1e-3, 3
    X = synthetic_circles(n, 4).X
    if oracle_type is KernelColumns:
        oracle = KernelColumns(KernelSpec(sigma=0.5), X)
    else:
        oracle = oracle_type(gram(KernelSpec(sigma=0.5), X))
    idx = np.sort(np.random.default_rng(seed).choice(n, size=s,
                                                     replace=False))
    C = oracle.columns(idx)
    assert C.flags.f_contiguous != (oracle_type is RowMajorColumns)
    F = C @ _whitening(_sketch_eigh(C[idx, :]), 0.0)
    R = scipy.linalg.cholesky(F.T @ F + n * gamma * np.eye(F.shape[1]))
    Z = scipy.linalg.solve_triangular(R, F.T, trans="T")
    want = np.clip(np.einsum("ij,ij->j", Z, Z), 0.0, 1.0)
    got = approx_leverage(oracle, gamma, s, seed=seed)
    np.testing.assert_allclose(got.scores, want, rtol=1e-13, atol=0)


def test_approx_sketch_size_validation():
    oracle = ArrayColumns(np.eye(5))
    with pytest.raises(ValueError):
        approx_leverage(oracle, 0.1, sketch_size=0, seed=0)
    with pytest.raises(ValueError):
        approx_leverage(oracle, 0.1, sketch_size=6, seed=0)


# --- sampling distributions -------------------------------------------------

def test_make_distribution_pure_ridge():
    lv = exact_leverage(np.diag([5.0, 30.0, 5.0]), 0.4)
    # normalization identity: p = l / d_eff
    dist = make_distribution(lv)
    np.testing.assert_allclose(dist.p, lv.scores / lv.d_eff, atol=1e-12)


def test_make_distribution_sums_to_one_exactly():
    rng = np.random.default_rng(9)
    K = random_psd(rng, 35)
    dist = make_distribution(exact_leverage(K, 0.02))
    assert dist.p.sum() == pytest.approx(1.0, abs=1e-15)


def test_make_distribution_zero_scores_error():
    lv = exact_leverage(np.zeros((3, 3)), 0.1)
    with pytest.raises(ValueError):
        make_distribution(lv)


@pytest.mark.parametrize("p", [[np.nan, 1.0], [0.5, np.nan, 0.5],
                               [[0.5, 0.5]], [[0.25, 0.25], [0.25, 0.25]]],
                         ids=["nan", "nan_inside", "row", "matrix"])
def test_distribution_rejects_malformed_probabilities(p):
    # a NaN sum passed the old |sum - 1| > 1e-12 test, and 2-D arrays
    # summing to 1 were accepted
    with pytest.raises(ValueError):
        SamplingDistribution(p=np.array(p))
