import numpy as np
import pytest
from conftest import kernel_eval

from nkcca.baselines import (linear_cca, make_rff_map, rcca_fit, rff_features)
from nkcca.datasets import synthetic_circles
from nkcca.kcca import nkcca_fit, total_correlation
from nkcca.kernels import KernelColumns, KernelSpec
from nkcca.leverage import SamplingDistribution
from nkcca.sampling import sample


def test_rff_feature_norm_bounded():
    rng = np.random.default_rng(0)
    rff = make_rff_map(3, 200, sigma=1.0, seed=0)
    Z = rff_features(rff, rng.normal(size=(50, 3)))
    norms = np.sum(Z * Z, axis=1)
    assert np.all(norms <= 2.0 + 1e-12)


def test_rff_inner_product_concentrates_to_kernel():
    rng = np.random.default_rng(1)
    x = rng.normal(size=4)
    y = rng.normal(size=4)
    sigma = 1.3
    rff = make_rff_map(4, 10_000, sigma=sigma, seed=5)
    zx = rff_features(rff, x[None, :])[0]
    zy = rff_features(rff, y[None, :])[0]
    k = kernel_eval(KernelSpec(sigma=sigma), x, y)
    assert abs(zx @ zy - k) < 0.05


def test_rff_deterministic_per_seed():
    a = make_rff_map(2, 64, 1.0, seed=7)
    b = make_rff_map(2, 64, 1.0, seed=7)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    np.testing.assert_array_equal(a.phases, b.phases)


def test_rff_dimension_mismatch():
    rff = make_rff_map(3, 16, 1.0, seed=0)
    with pytest.raises(ValueError):
        rff_features(rff, np.ones((4, 2)))


def test_linear_cca_identical_views():
    rng = np.random.default_rng(2)
    Z = rng.normal(size=(200, 4))
    model = linear_cca(Z, Z.copy(), 1e-8, 1e-8, L=2)
    assert np.all(model.correlations > 1 - 1e-3)


def test_linear_cca_independent_views():
    rng = np.random.default_rng(3)
    Zx = rng.normal(size=(4000, 3))
    Zy = rng.normal(size=(4000, 3))
    model = linear_cca(Zx, Zy, 1e-6, 1e-6, L=2)
    assert np.all(model.correlations < 0.1)


def test_linear_cca_matches_pearson_closed_form():
    rng = np.random.default_rng(4)
    n = 10_000
    x = rng.normal(size=(n, 1))
    noise = 0.1
    y = 2.0 * x + noise * rng.normal(size=(n, 1))
    model = linear_cca(x, y, 1e-10, 1e-10, L=1)
    sample_corr = np.corrcoef(x[:, 0], y[:, 0])[0, 1]
    assert model.correlations[0] == pytest.approx(abs(sample_corr), abs=1e-3)


def test_linear_cca_correlations_in_unit_interval():
    rng = np.random.default_rng(5)
    Zx = rng.normal(size=(60, 5))
    Zy = rng.normal(size=(60, 4))
    model = linear_cca(Zx, Zy, 1e-4, 1e-4, L=3)
    assert np.all(model.correlations >= -1e-8)
    assert np.all(model.correlations <= 1 + 1e-8)


def test_linear_cca_rank_collapse_warns():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(50, 1))
    Zx = np.column_stack([z, z, z])  # rank 1
    Zy = rng.normal(size=(50, 3))
    with pytest.warns(UserWarning, match="rank collapse"):
        linear_cca(Zx, Zy, 1e-12, 1e-12, L=3)


def test_linear_cca_above_the_arpack_crossover_matches_dense_svd(monkeypatch):
    import scipy.linalg

    from nkcca import baselines, kcca

    calls = []
    svds = kcca.svds

    def counted_svds(*args, **kwargs):
        calls.append(args[0].shape)
        return svds(*args, **kwargs)

    monkeypatch.setattr(kcca, "svds", counted_svds)
    ds = synthetic_circles(500, seed=3)
    # D = 300 features per view: the whitened cross-covariance is 300 x 300,
    # above the ARPACK crossover of the top-k SVD policy
    Zx = rff_features(make_rff_map(ds.X.shape[1], 300, 1.0, seed=0), ds.X)
    Zy = rff_features(make_rff_map(ds.Y.shape[1], 300, 1.0, seed=1), ds.Y)
    lam, L = 1e-3, 4
    model = linear_cca(Zx, Zy, lam, lam, L)
    assert calls == [(300, 300)]

    n = Zx.shape[0]
    Xc = Zx - Zx.mean(axis=0)
    Yc = Zy - Zy.mean(axis=0)
    isx = baselines._inv_sqrt(Xc.T @ Xc / n, lam)[0]
    isy = baselines._inv_sqrt(Yc.T @ Yc / n, lam)[0]
    U, s, Vt = scipy.linalg.svd(isx @ (Xc.T @ Yc / n) @ isy)
    np.testing.assert_allclose(model.correlations, s[:L], rtol=0,
                               atol=1e-12 * s[0])
    assert np.all(s[:L] - s[1 : L + 1] > 1e-6 * s[0])
    for w, ref in ((model.wx, isx @ U[:, :L]), (model.wy, isy @ Vt[:L].T)):
        for j in range(1, L + 1):
            angle = scipy.linalg.subspace_angles(w[:, :j], ref[:, :j]).max()
            assert angle <= 1e-8


def test_rcca_pipeline_recovers_shared_signal():
    ds = synthetic_circles(400, seed=0)
    test = synthetic_circles(400, seed=1)
    _, proj = rcca_fit(ds.X, ds.Y, 1.0, 1.0, n_features=300,
                       lambda1=1e-3, lambda2=1e-3, L=1, seed=0)
    px, py = proj(test.X, test.Y)
    assert total_correlation(px, py) > 0.3


def test_nystrom_feature_equivalence_hook():
    # linear CCA on the per-view features K S (S^T K S)^(+/2) tracks the
    # column-sampled KCCA solution (loose agreement by construction)
    ds = synthetic_circles(120, seed=2)
    spec = KernelSpec(sigma=1.0)
    o1 = KernelColumns.from_data(spec, ds.X)
    o2 = KernelColumns.from_data(spec, ds.Y)
    n, m, lam, L = 120, 40, 1e-5, 2
    dist = SamplingDistribution(p=np.full(n, 1.0 / n))
    p1 = sample(dist, m, seed=3)
    p2 = sample(dist, m, seed=4)
    entry = nkcca_fit(o1, o2, p1, p2, lam, lam, L=L, checkpoints=[m])[0]

    import scipy.linalg

    def features(oracle, plan):
        C = np.column_stack([oracle.column(int(i)) for i in plan.indices])
        C = C * plan.weights
        W = C[plan.indices, :] * plan.weights[:, None]
        e, V = scipy.linalg.eigh(0.5 * (W + W.T))
        tol = e.max() * len(e) * np.finfo(float).eps
        inv_sqrt = np.where(e > tol, 1.0 / np.sqrt(np.where(e > tol, e, 1)), 0.0)
        return C @ (V * inv_sqrt) @ V.T

    lin = linear_cca(features(o1, p1), features(o2, p2), lam, lam, L=L)
    assert abs(lin.correlations.sum() - entry.rho_tilde.sum()) <= 0.05
