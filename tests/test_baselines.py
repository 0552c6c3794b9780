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

    from nkcca import kcca

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

    def inv_sqrt(C):
        # the symmetric whitening (C + lam I)^(-1/2) from an eigensolve
        e, V = scipy.linalg.eigh(C)
        return (V / np.sqrt(np.maximum(e, 0.0) + lam)) @ V.T

    n = Zx.shape[0]
    Xc = Zx - Zx.mean(axis=0)
    Yc = Zy - Zy.mean(axis=0)
    isx = inv_sqrt(Xc.T @ Xc / n)
    isy = inv_sqrt(Yc.T @ Yc / n)
    U, s, Vt = scipy.linalg.svd(isx @ (Xc.T @ Yc / n) @ isy)
    np.testing.assert_allclose(model.correlations, s[:L], rtol=0,
                               atol=1e-12 * s[0])
    assert np.all(s[:L] - s[1 : L + 1] > 1e-6 * s[0])
    for w, ref in ((model.wx, isx @ U[:, :L]), (model.wy, isy @ Vt[:L].T)):
        for j in range(1, L + 1):
            angle = scipy.linalg.subspace_angles(w[:, :j], ref[:, :j]).max()
            assert angle <= 1e-8


@pytest.mark.parametrize("lam", [0.0, -1e-3, np.inf, np.nan])
@pytest.mark.parametrize("view", [1, 2])
def test_linear_cca_rejects_a_bad_regularizer(view, lam):
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(30, 3))
    lams = (lam, 1e-3) if view == 1 else (1e-3, lam)
    with pytest.raises(ValueError, match=f"^lambda{view} = .* must be "
                                         "positive and finite"):
        linear_cca(Z, Z, *lams, L=1)


def test_linear_cca_names_a_regularizer_below_rounding():
    # D = 40 features of 20 points: Z^T Z / N has rank 19, and a shift of
    # 1e-300 leaves it singular in double precision
    rng = np.random.default_rng(8)
    Zx, Zy = rng.normal(size=(20, 40)), rng.normal(size=(20, 3))
    with pytest.raises(np.linalg.LinAlgError, match="lambda1 = 1e-300"):
        linear_cca(Zx, Zy, 1e-300, 1e-3, L=1)


@pytest.mark.parametrize("arg, value, match", [
    pytest.param("lambda1", 0.0, "^lambda1 = ", id="lambda1-zero"),
    pytest.param("lambda2", np.inf, "^lambda2 = ", id="lambda2-inf"),
    pytest.param("n_features", 0, "^n_features = 0 must be at least 1",
                 id="n_features-zero"),
    pytest.param("n_features", -3, "^n_features = -3 must be at least 1",
                 id="n_features-negative"),
    pytest.param("sigma1", np.inf, "^sigma = inf", id="sigma1-inf"),
    pytest.param("sigma2", 0.0, "^sigma = 0", id="sigma2-zero"),
    pytest.param("sigma1", 1e-160, "^sigma = 1e-160", id="sigma1-underflow"),
])
def test_rcca_fit_rejects_bad_arguments(arg, value, match):
    ds = synthetic_circles(40, seed=0)
    kwargs = dict(sigma1=1.0, sigma2=1.0, n_features=20, lambda1=1e-3,
                  lambda2=1e-3, L=1, seed=0)
    kwargs[arg] = value
    with pytest.raises(ValueError, match=match):
        rcca_fit(ds.X, ds.Y, **kwargs)


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
