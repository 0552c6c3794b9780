import numpy as np
import pytest
import scipy.linalg
from conftest import kernel_eval, traced_peak

from nkcca import baselines
from nkcca.baselines import (linear_cca, make_rff_map, rcca_fit, rff_features)
from nkcca.datasets import synthetic_circles
from nkcca.kcca import _top_svd, nkcca_fit, total_correlation
from nkcca.kernels import KernelColumns, KernelSpec
from nkcca.leverage import SamplingDistribution
from nkcca.nystrom import solve_upper
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


def test_rff_features_are_bitwise_the_out_of_place_expression():
    rng = np.random.default_rng(9)
    rff = make_rff_map(3, 300, sigma=0.7, seed=2)
    for X in (rng.normal(size=(500, 3)),
              np.asfortranarray(rng.normal(size=(40, 3)))):
        ref = (np.sqrt(2.0 / 300)
               * np.cos(X @ rff.frequencies.T + rff.phases))
        np.testing.assert_array_equal(rff_features(rff, X), ref)


def test_rff_features_hold_one_buffer_the_size_of_their_result():
    X = np.random.default_rng(10).normal(size=(2000, 2))
    rff = make_rff_map(2, 500, sigma=1.0, seed=0)
    assert traced_peak(rff_features, rff, X) <= 1.1 * 8 * 2000 * 500


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


def _out_of_place_linear_cca(Zx, Zy, lam1, lam2, L):
    """linear_cca's correlations and weights, every view centered in a copy
    and every covariance formed from it (no rank-collapse handling)."""
    n = Zx.shape[0]
    Xc, Yc = Zx - Zx.mean(axis=0), Zy - Zy.mean(axis=0)
    Rx = scipy.linalg.cholesky(Xc.T @ Xc / n + lam1 * np.eye(Zx.shape[1]))
    Ry = scipy.linalg.cholesky(Yc.T @ Yc / n + lam2 * np.eye(Zy.shape[1]))
    M = solve_upper(Rx, Xc.T @ Yc / n, trans=True)
    M = solve_upper(Ry, M.T, trans=True).T
    U, s, Vt = _top_svd(M, L)
    return (np.clip(s, 0.0, 1.0), solve_upper(Rx, U),
            solve_upper(Ry, Vt.T))


def test_linear_cca_is_bitwise_the_copying_form_and_leaves_its_inputs():
    ds = synthetic_circles(400, seed=4)
    Zx = rff_features(make_rff_map(2, 60, 1.0, seed=0), ds.X)
    Zy = np.asfortranarray(rff_features(make_rff_map(2, 50, 1.0, seed=1),
                                        ds.Y))
    before = Zx.copy(), Zy.copy()
    model = linear_cca(Zx, Zy, 1e-3, 2e-3, L=3)
    np.testing.assert_array_equal(Zx, before[0])
    np.testing.assert_array_equal(Zy, before[1])
    for got, ref in zip((model.correlations, model.wx, model.wy),
                        _out_of_place_linear_cca(Zx, Zy, 1e-3, 2e-3, 3)):
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("shape", [(30,), (2, 3, 4)])
@pytest.mark.parametrize("name", ["Zx", "Zy"])
def test_linear_cca_rejects_a_view_that_is_not_2d(name, shape):
    # a 1-D vector of n samples was read as 1 sample of n features
    Z = np.random.default_rng(11).normal(size=(30, 2))
    views = {"Zx": Z, "Zy": Z, name: np.ones(shape)}
    with pytest.raises(ValueError, match=f"^{name} must be 2-D \\(samples "
                                         "x features\\)"):
        linear_cca(views["Zx"], views["Zy"], 1e-3, 1e-3, L=1)


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


def test_rcca_fit_and_project_match_the_public_pieces_bitwise():
    # the fit centers its own features in place and project builds one
    # view at a time: both are bitwise linear_cca / transform of features
    ds, test = synthetic_circles(300, seed=0), synthetic_circles(200, seed=1)
    model, project = rcca_fit(ds.X, ds.Y, 0.8, 1.2, n_features=80,
                              lambda1=1e-3, lambda2=1e-3, L=2, seed=5)
    maps = (make_rff_map(2, 80, 0.8, seed=5), make_rff_map(2, 80, 1.2, seed=6))
    ref = linear_cca(rff_features(maps[0], ds.X), rff_features(maps[1], ds.Y),
                     1e-3, 1e-3, L=2)
    for name in ("correlations", "wx", "wy", "mean_x", "mean_y"):
        np.testing.assert_array_equal(getattr(model, name),
                                      getattr(ref, name))
    got = project(test.X, test.Y)
    want = model.transform(rff_features(maps[0], test.X),
                           rff_features(maps[1], test.Y))
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_rcca_fit_and_project_hold_few_feature_buffers():
    # the fit: both centered N x D views beside Cxy and Cxx, each divided
    # by N in place, then one view beside all three covariances (it held
    # five N x D arrays, then 2 N D + 3.03 D^2 doubles with every
    # covariance beside both views); project: one N x D array
    n, D = 2000, 300
    ds = synthetic_circles(n, seed=2)
    kwargs = dict(sigma1=1.0, sigma2=1.0, n_features=D, lambda1=1e-3,
                  lambda2=1e-3, L=2, seed=0)
    assert traced_peak(rcca_fit, ds.X, ds.Y, **kwargs) <= 8 * (2 * n * D
                                                               + 2.1 * D * D)
    _, project = rcca_fit(ds.X, ds.Y, **kwargs)
    assert traced_peak(project, ds.X, ds.Y) <= 1.1 * 8 * n * D


@pytest.mark.parametrize("arg", ["X_train", "Y_train"])
def test_rcca_fit_names_a_non_finite_training_set_before_any_feature(
        monkeypatch, arg):
    ds = synthetic_circles(40, seed=0)
    sets = {"X_train": ds.X.copy(), "Y_train": ds.Y.copy()}
    sets[arg][7, 1] = np.nan
    drawn = []
    monkeypatch.setattr(baselines, "rff_features",
                        lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match=f"^{arg} has non-finite entries"):
        rcca_fit(sets["X_train"], sets["Y_train"], 1.0, 1.0, 20, 1e-3, 1e-3,
                 L=1, seed=0)
    assert drawn == []


def test_rcca_fit_rejects_unpaired_training_sets():
    ds = synthetic_circles(40, seed=0)
    with pytest.raises(ValueError, match="^X_train and Y_train must have as "
                                         "many rows, got 40 and 39"):
        rcca_fit(ds.X, ds.Y[:39], 1.0, 1.0, 20, 1e-3, 1e-3, L=1, seed=0)


def test_rcca_project_rejects_non_finite_and_unpaired_points():
    ds, test = synthetic_circles(40, seed=0), synthetic_circles(12, seed=1)
    _, project = rcca_fit(ds.X, ds.Y, 1.0, 1.0, 20, 1e-3, 1e-3, L=1, seed=0)
    for arg in ("X", "Y"):
        pts = {"X": test.X.copy(), "Y": test.Y.copy()}
        pts[arg][3, 0] = np.nan
        with pytest.raises(ValueError, match=f"^{arg} has non-finite"):
            project(pts["X"], pts["Y"])
    with pytest.raises(ValueError, match="^X and Y must have as many rows, "
                                         "got 10 and 12"):
        project(test.X[:10], test.Y)


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
