import numpy as np
import pytest
import scipy.linalg
from conftest import centering_matrix, random_psd

from nkcca.datasets import synthetic_circles
from nkcca.kcca import (_nystrom_coefficients, exact_kcca, load_model,
                        nkcca_coefficients, nkcca_fit, nkcca_fit_direct,
                        project, project_many, save_model, t_error_norm,
                        total_correlation)
from nkcca.kernels import KernelColumns, KernelSpec, gram
from nkcca.leverage import SamplingDistribution
from nkcca.nystrom import chol_solve
from nkcca.sampling import SamplingPlan, full_plan, sample, unit_plan


def two_view_problem(n=24, seed=0, sigma=1.0, noise=0.25):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    Y = X + noise * rng.normal(size=(n, 2))
    spec = KernelSpec(sigma=sigma)
    o1 = KernelColumns.from_data(spec, X)
    o2 = KernelColumns.from_data(spec, Y)
    return gram(spec, X), gram(spec, Y), o1, o2, X, Y


def dense_t(K1, K2, lam1, lam2):
    n = K1.shape[0]
    H = centering_matrix(n)
    K1c, K2c = H @ K1 @ H, H @ K2 @ H
    A1 = np.linalg.solve(K1c + n * lam1 * np.eye(n), K1c)
    A2 = np.linalg.solve(K2c + n * lam2 * np.eye(n), K2c)
    return A1 @ A2


def dense_t_tilde(K1, K2, plan1, plan2, lam1, lam2, n):
    def low_rank(K, plan):
        S = np.zeros((n, plan.m))
        S[plan.indices, np.arange(plan.m)] = plan.weights
        W = S.T @ K @ S
        return K @ S @ np.linalg.pinv(W) @ S.T @ K

    return dense_t(low_rank(K1, plan1), low_rank(K2, plan2), lam1, lam2)


# --- exact solver -------------------------------------------------------------

def test_exact_symmetric_views_closed_form():
    rng = np.random.default_rng(1)
    K = random_psd(rng, 10)
    lam = 0.05
    model = exact_kcca(K, K, lam, lam, L=1)
    Kc = centering_matrix(10) @ K @ centering_matrix(10)
    sig1 = np.linalg.eigvalsh(Kc)[-1]
    expected = (sig1 / (sig1 + 10 * lam)) ** 2
    assert model.rho[0] == pytest.approx(expected, abs=1e-10)


def test_exact_large_lambda_kills_correlation():
    K1, K2, *_ = two_view_problem(seed=2)
    model = exact_kcca(K1, K2, 1e6, 1e6, L=2)
    assert np.all(model.rho < 1e-9)


def test_exact_matches_block_eigensystem_oracle():
    # the concatenated vectors [alpha'; beta'] are eigenvectors of the
    # 2N x 2N block system with eigenvalues +-sigma_i
    K1, K2, *_ = two_view_problem(n=6, seed=3)
    lam1, lam2 = 0.02, 0.07
    model = exact_kcca(K1, K2, lam1, lam2, L=3)
    T = dense_t(K1.entries, K2.entries, lam1, lam2)
    C = np.block([[np.zeros((6, 6)), T], [T.T, np.zeros((6, 6))]])
    evals, evecs = scipy.linalg.eigh(C)
    np.testing.assert_allclose(model.rho, evals[::-1][:3], atol=1e-10)
    for l in range(3):
        w = evecs[:, -(l + 1)] * np.sqrt(2.0)  # unit halves
        ap, bp = w[:6], w[6:]
        if ap @ model.alpha_prime[:, l] < 0:
            ap, bp = -ap, -bp
        np.testing.assert_allclose(model.alpha_prime[:, l], ap, atol=1e-8)
        np.testing.assert_allclose(model.beta_prime[:, l], bp, atol=1e-8)


def test_exact_coefficient_relation():
    K1, K2, *_ = two_view_problem(n=12, seed=4)
    lam1, lam2 = 0.03, 0.01
    model = exact_kcca(K1, K2, lam1, lam2, L=2)
    n = 12
    H = centering_matrix(n)
    K1c = H @ K1.entries @ H
    expected = np.sqrt(n) * np.linalg.solve(K1c + n * lam1 * np.eye(n),
                                            model.alpha_prime)
    np.testing.assert_allclose(model.alpha, expected, atol=1e-8)


def test_exact_model_invariants():
    K1, K2, *_ = two_view_problem(n=15, seed=5)
    model = exact_kcca(K1, K2, 1e-3, 1e-3, L=4)
    np.testing.assert_allclose(np.linalg.norm(model.alpha_prime, axis=0),
                               np.ones(4), atol=1e-8)
    assert np.all(np.diff(model.rho) <= 1e-12)
    assert np.all(model.rho >= -1e-12) and np.all(model.rho <= 1 + 1e-8)
    assert model.sigma_next <= model.rho[-1] + 1e-12


def test_exact_validation():
    K1, K2, *_ = two_view_problem(n=8)
    with pytest.raises(ValueError):
        exact_kcca(K1, K2, 0.0, 0.1)
    with pytest.raises(ValueError):
        exact_kcca(K1, K2, 0.1, 0.1, L=9)
    with pytest.raises(ValueError):
        exact_kcca(K1, K2, 0.1, 0.1, dense_limit=4)


# --- Nystrom solver -----------------------------------------------------------

def test_nkcca_full_sampling_equals_exact():
    K1, K2, o1, o2, _, _ = two_view_problem(n=18, seed=6)
    lam = 2e-3
    exact = exact_kcca(K1, K2, lam, lam, L=3)
    plan = full_plan(18)
    entries = nkcca_fit(o1, o2, plan, plan, lam, lam, L=3, checkpoints=[18])
    np.testing.assert_allclose(entries[0].rho_tilde, exact.rho, atol=1e-8)


def test_nkcca_checkpoint_matches_restart():
    K1, K2, o1, o2, _, _ = two_view_problem(n=20, seed=7)
    lam = 1e-3
    dist = SamplingDistribution(p=np.full(20, 0.05))
    p1 = sample(dist, 10, seed=1)
    p2 = sample(dist, 10, seed=2)
    entries = nkcca_fit(o1, o2, p1, p2, lam, lam, L=2, checkpoints=[2, 4, 10])
    for e in entries:
        direct = nkcca_fit_direct(o1, o2, p1, p2, lam, lam, L=2,
                                  m1=e.m1, m2=e.m2)
        np.testing.assert_allclose(e.rho_tilde, direct.rho_tilde, atol=1e-8)
        np.testing.assert_allclose(e.model.alpha, direct.model.alpha, atol=1e-7)


def test_nkcca_single_landmark_matches_dense_oracle():
    K1, K2, o1, o2, _, _ = two_view_problem(n=14, seed=8)
    lam1, lam2 = 5e-3, 2e-3
    p1 = unit_plan([3])
    p2 = unit_plan([9])
    entries = nkcca_fit(o1, o2, p1, p2, lam1, lam2, L=1, checkpoints=[1])
    T_tilde = dense_t_tilde(K1.entries, K2.entries, p1, p2, lam1, lam2, 14)
    expected = scipy.linalg.svdvals(T_tilde)[0]
    assert entries[0].rho_tilde[0] == pytest.approx(expected, abs=1e-10)


def test_nkcca_rho_in_unit_interval():
    K1, K2, o1, o2, _, _ = two_view_problem(n=25, seed=9)
    dist = SamplingDistribution(p=np.full(25, 0.04))
    p1 = sample(dist, 15, seed=3)
    p2 = sample(dist, 15, seed=4)
    entries = nkcca_fit(o1, o2, p1, p2, 1e-4, 1e-4, L=5,
                        checkpoints=[5, 10, 15])
    for e in entries:
        assert np.all(e.rho_tilde >= -1e-12)
        assert np.all(e.rho_tilde <= 1.0 + 1e-8)


def test_nkcca_weyl_consistency():
    K1, K2, o1, o2, _, _ = two_view_problem(n=16, seed=10)
    lam = 1e-3
    exact = exact_kcca(K1, K2, lam, lam, L=1)
    dist = SamplingDistribution(p=np.full(16, 1 / 16))
    p1 = sample(dist, 8, seed=5)
    p2 = sample(dist, 8, seed=6)
    entries = nkcca_fit(o1, o2, p1, p2, lam, lam, L=1, checkpoints=[8])
    T = dense_t(K1.entries, K2.entries, lam, lam)
    T_tilde = dense_t_tilde(K1.entries, K2.entries, p1, p2, lam, lam, 16)
    t_err = np.linalg.norm(T - T_tilde, 2)
    assert abs(exact.rho[0] - entries[0].rho_tilde[0]) <= t_err + 1e-8


def test_nkcca_weight_scaling_invariance():
    # multiplying all of one view's landmark weights by c > 0 leaves the
    # solution unchanged (up to sign, which the convention fixes)
    K1, K2, o1, o2, _, _ = two_view_problem(n=20, seed=11)
    lam = 1e-3
    dist = SamplingDistribution(p=np.full(20, 0.05))
    p1 = sample(dist, 9, seed=7)
    p2 = sample(dist, 9, seed=8)
    scaled = SamplingPlan(indices=p1.indices, p_sampled=p1.p_sampled / 9.0)
    np.testing.assert_allclose(scaled.scale, 3.0 * p1.scale)
    a = nkcca_fit(o1, o2, p1, p2, lam, lam, L=2, checkpoints=[9])[0]
    b = nkcca_fit(o1, o2, scaled, p2, lam, lam, L=2, checkpoints=[9])[0]
    np.testing.assert_allclose(a.rho_tilde, b.rho_tilde, atol=1e-9)
    np.testing.assert_allclose(a.model.alpha_prime, b.model.alpha_prime,
                               atol=1e-8)


def test_nkcca_sign_convention():
    K1, K2, o1, o2, _, _ = two_view_problem(n=22, seed=12)
    dist = SamplingDistribution(p=np.full(22, 1 / 22))
    p1 = sample(dist, 12, seed=9)
    p2 = sample(dist, 12, seed=10)
    e = nkcca_fit(o1, o2, p1, p2, 1e-3, 1e-3, L=3, checkpoints=[12])[0]
    for col in e.model.alpha_prime.T:
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        assert col[nz[0]] > 0


def test_nkcca_duplicate_draws_are_skipped_and_agree_with_restart():
    K1, K2, o1, o2, _, _ = two_view_problem(n=12, seed=13)
    plan = unit_plan([4, 4, 7, 2, 7, 0])
    e = nkcca_fit(o1, o2, plan, plan, 1e-3, 1e-3, L=1, checkpoints=[6])[0]
    assert e.model.landmarks1.skipped == [1, 4]
    np.testing.assert_array_equal(e.model.landmarks1.indices, [4, 7, 2, 0])
    direct = nkcca_fit_direct(o1, o2, plan, plan, 1e-3, 1e-3, L=1)
    np.testing.assert_allclose(e.rho_tilde, direct.rho_tilde, atol=1e-10)


def test_nkcca_incremental_times_are_recorded_and_monotone():
    K1, K2, o1, o2, _, _ = two_view_problem(n=30, seed=14)
    dist = SamplingDistribution(p=np.full(30, 1 / 30))
    p1 = sample(dist, 20, seed=11)
    p2 = sample(dist, 20, seed=12)
    entries = nkcca_fit(o1, o2, p1, p2, 1e-3, 1e-3, L=1,
                        checkpoints=[5, 10, 20])
    times = [e.wall_time_incremental for e in entries]
    assert all(t is not None and t >= 0 for t in times)
    assert times == sorted(times)


def test_nkcca_pads_when_rank_below_l():
    K1, K2, o1, o2, _, _ = two_view_problem(n=10, seed=27)
    plan = unit_plan([2, 7])
    e = nkcca_fit(o1, o2, plan, plan, 1e-3, 1e-3, L=5, checkpoints=[2])[0]
    assert e.rho_tilde.shape == (5,)
    assert np.all(e.rho_tilde[2:] == 0)
    assert np.all(e.model.alpha_prime[:, 2:] == 0)


def test_nkcca_per_view_checkpoint_pairs():
    K1, K2, o1, o2, _, _ = two_view_problem(n=16, seed=28)
    dist = SamplingDistribution(p=np.full(16, 1 / 16))
    p1 = sample(dist, 10, seed=17)
    p2 = sample(dist, 10, seed=18)
    entries = nkcca_fit(o1, o2, p1, p2, 1e-3, 1e-3, L=1,
                        checkpoints=[(4, 6), (10, 10)])
    assert (entries[0].m1, entries[0].m2) == (4, 6)
    direct = nkcca_fit_direct(o1, o2, p1, p2, 1e-3, 1e-3, L=1, m1=4, m2=6)
    np.testing.assert_allclose(entries[0].rho_tilde, direct.rho_tilde,
                               atol=1e-10)


def _random_upper(rng, m):
    R = np.triu(rng.normal(size=(m, m)))
    R[np.diag_indices(m)] = 1.0 + rng.uniform(size=m)
    return R


def test_bordered_m_and_k_tilde_match_scratch_solves():
    from nkcca.kcca import _border_k_tilde, _border_m

    rng = np.random.default_rng(40)
    R1, R2 = _random_upper(rng, 11), _random_upper(rng, 9)
    P = np.triu(rng.normal(size=(11, 11)))[:10]   # one dependent column
    core = rng.normal(size=(11, 9))
    M = np.zeros((0, 0))
    K = np.zeros((0, 0))
    # grow both views, view 1 only, view 2 only, then both again
    for k1, k2, r in ((3, 4, 3), (6, 4, 6), (6, 7, 6), (11, 9, 10)):
        M = _border_m(M, P[:r, :k1], R1[:k1, :k1])
        K = _border_k_tilde(K, core[:k1, :k2], R1[:k1, :k1], R2[:k2, :k2])
        M_ref = scipy.linalg.solve_triangular(R1[:k1, :k1], P[:r, :k1].T,
                                              trans="T").T
        K_ref = np.linalg.solve(R1[:k1, :k1].T, core[:k1, :k2]) @ \
            np.linalg.inv(R2[:k2, :k2])
        np.testing.assert_allclose(M, M_ref, atol=1e-10)
        np.testing.assert_allclose(K, K_ref, atol=1e-10)


def test_live_m_factor_matches_factor_solves():
    # M M^T = P R^-1 R^-T P^T = P G^-1 P^T at every checkpoint
    K1, K2, o1, o2, _, _ = two_view_problem(n=30, seed=41)
    dist = SamplingDistribution(p=np.full(30, 1 / 30))
    p1 = sample(dist, 24, seed=41)
    p2 = sample(dist, 24, seed=42)
    checked = []

    def hook(entry, f1, f2, core):
        for f in (f1, f2):
            np.testing.assert_allclose(f.M @ f.M.T, f.P @ f.solve(f.P.T),
                                       atol=1e-9)
        checked.append(entry.m1)

    nkcca_fit(o1, o2, p1, p2, 1e-3, 1e-3, L=1,
              checkpoints=[(4, 6), (12, 6), (12, 18), (24, 24)],
              on_checkpoint=hook)
    assert checked == [4, 12, 12, 24]


def test_eager_fit_releases_factor_context():
    K1, K2, o1, o2, _, _ = two_view_problem(n=14, seed=43)
    plan = unit_plan([0, 3, 5, 9])
    eager = nkcca_fit(o1, o2, plan, plan, 1e-3, 1e-3, L=1, checkpoints=[2, 4])
    lazy = nkcca_fit(o1, o2, plan, plan, 1e-3, 1e-3, L=1, checkpoints=[2, 4],
                     compute_coefficients=False)
    assert all(e._coef_ctx is None for e in eager)
    assert all(e._coef_ctx is not None for e in lazy)


# --- coefficients -------------------------------------------------------------

def test_coefficients_zero_kernel_limit():
    # empty landmark set: (Lc + N lam I)^-1 = I / (N lam)
    rng = np.random.default_rng(15)
    ap = rng.normal(size=(9, 2))
    out = _nystrom_coefficients(ap, None, None, n=9, lam=0.2)
    np.testing.assert_allclose(out, ap / (np.sqrt(9) * 0.2), atol=1e-14)


def test_coefficients_nullspace_probe():
    # alpha' orthogonal to range(A) leaves only the identity term
    K1, K2, o1, o2, _, _ = two_view_problem(n=10, seed=16)
    plan = unit_plan([1, 6])
    # the lazy path keeps the factorization context on the entry
    entries = nkcca_fit(o1, o2, plan, plan, 0.05, 0.05, L=1, checkpoints=[2],
                        compute_coefficients=False)
    ctx = entries[0]._coef_ctx
    chol1 = ctx[0]
    A = chol1.A
    probe = np.linalg.qr(np.column_stack([A, np.ones((10, 1)),
                                          np.eye(10)[:, :3]]))[0][:, -1]
    assert np.abs(A.T @ probe).max() < 1e-10
    out = _nystrom_coefficients(probe[:, None], A,
                                lambda B: chol_solve(chol1.R_prefix(2), B),
                                n=10, lam=0.05)
    np.testing.assert_allclose(out[:, 0], probe / (np.sqrt(10) * 0.05),
                               atol=1e-10)


def test_coefficients_full_rank_match_exact_formula():
    K1, K2, o1, o2, _, _ = two_view_problem(n=16, seed=17)
    lam = 1e-2
    plan = full_plan(16)
    e = nkcca_fit(o1, o2, plan, plan, lam, lam, L=2, checkpoints=[16])[0]
    n = 16
    H = centering_matrix(n)
    K1c = H @ K1.entries @ H
    expected = np.sqrt(n) * np.linalg.solve(K1c + n * lam * np.eye(n),
                                            e.model.alpha_prime)
    np.testing.assert_allclose(e.model.alpha, expected, atol=1e-7)


def test_coefficients_lazy_computation():
    K1, K2, o1, o2, _, _ = two_view_problem(n=14, seed=18)
    dist = SamplingDistribution(p=np.full(14, 1 / 14))
    p1 = sample(dist, 8, seed=13)
    p2 = sample(dist, 8, seed=14)
    lazy = nkcca_fit(o1, o2, p1, p2, 1e-3, 1e-3, L=1, checkpoints=[4, 8],
                     compute_coefficients=False)
    eager = nkcca_fit(o1, o2, p1, p2, 1e-3, 1e-3, L=1, checkpoints=[4, 8])
    assert lazy[0].model.alpha is None
    for le, ee in zip(lazy, eager):
        nkcca_coefficients(le)
        np.testing.assert_allclose(le.model.alpha, ee.model.alpha, atol=1e-9)
        np.testing.assert_allclose(le.model.beta, ee.model.beta, atol=1e-9)


# --- projection and correlation ------------------------------------------------

def test_project_training_point_matches_centered_gram_up_to_constant():
    K1, K2, o1, o2, X, Y = two_view_problem(n=12, seed=19)
    model = exact_kcca(K1, K2, 1e-2, 1e-2, L=1, view1=o1, view2=o2)
    H = centering_matrix(12)
    dense = (H @ K1.entries @ H @ model.alpha)[:, 0]
    proj = project_many(model, X, view=1)[:, 0]
    offsets = proj - dense
    assert np.ptp(offsets) < 1e-8  # shared constant across training points


def test_project_zero_coefficients():
    K1, K2, o1, o2, X, _ = two_view_problem(n=9, seed=20)
    model = exact_kcca(K1, K2, 1e-2, 1e-2, L=2, view1=o1, view2=o2)
    model.alpha = np.zeros_like(model.alpha)
    np.testing.assert_array_equal(project(model, X[0], view=1), np.zeros(2))


def test_project_basis_probe_gives_centered_affinity():
    K1, K2, o1, o2, X, _ = two_view_problem(n=10, seed=21)
    model = exact_kcca(K1, K2, 1e-2, 1e-2, L=1, view1=o1, view2=o2)
    j = 4
    model.alpha = np.eye(10)[:, [j]]
    rng = np.random.default_rng(0)
    x_new = rng.normal(size=2)
    k = o1.cross(x_new[None, :])[0]
    assert project(model, x_new, view=1)[0] == pytest.approx(
        k[j] - k.mean(), abs=1e-12)


def test_project_requires_coefficients_and_oracle():
    K1, K2, o1, o2, X, _ = two_view_problem(n=8, seed=22)
    model = exact_kcca(K1, K2, 1e-2, 1e-2, L=1)
    with pytest.raises(ValueError):
        project(model, X[0], view=1)


def test_total_correlation_identical_projections():
    rng = np.random.default_rng(23)
    P = rng.normal(size=(50, 3))
    assert total_correlation(P, P.copy()) == pytest.approx(3.0, abs=1e-12)


def test_total_correlation_scale_invariance():
    rng = np.random.default_rng(24)
    p = rng.normal(size=(40, 1))
    assert total_correlation(p, 2.0 * p) == pytest.approx(1.0, abs=1e-12)


def test_total_correlation_independent_projections_small():
    rng = np.random.default_rng(25)
    n, L = 4000, 2
    tc = total_correlation(rng.normal(size=(n, L)), rng.normal(size=(n, L)))
    assert tc <= 4.0 * L / np.sqrt(n)


def test_total_correlation_zero_variance_dimension():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    y = np.column_stack([np.arange(10.0), np.arange(10.0)])
    assert total_correlation(x, y) == pytest.approx(1.0, abs=1e-12)


# --- serialization --------------------------------------------------------------

def test_model_save_load_round_trip(tmp_path):
    ds = synthetic_circles(40, seed=1)
    spec = KernelSpec(sigma=1.2)
    o1 = KernelColumns.from_data(spec, ds.X)
    o2 = KernelColumns.from_data(spec, ds.Y)
    dist = SamplingDistribution(p=np.full(40, 1 / 40))
    p1 = sample(dist, 20, seed=0)
    p2 = sample(dist, 20, seed=1)
    e = nkcca_fit(o1, o2, p1, p2, 1e-3, 1e-3, L=2, checkpoints=[20])[0]
    path = tmp_path / "model.npz"
    save_model(e.model, path)
    back = load_model(path, X1=ds.X, X2=ds.Y)
    np.testing.assert_array_equal(back.rho, e.model.rho)
    np.testing.assert_array_equal(back.alpha, e.model.alpha)
    np.testing.assert_array_equal(back.landmarks1.indices,
                                  e.model.landmarks1.indices)
    x_new = np.array([0.3, -1.2])
    np.testing.assert_allclose(project(back, x_new, 1),
                               project(e.model, x_new, 1), atol=1e-12)


def test_model_save_load_keeps_skipped_positions(tmp_path):
    ds = synthetic_circles(30, seed=3)
    X, Y = ds.X.copy(), ds.Y.copy()
    # points 5 and 8 coincide in both views: drawing 8 after 5 is a distinct
    # index but an identical column, which the new-mass gate rejects
    X[8], Y[8] = X[5], Y[5]
    spec = KernelSpec(sigma=1.0)
    o1 = KernelColumns.from_data(spec, X)
    o2 = KernelColumns.from_data(spec, Y)
    plan = unit_plan([2, 5, 2, 11, 8, 17, 11, 20])
    e = nkcca_fit(o1, o2, plan, plan, 1e-3, 1e-3, L=1, checkpoints=[8])[0]
    lm = e.model.landmarks1
    assert lm.skipped == [2, 4, 6]            # duplicates at 2 and 6, gate at 4
    np.testing.assert_array_equal(lm.indices, [2, 5, 11, 17, 20])
    path = tmp_path / "model.npz"
    save_model(e.model, path)
    back = load_model(path)
    for tag in ("1", "2"):
        orig = getattr(e.model, f"landmarks{tag}")
        got = getattr(back, f"landmarks{tag}")
        assert got.skipped == orig.skipped
        assert got.draws == orig.draws == len(got.indices) + len(got.skipped)
        np.testing.assert_array_equal(got.indices, orig.indices)


def test_load_model_reads_version_1_records(tmp_path):
    path = tmp_path / "v1.npz"
    np.savez(path, format_version=np.array(1), kind=np.array("nystrom"),
             n=np.array(6), lambda1=np.array(0.1), lambda2=np.array(0.2),
             L=np.array(1), rho=np.array([0.5]),
             alpha_prime=np.ones((6, 1)), beta_prime=np.ones((6, 1)),
             sigma_next=np.array(0.25),
             landmark_indices1=np.array([0, 3]),
             landmark_scale1=np.array([1.0, 1.0]),
             landmark_draws1=np.array(3))
    model = load_model(path)
    assert (model.n, model.lambda2, model.sigma_next) == (6, 0.2, 0.25)
    np.testing.assert_array_equal(model.landmarks1.indices, [0, 3])
    assert model.landmarks1.draws == 3
    assert model.landmarks1.skipped == []
    assert model.landmarks2 is None and model.alpha is None


# --- implicit operator norm ------------------------------------------------------

def test_t_error_norm_matches_dense():
    K1, K2, o1, o2, _, _ = two_view_problem(n=18, seed=26)
    lam = 1e-3
    exact = exact_kcca(K1, K2, lam, lam, L=1, keep_t=True)
    dist = SamplingDistribution(p=np.full(18, 1 / 18))
    p1 = sample(dist, 9, seed=15)
    p2 = sample(dist, 9, seed=16)
    captured = []
    nkcca_fit(o1, o2, p1, p2, lam, lam, L=1, checkpoints=[9],
              on_checkpoint=lambda e, f1, f2, core:
              captured.append(t_error_norm(exact.t_matrix, f1, f2, core)))
    T_tilde = dense_t_tilde(K1.entries, K2.entries, p1, p2, lam, lam, 18)
    expected = np.linalg.norm(exact.t_matrix - T_tilde, 2)
    assert captured[0] == pytest.approx(expected, rel=1e-8)


def test_t_error_norm_arpack_branch_matches_dense():
    # n above the dense cut-off, so the norm comes from ARPACK over the
    # factored operator; the oracle is the stored T of the same checkpoint
    n = 400
    ds = synthetic_circles(n, 0)
    spec = KernelSpec(sigma=0.2)
    o1 = KernelColumns.from_data(spec, ds.X)
    o2 = KernelColumns.from_data(spec, ds.Y)
    lam = 1e-3
    exact = exact_kcca(o1.dense(), o2.dense(), lam, lam, L=1, keep_t=True)
    dist = SamplingDistribution(p=np.full(n, 1 / n))
    p1 = sample(dist, 90, seed=17)
    p2 = sample(dist, 90, seed=18)
    captured = []

    def measure(entry, f1, f2, core):
        captured.append((t_error_norm(exact.t_matrix, f1, f2, core),
                         np.linalg.norm(exact.t_matrix - entry.model.t_matrix,
                                        2)))

    nkcca_fit(o1, o2, p1, p2, lam, lam, L=1, checkpoints=[30, 60, 90],
              keep_t=True, on_checkpoint=measure)
    assert len(captured) == 3
    for got, expected in captured:
        assert got == pytest.approx(expected, rel=1e-8)
