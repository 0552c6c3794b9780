import gc
import logging
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from conftest import (assert_same_record_state, center, centering_matrix,
                      full_plan, random_psd, recording, ring_gram,
                      traced_peak, unit_plan)

from nkcca import kcca
from nkcca.datasets import synthetic_circles
from nkcca.kcca import (KccaModel, exact_kcca, load_model, nkcca_coefficients,
                        nkcca_fit, nkcca_fit_direct, project_many, save_model,
                        t_error_norm, total_correlation)
from nkcca.kernels import KernelColumns, KernelSpec, gram
from nkcca.leverage import SamplingDistribution
from nkcca.nystrom import FactorState, chol_append_block, chol_solve
from nkcca.sampling import sample


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
    T = dense_t(K1, K2, lam1, lam2)
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
    K1c = H @ K1 @ H
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


def test_exact_validation(monkeypatch):
    K1, K2, *_ = two_view_problem(n=8)
    with pytest.raises(ValueError):
        exact_kcca(K1, K2, 0.0, 0.1)
    with pytest.raises(ValueError):
        exact_kcca(K1, K2, 0.1, 0.1, L=9)
    monkeypatch.setattr(kcca, "_EXACT_N_LIMIT", 4)
    with pytest.raises(ValueError):
        exact_kcca(K1, K2, 0.1, 0.1)


@pytest.mark.parametrize("order", ["C", "F"])
def test_ridge_projection_spans_its_mirror_blocks(order):
    # n = 300 spans three column blocks of the triangle's mirroring, the
    # last one partial; the argument is only read
    n, lam = 300, 1e-3
    shift = n * lam
    K = np.array(random_psd(np.random.default_rng(12), n, rank=40),
                 order=order)
    expected = np.linalg.inv(K + shift * np.eye(n))
    buf = K.copy(order="K")
    proj = kcca._ridge_projection(buf, lam)
    np.testing.assert_array_equal(buf, K)
    assert not np.shares_memory(proj, buf)
    assert proj.flags.f_contiguous
    np.testing.assert_array_equal(proj, proj.T)
    np.testing.assert_allclose(np.eye(n) - proj, shift * expected, rtol=0,
                               atol=1e-13 * n * shift)
    np.testing.assert_allclose(proj, K @ expected, rtol=0, atol=1e-12 * n)


@pytest.mark.parametrize("order", ["C", "F"])
def test_centered_ridge_projection_centers_in_its_own_buffer(order):
    # centering in the projection's buffer, symmetrized block by block into
    # the triangle the factor reads, gives bitwise the projection of
    # conftest.center's matrix; a Gram that is not exactly symmetric shows a
    # wrong term order or triangle
    n, lam = 300, 1e-3
    rng = np.random.default_rng(13)
    K = random_psd(rng, n, rank=40) + 1e-13 * rng.normal(size=(n, n))
    K = np.array(K, order=order)
    buf = K.copy(order="K")
    proj = kcca._ridge_projection(buf, lam, centered=True)
    np.testing.assert_array_equal(buf, K)
    np.testing.assert_array_equal(proj, kcca._ridge_projection(center(K), lam))


def _dpotri_projection(K, lam):
    """The ridge projection as it was built before the factor moved to
    leverage._inverse_factor: copy (a C-ordered K through its transpose),
    shift, dpotrf, dpotri, mirror the upper triangle."""
    n = K.shape[0]
    P = np.array(K.T if K.flags.c_contiguous else K, order="F")
    P[np.diag_indices(n)] += n * lam
    P = scipy.linalg.cholesky(P, overwrite_a=True)
    P, _ = scipy.linalg.lapack.dpotri(P, overwrite_c=1)
    P = np.triu(P) + np.triu(P, 1).T
    P *= -(n * lam)
    P[np.diag_indices(n)] += 1.0
    return P


def _ridge_inputs():
    rng = np.random.default_rng(14)
    # a ring Gram, exactly symmetric, and a PSD matrix with asymmetric
    # noise, which tells apart the triangles a factor reads
    return {"gram": ring_gram(300, seed=2, sigma=0.3),
            "asymmetric": random_psd(rng, 300, rank=40)
            + 1e-13 * rng.normal(size=(300, 300))}


@pytest.mark.parametrize("centered", [False, True])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("kind", ["gram", "asymmetric"])
def test_ridge_projection_is_bitwise_its_dpotri_form(kind, order, centered):
    # dpotri is dtrtri followed by dlauum, the two calls it now makes
    K = np.array(_ridge_inputs()[kind], order=order)
    lam = 1e-3
    expected = _dpotri_projection(center(K) if centered else K, lam)
    np.testing.assert_array_equal(
        kcca._ridge_projection(K, lam, centered), expected)


@pytest.mark.parametrize("arg", ["K1", "K2"])
def test_exact_kcca_names_a_non_finite_gram(arg):
    K1, K2, *_ = two_view_problem(n=12, seed=3)
    grams = {"K1": K1.copy(), "K2": K2.copy()}
    grams[arg][4, 7] = np.nan
    with pytest.raises(ValueError, match=f"^{arg} has non-finite entries"):
        exact_kcca(grams["K1"], grams["K2"], 1e-2, 1e-2)


def test_ridge_projection_names_a_regularizer_too_small():
    # K has the eigenvalue -1e-3: a shift N lam below it leaves K + N lam I
    # indefinite, and the failure names the matrix and the regularizer
    K = np.diag([2.0, 1.0, -1e-3])
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^K \+ N lambda I is not numerically positive "
                             r"definite at lambda = 0\.0001"):
        kcca._ridge_projection(K, 1e-4)
    assert np.isfinite(kcca._ridge_projection(K, 1e-3)).all()
    # H (-I) H = -H has the eigenvalue -1 (N - 1 times)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^H K1 H \+ N lambda1 I .* lambda1 = 0\.01"):
        exact_kcca(-np.eye(6), np.eye(6), 1e-2, 1e-2)


@pytest.mark.parametrize("lam", [1e-2, 1e-5])
def test_exact_coefficients_match_a_cholesky_solve(lam):
    # alpha = sqrt(N) (alpha' - P1 alpha') / (N lam1) against
    # sqrt(N) (Kc1 + N lam1 I)^-1 alpha' from an independent solve, on the
    # benchmark's ring data
    K1, K2 = ring_gram(300, 0, sigma=0.2), ring_gram(300, 0, sigma=0.2, view=2)
    model = exact_kcca(K1, K2, lam, 2 * lam, L=3)
    n = K1.shape[0]
    H = centering_matrix(n)
    for K, lam_v, prime, coef in ((K1, lam, model.alpha_prime, model.alpha),
                                  (K2, 2 * lam, model.beta_prime,
                                   model.beta)):
        A = H @ K @ H + n * lam_v * np.eye(n)
        expected = np.sqrt(n) * scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(A), prime)
        err = np.linalg.norm(coef - expected) / np.linalg.norm(expected)
        assert err <= 1e-12


@pytest.mark.parametrize("keep_t", [False, True])
@pytest.mark.parametrize("L", [1, 3])
@pytest.mark.parametrize("n", [60, 300])
def test_exact_matches_the_dense_oracle(n, L, keep_t):
    # n = 60 takes _top_svd's full SVD of the formed P1 P2, n = 300 ARPACK
    # on the product of the two factors; T is written over P2 at the end
    K1, K2, *_ = two_view_problem(n=n, seed=n, noise=0.5)
    lam1, lam2 = 1e-2, 2e-2
    model = exact_kcca(K1, K2, lam1, lam2, L=L, keep_t=keep_t)
    T = dense_t(K1, K2, lam1, lam2)
    U, s, Vt = scipy.linalg.svd(T)
    np.testing.assert_allclose(model.rho, s[:L], rtol=0, atol=1e-12)
    assert model.sigma_next == pytest.approx(s[L], abs=1e-12)
    for got, want in ((model.alpha_prime, U[:, :L]),
                      (model.beta_prime, Vt[:L].T)):
        signs = np.sign(np.sum(got * want, axis=0))
        np.testing.assert_allclose(got, want * signs, rtol=0, atol=1e-10)
    H = centering_matrix(n)
    for K, lam, prime, coef in ((K1, lam1, model.alpha_prime, model.alpha),
                                (K2, lam2, model.beta_prime, model.beta)):
        expected = np.sqrt(n) * np.linalg.solve(H @ K @ H + n * lam * np.eye(n),
                                                prime)
        err = np.linalg.norm(coef - expected) / np.linalg.norm(expected)
        assert err <= 1e-12
    if keep_t:
        np.testing.assert_allclose(model.t_matrix, T, rtol=0, atol=1e-14)
    else:
        assert model.t_matrix is None


@pytest.mark.parametrize("n", [60, 300])
def test_exact_constant_view_gives_zero_correlation(n):
    # a constant view centers to 0, so its ridge projection and T are
    # exactly 0: ARPACK would reject that operator, and both branches of
    # _top_svd return LAPACK's zero triplets instead
    _, K2, *_ = two_view_problem(n=n, seed=4)
    model = exact_kcca(np.ones((n, n)), K2, 1e-3, 1e-3, L=3, keep_t=True)
    np.testing.assert_array_equal(model.rho, np.zeros(3))
    assert model.sigma_next == 0.0
    assert not model.t_matrix.any()
    assert np.isfinite(model.alpha).all() and np.isfinite(model.beta).all()


@pytest.mark.parametrize("keep_t", [False, True])
def test_exact_kcca_holds_two_n_by_n_buffers(keep_t):
    # besides the caller's Grams, exact_kcca holds P1 and P2 only (T is
    # written over P2); forming T next to them read 3.13 N^2 doubles
    n = 1000
    K1, K2 = ring_gram(n, 0, sigma=0.2), ring_gram(n, 0, sigma=0.2, view=2)
    peak = traced_peak(exact_kcca, K1, K2, 1e-3, 1e-3, L=1, keep_t=keep_t)
    assert peak <= 2.5 * n * n * 8


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
    T_tilde = dense_t_tilde(K1, K2, p1, p2, lam1, lam2, 14)
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
    T = dense_t(K1, K2, lam, lam)
    T_tilde = dense_t_tilde(K1, K2, p1, p2, lam, lam, 16)
    t_err = np.linalg.norm(T - T_tilde, 2)
    assert abs(exact.rho[0] - entries[0].rho_tilde[0]) <= t_err + 1e-8


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


# each case: the fitter, then the argument that replaces a valid one
_BAD_FIT_ARGS = {
    "negative_rank": ("direct", dict(m1=-3)),
    "zero_rank": ("direct", dict(m1=0)),
    "rank_beyond_plan": ("direct", dict(m2=21)),
    "zero_checkpoint": ("path", dict(checkpoints=[0, 5])),
    "checkpoint_beyond_plan": ("path", dict(checkpoints=[5, 21])),
    "zero_L_restart": ("direct", dict(L=0)),
    "zero_L_path": ("path", dict(L=0)),
    "L_above_N": ("path", dict(L=13)),
    "zero_lambda": ("direct", dict(lambda1=0.0)),
    "negative_lambda": ("path", dict(lambda2=-1.0)),
    # a NaN or infinite regularizer rejected every landmark and gave rho = 0
    "nan_lambda_path": ("path", dict(lambda1=float("nan"))),
    "inf_lambda_path": ("path", dict(lambda2=float("inf"))),
    "nan_lambda_direct": ("direct", dict(lambda2=float("nan"))),
    "inf_lambda_direct": ("direct", dict(lambda1=float("inf"))),
    "sample_counts_differ_restart": ("direct", dict(short_view2=True)),
    "sample_counts_differ_path": ("path", dict(short_view2=True)),
    "plan_beyond_N_restart": ("direct", dict(wide_plan=True)),
    "plan_beyond_N_path": ("path", dict(wide_plan=True)),
}


@pytest.mark.parametrize("fitter,bad", _BAD_FIT_ARGS.values(),
                         ids=list(_BAD_FIT_ARGS))
def test_fitters_reject_invalid_arguments(fitter, bad):
    _, _, o1, o2, _, Y = two_view_problem(n=12, seed=44)
    plan = sample(SamplingDistribution(p=np.full(12, 1 / 12)), 20, seed=44)
    args = dict(lambda1=1e-3, lambda2=1e-3, L=1)
    if fitter == "path":
        fit = nkcca_fit
        args["checkpoints"] = [5, 20]
    else:
        fit = nkcca_fit_direct
    fit(o1, o2, plan, plan, **args)   # the valid arguments fit
    bad = dict(bad)
    if bad.pop("short_view2", False):
        o2 = KernelColumns.from_data(KernelSpec(sigma=1.0), Y[:11])
    if bad.pop("wide_plan", False):
        plan = unit_plan(np.arange(20))
    with pytest.raises(ValueError):
        fit(o1, o2, plan, plan, **(args | bad))


@pytest.mark.parametrize("fitter", ["path", "direct"])
def test_fitters_name_the_out_of_range_plan(fitter):
    # the one plan-range check of the package names the argument
    _, _, o1, o2, _, _ = two_view_problem(n=12, seed=44)
    plan1, plan2 = unit_plan(np.arange(12)), unit_plan([3, 12, 5])
    with pytest.raises(ValueError, match=r"^plan2 has indices outside "
                                         r"\[0, 12\)$"):
        if fitter == "path":
            nkcca_fit(o1, o2, plan1, plan2, 1e-3, 1e-3, 1, [3])
        else:
            nkcca_fit_direct(o1, o2, plan1, plan2, 1e-3, 1e-3, 1)


def test_bordered_t_hat_matches_scratch_solves():
    from nkcca.kcca import _border_t_hat, _border_x

    rng = np.random.default_rng(40)
    R1, R2 = _random_upper(rng, 11), _random_upper(rng, 9)
    P = np.triu(rng.normal(size=(11, 11)))[:10]   # one dependent column
    P2 = np.triu(rng.normal(size=(9, 9)))
    Q1 = np.linalg.qr(rng.normal(size=(20, 10)))[0]
    Q2 = np.linalg.qr(rng.normal(size=(20, 9)))[0]
    # the landmark columns the factors describe: A = Q P per view
    A1, A2 = Q1 @ P, Q2 @ P2
    core = A1.T @ A2
    X = T = np.zeros((0, 0))
    k10 = k20 = 0
    # grow both views, view 1 only, view 2 only, then both again
    for k1, k2, r in ((3, 4, 3), (6, 4, 6), (6, 7, 6), (11, 9, 10)):
        # M = P R^-1 per view from scratch: R^T M^T = P^T
        M1 = scipy.linalg.solve_triangular(R1[:k1, :k1], P[:r, :k1].T,
                                           trans="T").T
        M2 = scipy.linalg.solve_triangular(R2[:k2, :k2], P2[:k2, :k2].T,
                                           trans="T").T
        X = _border_x(X, Q1[:, :r], Q2[:, :k2])
        T = _border_t_hat(T, M1, X, M2, k10, k20)
        K_ref = np.linalg.solve(R1[:k1, :k1].T, core[:k1, :k2]) @ \
            np.linalg.inv(R2[:k2, :k2])
        np.testing.assert_allclose(T, M1 @ K_ref @ M2.T, atol=1e-10)
        k10, k20 = k1, k2


def test_live_m_factor_matches_factor_solves():
    # M M^T = P R^-1 R^-T P^T = P G^-1 P^T at every checkpoint
    K1, K2, o1, o2, _, _ = two_view_problem(n=30, seed=41)
    dist = SamplingDistribution(p=np.full(30, 1 / 30))
    p1 = sample(dist, 24, seed=41)
    p2 = sample(dist, 24, seed=42)
    states, checked = [], []

    def hook(entry, Q1, Q2, T_hat):
        for v in states:
            P = v.factor.P
            M = v.factor.M
            np.testing.assert_allclose(M @ M.T,
                                       P @ chol_solve(v.factor.R, P.T),
                                       atol=1e-9)
        checked.append(entry.m1)

    with mock.patch.object(kcca, "_ViewState",
                           recording(kcca._ViewState, states)):
        nkcca_fit(o1, o2, p1, p2, 1e-3, 1e-3, L=1,
                  checkpoints=[(4, 6), (12, 6), (12, 18), (24, 24)],
                  on_checkpoint=hook)
    assert len(states) == 2
    assert checked == [4, 12, 12, 24]


def test_q_stays_in_the_centered_subspace():
    # the landmark columns are centered, so Q^T 1 = 0; without centering
    # each new direction it grew to 1e-8 sqrt(N) on this path
    n = 600
    ds = synthetic_circles(n, 0)
    spec = KernelSpec(sigma=0.3)
    o1 = KernelColumns.from_data(spec, ds.X)
    o2 = KernelColumns.from_data(spec, ds.Y)
    dist = SamplingDistribution(p=np.full(n, 1 / n))
    drift = []

    def hook(entry, Q1, Q2, T_hat):
        for Q in (Q1, Q2):
            drift.append(np.linalg.norm(Q.T @ np.ones(n)))
            np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]),
                                       rtol=0, atol=1e-12)

    nkcca_fit(o1, o2, sample(dist, 300, seed=1), sample(dist, 300, seed=2),
              1e-3, 1e-3, L=1, checkpoints=range(50, 301, 50),
              on_checkpoint=hook)
    assert len(drift) == 12 and max(drift) <= 1e-12 * np.sqrt(n)


def test_a_kept_checkpoint_basis_outlives_the_fit():
    # Q1 is a view of the fit's factor buffer: keeping it keeps that
    # buffer's memory after nkcca_fit returns and frees its factor states
    n = 200
    ds = synthetic_circles(n, 1)
    spec = KernelSpec(sigma=0.3)
    dist = SamplingDistribution(p=np.full(n, 1 / n))
    kept = []
    nkcca_fit(KernelColumns.from_data(spec, ds.X),
              KernelColumns.from_data(spec, ds.Y), sample(dist, 60, seed=1),
              sample(dist, 60, seed=2), 1e-3, 1e-3, L=1,
              checkpoints=[30, 60],
              on_checkpoint=lambda e, Q1, Q2, T_hat:
              kept.append((Q1, Q1.copy())))
    gc.collect()
    reuse = [np.full((n, 60), np.nan) for _ in range(20)]
    assert len(reuse) == 20 and len(kept) == 2
    for Q1, expected in kept:
        np.testing.assert_array_equal(Q1, expected)


# --- coefficients -------------------------------------------------------------

def _nystrom_alpha(ap, state, n, lam):
    """nkcca_coefficients' alpha for the factor state of view 1."""
    model = KccaModel(kind="nystrom", n=n, lambda1=lam, lambda2=lam,
                      L=ap.shape[1], rho=np.zeros(ap.shape[1]),
                      alpha_prime=ap, beta_prime=ap)
    return nkcca_coefficients(model, state.Q, state.M, state.Q, state.M).alpha


def test_coefficients_zero_kernel_limit():
    # empty landmark set: (Lc + N lam I)^-1 = I / (N lam)
    rng = np.random.default_rng(15)
    ap = rng.normal(size=(9, 2))
    state = FactorState(9, 0.2, capacity=0)
    out = _nystrom_alpha(ap, state, n=9, lam=0.2)
    np.testing.assert_allclose(out, ap / (np.sqrt(9) * 0.2), atol=1e-14)


def test_coefficients_nullspace_probe():
    # alpha' orthogonal to range(A) leaves only the identity term
    K1, K2, o1, o2, _, _ = two_view_problem(n=10, seed=16)
    # the factor state of a fit on landmarks 1 and 6
    chol1 = FactorState(10, 0.05, capacity=2)
    assert chol_append_block(chol1, [1, 6], o1.columns(np.array([1, 6]))) \
        == [0, 1]
    A = chol1.Q @ chol1.P
    probe = np.linalg.qr(np.column_stack([A, np.ones((10, 1)),
                                          np.eye(10)[:, :3]]))[0][:, -1]
    assert np.abs(A.T @ probe).max() < 1e-10
    out = _nystrom_alpha(probe[:, None], chol1, n=10, lam=0.05)
    np.testing.assert_allclose(out[:, 0], probe / (np.sqrt(10) * 0.05),
                               atol=1e-10)


def test_coefficients_full_rank_match_exact_formula():
    K1, K2, o1, o2, _, _ = two_view_problem(n=16, seed=17)
    lam = 1e-2
    plan = full_plan(16)
    e = nkcca_fit(o1, o2, plan, plan, lam, lam, L=2, checkpoints=[16])[0]
    n = 16
    H = centering_matrix(n)
    K1c = H @ K1 @ H
    expected = np.sqrt(n) * np.linalg.solve(K1c + n * lam * np.eye(n),
                                            e.model.alpha_prime)
    np.testing.assert_allclose(e.model.alpha, expected, atol=1e-7)


# --- projection and correlation ------------------------------------------------

def test_project_training_point_matches_centered_gram_up_to_constant():
    K1, K2, o1, o2, X, Y = two_view_problem(n=12, seed=19)
    model = exact_kcca(K1, K2, 1e-2, 1e-2, L=1, view1=o1, view2=o2)
    H = centering_matrix(12)
    dense = (H @ K1 @ H @ model.alpha)[:, 0]
    proj = project_many(model, X, view=1)[:, 0]
    offsets = proj - dense
    assert np.ptp(offsets) < 1e-8  # shared constant across training points


def test_project_in_row_chunks_matches_one_block():
    # a budget of 5 x N entries splits 12 new points into chunks of 5, 5, 2
    K1, K2, o1, o2, X, _ = two_view_problem(n=12, seed=19)
    model = exact_kcca(K1, K2, 1e-2, 1e-2, L=2, view1=o1, view2=o2)
    X_new = np.random.default_rng(1).normal(size=(12, 2))
    K_new = o1.cross(X_new)
    dense = (K_new - K_new.mean(axis=1, keepdims=True)) @ model.alpha
    with mock.patch.object(kcca, "_PROJECT_CHUNK_ENTRIES", 5 * 12):
        proj = project_many(model, X_new, view=1)
    np.testing.assert_allclose(proj, dense, rtol=0,
                               atol=1e-13 * np.abs(dense).max())


def test_project_zero_coefficients():
    K1, K2, o1, o2, X, _ = two_view_problem(n=9, seed=20)
    model = exact_kcca(K1, K2, 1e-2, 1e-2, L=2, view1=o1, view2=o2)
    model.alpha = np.zeros_like(model.alpha)
    np.testing.assert_array_equal(project_many(model, X[:1], view=1),
                                  np.zeros((1, 2)))


def test_project_basis_probe_gives_centered_affinity():
    K1, K2, o1, o2, X, _ = two_view_problem(n=10, seed=21)
    model = exact_kcca(K1, K2, 1e-2, 1e-2, L=1, view1=o1, view2=o2)
    j = 4
    model.alpha = np.eye(10)[:, [j]]
    rng = np.random.default_rng(0)
    x_new = rng.normal(size=2)
    k = o1.cross(x_new[None, :])[0]
    assert project_many(model, x_new[None, :], view=1)[0, 0] == pytest.approx(
        k[j] - k.mean(), abs=1e-12)


def test_project_requires_coefficients_and_oracle():
    K1, K2, o1, o2, X, _ = two_view_problem(n=8, seed=22)
    model = exact_kcca(K1, K2, 1e-2, 1e-2, L=1)
    with pytest.raises(ValueError):
        project_many(model, X[:1], view=1)


def test_project_without_coefficients_names_the_fit_option():
    _, _, o1, o2, X, _ = two_view_problem(n=12, seed=22)
    plan = full_plan(12)
    entry = nkcca_fit_direct(o1, o2, plan, plan, 1e-2, 1e-2, L=1,
                             compute_coefficients=False)
    with pytest.raises(ValueError, match="compute_coefficients=True"):
        project_many(entry.model, X[:2], view=2)


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


def test_total_correlation_reads_a_vector_as_one_dimension():
    # the shape of project_many(...)[:, 0]: 50 pairs of one dimension, not
    # one pair of 50 dimensions
    rng = np.random.default_rng(26)
    x = rng.normal(size=50)
    y = x + 0.5 * rng.normal(size=50)
    expected = abs(np.corrcoef(x, y)[0, 1])
    assert total_correlation(x, y) == pytest.approx(expected, abs=1e-12)
    assert total_correlation(x, y) == total_correlation(x[:, None],
                                                        y[:, None])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("arg", ["proj_x", "proj_y"])
def test_total_correlation_names_a_non_finite_projection(arg, bad):
    # a NaN used to fail den > 0 and count as a zero correlation
    rng = np.random.default_rng(27)
    projs = {"proj_x": rng.normal(size=(20, 2)),
             "proj_y": rng.normal(size=(20, 2))}
    projs[arg][5, 1] = bad
    with pytest.raises(ValueError, match=f"^{arg} has non-finite entries"):
        total_correlation(**projs)


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
    np.testing.assert_allclose(project_many(back, x_new[None, :], 1),
                               project_many(e.model, x_new[None, :], 1),
                               atol=1e-12)


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


@pytest.mark.parametrize("version", [1, 2])
def test_load_model_rejects_version_1_and_2_records(tmp_path, version):
    # save_model writes only version 3; the older records, with landmark
    # weights, no longer load
    path = tmp_path / "old.npz"
    np.savez(path, format_version=np.array(version), kind=np.array("nystrom"),
             n=np.array(6), lambda1=np.array(0.1), lambda2=np.array(0.2),
             L=np.array(1), rho=np.array([0.5]),
             alpha_prime=np.ones((6, 1)), beta_prime=np.ones((6, 1)),
             landmark_indices1=np.array([0, 3]),
             landmark_scale1=np.array([2.0, 0.5]),
             landmark_draws1=np.array(4),
             landmark_skipped1=np.array([1, 2]))
    with pytest.raises(ValueError, match=f"version {version}: only version 3"):
        load_model(path)


def test_load_model_rejects_inputs_of_another_row_count(tmp_path):
    ds = synthetic_circles(60, seed=2)
    spec = KernelSpec(sigma=1.0)
    o1 = KernelColumns.from_data(spec, ds.X)
    o2 = KernelColumns.from_data(spec, ds.Y)
    e = nkcca_fit(o1, o2, unit_plan([1, 7, 30]), unit_plan([2, 9, 40]), 1e-3,
                  1e-3, L=1, checkpoints=[3])[0]
    path = tmp_path / "model.npz"
    save_model(e.model, path)
    with pytest.raises(ValueError, match="^X1 has 50 rows; .* n = 60"):
        load_model(path, X1=ds.X[:50], X2=ds.Y)
    with pytest.raises(ValueError, match="^X2 has 61 rows; .* n = 60"):
        load_model(path, X1=ds.X, X2=np.vstack([ds.Y, ds.Y[:1]]))
    assert load_model(path, X1=ds.X, X2=ds.Y).view2.n == 60


def test_save_model_writes_version_3_without_weights(tmp_path):
    K1, K2, o1, o2, _, _ = two_view_problem(n=16, seed=4)
    e = nkcca_fit(o1, o2, unit_plan([1, 5, 9]), unit_plan([2, 3, 8]), 1e-3,
                  1e-3, L=1, checkpoints=[3])[0]
    path = tmp_path / "model.npz"
    save_model(e.model, path)
    with np.load(path) as z:
        assert int(z["format_version"]) == 3
        assert not any(key.startswith("landmark_scale") for key in z.files)


def _explicit_format_3_writer(model, path):
    """save_model as it spelled out every key before one field list drove
    it: the format-3 record that earlier releases wrote."""
    payload = {
        "format_version": np.array(3), "kind": np.array(model.kind),
        "n": np.array(model.n), "lambda1": np.array(model.lambda1),
        "lambda2": np.array(model.lambda2), "L": np.array(model.L),
        "rho": model.rho, "alpha_prime": model.alpha_prime,
        "beta_prime": model.beta_prime,
    }
    if model.alpha is not None:
        payload["alpha"] = model.alpha
    if model.beta is not None:
        payload["beta"] = model.beta
    if model.sigma_next is not None:
        payload["sigma_next"] = np.array(model.sigma_next)
    for tag, lm in (("1", model.landmarks1), ("2", model.landmarks2)):
        if lm is not None:
            payload[f"landmark_indices{tag}"] = lm.indices
            payload[f"landmark_draws{tag}"] = np.array(lm.draws)
            payload[f"landmark_skipped{tag}"] = np.array(lm.skipped,
                                                         dtype=int)
    for tag, oracle in (("1", model.view1), ("2", model.view2)):
        if oracle is not None:
            payload[f"sigma_rbf{tag}"] = np.array(oracle.spec.sigma)
    np.savez(path, **payload)


def _record_models():
    """An exact model and two Nystrom ones, one without coefficients, the
    Nystrom ones with skipped draws, all with both view oracles; and the
    two views' training points."""
    K1, K2, o1, o2, X, Y = two_view_problem(n=20, seed=5)
    plan = unit_plan([2, 5, 2, 11, 8, 17, 11])
    return X, Y, {
        "exact": exact_kcca(K1, K2, 1e-2, 1e-2, L=2, view1=o1, view2=o2),
        "nystrom": nkcca_fit(o1, o2, plan, plan, 1e-2, 1e-2, L=2,
                             checkpoints=[7])[0].model,
        "nystrom-no-coefficients": nkcca_fit_direct(
            o1, o2, plan, plan, 1e-2, 1e-2, L=1,
            compute_coefficients=False).model,
    }


@pytest.mark.parametrize("kind", ["exact", "nystrom",
                                  "nystrom-no-coefficients"])
def test_record_field_list_reads_and_writes_the_format_3_record(tmp_path,
                                                                 kind):
    X1, X2, models = _record_models()
    model = models[kind]
    old, new = tmp_path / "old.npz", tmp_path / "new.npz"
    _explicit_format_3_writer(model, old)
    save_model(model, new)
    # the same keys, each with the same array
    with np.load(old) as a, np.load(new) as b:
        assert sorted(a.files) == sorted(b.files)
        for key in a.files:
            assert a[key].dtype == b[key].dtype, key
            np.testing.assert_array_equal(b[key], a[key], err_msg=key)
    # a record of the explicit writer loads to the model's values, with
    # the same Python types, and so does save -> load
    for path in (old, new):
        back = load_model(path, X1=X1, X2=X2)
        assert_same_record_state(model, back)
        assert (back.view1.spec, back.view2.spec) == (model.view1.spec,
                                                      model.view2.spec)


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
              on_checkpoint=lambda e, Q1, Q2, T_hat:
              captured.append(t_error_norm(exact.t_matrix, Q1, Q2, T_hat)))
    T_tilde = dense_t_tilde(K1, K2, p1, p2, lam, lam, 18)
    expected = np.linalg.norm(exact.t_matrix - T_tilde, 2)
    assert captured[0] == pytest.approx(expected, rel=1e-8)


def test_t_error_norm_lanczos_branch_matches_dense():
    # the norm comes from the bidiagonalization of the factored operator;
    # the oracle is the dense T - Q1 T_hat Q2^T of the same checkpoint
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

    def measure(entry, Q1, Q2, T_hat):
        captured.append((t_error_norm(exact.t_matrix, Q1, Q2, T_hat),
                         np.linalg.norm(exact.t_matrix - Q1 @ T_hat @ Q2.T,
                                        2)))

    nkcca_fit(o1, o2, p1, p2, lam, lam, L=1, checkpoints=[30, 60, 90],
              on_checkpoint=measure)
    assert len(captured) == 3
    for got, expected in captured:
        assert got == pytest.approx(expected, rel=1e-10)


def test_t_error_norm_arpack_start_is_not_null():
    # T 1 = 0 exactly (integer rows summing to zero) and Q2^T 1 = 0 exactly
    # (Hadamard columns), so the operator maps a constant start vector to
    # zero and ARPACK would stop with "starting vector is zero"
    n, r = 512, 6
    H = scipy.linalg.hadamard(n) / np.sqrt(n)
    rng = np.random.default_rng(0)
    T = rng.integers(-3, 4, size=(n, n)).astype(float)
    T[:, -1] = -T[:, :-1].sum(axis=1)
    assert not (T @ np.ones(n)).any()
    Q1, Q2 = H[:, 1 : r + 1], H[:, r + 1 : 2 * r + 1]
    assert not (Q2.T @ np.ones(n)).any()
    core = rng.normal(size=(r, r))
    expected = np.linalg.norm(T - Q1 @ core @ Q2.T, 2)
    assert t_error_norm(T, Q1, Q2, core) == pytest.approx(expected, rel=1e-10)


def _orthonormal(rng, n, r):
    return np.linalg.qr(rng.normal(size=(n, r)))[0]


def test_t_error_norm_of_a_threefold_top_singular_value():
    # E = T - Q1 T_hat Q2^T has singular values 2, 2, 2, then 1.5 down to 0:
    # one start vector sees one copy of the top value, which is still the norm
    n, r = 300, 8
    rng = np.random.default_rng(5)
    s = np.concatenate([[2.0, 2.0, 2.0], np.linspace(1.5, 0.0, n - 3)])
    E = (_orthonormal(rng, n, n) * s) @ _orthonormal(rng, n, n).T
    Q1, Q2 = _orthonormal(rng, n, r), _orthonormal(rng, n, r)
    T_hat = rng.normal(size=(r, r))
    T = E + Q1 @ T_hat @ Q2.T
    assert t_error_norm(T, Q1, Q2, T_hat) == pytest.approx(2.0, rel=1e-10)


def test_t_error_norm_stops_early_when_the_error_is_rounding(caplog):
    # T is the low-rank T itself, so E is rounding: the bidiagonalization
    # must stop at the breakdown test rather than run N steps on noise
    n, r = 300, 10
    rng = np.random.default_rng(6)
    Q1, Q2 = _orthonormal(rng, n, r), _orthonormal(rng, n, r)
    T_hat = rng.normal(size=(r, r))
    T = Q1 @ T_hat @ Q2.T
    with caplog.at_level(logging.DEBUG, logger="nkcca.kcca"):
        got = t_error_norm(T, Q1, Q2, T_hat)
    assert got <= 1e-13 * np.linalg.norm(T, 2)
    steps = [int(rec.getMessage().split()[1]) for rec in caplog.records
             if rec.getMessage().startswith("t_error_norm:")]
    assert len(steps) == 1 and steps[0] < n


def test_t_error_norm_logs_its_steps_and_residual(caplog):
    K1, K2, _, _, _, _ = two_view_problem(n=150, seed=7)
    T = exact_kcca(K1, K2, 1e-3, 1e-3, keep_t=True).t_matrix
    rng = np.random.default_rng(7)
    Q1, Q2 = _orthonormal(rng, 150, 5), _orthonormal(rng, 150, 5)
    T_hat = rng.normal(size=(5, 5))
    with caplog.at_level(logging.DEBUG, logger="nkcca.kcca"):
        sigma = t_error_norm(T, Q1, Q2, T_hat)
    (rec,) = [r for r in caplog.records if r.name == "nkcca.kcca"]
    assert rec.levelno == logging.DEBUG
    words = rec.getMessage().split()
    residual = float(words[words.index("residual") + 1])
    estimate = float(words[words.index("estimate") + 1])
    assert 1 <= int(words[1]) <= 150
    # it stopped on the gap-based estimate of sigma's relative error, or on
    # the residual test that stands in for it (printed to 4 digits)
    assert (estimate <= 1e-10 * (1 + 1e-3)
            or residual <= 1e-10 * sigma * (1 + 1e-3))
    assert sigma == pytest.approx(np.linalg.norm(T - Q1 @ T_hat @ Q2.T, 2),
                                  rel=1e-10)


def _lanczos_steps(caplog, *args):
    """t_error_norm's value and the Lanczos steps its DEBUG record gives."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="nkcca.kcca"):
        value = t_error_norm(*args)
    (msg,) = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("t_error_norm:")]
    return value, int(msg.split()[1])


def test_t_error_norm_stops_on_its_value_before_its_residual(caplog,
                                                             monkeypatch):
    # a well-separated top singular value (2 against 1.5 and below): its
    # error is about residual^2 / gap, so the value is accurate long before
    # the residual is at 1e-10 sigma
    n, r = 300, 8
    rng = np.random.default_rng(9)
    s = np.concatenate([[2.0], np.linspace(1.5, 0.0, n - 1)])
    E = (_orthonormal(rng, n, n) * s) @ _orthonormal(rng, n, n).T
    Q1, Q2 = _orthonormal(rng, n, r), _orthonormal(rng, n, r)
    T_hat = rng.normal(size=(r, r))
    T = E + Q1 @ T_hat @ Q2.T
    value, steps = _lanczos_steps(caplog, T, Q1, Q2, T_hat)
    assert value == pytest.approx(np.linalg.norm(E, 2), rel=1e-10)
    # the residual rule alone: the estimate is the residual's own bound
    monkeypatch.setattr(kcca, "_gkl_estimate",
                        lambda s, residual: residual / s[0])
    by_residual, residual_steps = _lanczos_steps(caplog, T, Q1, Q2, T_hat)
    assert by_residual == pytest.approx(value, rel=1e-10)
    assert steps < residual_steps


# an infinite entry makes numpy warn in the products that detect it
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
# both sizes run the bidiagonalization; the ids name the small (n = 60) and
# the large case
@pytest.mark.parametrize("n", [60, 400], ids=["dense", "lanczos"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("arg", ["T", "Q1", "Q2", "T_hat"])
def test_t_error_norm_names_a_non_finite_argument(arg, bad, n):
    rng = np.random.default_rng(10)
    args = dict(T=rng.normal(size=(n, n)), Q1=_orthonormal(rng, n, 5),
                Q2=_orthonormal(rng, n, 4), T_hat=rng.normal(size=(5, 4)))
    args[arg][3, 2] = bad
    with pytest.raises(ValueError, match=f"^{arg} has non-finite entries"):
        t_error_norm(**args)


@pytest.mark.parametrize("arg, shape", [
    ("T", (40, 41)), ("T", (40,)), ("Q1", (39, 5)), ("Q2", (40,)),
    ("T_hat", (4, 5)), ("T_hat", (5,))])
def test_t_error_norm_rejects_mismatched_shapes(arg, shape):
    rng = np.random.default_rng(11)
    args = dict(T=rng.normal(size=(40, 40)), Q1=_orthonormal(rng, 40, 5),
                Q2=_orthonormal(rng, 40, 4), T_hat=rng.normal(size=(5, 4)))
    args[arg] = np.ones(shape)
    with pytest.raises(ValueError, match=f"^{arg} must"):
        t_error_norm(**args)


def _dense_operator_norm(A):
    sigma, steps, _, _ = kcca._gkl_norm(A)
    assert 1 <= steps <= A.shape[0]
    return sigma


def _symmetric_pm_pair(rng, n):
    # eigenvalues +3 and -3 on top, so the norm is a singular value of
    # multiplicity two that no single eigenvalue end of A shows alone
    lam = np.concatenate([[3.0, -3.0], rng.uniform(-2.0, 2.0, n - 2)])
    U = _orthonormal(rng, n, n)
    return (U * lam) @ U.T


def _rank_deficient_psd(rng, n):
    return random_psd(rng, n, rank=n // 4)


def _t_like(rng, n):
    # a product of two ridge projections of random PSD matrices, like the
    # exact T: nonsymmetric, with singular values in [0, 1)
    P = [np.linalg.solve(K + 0.05 * n * np.eye(n), K)
         for K in (random_psd(rng, n), random_psd(rng, n, rank=n // 2))]
    return P[0] @ P[1]


@pytest.mark.parametrize("make", [_symmetric_pm_pair, _rank_deficient_psd,
                                  _t_like],
                         ids=["symmetric-pm", "rank-deficient-psd", "t-like"])
@pytest.mark.parametrize("n", [40, 300])
def test_gkl_norm_matches_the_dense_spectral_norm(make, n):
    A = make(np.random.default_rng(n), n)
    assert _dense_operator_norm(A) == pytest.approx(np.linalg.norm(A, 2),
                                                    rel=1e-10)


def test_gkl_norm_of_the_zero_operator_is_exactly_zero():
    assert _dense_operator_norm(np.zeros((50, 50))) == 0.0


def test_gkl_norm_rejects_a_non_finite_operator():
    A = np.eye(6)
    A[2, 4] = np.nan
    with pytest.raises(ValueError, match="^the operator's products are not"):
        _dense_operator_norm(A)
