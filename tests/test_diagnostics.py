import sys

import numpy as np
import pytest
import scipy.linalg
from conftest import (full_plan, random_psd, recording, ring_gram,
                      sampling_matrix, traced_peak, unit_plan)

from nkcca import diagnostics, kcca
from nkcca.baselines import linear_cca
from nkcca.datasets import synthetic_circles
from nkcca.diagnostics import (BoundReport, d_matrix_norm, low_rank_dense,
                               projection_error_check, psd_ordering_check,
                               stability_check, tail_bound_check,
                               correlation_error_check)
from nkcca.kcca import exact_kcca, nkcca_fit_direct, t_error_norm
from nkcca.kernels import KernelColumns, KernelSpec, center, gram
from nkcca.leverage import (SamplingDistribution, effective_dimension,
                            exact_leverage, make_distribution)
from nkcca.sampling import sample


def uniform_plan(n, m, seed):
    return sample(SamplingDistribution(p=np.full(n, 1.0 / n)), m, seed)


def test_bound_report_holds_rule():
    assert BoundReport.make("x", 1.0, 1.0).holds
    assert BoundReport.make("x", 1.0 + 5e-9, 1.0).holds
    assert not BoundReport.make("x", 1.1, 1.0).holds
    assert not BoundReport.make("x", 0.0, 1.0, applicable=False).holds


# --- D matrix ------------------------------------------------------------------

def test_d_norm_full_plan_is_zero():
    rng = np.random.default_rng(0)
    K = random_psd(rng, 10)
    assert d_matrix_norm(K, full_plan(10), gamma=0.1) == pytest.approx(0.0,
                                                                       abs=1e-10)


def test_d_norm_empty_plan_is_phi_norm():
    rng = np.random.default_rng(1)
    K = random_psd(rng, 8)
    gamma = 0.2
    sig1 = np.linalg.eigvalsh(K)[-1]
    assert d_matrix_norm(K, None, gamma) == pytest.approx(
        sig1 / (sig1 + 8 * gamma), abs=1e-12)


def test_d_norm_matches_brute_force():
    rng = np.random.default_rng(2)
    K = random_psd(rng, 10)
    plan = uniform_plan(10, 6, seed=3)
    gamma = 0.15
    sig, U = scipy.linalg.eigh(K)
    sig = np.maximum(sig, 0.0)
    Phi = np.diag(sig / (sig + 10 * gamma))
    S = sampling_matrix(plan, 10)
    D = Phi - scipy.linalg.sqrtm(Phi) @ U.T @ S @ S.T @ U @ scipy.linalg.sqrtm(Phi)
    expected = np.linalg.norm(D, 2)
    assert d_matrix_norm(K, plan, gamma) == pytest.approx(expected, abs=1e-10)


def test_d_norm_matches_mrrr_driver_on_clustered_ring_kernel():
    ds = synthetic_circles(300, 0)
    K = gram(KernelSpec(sigma=0.2), ds.X)
    gamma = 1e-2
    plan = sample(make_distribution(exact_leverage(K, gamma)), 100, seed=4)
    sig, U = scipy.linalg.eigh(K, driver="evr")
    sig = np.maximum(sig, 0.0)
    phi = sig / (sig + 300 * gamma)
    B = np.sqrt(phi)[:, None] * (U.T @ sampling_matrix(plan, 300))
    expected = np.linalg.norm(np.diag(phi) - B @ B.T, 2)
    assert d_matrix_norm(K, plan, gamma) == pytest.approx(expected, abs=1e-10)


def test_d_norm_requires_positive_gamma():
    # gamma = inf gave ||D|| = 0
    for gamma in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            d_matrix_norm(np.eye(4), None, gamma)


# --- dense column-sampled approximation --------------------------------------

def test_low_rank_dense_full_plan_exact():
    rng = np.random.default_rng(2)
    K = random_psd(rng, 12)
    np.testing.assert_allclose(low_rank_dense(K, full_plan(12), 0.0), K,
                               atol=1e-8)


def test_low_rank_dense_single_column_identity():
    expected = np.zeros((5, 5))
    expected[2, 2] = 1.0
    np.testing.assert_allclose(low_rank_dense(np.eye(5), unit_plan([2]), 0.0),
                               expected, atol=1e-12)


def test_low_rank_dense_matches_dense_oracle():
    rng = np.random.default_rng(3)
    K = random_psd(rng, 8)
    p = rng.uniform(0.5, 2.0, size=8)
    plan = sample(SamplingDistribution(p=p / p.sum()), 4, seed=7)
    gamma = 0.05
    # dense oracle straight from the weighted sampling matrix
    S = sampling_matrix(plan, 8)
    L = K @ S @ np.linalg.pinv(S.T @ K @ S + 8 * gamma * np.eye(4)) @ S.T @ K
    np.testing.assert_allclose(low_rank_dense(K, plan, gamma), L, atol=1e-10)


def test_low_rank_dense_duplicated_landmarks_match_solve_oracles():
    # repeated draws make S^T K S singular: at gamma > 0 the shifted core is
    # still invertible, and at gamma = 0 the approximation is the one over
    # the distinct landmarks
    n, gamma = 80, 1e-3
    K = ring_gram(n, seed=0)
    for seed in range(6):
        plan = uniform_plan(n, 30, seed)
        S = sampling_matrix(plan, n)
        core = S.T @ K @ S + n * gamma * np.eye(plan.m)
        expected = K @ S @ np.linalg.solve(core, S.T @ K)
        np.testing.assert_allclose(low_rank_dense(K, plan, gamma), expected,
                                   rtol=0, atol=1e-10)
        u = np.unique(plan.indices)
        assert u.size < plan.m
        expected = K[:, u] @ np.linalg.solve(K[np.ix_(u, u)], K[u])
        np.testing.assert_allclose(low_rank_dense(K, plan, 0.0), expected,
                                   rtol=0, atol=1e-10)


def test_low_rank_dense_gamma_zero_singular_core_falls_back_to_pinv():
    K = np.ones((4, 4))          # rank one, duplicated columns
    # any column of a rank-1 matrix recovers it in full
    np.testing.assert_allclose(low_rank_dense(K, unit_plan([0, 1]), 0.0), K,
                               atol=1e-10)


def test_low_rank_dense_psd_ordering_small_instances():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(6, 16))
        K = random_psd(rng, n)
        m = int(rng.integers(1, n))
        plan = uniform_plan(n, m, seed=11)
        gamma = float(rng.uniform(0.01, 0.5))
        L = low_rank_dense(K, plan, 0.0)
        Lg = low_rank_dense(K, plan, gamma)
        norm = np.linalg.norm(K, 2)
        assert np.linalg.eigvalsh(K - L).min() >= -1e-8 * norm
        assert np.linalg.eigvalsh(L - Lg).min() >= -1e-8 * norm
        assert np.linalg.eigvalsh(K - Lg).min() >= -1e-8 * norm


def test_low_rank_pair_shares_one_sketch_eigendecomposition(monkeypatch):
    # L and L_gamma of one plan come from one eigh of the sketch block and
    # are bitwise those of two low_rank_dense calls
    K = ring_gram(60, 3)
    plan = uniform_plan(60, 25, seed=4)
    expected = [low_rank_dense(K, plan, 0.0), low_rank_dense(K, plan, 0.05)]
    calls = []
    monkeypatch.setattr(diagnostics, "_sketch_eigh",
                        recording(diagnostics._sketch_eigh, calls))
    got = diagnostics._low_rank(K, plan, (0.0, 0.05))
    assert len(calls) == 1
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


def test_low_rank_dense_and_d_norm_reject_a_plan_index_outside_n():
    # a raw IndexError before
    K = random_psd(np.random.default_rng(3), 6)
    message = r"^plan has indices outside \[0, 6\)"
    with pytest.raises(ValueError, match=message):
        low_rank_dense(K, unit_plan([0, 6]), 0.1)
    with pytest.raises(ValueError, match=message):
        d_matrix_norm(K, unit_plan([7, 1]), 0.1)


def test_low_rank_dense_rejects_bad_input():
    K = np.eye(4)
    for gamma in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="nonnegative"):
            low_rank_dense(K, unit_plan([0, 2]), gamma)
    K[1, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        low_rank_dense(K, unit_plan([0, 2]), 0.1)


@pytest.mark.parametrize("gamma", [np.nan, np.inf], ids=["nan", "inf"])
def test_bound_checks_reject_non_finite_gamma(gamma):
    # at gamma = inf the PSD-ordering and tail checks reported a held bound
    K = random_psd(np.random.default_rng(3), 6)
    plan = unit_plan([0, 2, 4])
    for check in (lambda: psd_ordering_check(K, plan, gamma),
                  lambda: tail_bound_check(K, plan, gamma, t=0.5),
                  lambda: projection_error_check(K, plan, gamma, lam=0.1,
                                                 t=0.5)):
        with pytest.raises(ValueError, match="finite"):
            check()


def test_bound_checks_reject_a_plan_index_outside_n():
    K = random_psd(np.random.default_rng(3), 6)
    plan = unit_plan([0, 6])
    for check in (lambda: psd_ordering_check(K, plan, 0.1),
                  lambda: tail_bound_check(K, plan, 0.1, t=0.5),
                  lambda: projection_error_check(K, plan, 0.1, lam=0.1,
                                                 t=0.5)):
        with pytest.raises(ValueError,
                           match=r"^plan has indices outside \[0, 6\)"):
            check()


# --- PSD ordering / tail ---------------------------------------------------------

def test_psd_ordering_full_sampling():
    rng = np.random.default_rng(3)
    K = random_psd(rng, 9)
    rep = psd_ordering_check(K, full_plan(9), gamma=0.05)
    assert rep.holds
    # K - L is exactly zero at full sampling
    assert abs(rep.extras["min_eigs"][0]) < 1e-8 * rep.extras["norm_k"]


def test_psd_ordering_gamma_zero_middle_gap():
    rng = np.random.default_rng(4)
    K = random_psd(rng, 8)
    plan = uniform_plan(8, 4, seed=5)
    gap = low_rank_dense(K, plan, 0.0) - low_rank_dense(K, plan, 0.0)
    np.testing.assert_allclose(gap, np.zeros((8, 8)), atol=1e-12)


def test_psd_ordering_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(6, 13))
        K = random_psd(rng, n)
        plan = uniform_plan(n, int(rng.integers(1, n)), seed=int(rng.integers(1e6)))
        rep = psd_ordering_check(K, plan, gamma=float(rng.uniform(0.01, 0.5)))
        assert rep.holds


def test_tail_bound_gated():
    rng = np.random.default_rng(6)
    K = random_psd(rng, 12)
    plan = uniform_plan(12, 10, seed=7)
    gamma = 0.3
    d = d_matrix_norm(K, plan, gamma)
    if d < 0.95:
        rep = tail_bound_check(K, plan, gamma, t=max(d, 0.05))
        assert rep.applicable and rep.holds
    rep_na = tail_bound_check(K, plan, gamma, t=max(d / 2, 1e-6))
    if d > rep_na.extras["t"]:
        assert not rep_na.applicable


# --- projection error bound ----------------------------------------------------------------------

def test_projection_error_full_sampling():
    # at full sampling L = K exactly, so the gamma-free error terms vanish;
    # the gamma-regularized approximation differs from K by design but stays
    # within the bound, so the report holds
    rng = np.random.default_rng(7)
    K = random_psd(rng, 10)
    rep = projection_error_check(K, full_plan(10), gamma=0.05, lam=0.1, t=0.5)
    assert rep.applicable and rep.holds
    assert rep.extras["uncentered_L"] < 1e-8
    assert rep.extras["centered_L"] < 1e-8


def test_projection_error_small_gamma_limit():
    rng = np.random.default_rng(8)
    K = random_psd(rng, 10, jitter=0.5)
    rep = projection_error_check(K, full_plan(10), gamma=1e-9, lam=0.1, t=0.5)
    assert rep.applicable and rep.holds
    assert rep.lhs <= rep.rhs + 1e-8


def test_projection_error_ring_kernel_seeds():
    K = ring_gram(30, seed=0)
    lam = 1e-2
    gamma = lam / 2
    held = 0
    for seed in range(20):
        plan = uniform_plan(30, 15, seed=seed)
        d = d_matrix_norm(K, plan, gamma)
        if d >= 1:
            continue
        rep = projection_error_check(K, plan, gamma, lam, t=max(d, 1e-6))
        assert rep.applicable
        assert rep.holds
        held += 1
    assert held > 0


# --- correlation error chain ---------------------------------------------------------------

def test_correlation_error_full_sampling():
    rng = np.random.default_rng(9)
    K1 = random_psd(rng, 10)
    K2 = random_psd(rng, 10)
    rep = correlation_error_check(K1, K2, (full_plan(10), full_plan(10)),
                         (0.01, 0.02), (0.001, 0.001), 0.5, 0.5)
    assert rep.lhs < 1e-10
    assert rep.extras["t_err"] < 1e-10


def test_correlation_error_weyl_and_triangle_chain():
    rng = np.random.default_rng(10)
    for trial in range(5):
        n = int(rng.integers(8, 20))
        K1 = random_psd(rng, n)
        K2 = random_psd(rng, n)
        plans = (uniform_plan(n, int(rng.integers(2, n)), seed=trial),
                 uniform_plan(n, int(rng.integers(2, n)), seed=trial + 100))
        rep = correlation_error_check(K1, K2, plans, (0.02, 0.05), (0.01, 0.01),
                             0.5, 0.5)
        assert rep.lhs <= rep.extras["t_err"] + 1e-8
        assert (rep.extras["t_err"]
                <= rep.extras["view1_term"] + rep.extras["view2_term"] + 1e-8)


def test_correlation_error_view_swap_symmetry():
    rng = np.random.default_rng(11)
    n = 12
    K1 = random_psd(rng, n)
    K2 = random_psd(rng, n)
    p1 = uniform_plan(n, 6, seed=0)
    p2 = uniform_plan(n, 7, seed=1)
    a = correlation_error_check(K1, K2, (p1, p2), (0.02, 0.05), (0.01, 0.02), 0.4, 0.6)
    b = correlation_error_check(K2, K1, (p2, p1), (0.05, 0.02), (0.02, 0.01), 0.6, 0.4)
    assert a.extras["t_err"] == pytest.approx(b.extras["t_err"], rel=1e-9)
    assert a.lhs == pytest.approx(b.lhs, abs=1e-10)


def test_correlation_error_gated_holds():
    # leverage-score sampling at a substantial gamma keeps ||D|| below the
    # gate for most seeds; every gated report must hold
    K1 = ring_gram(25, seed=2, view=1)
    K2 = ring_gram(25, seed=2, view=2)
    lam = 1e-2
    t = 0.9
    gamma = 0.05
    d1 = make_distribution(exact_leverage(K1, gamma))
    d2 = make_distribution(exact_leverage(K2, gamma))
    held = 0
    for seed in range(10):
        plans = (sample(d1, 24, seed=seed), sample(d2, 24, seed=seed + 50))
        rep = correlation_error_check(K1, K2, plans, (lam, lam), (gamma, gamma), t, t)
        if rep.applicable:
            assert rep.holds
            held += 1
    assert held > 0


def test_correlation_error_check_forms_no_product():
    # T = P1 P2, T_tilde and their difference are applied factor by factor:
    # at N = 400 the check peaked at 9.52 N^2 doubles when it formed them,
    # and peaks at 5.39 now (the four ridge projections, and one low-rank
    # approximation with its buffer while the last is built)
    n = 400
    K1, K2 = ring_gram(n, 0, view=1), ring_gram(n, 0, view=2)
    plans = (uniform_plan(n, 200, seed=0), uniform_plan(n, 150, seed=1))
    peak = traced_peak(correlation_error_check, K1, K2, plans, (1e-3, 1e-3),
                       (1e-2, 1e-2), 0.5, 0.5)
    assert peak <= 6.5 * n * n * 8


# --- out-of-sample stability -------------------------------------------------------------

def fit_pair(n=80, m=60, seed=0, lam=1e-2, sigma=1.0):
    ds = synthetic_circles(n, seed=100)
    test = synthetic_circles(60, seed=101)
    spec = KernelSpec(sigma=sigma)
    o1 = KernelColumns.from_data(spec, ds.X)
    o2 = KernelColumns.from_data(spec, ds.Y)
    K1 = gram(spec, ds.X)
    K2 = gram(spec, ds.Y)
    exact = exact_kcca(K1, K2, lam, lam, L=1, keep_t=True, view1=o1, view2=o2)
    lv1 = make_distribution(exact_leverage(K1, lam))
    lv2 = make_distribution(exact_leverage(K2, lam))
    p1 = sample(lv1, m, seed=seed)
    p2 = sample(lv2, m, seed=seed + 1)
    approx = nkcca_fit_direct(o1, o2, p1, p2, lam, lam, L=1, keep_t=True)
    return exact, approx.model, test.X


def test_stability_self_comparison_is_zero():
    exact, _, X_test = fit_pair()
    reports = stability_check(exact, exact_self_copy(exact), X_test, c=1.0)
    for rep in reports:
        assert rep.applicable
        assert rep.lhs < 1e-10
        assert rep.holds


def exact_self_copy(exact):
    """Exact model dressed up as an approximation of itself (full plan)."""
    import dataclasses

    from nkcca.kcca import Landmarks
    n = exact.n
    lm = Landmarks(indices=np.arange(n), draws=n)
    clone = dataclasses.replace(exact)
    clone.landmarks1 = lm
    clone.landmarks2 = lm
    return clone


def test_stability_layers_hold_on_ring_data():
    for seed in range(3):
        exact, approx, X_test = fit_pair(seed=seed)
        reports = stability_check(exact, approx, X_test, c=1.0)
        for rep in reports:
            if rep.applicable:
                assert rep.holds, rep
        gated = [r for r in reports if r.applicable]
        assert len(gated) in (0, 3)


def test_stability_not_applicable_on_gap_violation():
    exact, approx, X_test = fit_pair(m=2, seed=5)
    t_err = np.linalg.norm(exact.t_matrix - approx.t_matrix, 2)
    r = exact.rho[0] - exact.sigma_next
    reports = stability_check(exact, approx, X_test, c=1.0)
    if t_err > r / 2:
        assert all(not rep.applicable for rep in reports)
        assert all(not rep.holds for rep in reports)


def test_stability_reuses_the_grams_it_is_given(monkeypatch):
    exact, approx, X_test = fit_pair()
    grams = (exact.view1.dense(), exact.view2.dense())
    expected = stability_check(exact, approx, X_test, c=1.0)

    def forbidden(self):
        raise AssertionError("stability_check built a Gram matrix")

    monkeypatch.setattr(KernelColumns, "dense", forbidden)
    got = stability_check(exact, approx, X_test, c=1.0, grams=grams)
    assert got == expected


def test_stability_rejects_grams_of_another_size():
    # Grams of another N would silently move step II's eps
    exact, approx, X_test = fit_pair(n=100, m=60)
    ds = synthetic_circles(120, seed=100)
    spec = KernelSpec(sigma=1.0)
    with pytest.raises(ValueError, match="^grams must be two 100 x 100"):
        stability_check(exact, approx, X_test,
                        grams=(gram(spec, ds.X), gram(spec, ds.Y)))
    with pytest.raises(ValueError, match="^grams must be two 100 x 100"):
        stability_check(exact, approx, X_test, grams=(exact.view1.dense(),))


def test_stability_rejects_an_approx_model_of_another_n():
    exact, _, X_test = fit_pair(n=100, m=60)
    _, approx, _ = fit_pair(n=120, m=60)
    with pytest.raises(ValueError, match="^approx has N = 120, exact has "
                       "N = 100"):
        stability_check(exact, approx, X_test)


def test_stability_requires_dense_t():
    exact, approx, X_test = fit_pair()
    exact.t_matrix = None
    with pytest.raises(ValueError):
        stability_check(exact, approx, X_test)


# --- inputs -------------------------------------------------------------------------

def _arrays(*objects):
    """Every array argument among objects, and every array field of the
    models and plans among them."""
    out = []
    for obj in objects:
        if isinstance(obj, np.ndarray):
            out.append(obj)
        else:
            out += [v for v in vars(obj).values() if isinstance(v, np.ndarray)]
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_operators_leave_their_inputs_unchanged(seed):
    # every dense operator only reads its arguments, in either memory
    # layout; the ridge projections (kcca._ridge_projection) and the
    # in-place factorizations work in buffers of their own
    n, lam, gamma, t = 40 + 10 * seed, 1e-2, 1e-2, 0.5
    K1 = ring_gram(n, seed, view=1)
    K2 = np.asfortranarray(ring_gram(n, seed, view=2))
    p1, p2 = uniform_plan(n, n // 2, seed), uniform_plan(n, n // 3, seed + 7)
    exact, approx, X_test = fit_pair(n=n, m=n // 2, seed=seed)
    rng = np.random.default_rng(seed)
    Q1 = np.linalg.qr(rng.normal(size=(n, 4)))[0]
    Q2 = np.asfortranarray(np.linalg.qr(rng.normal(size=(n, 3)))[0])
    T_hat = rng.normal(size=(4, 3))
    Zx = rng.normal(size=(n, 5))
    Zy = np.asfortranarray(rng.normal(size=(n, 4)))
    watched = _arrays(K1, K2, p1, p2, exact, approx, X_test, Q1, Q2, T_hat,
                      Zx, Zy)
    before = [a.copy() for a in watched]

    gram(KernelSpec(sigma=1.0), X_test)
    gram(KernelSpec(sigma=1.0), np.asfortranarray(X_test))
    center(K1)
    center(K2)
    exact_kcca(K1, K2, lam, lam, L=1, keep_t=True)
    exact_kcca(K2, K1, lam, lam, L=2, keep_t=True)
    exact_leverage(K1, gamma)
    exact_leverage(K2, gamma)
    effective_dimension(K1, gamma)
    effective_dimension(K2, gamma)
    d_matrix_norm(K1, p1, gamma)
    d_matrix_norm(K2, p2, gamma)
    low_rank_dense(K1, p1, gamma)
    low_rank_dense(K2, p2, 0.0)
    t_error_norm(exact.t_matrix, Q1, Q2, T_hat)
    linear_cca(Zx, Zy, lam, lam, L=2)
    kcca._ridge_projection(K1, lam)
    kcca._ridge_projection(K2, lam)
    psd_ordering_check(K1, p1, gamma)
    tail_bound_check(K2, p2, gamma, t)
    projection_error_check(K1, p1, gamma, lam, t)
    projection_error_check(K2, p2, gamma, lam, t)
    correlation_error_check(K1, K2, (p1, p2), (lam, lam), (gamma, gamma), t, t)
    stability_check(exact, approx, X_test)
    stability_check(exact, approx, X_test,
                    grams=(exact.view1.dense(), exact.view2.dense()))

    for a, b in zip(watched, before):
        assert a.tobytes() == b.tobytes()


def test_bound_checks_never_call_the_public_error_norm(monkeypatch):
    # a span tracer wraps t_error_norm in every nkcca namespace that names
    # it, so a check that called it would be timed as the checkpoint error
    # norm; the checks share its Lanczos routine (_gkl_norm) instead
    def forbidden(*args, **kwargs):
        raise AssertionError("t_error_norm called by a bound check")

    public = kcca.t_error_norm
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "nkcca"
                and getattr(module, "t_error_norm", None) is public):
            monkeypatch.setattr(module, "t_error_norm", forbidden)
    n, lam, gamma, t = 60, 1e-2, 1e-2, 0.5
    K1, K2 = ring_gram(n, 0, view=1), ring_gram(n, 0, view=2)
    p1, p2 = uniform_plan(n, 30, seed=1), uniform_plan(n, 20, seed=2)
    exact, approx, X_test = fit_pair(n=n, m=30)
    psd_ordering_check(K1, p1, gamma)
    tail_bound_check(K1, p1, gamma, t)
    projection_error_check(K1, p1, gamma, lam, t)
    correlation_error_check(K1, K2, (p1, p2), (lam, lam), (gamma, gamma), t, t)
    stability_check(exact, approx, X_test)


def _correlation_args():
    rng = np.random.default_rng(14)
    n = 12
    return dict(K1=random_psd(rng, n), K2=random_psd(rng, n),
                plans=(uniform_plan(n, 6, seed=0), uniform_plan(n, 7, seed=1)),
                lambdas=(0.02, 0.05), gammas=(0.01, 0.02), t1=0.4, t2=0.6)


@pytest.mark.parametrize("arg, value, match", [
    pytest.param("t1", 1.5, "^t1 must lie in", id="t1-above-1"),
    pytest.param("t1", -0.2, "^t1 must lie in", id="t1-negative"),
    pytest.param("t2", 1.0, "^t2 must lie in", id="t2-one"),
    pytest.param("t2", np.nan, "^t2 must lie in", id="t2-nan"),
    pytest.param("lambdas", (-0.01, 0.05),
                 r"^lambdas\[0\] must be positive", id="lambda1-negative"),
    pytest.param("lambdas", (0.02, np.inf),
                 r"^lambdas\[1\] must be positive", id="lambda2-inf"),
    pytest.param("gammas", (0.0, 0.02),
                 r"^gammas\[0\] must be positive", id="gamma1-zero"),
    pytest.param("gammas", (0.01, np.nan),
                 r"^gammas\[1\] must be positive", id="gamma2-nan"),
    pytest.param("K2", np.eye(10), "^K2 must be 12 x 12", id="K2-shape"),
    pytest.param("plans", (unit_plan([0, 12]), unit_plan([1])),
                 r"^plans\[0\] has indices outside \[0, 12\)",
                 id="plan1-index"),
    pytest.param("plans", (unit_plan([0]), unit_plan([30])),
                 r"^plans\[1\] has indices outside", id="plan2-index"),
])
def test_correlation_error_check_rejects_bad_arguments(arg, value, match):
    args = _correlation_args()
    args[arg] = value
    with pytest.raises(ValueError, match=match):
        correlation_error_check(**args)
