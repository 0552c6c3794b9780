import numpy as np
import pytest
import scipy.linalg
from conftest import centering_matrix, random_psd

from nkcca.kernels import KernelColumns, KernelSpec
from nkcca.leverage import SamplingDistribution
from nkcca.nystrom import (DEFAULT_NEW_MASS_RTOL, DEFAULT_PIVOT_COND_LIMIT,
                           CholState, QrState, apply, chol_append_block,
                           chol_solve, factor, qr_append_block)
from nkcca.sampling import full_plan, sample, unit_plan


def dense_target(K, idx, s, lam):
    """N lam S^T K S + S^T K H K S for the s-weighted sampling matrix."""
    n = K.shape[0]
    H = centering_matrix(n)
    S = np.zeros((n, len(idx)))
    S[idx, np.arange(len(idx))] = s
    return n * lam * S.T @ K @ S + S.T @ K @ H @ K @ S


# --- Nystrom factor ----------------------------------------------------------

def test_factor_full_plan_exact():
    rng = np.random.default_rng(2)
    K = random_psd(rng, 12)
    f = factor(KernelColumns.from_gram(K), full_plan(12), gamma=0.0)
    np.testing.assert_allclose(f.dense(), K, atol=1e-8)


def test_factor_single_column_identity():
    K = np.eye(5)
    f = factor(KernelColumns.from_gram(K), unit_plan([2]), gamma=0.0)
    expected = np.zeros((5, 5))
    expected[2, 2] = 1.0
    np.testing.assert_allclose(f.dense(), expected, atol=1e-12)


def test_factor_apply_matches_dense_oracle():
    rng = np.random.default_rng(3)
    K = random_psd(rng, 8)
    oracle = KernelColumns.from_gram(K)
    p = rng.uniform(0.5, 2.0, size=8)
    dist = SamplingDistribution(p=p / p.sum())
    plan = sample(dist, 4, seed=7)
    gamma = 0.05
    f = factor(oracle, plan, gamma)
    # dense oracle straight from the weighted sampling matrix
    S = np.zeros((8, 4))
    S[plan.indices, np.arange(4)] = plan.weights
    L = K @ S @ np.linalg.pinv(S.T @ K @ S + 8 * gamma * np.eye(4)) @ S.T @ K
    v = rng.normal(size=8)
    np.testing.assert_allclose(apply(f, v), L @ v, atol=1e-10)
    np.testing.assert_allclose(f.dense(), L, atol=1e-10)


def test_factor_gamma_zero_singular_core_falls_back_to_pinv():
    K = np.ones((4, 4))          # rank one, duplicated columns
    f = factor(KernelColumns.from_gram(K), unit_plan([0, 1]), gamma=0.0)
    v = np.arange(4.0)
    L = K  # full approximation of a rank-1 matrix from any of its columns
    np.testing.assert_allclose(apply(f, v), L @ v, atol=1e-10)


def test_factor_psd_ordering_small_instances():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(6, 16))
        K = random_psd(rng, n)
        oracle = KernelColumns.from_gram(K)
        m = int(rng.integers(1, n))
        plan = sample(SamplingDistribution(p=np.full(n, 1 / n)), m, seed=11)
        gamma = float(rng.uniform(0.01, 0.5))
        L = factor(oracle, plan, 0.0).dense()
        Lg = factor(oracle, plan, gamma).dense()
        norm = np.linalg.norm(K, 2)
        assert np.linalg.eigvalsh(K - L).min() >= -1e-8 * norm
        assert np.linalg.eigvalsh(L - Lg).min() >= -1e-8 * norm
        assert np.linalg.eigvalsh(K - Lg).min() >= -1e-8 * norm


# --- incremental Cholesky -----------------------------------------------------

def append(state, oracle, idx, s):
    """chol_append_block over the oracle's columns for landmarks idx."""
    idx = np.atleast_1d(np.asarray(idx, dtype=int))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return chol_append_block(state, idx, s, oracle.columns(idx))


def test_chol_init_identity_hand_arithmetic():
    # K = I, N = 2, first landmark 0 with unit weight, lambda = 1:
    # a1 = [0.5, -0.5], d1 = 0.5 + 2 * 1 * 1 * 1 = 2.5, R1 = sqrt(2.5)
    oracle = KernelColumns.from_gram(np.eye(2))
    state = CholState(2, lam=1.0)
    assert append(state, oracle, 0, 1.0) == [0]
    np.testing.assert_allclose(state.A[:, 0], [0.5, -0.5], atol=1e-15)
    assert state.R[0, 0] == pytest.approx(np.sqrt(2.5), abs=1e-15)


def test_chol_init_constant_column():
    K = np.full((4, 4), 0.7)
    state = CholState(4, lam=0.5)
    append(state, KernelColumns.from_gram(K), 1, 2.0)
    np.testing.assert_allclose(state.A[:, 0], np.zeros(4), atol=1e-15)
    # d1 = 0 + N lam s^2 K_ii = 4 * 0.5 * 4 * 0.7
    assert state.R[0, 0] ** 2 == pytest.approx(4 * 0.5 * 4.0 * 0.7, rel=1e-12)


def test_chol_init_matches_dense_scalar():
    rng = np.random.default_rng(5)
    K = random_psd(rng, 6)
    s, lam = 1.7, 0.2
    state = CholState(6, lam)
    append(state, KernelColumns.from_gram(K), 4, s)
    expected = dense_target(K, [4], [s], lam)[0, 0]
    assert state.R[0, 0] ** 2 == pytest.approx(expected, rel=1e-12)


def test_chol_two_steps_match_dense_target():
    rng = np.random.default_rng(7)
    K = random_psd(rng, 6)
    oracle = KernelColumns.from_gram(K)
    lam = 0.3
    idx, s = [1, 4], [1.2, 0.8]
    state = CholState(6, lam)
    append(state, oracle, idx[0], s[0])
    append(state, oracle, idx[1], s[1])
    target = dense_target(K, idx, s, lam)
    np.testing.assert_allclose(state.R.T @ state.R, target, atol=1e-10)


def test_chol_many_steps_match_batch_factorization():
    rng = np.random.default_rng(8)
    n = 15
    K = random_psd(rng, n)
    oracle = KernelColumns.from_gram(K)
    lam = 0.05
    idx = rng.choice(n, size=8, replace=False)
    s = rng.uniform(0.5, 2.0, size=8)
    target = dense_target(K, idx, s, lam)
    R_dense = scipy.linalg.cholesky(target)
    B = rng.normal(size=(8, 3))
    stepped = CholState(n, lam)
    for i, w in zip(idx, s):
        append(stepped, oracle, i, w)
    block = CholState(n, lam)
    assert append(block, oracle, idx, s) == list(range(8))
    for state in (stepped, block):
        np.testing.assert_allclose(state.R, R_dense,
                                   atol=1e-8 * np.abs(R_dense).max())
        np.testing.assert_allclose(chol_solve(state.R, B),
                                   np.linalg.solve(target, B), atol=1e-8)


def test_chol_duplicate_landmark_hits_error_path():
    # an exactly duplicated landmark makes the grown target singular; the
    # dense oracle confirms it is not PD, so the append must not keep it
    rng = np.random.default_rng(9)
    K = random_psd(rng, 6, jitter=0.1)
    oracle = KernelColumns.from_gram(K)
    state = CholState(6, lam=0.4)
    append(state, oracle, 2, 1.0)
    R_before = state.R.copy()
    target = dense_target(K, [2, 2], [1.0, 1.0], 0.4)
    assert np.linalg.eigvalsh(target).min() < 1e-10  # singular, not PD
    assert append(state, oracle, 2, 1.0) == []
    assert state.m == 1 and state.indices == [2]  # state unchanged
    np.testing.assert_array_equal(state.R, R_before)


def test_chol_solve_identity_and_scalar():
    rng = np.random.default_rng(10)
    K = random_psd(rng, 7)
    oracle = KernelColumns.from_gram(K)
    state = CholState(7, lam=0.1)
    append(state, oracle, 0, 1.0)
    append(state, oracle, 3, 1.0)
    G = state.R.T @ state.R
    np.testing.assert_allclose(chol_solve(state.R, G), np.eye(2), atol=1e-8)
    single = CholState(7, lam=0.1)
    append(single, oracle, 5, 1.0)
    b = np.array([2.0])
    assert chol_solve(single.R, b)[0] == pytest.approx(
        2.0 / single.R[0, 0] ** 2, rel=1e-12)


def test_chol_state_diag_positive():
    rng = np.random.default_rng(11)
    K = random_psd(rng, 9)
    oracle = KernelColumns.from_gram(K)
    idx, s = [0, 5, 7], [1.0, 2.0, 0.5]
    state = CholState(9, 0.2)
    for i, w in zip(idx, s):
        append(state, oracle, i, w)
    assert np.all(np.diag(state.R) > 0)


def test_chol_weight_validation():
    oracle = KernelColumns.from_gram(np.eye(3))
    state = CholState(3, 0.1)
    append(state, oracle, 0, 1.0)
    with pytest.raises(ValueError):
        append(state, oracle, 1, 0.0)
    # a zero kernel gives the first column no mass: it is skipped
    empty = CholState(3, 0.1)
    assert append(empty, KernelColumns.from_gram(np.zeros((3, 3))), 0, 1.0) == []
    assert empty.m == 0


# --- the admission gate ---------------------------------------------------------

def test_gate_rejects_duplicate_within_block():
    rng = np.random.default_rng(14)
    K = random_psd(rng, 8, jitter=0.1)
    oracle = KernelColumns.from_gram(K)
    state = CholState(8, 0.2)
    assert append(state, oracle, [3, 5, 3], [1.0, 1.0, 1.0]) == [0, 1]
    assert state.indices == [3, 5]
    np.testing.assert_allclose(state.R.T @ state.R,
                               dense_target(K, [3, 5], [1.0, 1.0], 0.2),
                               atol=1e-10)


def test_gate_rejects_pivot_below_condition_cap():
    # the squared pivot of a second landmark scales with its weight squared,
    # so weights just around the cap put it on either side of
    # max_pivot2 / DEFAULT_PIVOT_COND_LIMIT while its relative new mass
    # stays near 1 (the new-mass gate never fires)
    K = np.eye(4)
    oracle = KernelColumns.from_gram(K)
    G = dense_target(K, [0, 1], [1.0, 1.0], 1.0)
    resid1 = G[1, 1] - G[0, 1] ** 2 / G[0, 0]
    cap = G[0, 0] / DEFAULT_PIVOT_COND_LIMIT
    for ratio, expected in ((0.5, []), (2.0, [0])):
        state = CholState(4, 1.0)
        append(state, oracle, 0, 1.0)
        assert state.max_pivot2 == pytest.approx(G[0, 0], rel=1e-12)
        s = np.sqrt(ratio * cap / resid1)
        assert append(state, oracle, 1, s) == expected
        assert state.m == 1 + len(expected)


def test_gate_rejects_negligible_new_mass():
    # a heavily weighted near-copy of a kept landmark: its squared pivot is
    # far above the condition cap, but its unexplained mass is below
    # DEFAULT_NEW_MASS_RTOL of its diagonal once the points are 1e-6 apart
    for delta, expected in ((1e-6, [0]), (1e-3, [0, 1])):
        X = np.array([[0.0], [delta], [1.0], [2.0], [3.5]])
        oracle = KernelColumns.from_data(KernelSpec(sigma=1.0), X)
        s = [1.0, 1e3]
        G = dense_target(oracle.dense(), [0, 1], s, 0.1)
        resid = G[1, 1] - G[0, 1] ** 2 / G[0, 0]
        assert resid > 10 * G[0, 0] / DEFAULT_PIVOT_COND_LIMIT
        assert (resid < DEFAULT_NEW_MASS_RTOL * G[1, 1]) == (len(expected) == 1)
        state = CholState(5, 0.1)
        assert append(state, oracle, [0, 1], s) == expected


def test_gate_rejects_zero_mass_first_column():
    # column 0 of K is zero: no centered mass and no self-affinity
    K = np.diag([0.0, 1.0, 1.0, 1.0])
    state = CholState(4, 0.1)
    assert append(state, KernelColumns.from_gram(K), [0, 1], [1.0, 1.0]) == [1]
    assert state.indices == [1]
    assert state.R[0, 0] ** 2 == pytest.approx(
        dense_target(K, [1], [1.0], 0.1)[0, 0], rel=1e-12)


# --- incremental QR -----------------------------------------------------------

def test_qr_orthogonal_inputs():
    state = QrState(3)
    qr_append_block(state, np.array([[1.0], [0.0], [0.0]]))
    qr_append_block(state, np.array([[0.0], [1.0], [0.0]]))
    np.testing.assert_allclose(state.Q, np.eye(3)[:, :2], atol=1e-14)
    np.testing.assert_allclose(state.P, np.eye(2), atol=1e-14)
    assert state.dependent == [False, False]


def test_qr_dependent_column_flagged():
    a = np.array([1.0, 2.0, 0.0, -1.0])
    one_by_one = QrState(4)
    qr_append_block(one_by_one, a[:, None])
    qr_append_block(one_by_one, 2.0 * a[:, None])
    block = QrState(4)
    qr_append_block(block, np.column_stack([a, 2.0 * a]))
    for state in (one_by_one, block):
        assert state.dependent == [False, True]
        assert state.r == 1
        assert state.Q.shape == (4, 1)
        # P retains the projection coefficients of the dependent column
        np.testing.assert_allclose(state.Q @ state.P[:, 1], 2.0 * a,
                                   atol=1e-10)


def test_qr_random_columns_reconstruct():
    rng = np.random.default_rng(12)
    state = QrState(9)
    A = rng.normal(size=(9, 5))
    qr_append_block(state, A)
    np.testing.assert_allclose(state.Q.T @ state.Q, np.eye(5), atol=1e-10)
    np.testing.assert_allclose(state.Q @ state.P, A,
                               atol=1e-10 * np.abs(A).max())


def test_qr_growth_beyond_initial_capacity():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(40, 20))
    one_by_one = QrState(40, capacity=4)
    for j in range(20):
        qr_append_block(one_by_one, A[:, j : j + 1])
    blocks = QrState(40, capacity=4)
    for j in range(0, 20, 7):
        qr_append_block(blocks, A[:, j : j + 7])
    for state in (one_by_one, blocks):
        np.testing.assert_allclose(state.Q.T @ state.Q, np.eye(20), atol=1e-9)
        np.testing.assert_allclose(state.Q @ state.P, A, atol=1e-9)


def test_qr_dimension_check():
    state = QrState(3)
    with pytest.raises(ValueError):
        qr_append_block(state, np.ones((4, 1)))
