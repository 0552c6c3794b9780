import numpy as np
import pytest
import scipy.linalg
from conftest import ArrayColumns, centering_matrix, random_psd

from nkcca.kernels import KernelColumns, KernelSpec
from nkcca.nystrom import (DEFAULT_NEW_MASS_RTOL, CholState, QrState,
                           admit_columns, chol_append_block, chol_solve,
                           qr_append_block)


def dense_target(K, idx, lam):
    """The equilibrated target D G0 D of landmarks idx, where G0 = N lam
    S^T K S + S^T K H K S for the unit sampling matrix S and D scales G0 to
    a unit diagonal."""
    n = K.shape[0]
    H = centering_matrix(n)
    S = np.zeros((n, len(idx)))
    S[idx, np.arange(len(idx))] = 1.0
    G0 = n * lam * S.T @ K @ S + S.T @ K @ H @ K @ S
    c = 1.0 / np.sqrt(np.diag(G0))
    return c[:, None] * G0 * c[None, :]


# --- incremental Cholesky -----------------------------------------------------

def append(state, oracle, idx):
    """chol_append_block over the oracle's columns for landmarks idx."""
    idx = np.atleast_1d(np.asarray(idx, dtype=int))
    return chol_append_block(state, idx, oracle.columns(idx))


def test_chol_init_identity_hand_arithmetic():
    # K = I, N = 2, first landmark 0, lambda = 1: H k = [0.5, -0.5],
    # d0 = 0.5 + 2 * 1 * 1 = 2.5, so a1 = H k / sqrt(2.5) and R1 = 1
    oracle = ArrayColumns(np.eye(2))
    state = CholState(2, lam=1.0)
    assert append(state, oracle, 0) == [0]
    np.testing.assert_allclose(state.A[:, 0], np.array([0.5, -0.5])
                               / np.sqrt(2.5), atol=1e-15)
    assert state.R[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_chol_init_constant_column():
    # a constant column has no centered mass: d0 = N lam K_ii = 4 * 0.5 * 0.7
    # comes from the ridge term alone, which equilibration scales to 1
    K = np.full((4, 4), 0.7)
    state = CholState(4, lam=0.5)
    append(state, ArrayColumns(K), 1)
    np.testing.assert_allclose(state.A[:, 0], np.zeros(4), atol=1e-15)
    assert state.R[0, 0] ** 2 == pytest.approx(1.0, rel=1e-12)


def test_chol_init_matches_dense_scalar():
    rng = np.random.default_rng(5)
    K = random_psd(rng, 6)
    lam = 0.2
    state = CholState(6, lam)
    append(state, ArrayColumns(K), 4)
    H = centering_matrix(6)
    d0 = 6 * lam * K[4, 4] + K[:, 4] @ H @ K[:, 4]
    np.testing.assert_allclose(state.A[:, 0], H @ K[:, 4] / np.sqrt(d0),
                               atol=1e-14)
    assert state.R[0, 0] ** 2 == pytest.approx(
        dense_target(K, [4], lam)[0, 0], rel=1e-12)


def test_chol_two_steps_match_dense_target():
    rng = np.random.default_rng(7)
    K = random_psd(rng, 6)
    oracle = ArrayColumns(K)
    lam = 0.3
    idx = [1, 4]
    state = CholState(6, lam)
    append(state, oracle, idx[0])
    append(state, oracle, idx[1])
    target = dense_target(K, idx, lam)
    np.testing.assert_allclose(np.diag(target), 1.0, rtol=1e-14)
    np.testing.assert_allclose(state.R.T @ state.R, target, atol=1e-10)


def test_chol_many_steps_match_batch_factorization():
    rng = np.random.default_rng(8)
    n = 15
    K = random_psd(rng, n)
    oracle = ArrayColumns(K)
    lam = 0.05
    idx = rng.choice(n, size=8, replace=False)
    target = dense_target(K, idx, lam)
    R_dense = scipy.linalg.cholesky(target)
    B = rng.normal(size=(8, 3))
    stepped = CholState(n, lam)
    for i in idx:
        append(stepped, oracle, i)
    block = CholState(n, lam)
    assert append(block, oracle, idx) == list(range(8))
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
    oracle = ArrayColumns(K)
    state = CholState(6, lam=0.4)
    append(state, oracle, 2)
    R_before = state.R.copy()
    target = dense_target(K, [2, 2], 0.4)
    assert np.linalg.eigvalsh(target).min() < 1e-10  # singular, not PD
    assert append(state, oracle, 2) == []
    assert state.m == 1 and state.indices == [2]  # state unchanged
    np.testing.assert_array_equal(state.R, R_before)


def test_chol_solve_identity_and_scalar():
    rng = np.random.default_rng(10)
    K = random_psd(rng, 7)
    oracle = ArrayColumns(K)
    state = CholState(7, lam=0.1)
    append(state, oracle, 0)
    append(state, oracle, 3)
    G = state.R.T @ state.R
    np.testing.assert_allclose(chol_solve(state.R, G), np.eye(2), atol=1e-8)
    single = CholState(7, lam=0.1)
    append(single, oracle, 5)
    b = np.array([2.0])
    assert chol_solve(single.R, b)[0] == pytest.approx(
        2.0 / single.R[0, 0] ** 2, rel=1e-12)


def test_chol_state_diag_positive():
    rng = np.random.default_rng(11)
    K = random_psd(rng, 9)
    oracle = ArrayColumns(K)
    state = CholState(9, 0.2)
    for i in (0, 5, 7):
        append(state, oracle, i)
    assert np.all(np.diag(state.R) > 0)


def test_chol_block_validation():
    state = CholState(3, 0.1)
    with pytest.raises(ValueError, match="shape"):
        chol_append_block(state, [0, 1], np.eye(3)[:, :1])
    # a zero kernel gives the first column no mass: it is skipped
    assert append(state, ArrayColumns(np.zeros((3, 3))), 0) == []
    assert state.m == 0


# --- the admission gate ---------------------------------------------------------

def test_gate_rejects_duplicate_within_block():
    rng = np.random.default_rng(14)
    K = random_psd(rng, 8, jitter=0.1)
    oracle = ArrayColumns(K)
    state = CholState(8, 0.2)
    assert append(state, oracle, [3, 5, 3]) == [0, 1]
    assert state.indices == [3, 5]
    np.testing.assert_allclose(state.R.T @ state.R,
                               dense_target(K, [3, 5], 0.2), atol=1e-10)


def test_gate_threshold_on_new_mass_fraction():
    # unit vectors e0, a e0 + sqrt(1 - a^2) e1 and b e0 + sqrt(1 - b^2) e2:
    # after column 0, columns 1 and 2 carry new-mass fractions 1 - a^2 and
    # 1 - b^2, just below and just above the threshold 1e-8
    below, above = 0.5e-8, 2e-8
    a, b = np.sqrt(1.0 - below), np.sqrt(1.0 - above)
    S = np.array([[1.0, a, b], [a, 1.0, a * b], [b, a * b, 1.0]])
    kept, R = admit_columns(S)
    assert kept == [0, 2]
    assert R[1, 1] ** 2 == pytest.approx(above, rel=1e-6)
    np.testing.assert_allclose(R.T @ R, S[np.ix_(kept, kept)], atol=1e-15)


def test_gate_rejects_negligible_new_mass():
    # a near-copy of a kept landmark: its fraction of new mass in the
    # equilibrated target is below DEFAULT_NEW_MASS_RTOL once the points are
    # 1e-6 apart, and above it at 1e-3
    for delta, expected in ((1e-6, [0]), (1e-3, [0, 1])):
        X = np.array([[0.0], [delta], [1.0], [2.0], [3.5]])
        oracle = KernelColumns.from_data(KernelSpec(sigma=1.0), X)
        G = dense_target(oracle.dense(), [0, 1], 0.1)
        resid = G[1, 1] - G[0, 1] ** 2 / G[0, 0]
        assert (resid < DEFAULT_NEW_MASS_RTOL) == (len(expected) == 1)
        state = CholState(5, 0.1)
        assert append(state, oracle, [0, 1]) == expected


def test_gate_rejects_zero_mass_first_column():
    # column 0 of K is zero: no centered mass and no self-affinity
    K = np.diag([0.0, 1.0, 1.0, 1.0])
    state = CholState(4, 0.1)
    assert append(state, ArrayColumns(K), [0, 1]) == [1]
    assert state.indices == [1]
    assert state.R[0, 0] ** 2 == pytest.approx(
        dense_target(K, [1], 0.1)[0, 0], rel=1e-12)


def left_looking_gate(S):
    """Reference gate: column j's remaining mass from one triangular solve
    against the factor of the columns kept before it."""
    kept, R = [], np.zeros(S.shape)
    for j in range(S.shape[0]):
        p = len(kept)
        w = scipy.linalg.solve_triangular(R[:p, :p], S[kept, j], trans="T")
        resid = S[j, j] - w @ w
        if resid > DEFAULT_NEW_MASS_RTOL:
            R[:p, p], R[p, p] = w, np.sqrt(resid)
            kept.append(j)
    return kept, R[:len(kept), :len(kept)]


def test_gate_matches_left_looking_reference():
    # 60 unit columns spanning 25 dimensions, with exact repeats: the first
    # 25 independent ones are kept, every later one has no new mass
    rng = np.random.default_rng(15)
    B = rng.normal(size=(40, 25))
    A = B[:, rng.integers(0, 25, 60)]
    A[:, :25] = B
    A = A[:, rng.permutation(60)]
    A /= np.linalg.norm(A, axis=0)
    S = A.T @ A
    kept, R = admit_columns(S)
    kept_ref, R_ref = left_looking_gate(S)
    assert kept == kept_ref and len(kept) == 25
    np.testing.assert_allclose(R, R_ref, rtol=0, atol=1e-13)
    np.testing.assert_allclose(R.T @ R, S[np.ix_(kept, kept)], rtol=0,
                               atol=1e-14)


# --- incremental QR -----------------------------------------------------------

# QrState factors centered columns (its solver's inputs): every input here
# sums to zero

def test_qr_orthogonal_inputs():
    u = np.column_stack([np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),
                         np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)])
    state = QrState(3)
    qr_append_block(state, u[:, :1])
    qr_append_block(state, u[:, 1:])
    np.testing.assert_allclose(state.Q, u, atol=1e-14)
    np.testing.assert_allclose(state.P, np.eye(2), atol=1e-14)
    assert (state.m, state.r) == (2, 2)


def test_qr_dependent_column_flagged():
    a = np.array([1.0, 2.0, 0.0, -3.0])
    one_by_one = QrState(4)
    qr_append_block(one_by_one, a[:, None])
    qr_append_block(one_by_one, 2.0 * a[:, None])
    block = QrState(4)
    qr_append_block(block, np.column_stack([a, 2.0 * a]))
    for state in (one_by_one, block):
        assert (state.m, state.r) == (2, 1)
        assert state.Q.shape == (4, 1)
        # P retains the projection coefficients of the dependent column
        np.testing.assert_allclose(state.Q @ state.P[:, 1], 2.0 * a,
                                   atol=1e-10)


def test_qr_random_columns_reconstruct():
    rng = np.random.default_rng(12)
    state = QrState(9)
    A = rng.normal(size=(9, 5))
    A -= A.mean(axis=0)
    qr_append_block(state, A)
    np.testing.assert_allclose(state.Q.T @ state.Q, np.eye(5), atol=1e-10)
    np.testing.assert_allclose(state.Q @ state.P, A,
                               atol=1e-10 * np.abs(A).max())


def test_qr_growth_beyond_initial_capacity():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(40, 20))
    A -= A.mean(axis=0)
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


def test_factor_storage_stays_column_major_through_growth():
    # both states start at capacity 2 and double several times; the QR
    # blocks also carry planted dependent columns, within the block and on
    # earlier blocks
    rng = np.random.default_rng(21)
    n = 60
    oracle = KernelColumns.from_data(KernelSpec(sigma=0.7),
                                     rng.normal(size=(n, 2)))
    chol = CholState(n, lam=1e-2, capacity=2)
    qr = QrState(n, capacity=2)
    fed = []
    for idx in (np.arange(0, 3), np.arange(3, 9), np.arange(9, 20),
                np.arange(20, 34)):
        m0 = chol.m
        chol_append_block(chol, idx, oracle.columns(idx))
        new = chol.A[:, m0:]
        planted = [new @ rng.normal(size=new.shape[1])]
        if fed:
            planted.append(np.column_stack(fed) @ rng.normal(size=len(fed)))
        block = np.column_stack([new[:, :1], *planted, new[:, 1:]])
        qr_append_block(qr, block)
        fed += list(block.T)
        assert chol.A.flags.f_contiguous and qr.Q.flags.f_contiguous
    assert chol._c.shape[0] >= 32 and qr._P.shape[0] >= 32
    A = np.column_stack(fed)
    assert qr.m == A.shape[1] == chol.m + 7 and qr.r <= chol.m
    np.testing.assert_allclose(qr.Q.T @ qr.Q, np.eye(qr.r), rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(qr.Q @ qr.P, A, rtol=0,
                               atol=1e-12 * np.abs(A).max())
