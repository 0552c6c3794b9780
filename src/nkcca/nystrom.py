"""The incremental Cholesky / QR state machines of the Nystrom solver.

The incremental solver maintains, per view and in an append-only fashion,

* ``A`` — the centered, weighted landmark columns ``s_j * H k_{i_j}``,
* ``R`` — the upper-triangular Cholesky factor of the regularized target
  ``G = N lam S^T K S + A^T A``,
* ``Q, P`` — a thin orthonormal factorization ``A = Q P``.

Both grow only by blocks of p columns (``chol_append_block``,
``qr_append_block``; a single landmark is a block of one). ``R`` gains the
border ``[W; B]`` with ``W = R_old^-T C`` for the cross terms ``C`` and ``B``
the factor of the Schur complement, and ``Q, P`` gain columns by two block
projection passes plus Gram-Schmidt within the block. Leading blocks never
change, so advancing to a larger rank reuses everything already computed.
``admit_columns`` is the one landmark-admission gate (shared with the
from-scratch reference fitter) and ``chol_solve`` the one solve with a
factor.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

__all__ = [
    "CholState",
    "admit_columns",
    "chol_append_block",
    "chol_solve",
    "QrState",
    "qr_append_block",
]

# A landmark must contribute at least this fraction of unexplained mass to
# the factor target (Schur complement over its diagonal). Columns below it
# are numerically dependent: keeping them would poison the triangular factor
# with noise-level pivots while adding nothing to the approximation.
DEFAULT_NEW_MASS_RTOL = 1e-10

# Cap on the squared ratio between the largest and smallest admitted factor
# pivots. Without it the factor target's condition number can grow until the
# cancellation inside the solver's sandwiched solves loses all accuracy
# (triangular-solve noise scales with the condition number); columns whose
# pivot would breach the cap carry negligible approximation mass at the
# factor's scale and are skipped instead.
DEFAULT_PIVOT_COND_LIMIT = 1e8

# Residual threshold below which an incoming QR column counts as dependent.
_QR_DEP_RTOL = 1e-10


# ---------------------------------------------------------------------------
# Incremental Cholesky state
# ---------------------------------------------------------------------------

class CholState:
    """Append-only factorization state for one view.

    After m appended landmarks, ``R`` is the upper-triangular Cholesky
    factor of ``G_m = N lam * gram + A^T A`` where ``gram[j, l] =
    s_j s_l K(i_j, i_l)`` and ``A[:, j] = s_j H k_{i_j}``. Appends must be
    applied sequentially (single writer); reads of a finished state are safe
    from any thread.
    """

    def __init__(self, n: int, lam: float, capacity: int = 16):
        if lam <= 0:
            raise ValueError("lambda must be positive")
        self.n = n
        self.lam = lam
        self.max_pivot2 = 0.0
        self.m = 0
        self.indices: list[int] = []
        self._s = np.zeros(capacity)
        self._A = np.zeros((n, capacity))
        self._R = np.zeros((capacity, capacity))

    @property
    def A(self) -> np.ndarray:
        return self._A[:, : self.m]

    @property
    def R(self) -> np.ndarray:
        return self._R[: self.m, : self.m]

    @property
    def s_weights(self) -> np.ndarray:
        return self._s[: self.m]

    def A_prefix(self, m: int) -> np.ndarray:
        """View of the first m centered columns (append-only, so stable)."""
        return self._A[:, :m]

    def R_prefix(self, m: int) -> np.ndarray:
        """Leading m x m block of the factor, valid for the first m landmarks."""
        return self._R[:m, :m]

    def _grow(self, need: int):
        cap = self._s.shape[0]
        if need <= cap:
            return
        new_cap = cap
        while new_cap < need:
            new_cap *= 2
        s = np.zeros(new_cap)
        s[:cap] = self._s
        A = np.zeros((self.n, new_cap))
        A[:, :cap] = self._A
        R = np.zeros((new_cap, new_cap))
        R[:cap, :cap] = self._R
        self._s, self._A, self._R = s, A, R


def admit_columns(S: np.ndarray, d: np.ndarray,
                  max_pivot2: float) -> tuple[list[int], np.ndarray, float]:
    """The landmark-admission gate: a gated progressive Cholesky of ``S``.

    ``S`` is the symmetric target block of the candidate columns (a Schur
    complement when a factor already exists), ``d`` their full diagonal in
    the factor target and ``max_pivot2`` the largest squared pivot admitted
    so far. Column j is kept when its remaining mass exceeds
    ``DEFAULT_NEW_MASS_RTOL * d[j]`` and ``max_pivot2 /
    DEFAULT_PIVOT_COND_LIMIT``. Returns the kept positions, the upper factor
    of ``S[kept][:, kept]`` and the updated ``max_pivot2``.
    """
    nb = S.shape[0]
    kept: list[int] = []
    R = np.zeros((nb, nb))
    for j in range(nb):
        p = len(kept)
        resid = S[j, j]
        if p > 0:
            w = scipy.linalg.solve_triangular(R[:p, :p], S[kept, j], trans="T",
                                              lower=False, check_finite=False)
            resid -= float(w @ w)
        else:
            w = np.zeros(0)
        if (resid <= DEFAULT_NEW_MASS_RTOL * d[j] or d[j] <= 0
                or resid <= max_pivot2 / DEFAULT_PIVOT_COND_LIMIT):
            continue
        R[:p, p] = w
        R[p, p] = math.sqrt(resid)
        max_pivot2 = max(max_pivot2, resid)
        kept.append(j)
    p = len(kept)
    return kept, R[:p, :p], max_pivot2


def chol_append_block(state: CholState, indices, scales,
                      columns: np.ndarray) -> list[int]:
    """Append a block of landmarks via block-bordered Cholesky.

    The grown factor's leading block is unchanged, the border is R_old^-T
    applied to the cross terms, and the trailing block factors the Schur
    complement. Columns failing ``admit_columns`` are skipped and leave no
    trace in the state; returns the block-local positions kept.
    """
    indices = np.asarray(indices, dtype=int)
    scales = np.asarray(scales, dtype=float)
    nb = indices.shape[0]
    if columns.shape != (state.n, nb):
        raise ValueError("column block shape mismatch")
    if np.any(scales <= 0):
        raise ValueError("landmark weights must be positive")
    n, lam, m0 = state.n, state.lam, state.m

    A_blk = (columns - columns.mean(axis=0)) * scales
    diag_blk = columns[indices, np.arange(nb)]
    gram_blk = (columns[indices, :] * scales[:, None]) * scales[None, :]
    gram_blk = 0.5 * (gram_blk + gram_blk.T)
    d_full = np.einsum("ij,ij->j", A_blk, A_blk) + n * lam * scales**2 * diag_blk

    if m0 > 0:
        prev_idx = np.asarray(state.indices, dtype=int)
        gram_cross = (columns[prev_idx, :] * state.s_weights[:, None]) * scales
        C_full = state.A.T @ A_blk + n * lam * gram_cross
        W = scipy.linalg.solve_triangular(state.R, C_full, trans="T",
                                          lower=False, check_finite=False)
        S_blk = (n * lam * gram_blk + A_blk.T @ A_blk) - W.T @ W
    else:
        W = np.zeros((0, nb))
        S_blk = n * lam * gram_blk + A_blk.T @ A_blk
    S_blk = 0.5 * (S_blk + S_blk.T)

    kept, R_blk, max_pivot2 = admit_columns(S_blk, d_full, state.max_pivot2)
    p = len(kept)
    if p == 0:
        return kept
    state._grow(m0 + p)
    sl = slice(m0, m0 + p)
    state._A[:, sl] = A_blk[:, kept]
    state._s[sl] = scales[kept]
    state._R[:m0, sl] = W[:, kept]
    state._R[sl, sl] = R_blk
    state.indices += [int(i) for i in indices[kept]]
    state.max_pivot2 = max_pivot2
    state.m = m0 + p
    return kept


def chol_solve(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve R^T R X = B for an upper-triangular factor R (e.g.
    ``CholState.R`` or ``R_prefix(m)``) via two triangular solves."""
    if R.shape[0] == 0:
        raise ValueError("empty factor")
    Y = scipy.linalg.solve_triangular(R, B, trans="T", lower=False,
                                      check_finite=False)
    return scipy.linalg.solve_triangular(R, Y, lower=False, check_finite=False)


# ---------------------------------------------------------------------------
# Incremental QR via Gram-Schmidt with reorthogonalization
# ---------------------------------------------------------------------------

class QrState:
    """Thin incremental QR of the centered landmark columns.

    ``Q`` keeps only independent directions (r columns after m appends,
    r <= m); ``P`` is r x m with column j holding the coefficients of input
    column j in the Q basis, upper triangular in the full-rank case.
    A dependent column gets coefficients in P but no fabricated direction.
    """

    def __init__(self, n: int, capacity: int = 16):
        self.n = n
        self.m = 0
        self.r = 0
        self._Q = np.zeros((n, capacity))
        self._P = np.zeros((capacity, capacity))

    @property
    def Q(self) -> np.ndarray:
        return self._Q[:, : self.r]

    @property
    def P(self) -> np.ndarray:
        return self._P[: self.r, : self.m]

    def _grow(self, need: int):
        cap = self._P.shape[0]
        if need <= cap:
            return
        new_cap = cap
        while new_cap < need:
            new_cap *= 2
        Q = np.zeros((self.n, new_cap))
        Q[:, :cap] = self._Q
        P = np.zeros((new_cap, new_cap))
        P[:cap, :cap] = self._P
        self._Q, self._P = Q, P


def qr_append_block(state: QrState, A_blk: np.ndarray) -> QrState:
    """Append a block of columns: two block projection passes against the
    existing basis (matrix products), then per-column Gram-Schmidt within
    the small block. A column whose residual is below 1e-10 times its norm
    is dependent: its projection coefficients are recorded in P but no Q
    column is invented."""
    nb = A_blk.shape[1]
    if A_blk.shape[0] != state.n:
        raise ValueError("column block shape mismatch")
    if nb == 0:
        return state
    state._grow(state.m + nb)
    m0, r0 = state.m, state.r
    Q = state._Q[:, :r0]
    norms = np.linalg.norm(A_blk, axis=0)
    V = A_blk.copy()
    C = Q.T @ V
    V -= Q @ C
    C2 = Q.T @ V
    V -= Q @ C2
    C += C2
    state._P[:r0, m0 : m0 + nb] = C
    for j in range(nb):
        r = state.r
        Qnew = state._Q[:, r0:r]
        v = V[:, j]
        if r > r0:
            cj = Qnew.T @ v
            v = v - Qnew @ cj
            c2 = Qnew.T @ v
            v -= Qnew @ c2
            state._P[r0:r, m0 + j] = cj + c2
        rnorm = float(np.linalg.norm(v))
        if rnorm >= _QR_DEP_RTOL * max(float(norms[j]), np.finfo(float).tiny):
            state._Q[:, r] = v / rnorm
            state._P[r, m0 + j] = rnorm
            state.r = r + 1
        state.m += 1
    return state
