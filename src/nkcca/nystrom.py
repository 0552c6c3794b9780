"""The incremental Cholesky / QR state machines of the Nystrom solver.

The incremental solver maintains, per view and in an append-only fashion,

* ``A`` — the centered, equilibrated landmark columns ``c_j H k_{i_j}``,
* ``R`` — the upper-triangular Cholesky factor of the regularized target
  ``G = N lam C^T K C + A^T A``, with ``C`` the unit sampling matrix of the
  landmarks scaled by ``c``,
* ``Q, P`` — a thin orthonormal factorization ``A = Q P``.

Each column is scaled by ``c_j = 1 / sqrt(d0_j)``, where ``d0_j = ||H k_j||^2
+ N lam K_jj`` is its diagonal in the unscaled target, so every diagonal of
``G`` is 1 (van der Sluis: within sqrt(m) of the best diagonal scaling). The
fitted model does not depend on a per-column scaling, so the sampling plan's
importance weights never enter the solver. With unit diagonals, the
Schur-complement diagonal of a candidate is the fraction of its mass that
the landmarks kept before it do not explain. ``_equilibrated_block`` is the
one place that builds a candidate block.

Both factorizations grow only by blocks of p columns (``chol_append_block``,
``qr_append_block``; a single landmark is a block of one). ``R`` gains the
border ``[W; B]`` with ``W = R_old^-T C`` for the cross terms ``C`` and ``B``
the factor of the Schur complement, and ``Q, P`` gain columns by two block
projection passes plus Gram-Schmidt within the block. Leading blocks never
change, so advancing to a larger rank reuses everything already computed.
``A`` and ``Q`` are stored column-major: appends write them, and the
projections and the Gram-Schmidt loop read them, one whole column at a
time, so each column is one contiguous run of memory, and a projection
pass updates its column-major working block in place.
``admit_columns`` is the one landmark-admission gate (shared with the
from-scratch reference fitter) and ``chol_solve`` the one solve with a
factor.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm

__all__ = [
    "CholState",
    "admit_columns",
    "chol_append_block",
    "chol_solve",
    "QrState",
    "qr_append_block",
]

# A landmark is kept only if more than this fraction of its mass in the
# equilibrated target is new, i.e. not explained by the landmarks kept
# before it. Below it a column is numerically dependent: keeping it would
# put a noise-level pivot into the triangular factor while adding nothing
# to the approximation. This is a floor on each pivot, not a bound on the
# condition number of the target.
DEFAULT_NEW_MASS_RTOL = 1e-8

# Residual threshold below which an incoming QR column counts as dependent.
_QR_DEP_RTOL = 1e-10


def _equilibrated_block(columns: np.ndarray, indices: np.ndarray,
                        lam: float):
    """Candidate block of the equilibrated target.

    ``columns`` holds the N x p kernel columns of the landmarks ``indices``.
    Returns the centered columns scaled by ``c = 1 / sqrt(d0)``, the scales
    ``c`` (0 for a column without mass, which the gate then rejects) and the
    block's unit-diagonal target ``N lam c_i c_j K_ij + A^T A``.
    """
    n, nb = columns.shape
    H_cols = columns - columns.mean(axis=0)
    d0 = (np.einsum("ij,ij->j", H_cols, H_cols)
          + n * lam * columns[indices, np.arange(nb)])
    c = np.zeros(nb)
    has_mass = d0 > 0
    c[has_mass] = 1.0 / np.sqrt(d0[has_mass])
    A = H_cols * c
    gram = (columns[indices, :] * c[:, None]) * c[None, :]
    S = n * lam * 0.5 * (gram + gram.T) + A.T @ A
    return A, c, 0.5 * (S + S.T)


# ---------------------------------------------------------------------------
# Incremental Cholesky state
# ---------------------------------------------------------------------------

class CholState:
    """Append-only factorization state for one view.

    After m appended landmarks, ``R`` is the upper-triangular Cholesky
    factor of ``G_m = N lam * gram + A^T A`` where ``gram[j, l] =
    c_j c_l K(i_j, i_l)`` and ``A[:, j] = c_j H k_{i_j}``, with the
    equilibrating scales ``c`` of ``_equilibrated_block``; ``A`` is stored
    column-major. Appends must be applied sequentially (single writer);
    reads of a finished state are safe from any thread.
    """

    def __init__(self, n: int, lam: float, capacity: int = 16):
        if lam <= 0:
            raise ValueError("lambda must be positive")
        self.n = n
        self.lam = lam
        self.m = 0
        self.indices: list[int] = []
        self._c = np.zeros(capacity)
        self._A = np.zeros((n, capacity), order="F")
        self._R = np.zeros((capacity, capacity))

    @property
    def A(self) -> np.ndarray:
        return self._A[:, : self.m]

    @property
    def R(self) -> np.ndarray:
        return self._R[: self.m, : self.m]

    def _grow(self, need: int):
        cap = self._c.shape[0]
        if need <= cap:
            return
        new_cap = cap
        while new_cap < need:
            new_cap *= 2
        c = np.zeros(new_cap)
        c[:cap] = self._c
        A = np.zeros((self.n, new_cap), order="F")
        A[:, :cap] = self._A
        R = np.zeros((new_cap, new_cap))
        R[:cap, :cap] = self._R
        self._c, self._A, self._R = c, A, R


def admit_columns(S: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The landmark-admission gate: a gated progressive Cholesky of ``S``.

    ``S`` is the symmetric equilibrated target block of the candidate
    columns (a Schur complement when a factor already exists). Column j is
    kept when its remaining mass exceeds ``DEFAULT_NEW_MASS_RTOL``, a
    fraction of its unit diagonal. Returns the kept positions and the upper
    factor of ``S[kept][:, kept]``.

    The factorization is right-looking: each kept pivot forms its row of the
    factor over all later candidates (one matrix-vector product with the
    rows kept before it) and downdates their remaining masses, so a
    candidate's test reads its mass directly and needs no triangular solve.
    A rejected candidate leaves no row.
    """
    nb = S.shape[0]
    kept: list[int] = []
    R = np.zeros((nb, nb))
    resid = S.diagonal().copy()
    for j in range(nb):
        if not resid[j] > DEFAULT_NEW_MASS_RTOL:
            continue
        p = len(kept)
        pivot = math.sqrt(resid[j])
        row = (S[j, j + 1:] - R[:p, j] @ R[:p, j + 1:]) / pivot
        R[p, j] = pivot
        R[p, j + 1:] = row
        resid[j + 1:] -= row * row
        kept.append(j)
    return kept, R[: len(kept)][:, kept]


def chol_append_block(state: CholState, indices,
                      columns: np.ndarray) -> list[int]:
    """Append a block of landmarks via block-bordered Cholesky.

    The grown factor's leading block is unchanged, the border is R_old^-T
    applied to the cross terms, and the trailing block factors the Schur
    complement. Columns failing ``admit_columns`` are skipped and leave no
    trace in the state; returns the block-local positions kept.
    """
    indices = np.asarray(indices, dtype=int)
    nb = indices.shape[0]
    if columns.shape != (state.n, nb):
        raise ValueError("column block shape mismatch")
    m0 = state.m

    A_blk, c, S_blk = _equilibrated_block(columns, indices, state.lam)
    if m0 > 0:
        prev_idx = np.asarray(state.indices, dtype=int)
        gram_cross = (columns[prev_idx, :] * state._c[:m0, None]) * c
        C_full = state.A.T @ A_blk + state.n * state.lam * gram_cross
        W = scipy.linalg.solve_triangular(state.R, C_full, trans="T",
                                          lower=False, check_finite=False)
        S_blk = S_blk - W.T @ W
        S_blk = 0.5 * (S_blk + S_blk.T)
    else:
        W = np.zeros((0, nb))

    kept, R_blk = admit_columns(S_blk)
    p = len(kept)
    if p == 0:
        return kept
    state._grow(m0 + p)
    sl = slice(m0, m0 + p)
    state._A[:, sl] = A_blk[:, kept]
    state._c[sl] = c[kept]
    state._R[:m0, sl] = W[:, kept]
    state._R[sl, sl] = R_blk
    state.indices += [int(i) for i in indices[kept]]
    state.m = m0 + p
    return kept


def chol_solve(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve R^T R X = B for an upper-triangular factor R (e.g.
    ``CholState.R``) via two triangular solves."""
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

    Its inputs must be centered (each column sums to zero), and ``Q`` then
    lies in the centered subspace. ``Q`` keeps only independent directions
    (r columns after m appends, r <= m); ``P`` is r x m with column j
    holding the coefficients of input column j in the Q basis, upper
    triangular in the full-rank case. A dependent column gets coefficients
    in P but no fabricated direction. ``Q`` is stored column-major, like
    ``CholState.A``: every access is by column.
    """

    def __init__(self, n: int, capacity: int = 16):
        self.n = n
        self.m = 0
        self.r = 0
        self._Q = np.zeros((n, capacity), order="F")
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
        Q = np.zeros((self.n, new_cap), order="F")
        Q[:, :cap] = self._Q
        P = np.zeros((new_cap, new_cap))
        P[:cap, :cap] = self._P
        self._Q, self._P = Q, P


def qr_append_block(state: QrState, A_blk: np.ndarray) -> QrState:
    """Append a block of centered columns: two block projection passes
    against the existing basis (matrix products), then per-column
    Gram-Schmidt within the small block. Each new direction is centered
    before its norm test, so Q stays in the centered subspace: dividing by a
    small residual norm would otherwise amplify the rounding left in the
    inputs' means. A column whose residual is below 1e-10 times its norm is
    dependent: its projection coefficients are recorded in P but no Q column
    is invented."""
    nb = A_blk.shape[1]
    if A_blk.shape[0] != state.n:
        raise ValueError("column block shape mismatch")
    if nb == 0:
        return state
    state._grow(state.m + nb)
    m0, r0 = state.m, state.r
    Q = state._Q[:, :r0]
    norms = np.linalg.norm(A_blk, axis=0)
    V = np.array(A_blk, order="F")
    # V -= Q C as one BLAS update of the column-major V, with no N x nb
    # temporary
    C = Q.T @ V
    V = dgemm(-1.0, Q, C, 1.0, V, overwrite_c=True)
    C2 = Q.T @ V
    V = dgemm(-1.0, Q, C2, 1.0, V, overwrite_c=True)
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
        v -= v.mean()
        rnorm = float(np.linalg.norm(v))
        if rnorm >= _QR_DEP_RTOL * max(float(norms[j]), np.finfo(float).tiny):
            state._Q[:, r] = v / rnorm
            state._P[r, m0 + j] = rnorm
            state.r = r + 1
        state.m += 1
    return state
