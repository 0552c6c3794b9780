"""The incremental factor state of the Nystrom solver: ``FactorState``, its
one append primitive ``chol_append_block``, the one landmark-admission gate
``admit_columns`` and the one triangular solve with a factor,
``solve_upper``. The algebra of the state, its equilibration and the layout
and memory of its buffers are in README, "Numerical notes".
"""

from __future__ import annotations

import math
import mmap

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm

from .kernels import _check_positive

__all__ = [
    "FactorState",
    "admit_columns",
    "chol_append_block",
    "solve_upper",
]

# A landmark is kept only if more than this fraction of its mass in the
# equilibrated target is new, i.e. not explained by the landmarks kept
# before it: a floor on each pivot, not a bound on the target's condition.
DEFAULT_NEW_MASS_RTOL = 1e-8

# Residual threshold below which an incoming QR column counts as dependent.
_QR_DEP_RTOL = 1e-10

# Columns per sub-block of the in-block Gram-Schmidt in ``qr_append_block``
# (README, "Numerical notes", has the timings that chose it).
_QR_SUB = 32


def _equilibrated_block(columns: np.ndarray, indices: np.ndarray,
                        lam: float):
    """A candidate block of the equilibrated target, built only here.

    Consumes ``columns``, the N x p kernel columns of ``indices``: they are
    centered and scaled by ``c = 1 / sqrt(||H k_j||^2 + N lam K_jj)`` in
    place and returned as A. Returns A, ``c`` (0 for a column without mass,
    which the gate then rejects) and the unit-diagonal block target
    ``N lam c_i c_j K_ij + A^T A``.
    """
    n, nb = columns.shape
    diag = columns[indices, np.arange(nb)]
    gram = columns[indices, :]
    columns -= columns.mean(axis=0)
    d0 = np.einsum("ij,ij->j", columns, columns) + n * lam * diag
    c = np.zeros(nb)
    has_mass = d0 > 0
    c[has_mass] = 1.0 / np.sqrt(d0[has_mass])
    columns *= c
    gram *= c[:, None]
    gram *= c[None, :]
    S = n * lam * 0.5 * (gram + gram.T) + columns.T @ columns
    return columns, c, 0.5 * (S + S.T)


def solve_upper(R: np.ndarray, B: np.ndarray, trans: bool = False):
    """Solve R X = B, or R^T X = B with ``trans``, for an upper-triangular R;
    a column-major R (or a block of a factor buffer) is not copied."""
    return scipy.linalg.solve_triangular(R.T, B, trans="N" if trans else "T",
                                         lower=True, check_finite=False)


def _mapped_zeros(rows: int, cols: int) -> np.ndarray:
    """A zero-filled, column-major rows x cols float array in its own
    anonymous mapping: pages become resident on their first write, and the
    mapping is unmapped when the last view of the array dies."""
    if rows * cols == 0:   # mmap rejects a length of 0
        return np.zeros((rows, cols), order="F")
    buf = mmap.mmap(-1, rows * cols * 8)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.ndarray((rows, cols), buffer=buf, order="F")


class FactorState:
    """Append-only factor state of at most ``capacity`` landmarks of one
    view, written only by ``chol_append_block``, one append at a time;
    reads between appends are safe from any thread.

    After m landmarks with equilibrated columns ``A[:, j] = c_j H k_{i_j}``
    (never stored), ``R`` (m x m, upper) is the Cholesky factor of
    ``G = N lam c_j c_l K(i_j, i_l) + A^T A``, ``Q`` (N x r, orthonormal,
    centered) and ``P`` (r x m) give ``A = Q P`` with r <= m independent
    directions, and ``M = P R^-1``, so ``A G^-1 A^T = Q M M^T Q^T``. The
    properties are views of buffers that later appends extend.
    """

    def __init__(self, n: int, lam: float, capacity: int):
        _check_positive("lambda", lam)
        self.n = n
        self.lam = lam
        self.capacity = capacity
        self.m = 0
        self.r = 0
        self.indices: list[int] = []
        self._c = np.zeros(capacity, order="F")
        self._R = _mapped_zeros(capacity, capacity)
        self._Q = _mapped_zeros(n, capacity)
        self._P = _mapped_zeros(capacity, capacity)
        self._M = _mapped_zeros(capacity, capacity)

    @property
    def R(self) -> np.ndarray:
        return self._R[: self.m, : self.m]

    @property
    def Q(self) -> np.ndarray:
        return self._Q[:, : self.r]

    @property
    def P(self) -> np.ndarray:
        return self._P[: self.r, : self.m]

    @property
    def M(self) -> np.ndarray:
        return self._M[: self.r, : self.m]


def admit_columns(S: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The landmark-admission gate: a gated right-looking Cholesky of the
    symmetric candidate target ``S`` (a Schur complement when a factor
    already exists), which is only read. Candidate j is kept when its
    remaining mass exceeds ``DEFAULT_NEW_MASS_RTOL`` of its unit diagonal.
    Returns the kept positions and the upper factor of
    ``S[kept][:, kept]``."""
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


def chol_append_block(state: FactorState, indices,
                      columns: np.ndarray) -> list[int]:
    """Append the landmarks ``indices`` that ``admit_columns`` keeps to
    ``state``: R gains the border ``[[W], [B]]``, Q and P the QR of the kept
    columns, M its new columns ``(P[:, m0:] - M_old W) B^-1``; leading
    blocks never change, and rejected columns leave no trace. Consumes
    ``columns``, the N x p kernel columns of ``indices``: it is the append's
    one N x p buffer. Returns the block positions kept. Raises
    ``ValueError`` for a block of another shape, or when the kept columns
    would exceed the state's capacity.
    """
    indices = np.asarray(indices, dtype=int)
    nb = indices.shape[0]
    if columns.shape != (state.n, nb):
        raise ValueError("column block shape mismatch")
    m0 = state.m

    # the rows of the kept landmarks, raw, before the block is consumed
    gram_cross = columns[np.asarray(state.indices, dtype=int), :]
    A_blk, c, S_blk = _equilibrated_block(columns, indices, state.lam)
    C = state.Q.T @ A_blk
    gram_cross *= state._c[:m0, None]
    gram_cross *= c
    W = solve_upper(state.R, state.P.T @ C + state.n * state.lam * gram_cross,
                    trans=True)
    S_blk = S_blk - W.T @ W
    S_blk = 0.5 * (S_blk + S_blk.T)

    kept, R_blk = admit_columns(S_blk)
    if not kept:
        return kept
    r0 = state.r
    for j, col in enumerate(kept):   # kept[j] >= j: no column is lost
        if col != j:
            A_blk[:, j] = A_blk[:, col]
    qr_append_block(state, A_blk[:, :len(kept)], C[:, kept])
    sl = slice(m0, state.m)
    W = W[:, kept]
    state._c[sl] = c[kept]
    state._R[:m0, sl] = W
    state._R[sl, sl] = R_blk
    rhs = state._P[: state.r, sl].copy()
    rhs[:r0] -= state._M[:r0, :m0] @ W
    state._M[: state.r, sl] = solve_upper(R_blk, rhs.T, trans=True).T
    state.indices += [int(i) for i in indices[kept]]
    return kept


def chol_solve(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve R^T R X = B for an upper-triangular R, or raise ValueError if
    R is empty. No caller in the package: bench/tracing.py wraps it."""
    if R.shape[0] == 0:
        raise ValueError("empty factor")
    return solve_upper(R, solve_upper(R, B, trans=True))


def qr_append_block(state: FactorState, A_blk: np.ndarray,
                    C: np.ndarray) -> None:
    """The QR step of ``chol_append_block``, its one caller, which writes R,
    M, the scales and ``indices`` around it: appends the centered columns
    ``A_blk`` to ``Q, P`` and advances ``m``, given ``C = Q^T A_blk``. A
    column whose residual falls below ``_QR_DEP_RTOL`` times its norm adds a
    column to P but none to Q. Consumes ``A_blk``: a column-major block ends
    holding its residual. Raises ``ValueError`` past the capacity, leaving
    the state as it was.
    """
    nb = A_blk.shape[1]
    m0, r0 = state.m, state.r
    if m0 + nb > state.capacity:
        raise ValueError(f"{m0 + nb} columns exceed the capacity")
    Q = state._Q[:, :r0]
    # one sub-block at a time: no N x nb temporary
    norms = np.empty(nb)
    for s0 in range(0, nb, _QR_SUB):
        norms[s0:s0 + _QR_SUB] = np.linalg.norm(A_blk[:, s0:s0 + _QR_SUB],
                                                axis=0)
    # V = A_blk - Q C, then V -= Q C2, as BLAS updates in A_blk's own
    # buffer (in a column-major copy if A_blk is not column-major)
    V = dgemm(-1.0, Q, C, 1.0, A_blk, overwrite_c=True)
    C2 = Q.T @ V
    V = dgemm(-1.0, Q, C2, 1.0, V, overwrite_c=True)
    state._P[:r0, m0 : m0 + nb] = C + C2
    for s0 in range(0, nb, _QR_SUB):
        s1 = min(s0 + _QR_SUB, nb)
        rs = state.r
        Vs = V[:, s0:s1]
        if rs > r0:
            # two GEMM passes against the block's earlier sub-blocks
            Qn = state._Q[:, r0:rs]
            D = Qn.T @ Vs
            Vs = dgemm(-1.0, Qn, D, 1.0, Vs, overwrite_c=True)
            D2 = Qn.T @ Vs
            Vs = dgemm(-1.0, Qn, D2, 1.0, Vs, overwrite_c=True)
            state._P[r0:rs, m0 + s0 : m0 + s1] = D + D2
        for j in range(s0, s1):
            r = state.r
            Qnew = state._Q[:, rs:r]
            v = Vs[:, j - s0]
            if r > rs:
                cj = Qnew.T @ v
                v = v - Qnew @ cj
                c2 = Qnew.T @ v
                v -= Qnew @ c2
                state._P[rs:r, m0 + j] = cj + c2
            v -= v.mean()   # keeps Q centered (README, "Numerical notes")
            rnorm = float(np.linalg.norm(v))
            if rnorm >= _QR_DEP_RTOL * max(float(norms[j]),
                                           np.finfo(float).tiny):
                state._Q[:, r] = v / rnorm
                state._P[r, m0 + j] = rnorm
                state.r = r + 1
            state.m += 1
