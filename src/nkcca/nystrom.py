"""The incremental factor state of the Nystrom solver.

The incremental solver maintains, per view and in an append-only fashion,
one ``FactorState`` of its landmarks. With ``A`` the centered, equilibrated
landmark columns ``c_j H k_{i_j}`` (never stored), it holds

* ``R`` — the upper-triangular Cholesky factor of the regularized target
  ``G = N lam C^T K C + A^T A``, with ``C`` the unit sampling matrix of the
  landmarks scaled by ``c``,
* ``Q, P`` — a thin orthonormal factorization ``A = Q P``, so every product
  with ``A`` goes through ``Q`` and ``P``,
* ``M = P R^-1`` — the factor the solver reads: ``A G^-1 A^T = Q M M^T Q^T``.

Each column is scaled by ``c_j = 1 / sqrt(d0_j)``, where ``d0_j = ||H k_j||^2
+ N lam K_jj`` is its diagonal in the unscaled target, so every diagonal of
``G`` is 1 (van der Sluis: within sqrt(m) of the best diagonal scaling). The
fitted model does not depend on a per-column scaling, so the sampling plan's
importance weights never enter the solver. With unit diagonals, the
Schur-complement diagonal of a candidate is the fraction of its mass that
the landmarks kept before it do not explain. ``_equilibrated_block`` is the
one place that builds a candidate block.

The state grows only by blocks of p columns through ``chol_append_block``
(a single landmark is a block of one). The block's projection
``C = Q^T A_blk`` is formed once: ``R`` gains the border ``[W; B]`` with
``W = R_old^-T (P^T C + N lam gram_cross)`` and ``B`` the factor of the
Schur complement, and ``qr_append_block`` reuses ``C`` over the kept
columns as its first projection pass, runs a second one and then
orthogonalizes within the block, ``_QR_SUB`` columns at a time. ``M`` is
bordered last, from ``W`` and ``B``: its new columns are
``(P_new - M_old W) B^-1``, and its old columns are zero in the rows of
the new Q directions. Leading blocks never change, so advancing to a
larger rank reuses everything already computed. A state
is sized once, by a capacity fixed when it is made (a sampling plan bounds
the landmarks of a rank path in advance), and an append past it raises
``ValueError``. The capacity is reserved, not committed: ``R, Q, P, M``
each live in their own anonymous memory mapping (``_mapped_zeros``), whose
pages become resident on their first write, so resident memory follows the
landmarks the gate keeps rather than the candidates it is offered, and a
dropped state returns its memory to the system. tracemalloc does not see
these buffers. Every buffer is column-major: appends write whole columns,
the projections and the Gram-Schmidt loop read them, and a leading block
of ``R`` reaches LAPACK without a transposing copy (``solve_upper``). ``Q``
is the only buffer with N rows.
``admit_columns`` is the one landmark-admission gate (shared with the
from-scratch reference fitter) and ``solve_upper`` the one triangular solve
with a factor. ``chol_solve``, the solve with the target, has no caller in
the solver and is not exported; it stays a module attribute because
``bench/tracing.py`` wraps it. For the same reason ``chol_append_block``
calls ``qr_append_block`` through the module global.
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
# before it. Below it a column is numerically dependent: keeping it would
# put a noise-level pivot into the triangular factor while adding nothing
# to the approximation. This is a floor on each pivot, not a bound on the
# condition number of the target.
DEFAULT_NEW_MASS_RTOL = 1e-8

# Residual threshold below which an incoming QR column counts as dependent.
_QR_DEP_RTOL = 1e-10

# Columns per sub-block of the in-block Gram-Schmidt in ``qr_append_block``.
# On one BLAS thread 16 to 64 time alike and 8 is slower (README, numerical
# notes).
_QR_SUB = 32


def _equilibrated_block(columns: np.ndarray, indices: np.ndarray,
                        lam: float):
    """Candidate block of the equilibrated target, built in the block.

    ``columns`` holds the N x p kernel columns of the landmarks ``indices``
    and is consumed: the rows the target reads (the diagonal and the
    block's own Gram block) are gathered first, then the columns are
    centered and scaled by ``c = 1 / sqrt(d0)`` in their own buffer, which
    is returned as A. Returns A, the scales ``c`` (0 for a column without
    mass, which the gate then rejects) and the block's unit-diagonal target
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
    """Solve R X = B, or R^T X = B with ``trans``, for an upper-triangular R.
    Passed as the lower triangle of R^T, a column-major R (or a block of a
    factor buffer) reaches LAPACK without a transposing copy."""
    return scipy.linalg.solve_triangular(R.T, B, trans="N" if trans else "T",
                                         lower=True, check_finite=False)


def _mapped_zeros(rows: int, cols: int) -> np.ndarray:
    """A zero-filled, column-major rows x cols float array in its own
    anonymous mapping, unmapped when the last view of the array dies. From
    numpy's allocator, a buffer of up to 32 MB can be a recycled chunk of
    glibc's heap (once a freed mapping has raised its mmap threshold), which
    calloc zero-fills in full and which stays in the heap after it is
    freed. Like numpy's own large arrays, the mapping asks for transparent
    huge pages where mmap offers the advice. mmap rejects a length of 0."""
    if rows * cols == 0:
        return np.zeros((rows, cols), order="F")
    buf = mmap.mmap(-1, rows * cols * 8)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.ndarray((rows, cols), buffer=buf, order="F")


class FactorState:
    """Append-only factor state of one view's landmarks.

    After m appended landmarks with equilibrated columns ``A[:, j] = c_j H
    k_{i_j}`` (the scales ``c`` of ``_equilibrated_block``), ``R`` is the
    upper-triangular Cholesky factor of ``G_m = N lam * gram + A^T A``, where
    ``gram[j, l] = c_j c_l K(i_j, i_l)``, and ``A = Q P``. ``Q`` keeps only
    independent directions (r columns, r <= m) and lies in the centered
    subspace; ``P`` is r x m with column j holding the coefficients of
    column j in the Q basis, upper triangular in the full-rank case.
    ``M = P R^-1`` is r x m, so ``A G_m^-1 A^T = Q M M^T Q^T``. Appends
    must be applied sequentially (single writer); reads of a finished state
    are safe from any thread. ``capacity`` bounds m; it reserves the
    buffers of ``R, Q, P, M`` but commits only the pages appends write,
    in mappings that tracemalloc does not trace and that live as long as
    any view of them.
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


def chol_append_block(state: FactorState, indices,
                      columns: np.ndarray) -> list[int]:
    """Append a block of landmarks: block-bordered Cholesky, QR, then M.

    The cross terms with the kept landmarks are ``A^T A_blk = P^T C`` plus
    the ridge term, with ``C = Q^T A_blk`` formed once over the block. The
    grown factor's leading block is unchanged, the border is R_old^-T
    applied to the cross terms, and the trailing block factors the Schur
    complement. Columns failing ``admit_columns`` are skipped and leave no
    trace in the state; the kept ones go to ``qr_append_block`` with their
    columns of ``C``. With ``R = [[R_old, W], [0, B]]``, ``M = P R^-1``
    keeps its leading columns (zero in the new Q rows) and gains
    ``(P[:, m0:] - M_old W) B^-1``. Returns the block-local positions kept.
    Keeping more landmarks than the state's capacity raises ``ValueError``.

    ``columns`` (the N x p kernel columns of ``indices``) is consumed: it
    is the one N x p buffer of the append. The rows of the kept landmarks
    are gathered from it first; ``_equilibrated_block`` then builds the
    block in it, the kept columns move to its front in order, and
    ``qr_append_block`` forms their residual there.
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
    if m0 > 0:
        gram_cross *= state._c[:m0, None]
        gram_cross *= c
        W = solve_upper(state.R, state.P.T @ C
                        + state.n * state.lam * gram_cross, trans=True)
        S_blk = S_blk - W.T @ W
        S_blk = 0.5 * (S_blk + S_blk.T)
    else:
        W = np.zeros((0, nb))

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
    """Solve R^T R X = B for an upper-triangular factor R (e.g.
    ``FactorState.R``) via two triangular solves."""
    if R.shape[0] == 0:
        raise ValueError("empty factor")
    return solve_upper(R, solve_upper(R, B, trans=True))


def qr_append_block(state: FactorState, A_blk: np.ndarray,
                    C: np.ndarray) -> FactorState:
    """Append a block of centered columns to ``Q, P`` and advance ``m``: the
    QR step of ``chol_append_block``, which writes the rest of the state (R,
    M, the scales and ``indices``) around it. It is not public, since a
    state it advanced alone has zero R and M columns.

    ``C = Q^T A_blk`` is the first block projection pass against the
    existing basis; a second pass follows. The residual is then
    orthogonalized in sub-blocks of ``_QR_SUB`` columns (block classical
    Gram-Schmidt with reorthogonalization): each sub-block takes two GEMM
    passes against the Q columns that the block's earlier sub-blocks
    created, then the per-column CGS2 loop runs against only the
    sub-block's own new columns. Each new direction is centered before its
    norm test, so Q stays in the centered subspace: dividing by a small
    residual norm would otherwise amplify the rounding left in the inputs'
    means. A column whose residual is below 1e-10 times its norm is
    dependent: its projection coefficients are recorded in P but no Q
    column is invented. Appending past the state's capacity raises
    ``ValueError`` and leaves the state as it was. ``A_blk`` is consumed: a
    column-major block holds the residual, and its columns are left
    projected off the basis, not as they were passed.
    """
    nb = A_blk.shape[1]
    m0, r0 = state.m, state.r
    if A_blk.shape[0] != state.n or C.shape != (r0, nb):
        raise ValueError("column block shape mismatch")
    if nb == 0:
        return state
    if m0 + nb > state.capacity:
        raise ValueError(f"{m0 + nb} columns exceed the capacity")
    Q = state._Q[:, :r0]
    norms = np.linalg.norm(A_blk, axis=0)
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
            v -= v.mean()
            rnorm = float(np.linalg.norm(v))
            if rnorm >= _QR_DEP_RTOL * max(float(norms[j]),
                                           np.finfo(float).tiny):
                state._Q[:, r] = v / rnorm
                state._P[r, m0 + j] = rnorm
                state.r = r + 1
            state.m += 1
    return state
