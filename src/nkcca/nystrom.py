"""Nystrom factors and the incremental Cholesky / QR state machines.

The incremental solver maintains, per view and in an append-only fashion,

* ``A`` — the centered, weighted landmark columns ``s_j * H k_{i_j}``,
* ``R`` — the upper-triangular Cholesky factor of the regularized target
  ``G = N lam S^T K S + A^T A``,
* ``Q, P`` — a thin orthonormal factorization ``A = Q P``.

The rank-path solver grows both by blocks of p columns
(``chol_append_block``, ``qr_append_block``): ``R`` gains the border
``[W; B]`` with ``W = R_old^-T C`` for the cross terms ``C`` and ``B`` the
factor of the Schur complement, and ``Q, P`` gain columns by two block
projection passes plus Gram-Schmidt within the block. Leading blocks never
change, so advancing to a larger rank reuses everything already computed.
``chol_step`` / ``qr_append`` are the single-column forms (a zero pad, a
rank-one update and a rank-one downdate of ``R``).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .kernels import KernelColumns
from .sampling import SamplingPlan

__all__ = [
    "DowndateError",
    "NystromFactor",
    "factor",
    "apply",
    "cholupdate",
    "choldowndate",
    "CholState",
    "chol_init",
    "chol_step",
    "chol_append_block",
    "chol_solve",
    "QrState",
    "qr_append",
    "qr_append_block",
]

# Relative threshold at which a downdate pivot is declared to have lost
# positive definiteness. Exact duplicate columns cancel to ~machine epsilon.
_DOWNDATE_RTOL = 4.0 * np.finfo(float).eps

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


class DowndateError(RuntimeError):
    """A rank-one downdate (or its dense fallback) lost positive definiteness."""


# ---------------------------------------------------------------------------
# Nystrom factor (regularized column-sampled approximation)
# ---------------------------------------------------------------------------

class NystromFactor:
    """Factored form of the column-sampled approximation
    ``K ~ C (S^T K S + N gamma I)^+ C^T`` with ``C = K S``.

    ``S`` carries the plan's importance weights; the N x N product is never
    formed here (use :meth:`dense` explicitly for small-N diagnostics).
    """

    def __init__(self, C: np.ndarray, W_reg: np.ndarray, gamma: float):
        self.C = C
        self.W_reg = 0.5 * (W_reg + W_reg.T)
        self.gamma = gamma
        self._cho = None
        self._pinv = None

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[1]

    def _solve(self, B: np.ndarray) -> np.ndarray:
        if self._pinv is not None:
            return self._pinv @ B
        if self._cho is None:
            try:
                self._cho = scipy.linalg.cho_factor(self.W_reg)
            except scipy.linalg.LinAlgError:
                self._pinv = scipy.linalg.pinvh(self.W_reg)
                return self._pinv @ B
        return scipy.linalg.cho_solve(self._cho, B)

    def dense(self) -> np.ndarray:
        """Materialize the N x N approximation (small-N diagnostics only)."""
        out = self.C @ self._solve(self.C.T)
        return 0.5 * (out + out.T)


def factor(oracle: KernelColumns, plan: SamplingPlan, gamma: float) -> NystromFactor:
    """Build the weighted Nystrom factor for a sampling plan.

    C holds the weighted kernel columns K S and W_reg = S^T K S + N gamma I;
    with gamma = 0 and a rank-deficient core the pseudo-inverse is used when
    applying the factor.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    n = oracle.n
    w = plan.weights
    cols = np.column_stack([oracle.column(i) for i in plan.indices])
    C = cols * w
    W = (C[plan.indices, :] * w[:, None])
    W_reg = 0.5 * (W + W.T) + n * gamma * np.eye(plan.m)
    return NystromFactor(C=C, W_reg=W_reg, gamma=gamma)


def apply(f: NystromFactor, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product of the implied approximation with v."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != f.n:
        raise ValueError("vector length does not match factor dimension")
    return f.C @ f._solve(f.C.T @ v)


# ---------------------------------------------------------------------------
# Rank-one Cholesky update / downdate on upper-triangular factors
# ---------------------------------------------------------------------------

def cholupdate(R: np.ndarray, x: np.ndarray) -> np.ndarray:
    """In-place rank-one update: R'^T R' = R^T R + x x^T.

    Givens-based, so a zero diagonal entry (from zero padding) is handled
    without division by zero. ``x`` is consumed.
    """
    n = R.shape[0]
    for k in range(n):
        rkk = R[k, k]
        xk = x[k]
        r = math.hypot(rkk, xk)
        if r == 0.0:
            continue
        c = rkk / r
        s = xk / r
        R[k, k] = r
        if k + 1 < n:
            row = R[k, k + 1:].copy()
            R[k, k + 1:] = c * row + s * x[k + 1:]
            x[k + 1:] = c * x[k + 1:] - s * row
    return R


def choldowndate(R: np.ndarray, x: np.ndarray) -> np.ndarray:
    """In-place rank-one downdate: R'^T R' = R^T R - x x^T.

    Raises DowndateError when a pivot loses positive definiteness instead of
    producing NaNs; callers may then re-factorize densely. ``x`` is consumed.
    """
    n = R.shape[0]
    for k in range(n):
        rkk = R[k, k]
        xk = x[k]
        d = (rkk - xk) * (rkk + xk)
        if d <= _DOWNDATE_RTOL * rkk * rkk:
            raise DowndateError(
                f"downdate pivot {k} lost positive definiteness "
                f"(d = {d:.3e}, pivot = {rkk:.3e})")
        r = math.sqrt(d)
        c = r / rkk
        s = xk / rkk
        R[k, k] = r
        if k + 1 < n:
            R[k, k + 1:] = (R[k, k + 1:] - s * x[k + 1:]) / c
            x[k + 1:] = c * x[k + 1:] - s * R[k, k + 1:]
    return R


# ---------------------------------------------------------------------------
# Incremental Cholesky state
# ---------------------------------------------------------------------------

class CholState:
    """Append-only factorization state for one view.

    After m appended landmarks, ``R`` is the upper-triangular Cholesky
    factor of ``G_m = N lam * gram + A^T A`` where ``gram[j, l] =
    s_j s_l K(i_j, i_l)`` and ``A[:, j] = s_j H k_{i_j}``. Steps must be
    applied sequentially (single writer); reads of a finished state are safe
    from any thread.
    """

    def __init__(self, n: int, lam: float, capacity: int = 16,
                 new_mass_rtol: float = DEFAULT_NEW_MASS_RTOL,
                 pivot_cond_limit: float = DEFAULT_PIVOT_COND_LIMIT):
        if lam <= 0:
            raise ValueError("lambda must be positive")
        self.n = n
        self.lam = lam
        self.new_mass_rtol = new_mass_rtol
        self.pivot_cond_limit = pivot_cond_limit
        self.max_pivot2 = 0.0
        self.m = 0
        self.indices: list[int] = []
        self._s = np.zeros(capacity)
        self._A = np.zeros((n, capacity))
        self._R = np.zeros((capacity, capacity))
        self._gram = np.zeros((capacity, capacity))

    def admit_pivot(self, new_mass: float, diag: float) -> bool:
        """Gate for a candidate landmark's Schur complement."""
        if new_mass <= self.new_mass_rtol * diag or diag <= 0:
            return False
        return new_mass > self.max_pivot2 / self.pivot_cond_limit

    @classmethod
    def empty(cls, n: int, lam: float) -> "CholState":
        return cls(n, lam)

    @property
    def A(self) -> np.ndarray:
        return self._A[:, : self.m]

    @property
    def R(self) -> np.ndarray:
        return self._R[: self.m, : self.m]

    @property
    def s_weights(self) -> np.ndarray:
        return self._s[: self.m]

    @property
    def gram(self) -> np.ndarray:
        """The cached s-weighted kernel submatrix S^T K S."""
        return self._gram[: self.m, : self.m]

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
        G = np.zeros((new_cap, new_cap))
        G[:cap, :cap] = self._gram
        self._s, self._A, self._R, self._gram = s, A, R, G

    def target(self) -> np.ndarray:
        """Dense G_m = N lam S^T K S + A^T A (oracle for tests/fallback)."""
        G = self.n * self.lam * self.gram + self.A.T @ self.A
        return 0.5 * (G + G.T)


def chol_init(oracle: KernelColumns, i1: int, s1: float, lam: float) -> CholState:
    """Start a factorization state with its first landmark."""
    state = CholState.empty(oracle.n, lam)
    chol_step(state, i1, s1, column=oracle.column(i1))
    return state


def chol_step(state: CholState, i_m: int, s_m: float, column: np.ndarray | None = None,
              oracle: KernelColumns | None = None,
              dense_fallback: bool = True) -> CholState:
    """Append one landmark column, updating R by a pad/update/downdate cycle.

    ``column`` is the raw kernel column for index ``i_m`` (fetched from
    ``oracle`` when omitted). The update is transactional: on failure the
    state is unchanged and DowndateError propagates. With ``dense_fallback``
    a failed downdate first retries via a dense Cholesky of the grown target,
    which only fails when that target is genuinely not positive definite
    (e.g. an exactly duplicated landmark).
    """
    if s_m <= 0:
        raise ValueError("landmark weight must be positive")
    if column is None:
        if oracle is None:
            raise ValueError("provide the kernel column or an oracle")
        column = oracle.column(i_m)
    k = np.asarray(column, dtype=float)
    n, lam, m = state.n, state.lam, state.m

    a = s_m * (k - k.mean())
    diag = float(k[i_m])
    d = float(a @ a) + n * lam * s_m * s_m * diag
    if m == 0 and d <= 0:
        raise DowndateError("degenerate first landmark (zero column and zero "
                            "self-affinity)")
    prev_idx = np.asarray(state.indices, dtype=int)
    b = s_m * (state.s_weights * k[prev_idx])
    c = state.A.T @ a + n * lam * b

    # Reject landmarks whose Schur complement d - c^T G^-1 c is negligible
    # (numerically dependent) or would breach the factor's condition cap.
    if m > 0:
        w = scipy.linalg.solve_triangular(state.R, c, trans="T", lower=False)
        new_mass = d - float(w @ w)
    else:
        new_mass = d
    if not state.admit_pivot(new_mass, d):
        raise DowndateError(
            f"landmark {i_m} rejected (unexplained mass {new_mass:.3e} of "
            f"diagonal {d:.3e}, largest pivot {state.max_pivot2:.3e})")

    g = math.sqrt(1.0 + d)
    u = np.concatenate([c / (1.0 + g), [g]])
    v = np.concatenate([c / (1.0 + g), [-1.0]])

    R_new = np.zeros((m + 1, m + 1))
    R_new[:m, :m] = state.R
    cholupdate(R_new, u.copy())
    try:
        choldowndate(R_new, v.copy())
    except DowndateError:
        if not dense_fallback:
            raise
        G_new = np.zeros((m + 1, m + 1))
        G_new[:m, :m] = state.R.T @ state.R
        G_new[:m, m] = c
        G_new[m, :m] = c
        G_new[m, m] = d
        try:
            R_new = scipy.linalg.cholesky(G_new, lower=False)
        except scipy.linalg.LinAlgError as exc:
            raise DowndateError(
                "downdate failed and dense re-factorization found the grown "
                "target not positive definite") from exc
        if np.any(np.diag(R_new) ** 2 <= _DOWNDATE_RTOL * np.diag(G_new)):
            raise DowndateError(
                "downdate failed and the grown target is singular to machine "
                "precision")
    if np.any(np.diag(R_new) <= 0):
        raise DowndateError("non-positive diagonal after downdate")

    # Commit.
    state._grow(m + 1)
    state._A[:, m] = a
    state._s[m] = s_m
    state._gram[:m, m] = b
    state._gram[m, :m] = b
    state._gram[m, m] = s_m * s_m * diag
    state._R[: m + 1, : m + 1] = R_new
    state.indices.append(int(i_m))
    state.max_pivot2 = max(state.max_pivot2, new_mass)
    state.m = m + 1
    return state


def chol_append_block(state: CholState, indices, scales,
                      columns: np.ndarray) -> list[int]:
    """Append a block of landmarks via block-bordered Cholesky.

    Mathematically identical to repeated chol_step (the grown factor's
    leading block is unchanged, the border is R_old^-T applied to the cross
    terms, and the trailing block factors the Schur complement), but runs on
    matrix kernels instead of per-column rank-one passes. Columns failing
    the new-mass gate are skipped; returns the block-local positions kept.
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
                                          lower=False)
        S_blk = (n * lam * gram_blk + A_blk.T @ A_blk) - W.T @ W
    else:
        gram_cross = np.zeros((0, nb))
        W = np.zeros((0, nb))
        S_blk = n * lam * gram_blk + A_blk.T @ A_blk
    S_blk = 0.5 * (S_blk + S_blk.T)

    # Progressive bordering inside the (small) Schur block, gating each
    # column on its remaining mass and the factor's condition cap.
    kept: list[int] = []
    R_blk = np.zeros((nb, nb))
    max_pivot2 = state.max_pivot2
    for j in range(nb):
        p = len(kept)
        resid = S_blk[j, j]
        if p > 0:
            c_in = S_blk[kept, j]
            w_in = scipy.linalg.solve_triangular(R_blk[:p, :p], c_in,
                                                 trans="T", lower=False)
            resid -= float(w_in @ w_in)
        else:
            w_in = np.zeros(0)
        if (resid <= state.new_mass_rtol * d_full[j] or d_full[j] <= 0
                or resid <= max_pivot2 / state.pivot_cond_limit):
            continue
        R_blk[:p, p] = w_in
        R_blk[p, p] = math.sqrt(resid)
        max_pivot2 = max(max_pivot2, resid)
        kept.append(j)

    p = len(kept)
    if p == 0:
        return kept
    state._grow(m0 + p)
    sl = slice(m0, m0 + p)
    state._A[:, sl] = A_blk[:, kept]
    state._s[sl] = scales[kept]
    state._R[:m0, sl] = W[:, kept]
    state._R[sl, sl] = R_blk[:p, :p]
    state._gram[:m0, sl] = gram_cross[:, kept]
    state._gram[sl, :m0] = gram_cross[:, kept].T
    state._gram[sl, sl] = gram_blk[np.ix_(kept, kept)]
    state.indices.extend(int(i) for i in indices[kept])
    state.max_pivot2 = max_pivot2
    state.m = m0 + p
    return kept


def chol_solve(state: CholState, B: np.ndarray) -> np.ndarray:
    """Solve G_m X = B via two triangular solves with the cached factor."""
    if state.m == 0:
        raise ValueError("empty factorization state")
    B = np.asarray(B, dtype=float)
    squeeze = B.ndim == 1
    if squeeze:
        B = B[:, None]
    Y = scipy.linalg.solve_triangular(state.R, B, trans="T", lower=False)
    X = scipy.linalg.solve_triangular(state.R, Y, lower=False)
    return X[:, 0] if squeeze else X


# ---------------------------------------------------------------------------
# Incremental QR via Gram-Schmidt with reorthogonalization
# ---------------------------------------------------------------------------

class QrState:
    """Thin incremental QR of the centered landmark columns.

    ``Q`` keeps only independent directions (r columns after m appends,
    r <= m); ``P`` is r x m with column j holding the coefficients of input
    column j in the Q basis, upper triangular in the full-rank case.
    Dependent columns are flagged rather than given fabricated directions.
    """

    def __init__(self, n: int, capacity: int = 16):
        self.n = n
        self.m = 0
        self.r = 0
        self.dependent: list[bool] = []
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


def qr_append(state: QrState, a_m: np.ndarray) -> QrState:
    """Append one column: project against Q, reorthogonalize once, extend.

    A residual below 1e-10 * ||a_m|| flags the column as dependent: its
    projection coefficients are recorded in P but no Q column is invented.
    """
    a = np.asarray(a_m, dtype=float)
    if a.shape[0] != state.n:
        raise ValueError("column length does not match state dimension")
    state._grow(state.m + 1)
    m, r = state.m, state.r
    Q = state._Q[:, :r]
    v = a.copy()
    coef = Q.T @ v
    v -= Q @ coef
    c2 = Q.T @ v
    v -= Q @ c2
    coef += c2
    rnorm = float(np.linalg.norm(v))
    state._P[:r, m] = coef
    if rnorm < _QR_DEP_RTOL * max(float(np.linalg.norm(a)), np.finfo(float).tiny):
        state.dependent.append(True)
    else:
        state._Q[:, r] = v / rnorm
        state._P[r, m] = rnorm
        state.r = r + 1
        state.dependent.append(False)
    state.m = m + 1
    return state


def qr_append_block(state: QrState, A_blk: np.ndarray) -> QrState:
    """Append a block of columns: two block projection passes against the
    existing basis (matrix products), then per-column Gram-Schmidt within
    the small block. Same dependence rule as qr_append."""
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
        if rnorm < _QR_DEP_RTOL * max(float(norms[j]), np.finfo(float).tiny):
            state.dependent.append(True)
        else:
            state._Q[:, r] = v / rnorm
            state._P[r, m0 + j] = rnorm
            state.r = r + 1
            state.dependent.append(False)
        state.m += 1
    return state
