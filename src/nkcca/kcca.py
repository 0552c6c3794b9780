"""Exact kernel CCA, the Nystrom rank-path solver, and out-of-sample mapping.

The exact solver forms T = (Kc1 + N lam1 I)^-1 Kc1 Kc2 (Kc2 + N lam2 I)^-1
densely (Kc = centered Gram matrix) and reads the canonical correlations off
its singular values. The Nystrom solver never touches N x N matrices: per
view it maintains the incremental Cholesky factor R of
G = N lam S^T K S + (H K S)^T (H K S) = R^T R and a thin QR of H K S = Q P,
plus the cross-view core matrix (H K1 S1)^T (H K2 S2). At a rank checkpoint
the canonical system reduces to the SVD of the small r1 x r2 matrix
P1 G1^-1 core G2^-1 P2^T = M1 Kt M2^T, with M = P R^-1 per view and
Kt = R1^-T core R2^-1. M and Kt are grown by bordering as landmarks are
appended (their leading blocks never change), so each checkpoint forms the
matrix with two products and takes its top singular triplets, which lift
back through Q1, Q2.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, svds

from .kernels import KernelColumns, as_matrix, center
from .nystrom import (CholState, QrState, admit_columns, chol_append_block,
                      chol_solve, qr_append_block)
from .sampling import SamplingPlan

__all__ = [
    "KccaModel",
    "RankPathEntry",
    "Landmarks",
    "exact_kcca",
    "nkcca_fit",
    "nkcca_fit_direct",
    "nkcca_coefficients",
    "project",
    "project_many",
    "total_correlation",
    "t_error_norm",
    "save_model",
    "load_model",
]

# Above this size the top-L singular triplets are extracted iteratively
# instead of via a dense SVD.
_DENSE_SVD_LIMIT = 1200


@dataclass
class Landmarks:
    """Per-view landmark bookkeeping for a fitted Nystrom model."""

    indices: np.ndarray          # kept landmark indices, in draw order
    scale: np.ndarray            # rank-invariant column weights 1/sqrt(p)
    draws: int                   # plan draws consumed (>= len(indices))
    skipped: list = field(default_factory=list)   # plan positions dropped


@dataclass
class KccaModel:
    """A fitted (exact or Nystrom) kernel CCA model.

    rho holds the top-L canonical correlations; alpha_prime/beta_prime the
    unit singular vectors; alpha/beta the coefficient vectors used by the
    out-of-sample mapping (may be filled in lazily for Nystrom models).
    """

    kind: str
    n: int
    lambda1: float
    lambda2: float
    L: int
    rho: np.ndarray
    alpha_prime: np.ndarray
    beta_prime: np.ndarray
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    sigma_next: float | None = None
    view1: KernelColumns | None = None
    view2: KernelColumns | None = None
    landmarks1: Landmarks | None = None
    landmarks2: Landmarks | None = None
    t_matrix: np.ndarray | None = None

    @property
    def gap(self) -> float | None:
        """Singular value gap below the last extracted correlation."""
        if self.sigma_next is None:
            return None
        return float(self.rho[min(self.L, len(self.rho)) - 1] - self.sigma_next)


@dataclass
class RankPathEntry:
    """One point on the rank path: the model fitted at landmark counts
    (m1, m2), with optional wall-clock bookkeeping."""

    m1: int
    m2: int
    rho_tilde: np.ndarray
    model: KccaModel
    wall_time_incremental: float | None = None
    wall_time_restart: float | None = None
    _coef_ctx: tuple | None = field(default=None, repr=False)


def _fix_signs(U: np.ndarray, V: np.ndarray) -> None:
    """Make the first non-negligible entry of each U column positive,
    flipping the paired V column along with it (in place)."""
    for j in range(U.shape[1]):
        col = U[:, j]
        big = np.abs(col) > 1e-12 * max(np.abs(col).max(initial=0.0), 1e-300)
        nz = np.nonzero(big)[0]
        if nz.size and col[nz[0]] < 0:
            U[:, j] = -col
            V[:, j] = -V[:, j]


def _top_svd(T: np.ndarray, k: int):
    """Leading k singular triplets of a dense matrix, descending."""
    n = min(T.shape)
    if n <= _DENSE_SVD_LIMIT or k >= n - 1 or k > 32:
        U, s, Vt = scipy.linalg.svd(T, full_matrices=False)
        return U[:, :k], s[:k], Vt[:k]
    v0 = np.ones(n)
    U, s, Vt = svds(T, k=k, v0=v0)
    order = np.argsort(s)[::-1]
    return U[:, order], s[order], Vt[order]


def exact_kcca(K1, K2, lambda1: float, lambda2: float, L: int = 1,
               keep_t: bool = False, view1: KernelColumns | None = None,
               view2: KernelColumns | None = None,
               dense_limit: int = 5000) -> KccaModel:
    """Dense kernel CCA on two Gram matrices.

    Parameters
    ----------
    K1, K2 : GramMatrix or ndarray
        Uncentered kernel matrices of the two views.
    lambda1, lambda2 : float
        Positive scale-free regularizers (multiplied by N internally).
    L : int
        Number of canonical directions to extract.
    keep_t : bool
        Store the dense T matrix on the model (needed by the bound
        diagnostics; costs N^2 memory).
    view1, view2 : KernelColumns, optional
        Column oracles attached for out-of-sample projection.

    Returns a model with canonical correlations rho, unit singular vectors
    alpha_prime/beta_prime, and coefficients alpha = sqrt(N)
    (Kc1 + N lam1 I)^-1 alpha_prime (beta analogously).
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise ValueError("regularizers must be positive")
    K1 = as_matrix(K1)
    K2 = as_matrix(K2)
    n = K1.shape[0]
    if K2.shape[0] != n:
        raise ValueError("views have different sample counts")
    if n > dense_limit:
        raise ValueError(f"N = {n} exceeds the dense-path limit {dense_limit}")
    if not 1 <= L <= n:
        raise ValueError("L must lie in [1, N]")

    K1c = center(K1).entries
    K2c = center(K2).entries
    fac1 = scipy.linalg.cho_factor(K1c + n * lambda1 * np.eye(n))
    fac2 = scipy.linalg.cho_factor(K2c + n * lambda2 * np.eye(n))
    A1 = scipy.linalg.cho_solve(fac1, K1c)
    A2 = scipy.linalg.cho_solve(fac2, K2c)
    T = A1 @ A2
    del A1, A2, K1c, K2c

    U, s, Vt = _top_svd(T, min(L + 1, n))
    rho = s[:L].copy()
    ap = U[:, :L].copy()
    bp = Vt[:L].T.copy()
    _fix_signs(ap, bp)
    sigma_next = float(s[L]) if s.shape[0] > L else 0.0

    alpha = math.sqrt(n) * scipy.linalg.cho_solve(fac1, ap)
    beta = math.sqrt(n) * scipy.linalg.cho_solve(fac2, bp)

    return KccaModel(kind="exact", n=n, lambda1=lambda1, lambda2=lambda2, L=L,
                     rho=rho, alpha_prime=ap, beta_prime=bp, alpha=alpha,
                     beta=beta, sigma_next=sigma_next, view1=view1, view2=view2,
                     t_matrix=T if keep_t else None)


# ---------------------------------------------------------------------------
# Nystrom rank-path solver
# ---------------------------------------------------------------------------

class _ViewFactors:
    """The pieces of one view needed to solve a checkpoint."""

    def __init__(self, solve, P, Q, A, M):
        self.solve = solve
        self.P = P
        self.Q = Q
        self.A = A
        self.M = M


def _border_m(M: np.ndarray, P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Grow M = P R^-1 to the current P and R.

    With R = [[R0, W], [0, B]] the leading columns stay P[:, :m0] R0^-1 = M
    (the rows of new Q directions are zero there), and the appended ones are
    (P[:, m0:] - M W) B^-1.
    """
    r0, m0 = M.shape
    r, m = P.shape
    out = np.zeros((r, m))
    out[:r0, :m0] = M
    rhs = P[:, m0:].copy()
    rhs[:r0] -= M @ R[:m0, m0:]
    out[:, m0:] = scipy.linalg.solve_triangular(
        R[m0:, m0:], rhs.T, trans="T", lower=False, check_finite=False).T
    return out


def _border_k_tilde(K: np.ndarray, core: np.ndarray, R1: np.ndarray,
                    R2: np.ndarray) -> np.ndarray:
    """Grow Kt = R1^-T core R2^-1 to the shape of the grown core.

    The old block is unchanged. With Ri = [[Ri0, Wi], [0, Bi]], the new rows
    over the old columns are B1^-T (core[new, old] R20^-1 - W1^T Kt), and
    the new columns are (R1^-T core[:, new] - Kt[:, old] W2) B2^-1.
    """
    k10, k20 = K.shape
    k1, k2 = core.shape
    out = np.empty((k1, k2))
    out[:k10, :k20] = K
    if k1 > k10:
        t = scipy.linalg.solve_triangular(
            R2[:k20, :k20], core[k10:, :k20].T, trans="T", lower=False,
            check_finite=False).T
        t -= R1[:k10, k10:].T @ K
        out[k10:, :k20] = scipy.linalg.solve_triangular(
            R1[k10:, k10:], t, trans="T", lower=False, check_finite=False)
    if k2 > k20:
        t = scipy.linalg.solve_triangular(R1, core[:, k20:], trans="T",
                                          lower=False, check_finite=False)
        t -= out[:, :k20] @ R2[:k20, k20:]
        out[:, k20:] = scipy.linalg.solve_triangular(
            R2[k20:, k20:], t.T, trans="T", lower=False,
            check_finite=False).T
    return out


class _ViewState:
    """Mutable per-view sweep state for the incremental fitter."""

    def __init__(self, oracle: KernelColumns, plan: SamplingPlan, lam: float):
        self.oracle = oracle
        self.plan = plan
        self.chol = CholState(oracle.n, lam)
        self.qr = QrState(oracle.n)
        self.M = np.zeros((0, 0))
        self.seen: set[int] = set()
        self.draws = 0
        self.skipped: list[int] = []

    def advance(self, target_draws: int) -> np.ndarray:
        """Consume plan draws up to target_draws.

        Returns a view of the newly appended centered columns (N x p); it is
        only valid until the state grows again. Repeated indices and columns
        failing the new-mass gate are recorded as skipped.
        """
        if target_draws > self.plan.m:
            raise ValueError("checkpoint exceeds the sampling plan length")
        idx = self.plan.indices
        scale = self.plan.scale
        pending: list[int] = []
        while self.draws < target_draws:
            pos = self.draws
            self.draws += 1
            i = int(idx[pos])
            if i in self.seen:
                self.skipped.append(pos)
                continue
            self.seen.add(i)
            pending.append(pos)
        m0 = self.chol.m
        if not pending:
            return self.chol.A[:, m0:m0]
        block_idx = idx[pending]
        columns = self.oracle.columns(block_idx)
        kept = chol_append_block(self.chol, block_idx, scale[pending], columns)
        kept_set = set(kept)
        for j, pos in enumerate(pending):
            if j not in kept_set:
                self.skipped.append(pos)
                self.seen.discard(int(idx[pos]))
        self.skipped.sort()
        new_block = self.chol.A[:, m0 : self.chol.m]
        if new_block.shape[1]:
            qr_append_block(self.qr, new_block)
            self.M = _border_m(self.M, self.qr.P, self.chol.R)
        return new_block

    def factors(self) -> _ViewFactors:
        chol = self.chol
        return _ViewFactors(solve=lambda B: chol_solve(chol.R, B),
                            P=self.qr.P, Q=self.qr.Q, A=chol.A, M=self.M)

    def landmarks(self) -> Landmarks:
        return Landmarks(indices=np.array(self.chol.indices, dtype=int),
                         scale=self.chol.s_weights.copy(), draws=self.draws,
                         skipped=list(self.skipped))


def _checkpoint_solution(f1: _ViewFactors, f2: _ViewFactors,
                         k_tilde: np.ndarray, L: int):
    """SVD of T_hat = M1 Kt M2^T (= P1 G1^-1 core G2^-1 P2^T), lifted
    through Q1/Q2. Returns (rho, alpha', beta', sigma_next, T_hat)."""
    r1 = f1.M.shape[0]
    r2 = f2.M.shape[0]
    n = f1.Q.shape[0]
    rho = np.zeros(L)
    ap = np.zeros((n, L))
    bp = np.zeros((n, L))
    if min(r1, r2) == 0:
        return rho, ap, bp, 0.0, np.zeros((r1, r2))

    T_hat = (f1.M @ k_tilde) @ f2.M.T
    U, s, Vt = _top_svd(T_hat, min(L + 1, r1, r2))
    L_eff = min(L, s.shape[0])
    rho[:L_eff] = s[:L_eff]
    ap[:, :L_eff] = f1.Q @ U[:, :L_eff]
    bp[:, :L_eff] = f2.Q @ Vt[:L_eff].T
    _fix_signs(ap, bp)
    sigma_next = float(s[L]) if s.shape[0] > L else 0.0
    return rho, ap, bp, sigma_next, T_hat


def _nystrom_coefficients(alpha_prime: np.ndarray, A: np.ndarray | None, solve,
                          n: int, lam: float) -> np.ndarray:
    """sqrt(N) (Lc + N lam I)^-1 alpha_prime via the factored inverse:
    (Lc + N lam I)^-1 = (1 / N lam) (I - A G^-1 A^T)."""
    if A is None or A.shape[1] == 0:
        return alpha_prime / (math.sqrt(n) * lam)
    t = solve(A.T @ alpha_prime)
    return (alpha_prime - A @ t) * (math.sqrt(n) / (n * lam))


def _normalize_checkpoints(checkpoints) -> list[tuple[int, int]]:
    out = []
    for c in checkpoints:
        pair = ((int(c[0]), int(c[1])) if isinstance(c, (tuple, list, np.ndarray))
                else (int(c), int(c)))
        if pair[0] < 1 or pair[1] < 1:
            raise ValueError("checkpoint ranks must be positive")
        if out and (pair[0] < out[-1][0] or pair[1] < out[-1][1]):
            raise ValueError("checkpoints must be nondecreasing")
        out.append(pair)
    return out


def nkcca_fit(oracle1: KernelColumns, oracle2: KernelColumns,
              plan1: SamplingPlan, plan2: SamplingPlan,
              lambda1: float, lambda2: float, L: int,
              checkpoints, compute_coefficients: bool = True,
              keep_t: bool = False, on_checkpoint=None) -> list[RankPathEntry]:
    """Incremental Nystrom KCCA along a path of landmark ranks.

    At every checkpoint (m1, m2) the solver emits the model fitted on the
    first m1 / m2 plan draws per view, reusing all factor state built for
    earlier checkpoints. Repeated landmark indices (legitimate under
    with-replacement sampling) add nothing to the rank-0 approximation and
    would make the factor target singular, so they are skipped and recorded
    in the landmark bookkeeping; the same rule is applied by the
    non-incremental reference fitter.

    ``on_checkpoint(entry, f1, f2, core)`` is invoked with the live view
    factors right after each entry is built (for diagnostics that need the
    implicit low-rank operator); its run time is excluded from the recorded
    incremental wall times.

    Returns one RankPathEntry per checkpoint, in order.
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise ValueError("regularizers must be positive")
    cps = _normalize_checkpoints(checkpoints)
    n = oracle1.n
    if oracle2.n != n:
        raise ValueError("views have different sample counts")

    t0 = time.perf_counter()
    hook_time = 0.0
    v1 = _ViewState(oracle1, plan1, lambda1)
    v2 = _ViewState(oracle2, plan2, lambda2)
    core = np.zeros((0, 0))
    k_tilde = np.zeros((0, 0))
    entries: list[RankPathEntry] = []

    for m1, m2 in cps:
        new1 = v1.advance(m1)
        new2 = v2.advance(m2)
        k1_old = core.shape[0]
        k2_old = core.shape[1]
        k1 = v1.chol.m
        k2 = v2.chol.m
        grown = np.zeros((k1, k2))
        grown[:k1_old, :k2_old] = core
        if new1.shape[1]:
            grown[k1_old:, :k2_old] = new1.T @ v2.chol.A[:, :k2_old]
        if new2.shape[1]:
            grown[:k1, k2_old:] = v1.chol.A.T @ new2
        core = grown
        k_tilde = _border_k_tilde(k_tilde, core, v1.chol.R, v2.chol.R)

        f1 = v1.factors()
        f2 = v2.factors()
        rho, ap, bp, sig_next, T_hat = _checkpoint_solution(f1, f2, k_tilde, L)
        model = KccaModel(kind="nystrom", n=n, lambda1=lambda1, lambda2=lambda2,
                          L=L, rho=rho, alpha_prime=ap, beta_prime=bp,
                          sigma_next=sig_next, view1=oracle1, view2=oracle2,
                          landmarks1=v1.landmarks(), landmarks2=v2.landmarks())
        if keep_t:
            model.t_matrix = f1.Q @ T_hat @ f2.Q.T
        entry = RankPathEntry(m1=m1, m2=m2, rho_tilde=rho, model=model,
                              _coef_ctx=(v1.chol, k1, v2.chol, k2))
        if compute_coefficients:
            nkcca_coefficients(entry)
            # the factor states are no longer needed; a kept entry must not
            # pin them (tens of MB per view at N = 3000)
            entry._coef_ctx = None
        entry.wall_time_incremental = time.perf_counter() - t0 - hook_time
        if on_checkpoint is not None:
            h0 = time.perf_counter()
            on_checkpoint(entry, f1, f2, core)
            hook_time += time.perf_counter() - h0
        entries.append(entry)
    return entries


def nkcca_coefficients(entry: RankPathEntry) -> KccaModel:
    """Fill in the coefficient matrices alpha/beta of a rank-path entry.

    Reuses the factorization held by the entry: the coefficients are
    alpha = (sqrt(N) / N lam1) (alpha' - H K S G^-1 (H K S)^T alpha'),
    so no N x N inverse is ever formed.
    """
    model = entry.model
    if model.alpha is not None and model.beta is not None:
        return model
    if entry._coef_ctx is None:
        raise ValueError("entry carries no factorization context")
    chol1, k1, chol2, k2 = entry._coef_ctx
    model.alpha = _nystrom_coefficients(
        model.alpha_prime, chol1.A_prefix(k1),
        partial(chol_solve, chol1.R_prefix(k1)), model.n, model.lambda1)
    model.beta = _nystrom_coefficients(
        model.beta_prime, chol2.A_prefix(k2),
        partial(chol_solve, chol2.R_prefix(k2)), model.n, model.lambda2)
    return model


def nkcca_fit_direct(oracle1: KernelColumns, oracle2: KernelColumns,
                     plan1: SamplingPlan, plan2: SamplingPlan,
                     lambda1: float, lambda2: float, L: int,
                     m1: int | None = None, m2: int | None = None,
                     compute_coefficients: bool = True,
                     keep_t: bool = False) -> RankPathEntry:
    """Non-incremental Nystrom KCCA at a single rank (restart reference).

    Builds the factor target and thin QR densely from scratch with library
    factorizations; used to cross-check the incremental path and to time
    restarts against it.
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise ValueError("regularizers must be positive")
    m1 = plan1.m if m1 is None else m1
    m2 = plan2.m if m2 is None else m2
    n = oracle1.n
    t0 = time.perf_counter()

    built = []
    for oracle, plan, m, lam in ((oracle1, plan1, m1, lambda1),
                                 (oracle2, plan2, m2, lambda2)):
        if m > plan.m:
            raise ValueError("requested rank exceeds the sampling plan length")
        # first draw of each index, in draw order; repeats are skipped
        cand_pos = np.sort(np.unique(plan.indices[:m], return_index=True)[1])
        idx_all = plan.indices[cand_pos]
        scale_all = plan.scale[cand_pos]
        cols = oracle.columns(idx_all)
        A_all = (cols - cols.mean(axis=0)) * scale_all
        gram_all = (cols[idx_all, :] * scale_all[:, None]) * scale_all[None, :]
        G_all = n * lam * 0.5 * (gram_all + gram_all.T) + A_all.T @ A_all
        G_all = 0.5 * (G_all + G_all.T)

        # the same gate as the incremental path, on the whole target at once
        kept, R, _ = admit_columns(G_all, np.diag(G_all), 0.0)
        skipped = sorted(set(range(m)).difference(cand_pos[kept].tolist()))
        idx = idx_all[kept]
        scale = scale_all[kept]
        A = A_all[:, kept]
        Q, P = scipy.linalg.qr(A, mode="economic")

        # M = P R^-1 from scratch: R^T M^T = P^T
        M = scipy.linalg.solve_triangular(R, P.T, trans="T", lower=False).T
        built.append((_ViewFactors(partial(chol_solve, R), P, Q, A, M),
                      Landmarks(indices=idx, scale=scale, draws=m,
                                skipped=skipped), R))

    f1, lm1, R1 = built[0]
    f2, lm2, R2 = built[1]
    # Kt = R1^-T (A1^T A2) R2^-1 from scratch
    k_tilde = scipy.linalg.solve_triangular(R1, f1.A.T @ f2.A, trans="T",
                                            lower=False)
    k_tilde = scipy.linalg.solve_triangular(R2, k_tilde.T, trans="T",
                                            lower=False).T
    rho, ap, bp, sig_next, T_hat = _checkpoint_solution(f1, f2, k_tilde, L)
    model = KccaModel(kind="nystrom", n=n, lambda1=lambda1, lambda2=lambda2,
                      L=L, rho=rho, alpha_prime=ap, beta_prime=bp,
                      sigma_next=sig_next, view1=oracle1, view2=oracle2,
                      landmarks1=lm1, landmarks2=lm2)
    if keep_t:
        model.t_matrix = f1.Q @ T_hat @ f2.Q.T
    if compute_coefficients:
        model.alpha = _nystrom_coefficients(ap, f1.A, f1.solve, n, lambda1)
        model.beta = _nystrom_coefficients(bp, f2.A, f2.solve, n, lambda2)
    entry = RankPathEntry(m1=m1, m2=m2, rho_tilde=rho, model=model)
    entry.wall_time_restart = time.perf_counter() - t0
    return entry


def t_error_norm(T: np.ndarray, f1: _ViewFactors, f2: _ViewFactors,
                 core: np.ndarray) -> float:
    """Spectral norm of T minus the implicit low-rank T of a checkpoint.

    The low-rank side is applied as Y Q2^T through the N x r2 factor
    Y = Q1 P1 G1^-1 core G2^-1 P2^T, formed once with two factor solves over
    many right-hand sides, so only the dense exact T is ever N x N.
    """
    n = T.shape[0]
    if min(f1.P.shape[0], f2.P.shape[0]) == 0:
        return float(np.linalg.norm(T, 2))
    Y = f1.Q @ (f1.P @ f1.solve(core @ f2.solve(f2.P.T)))
    Q2 = f2.Q
    if n <= 320:
        return float(np.linalg.norm(T - Y @ Q2.T, 2))
    op = LinearOperator((n, n), matvec=lambda v: T @ v - Y @ (Q2.T @ v),
                        rmatvec=lambda u: T.T @ u - Q2 @ (Y.T @ u))
    s = svds(op, k=1, v0=np.ones(n), return_singular_vectors=False)
    return float(s[0])


# ---------------------------------------------------------------------------
# Out-of-sample mapping and evaluation
# ---------------------------------------------------------------------------

def project_many(model: KccaModel, X_new, view: int) -> np.ndarray:
    """Project rows of X_new into the L canonical dimensions of one view.

    Evaluates exact kernel affinities against all training points and
    applies the centered combination k^T H coeffs; the additive constant of
    the mapping is dropped, so projections are defined up to a per-dimension
    shift (all downstream correlation metrics are shift-invariant).
    """
    if view not in (1, 2):
        raise ValueError("view must be 1 or 2")
    oracle = model.view1 if view == 1 else model.view2
    coeffs = model.alpha if view == 1 else model.beta
    if oracle is None:
        raise ValueError("model has no training-data oracle for this view")
    if coeffs is None:
        raise ValueError("model has no coefficients for this view; call "
                         "nkcca_coefficients first")
    K_new = oracle.cross(np.atleast_2d(np.asarray(X_new, dtype=float)))
    K_new = K_new - K_new.mean(axis=1, keepdims=True)
    return K_new @ coeffs


def project(model: KccaModel, x_new, view: int) -> np.ndarray:
    """Length-L projection of a single new observation."""
    return project_many(model, np.atleast_2d(x_new), view)[0]


def total_correlation(proj_x: np.ndarray, proj_y: np.ndarray) -> float:
    """Sum of absolute per-dimension Pearson correlations of paired
    projections. Dimensions with zero variance contribute 0."""
    proj_x = np.atleast_2d(np.asarray(proj_x, dtype=float))
    proj_y = np.atleast_2d(np.asarray(proj_y, dtype=float))
    if proj_x.shape != proj_y.shape:
        raise ValueError("projection shapes differ")
    if proj_x.shape[0] < 2:
        raise ValueError("need at least two test pairs")
    fx = proj_x - proj_x.mean(axis=0)
    gy = proj_y - proj_y.mean(axis=0)
    num = np.einsum("ij,ij->j", fx, gy)
    den = np.sqrt(np.einsum("ij,ij->j", fx, fx) * np.einsum("ij,ij->j", gy, gy))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return float(np.abs(corr).sum())


# ---------------------------------------------------------------------------
# Model serialization (flat versioned record)
# ---------------------------------------------------------------------------

# Version 2 adds each view's skipped plan positions (landmark_skipped1/2).
_FORMAT_VERSION = 2


def save_model(model: KccaModel, path) -> None:
    """Persist a fitted model to a flat .npz record (format version 2)."""
    payload = {
        "format_version": np.array(_FORMAT_VERSION),
        "kind": np.array(model.kind),
        "n": np.array(model.n),
        "lambda1": np.array(model.lambda1),
        "lambda2": np.array(model.lambda2),
        "L": np.array(model.L),
        "rho": model.rho,
        "alpha_prime": model.alpha_prime,
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
            payload[f"landmark_scale{tag}"] = lm.scale
            payload[f"landmark_draws{tag}"] = np.array(lm.draws)
            payload[f"landmark_skipped{tag}"] = np.array(lm.skipped,
                                                         dtype=int)
    for tag, oracle in (("1", model.view1), ("2", model.view2)):
        if oracle is not None and oracle.spec is not None:
            payload[f"sigma_rbf{tag}"] = np.array(oracle.spec.sigma)
    np.savez(path, **payload)


def load_model(path, X1=None, X2=None) -> KccaModel:
    """Load a model saved by save_model.

    Training inputs are not stored in the record; pass X1/X2 to re-attach
    projection oracles (the stored kernel bandwidths are reused). Version-1
    records load with empty ``Landmarks.skipped`` lists, since they did not
    store them.
    """
    from .kernels import KernelSpec

    with np.load(path, allow_pickle=False) as z:
        if int(z["format_version"]) not in (1, _FORMAT_VERSION):
            raise ValueError("unknown model format version")
        model = KccaModel(
            kind=str(z["kind"]), n=int(z["n"]), lambda1=float(z["lambda1"]),
            lambda2=float(z["lambda2"]), L=int(z["L"]), rho=z["rho"],
            alpha_prime=z["alpha_prime"], beta_prime=z["beta_prime"],
            alpha=z["alpha"] if "alpha" in z else None,
            beta=z["beta"] if "beta" in z else None,
            sigma_next=float(z["sigma_next"]) if "sigma_next" in z else None)
        for tag in ("1", "2"):
            if f"landmark_indices{tag}" in z:
                skipped = f"landmark_skipped{tag}"
                lm = Landmarks(indices=z[f"landmark_indices{tag}"],
                               scale=z[f"landmark_scale{tag}"],
                               draws=int(z[f"landmark_draws{tag}"]),
                               skipped=z[skipped].tolist() if skipped in z
                               else [])
                setattr(model, f"landmarks{tag}", lm)
        for tag, X in (("1", X1), ("2", X2)):
            if X is not None:
                if f"sigma_rbf{tag}" not in z:
                    raise ValueError("record has no kernel bandwidth for "
                                     f"view {tag}")
                spec = KernelSpec(sigma=float(z[f"sigma_rbf{tag}"]))
                setattr(model, f"view{tag}", KernelColumns.from_data(spec, X))
    return model
