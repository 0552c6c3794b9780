"""Exact kernel CCA, the incremental Nystrom rank-path solver and its
restart reference, out-of-sample mapping, and the model record. It owns
the one top-k SVD policy (``_top_svd``) and the one spectral-norm routine
(``_gkl_norm``). README, "Numerical notes", has the algebra of both solvers,
the SVD crossover and the norm routine's stopping rule.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, svds

from .kernels import (KernelColumns, KernelSpec, _check_finite,
                      _check_positive, as_matrix)
from .leverage import _COLUMN_BLOCK, _inverse_factor
from .nystrom import (FactorState, _equilibrated_block, admit_columns,
                      chol_append_block, solve_upper)
from .sampling import SamplingPlan, _check_plan

__all__ = [
    "KccaModel",
    "RankPathEntry",
    "Landmarks",
    "exact_kcca",
    "nkcca_fit",
    "nkcca_fit_direct",
    "nkcca_coefficients",
    "project_many",
    "total_correlation",
    "t_error_norm",
    "save_model",
    "load_model",
]

# _top_svd runs ARPACK when the short side of the matrix exceeds both
# _SVDS_MIN_SIDE and _SVDS_SIDE_PER_TRIPLET * k, LAPACK's full SVD otherwise:
# the crossover measured with one BLAS thread (README, "Numerical notes").
_SVDS_MIN_SIDE = 100
_SVDS_SIDE_PER_TRIPLET = 6
# exact_kcca holds two N x N matrices; it refuses larger problems.
_EXACT_N_LIMIT = 5000
# _gkl_norm stops once the estimated relative error of its value is at most
# _GKL_RTOL; while its top two values lie within _GKL_GAP_RTOL (relative, in
# their squares) it asks the same of the residual. Its Lanczos bases grow
# _GKL_BLOCK rows at a time.
_GKL_RTOL = 1e-10
_GKL_GAP_RTOL = 1e-8
_GKL_BLOCK = 32
# exact_kcca writes T over P2 this many columns at a time (one GEMM per
# block repacks P1; README, "Numerical notes", has the timings).
_PRODUCT_BLOCK = 256
# project_many evaluates the cross-Gram of new points in row chunks of at
# most this many entries, so it never holds an n_new x N block.
_PROJECT_CHUNK_ENTRIES = 1 << 20

_log = logging.getLogger(__name__)


@dataclass
class Landmarks:
    """Per-view landmark bookkeeping for a fitted Nystrom model."""

    indices: np.ndarray          # kept landmark indices, in draw order
    draws: int                   # plan draws consumed (>= len(indices))
    skipped: list = field(default_factory=list)   # plan positions dropped


@dataclass
class KccaModel:
    """A fitted (exact or Nystrom) kernel CCA model.

    rho holds the top-L canonical correlations; alpha_prime/beta_prime the
    unit singular vectors; alpha/beta the coefficient vectors used by the
    out-of-sample mapping.
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


def _arpack_start(n: int) -> np.ndarray:
    """The one Krylov start vector, fixed and pseudo-random: ARPACK's v0 in
    _top_svd and _gkl_norm's first right vector. A constant one such as
    ones can be null, since the exact T has centered columns on the
    right (T 1 = 0) and the landmark columns are centered (Q^T 1 = 0)."""
    return np.random.default_rng(0).standard_normal(n)


def _symv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for a symmetric A, by BLAS dsymv from A's upper triangle: it
    reads half the memory of a general product. A C-ordered A is passed as
    its transpose, the same matrix, so it is never copied."""
    return scipy.linalg.blas.dsymv(1.0, A.T if A.flags.c_contiguous else A,
                                   np.ravel(v))


def _top_svd(T, k: int):
    """Leading k <= min(shape) singular triplets of a dense matrix T or, for
    a pair T = (A, B) of symmetric matrices, of the product A B, descending:
    (U, s, Vt) with U m x k, s of length k and Vt k x n. The full LAPACK SVD
    forms A B; ARPACK applies it as A (B v) and B (A u) and never forms it."""
    A, B = T if isinstance(T, tuple) else (T, None)
    n = min(A.shape)
    if n <= max(_SVDS_MIN_SIDE, _SVDS_SIDE_PER_TRIPLET * k):
        U, s, Vt = scipy.linalg.svd(A if B is None else A @ B,
                                    full_matrices=False)
        return U[:, :k], s[:k], Vt[:k]
    if not (A.any() and (B is None or B.any())):
        # ARPACK rejects the zero operator (its start vector maps to zero),
        # as a zero factor makes it: a constant view has P = 0. These are
        # the triplets LAPACK returns for it
        return np.eye(A.shape[0], k), np.zeros(k), np.eye(k, A.shape[1])
    op = A
    if B is not None:
        op = LinearOperator(
            A.shape, dtype=float,
            matvec=lambda v: _symv(A, _symv(B, v)),
            rmatvec=lambda u: _symv(B, _symv(A, u)),
            matmat=lambda V: A @ (B @ V), rmatmat=lambda W: B @ (A @ W))
    U, s, Vt = svds(op, k=k, v0=_arpack_start(n))
    order = np.argsort(s)[::-1]
    return U[:, order], s[order], Vt[order]


def _ridge_projection(K: np.ndarray, lam: float, centered: bool = False, *,
                      name: str = "K", param: str = "lambda") -> np.ndarray:
    """The ridge projection Kc (Kc + N lam I)^-1 = I - N lam (Kc + N lam I)^-1
    of a symmetric N x N Kc, K itself or, with ``centered``, H K H, as one
    new exactly symmetric array built in place. K is only read. Raises
    ``leverage._inverse_factor``'s errors, naming K and lam as ``name`` and
    ``param``."""
    P = _inverse_factor(K, lam, name, param, centered)
    n = P.shape[0]
    shift = n * lam
    P, _ = scipy.linalg.lapack.dlauum(P, lower=0, overwrite_c=1)
    # dlauum leaves the factor's zero lower triangle; mirror the upper one
    # a column block at a time, with no N x N temporary
    for j0 in range(0, n, _COLUMN_BLOCK):
        j1 = min(j0 + _COLUMN_BLOCK, n)
        diag = P[j0:j1, j0:j1]
        diag += np.triu(diag, 1).T
        P[j1:, j0:j1] = P[j0:j1, j1:].T
    P *= -shift
    P[np.diag_indices_from(P)] += 1.0
    return P


def _coefficients(alpha_prime: np.ndarray, p_alpha_prime: np.ndarray,
                  n: int, lam: float) -> np.ndarray:
    """sqrt(N) (Kc + N lam I)^-1 alpha' = sqrt(N) (alpha' - P alpha') / (N lam)
    from P alpha', with P = Kc (Kc + N lam I)^-1 the ridge projection of an
    exact fit, or Q M M^T Q^T of a Nystrom fit."""
    return (alpha_prime - p_alpha_prime) * (math.sqrt(n) / (n * lam))


def exact_kcca(K1, K2, lambda1: float, lambda2: float, L: int = 1,
               keep_t: bool = False, view1: KernelColumns | None = None,
               view2: KernelColumns | None = None) -> KccaModel:
    """Dense kernel CCA on the uncentered N x N Gram matrices K1, K2, which
    are only read, with scale-free regularizers lambda1, lambda2.

    Returns a model with the top L singular values rho of
    T = P1 P2 (P = Kc (Kc + N lam I)^-1 per view), their unit singular
    vectors alpha_prime/beta_prime, the coefficients
    alpha = sqrt(N) (Kc1 + N lam1 I)^-1 alpha_prime (beta likewise), the
    next singular value, and ``view1``/``view2`` attached for projection.
    With ``keep_t`` the model also carries T as ``t_matrix``; without it T
    is never formed. Holds two N x N arrays beside K1 and K2. Raises
    ValueError for regularizers that are not positive and finite, views of
    different N, N above ``_EXACT_N_LIMIT`` or L outside [1, N], and the
    errors of ``_ridge_projection``.
    """
    _check_positive("regularizers", lambda1, lambda2)
    K1 = as_matrix(K1)
    K2 = as_matrix(K2)
    n = K1.shape[0]
    if K2.shape[0] != n:
        raise ValueError("views have different sample counts")
    if n > _EXACT_N_LIMIT:
        raise ValueError(f"N = {n} exceeds the dense-path limit {_EXACT_N_LIMIT}")
    if not 1 <= L <= n:
        raise ValueError("L must lie in [1, N]")

    P1 = _ridge_projection(K1, lambda1, True, name="K1", param="lambda1")
    P2 = _ridge_projection(K2, lambda2, True, name="K2", param="lambda2")

    U, s, Vt = _top_svd((P1, P2), min(L + 1, n))
    rho = s[:L].copy()
    ap = U[:, :L].copy()
    bp = Vt[:L].T.copy()
    _fix_signs(ap, bp)
    sigma_next = float(s[L]) if s.shape[0] > L else 0.0

    alpha = _coefficients(ap, P1 @ ap, n, lambda1)
    beta = _coefficients(bp, P2 @ bp, n, lambda2)

    if keep_t:
        # column block j of T = P1 P2 needs only column block j of P2
        for j0 in range(0, n, _PRODUCT_BLOCK):
            P2[:, j0:j0 + _PRODUCT_BLOCK] = P1 @ P2[:, j0:j0 + _PRODUCT_BLOCK]

    return KccaModel(kind="exact", n=n, lambda1=lambda1, lambda2=lambda2, L=L,
                     rho=rho, alpha_prime=ap, beta_prime=bp, alpha=alpha,
                     beta=beta, sigma_next=sigma_next, view1=view1, view2=view2,
                     t_matrix=P2 if keep_t else None)


# ---------------------------------------------------------------------------
# Nystrom rank-path solver
# ---------------------------------------------------------------------------

def _border_t_hat(T: np.ndarray, M1: np.ndarray, X: np.ndarray,
                  M2: np.ndarray, k10: int, k20: int) -> np.ndarray:
    """Grow T_hat = M1 Kt M2^T, with Kt = M1^T X M2, to the current M1, X
    and M2 from its value T over the first k10 / k20 landmarks, forming
    only the blocks of Kt over the new landmarks; returns a new array."""
    r10, r20 = T.shape
    head = np.zeros((M1.shape[0], M2.shape[1] - k20))
    head[:r10] = M1[:r10, :k10] @ (M1[:, :k10].T @ (X @ M2[:, k20:]))
    k_new = (M1[:, k10:].T @ X) @ M2
    out = (np.hstack([head, M1[:, k10:]])
           @ np.vstack([M2[:, k20:].T, k_new @ M2.T]))
    out[:r10, :r20] += T
    return out


def _border_x(X: np.ndarray, Q1: np.ndarray, Q2: np.ndarray) -> np.ndarray:
    """Grow X = Q1^T Q2 to the current bases from its value over their first
    r10 / r20 columns: only the products with the new columns are formed."""
    r10, r20 = X.shape
    out = np.empty((Q1.shape[1], Q2.shape[1]))
    out[:r10, :r20] = X
    out[r10:] = Q1[:, r10:].T @ Q2
    out[:r10, r20:] = Q1[:, :r10].T @ Q2[:, r20:]
    return out


def _candidates(indices: np.ndarray, m: int) -> np.ndarray:
    """Positions of the first draw of each index among the first m, in draw
    order: the only draws offered to the gate. A candidate's Schur
    complement only shrinks as landmarks are added, so a redraw of an index
    the gate rejected could not pass it either."""
    return np.sort(np.unique(indices[:m], return_index=True)[1])


def _landmarks(plan: SamplingPlan, kept, draws: int) -> Landmarks:
    """Bookkeeping of a view that kept the plan positions ``kept`` of its
    first ``draws`` draws; every other position is skipped."""
    return Landmarks(indices=plan.indices[kept], draws=draws,
                     skipped=np.setdiff1d(np.arange(draws), kept).tolist())


class _ViewState:
    """Mutable per-view sweep state for the incremental fitter, sized for
    the candidates up to the view's ``last`` checkpoint."""

    def __init__(self, oracle: KernelColumns, plan: SamplingPlan, lam: float,
                 last: int):
        self.oracle = oracle
        self.plan = plan
        self.candidates = _candidates(plan.indices, last)
        self.factor = FactorState(oracle.n, lam, len(self.candidates))
        self.offered = 0           # candidates offered to the gate so far
        self.kept: list[int] = []  # their plan positions the gate kept

    def advance(self, draws: int) -> None:
        """Offer the candidates among the first ``draws`` plan draws that
        were not offered yet to the gate, as one block."""
        stop = int(np.searchsorted(self.candidates, draws))
        block = self.candidates[self.offered:stop]
        self.offered = stop
        if block.size == 0:
            return
        idx = self.plan.indices[block]
        kept = chol_append_block(self.factor, idx, self.oracle.columns(idx))
        self.kept += block[kept].tolist()


def _checkpoint_solution(Q1: np.ndarray, Q2: np.ndarray, T_hat: np.ndarray,
                         L: int):
    """SVD of the formed T_hat = M1 Kt M2^T (= P1 G1^-1 core G2^-1 P2^T),
    lifted through Q1/Q2. Returns (rho, alpha', beta', sigma_next)."""
    r1, r2 = T_hat.shape
    n = Q1.shape[0]
    rho = np.zeros(L)
    ap = np.zeros((n, L))
    bp = np.zeros((n, L))
    if min(r1, r2) == 0:
        return rho, ap, bp, 0.0

    U, s, Vt = _top_svd(T_hat, min(L + 1, r1, r2))
    L_eff = min(L, s.shape[0])
    rho[:L_eff] = s[:L_eff]
    ap[:, :L_eff] = Q1 @ U[:, :L_eff]
    bp[:, :L_eff] = Q2 @ Vt[:L_eff].T
    _fix_signs(ap, bp)
    sigma_next = float(s[L]) if s.shape[0] > L else 0.0
    return rho, ap, bp, sigma_next


def _normalize_checkpoints(checkpoints) -> list[tuple[int, int]]:
    out = []
    for c in checkpoints:
        pair = ((int(c[0]), int(c[1])) if isinstance(c, (tuple, list, np.ndarray))
                else (int(c), int(c)))
        if out and (pair[0] < out[-1][0] or pair[1] < out[-1][1]):
            raise ValueError("checkpoints must be nondecreasing")
        out.append(pair)
    return out


def _check_fit_args(oracle1: KernelColumns, oracle2: KernelColumns,
                    plan1: SamplingPlan, plan2: SamplingPlan, lambda1: float,
                    lambda2: float, L: int, ranks) -> int:
    """The argument checks both Nystrom fitters share; ``ranks`` holds the
    (m1, m2) pairs to fit. Returns N, or raises ValueError for regularizers
    that are not positive and finite, views of different N, a plan index
    outside [0, N) (naming plan1 or plan2), L outside [1, N] or a rank
    outside [1, plan length]."""
    _check_positive("regularizers", lambda1, lambda2)
    n = oracle1.n
    if oracle2.n != n:
        raise ValueError("views have different sample counts")
    _check_plan("plan1", plan1, n)
    _check_plan("plan2", plan2, n)
    if not 1 <= L <= n:
        raise ValueError("L must lie in [1, N]")
    for m1, m2 in ranks:
        if not (1 <= m1 <= plan1.m and 1 <= m2 <= plan2.m):
            raise ValueError(f"ranks ({m1}, {m2}) exceed [1, plan length]")
    return n


def nkcca_fit(oracle1: KernelColumns, oracle2: KernelColumns,
              plan1: SamplingPlan, plan2: SamplingPlan,
              lambda1: float, lambda2: float, L: int,
              checkpoints, on_checkpoint=None) -> list[RankPathEntry]:
    """Incremental Nystrom KCCA along a path of landmark ranks.

    Returns one RankPathEntry per checkpoint, in order: at (m1, m2) (or m
    for both), the model fitted on the first m1 / m2 plan draws of each
    view, coefficients included, reusing all factor work of earlier
    checkpoints. Only the first draw of an index is a candidate; repeats
    and gate-rejected candidates are recorded as skipped.

    ``on_checkpoint(entry, Q1, Q2, T_hat)``, if given, runs after each entry
    with the N x r1 / N x r2 bases and the r1 x r2 matrix whose SVD gave
    rho, so the approximate T is Q1 T_hat Q2^T (``t_error_norm``). A hook
    may keep all three: Q columns are append-only and T_hat is new at each
    checkpoint. Its run time is excluded from the entries' wall times.
    Raises ValueError for checkpoints that decrease, and as
    ``_check_fit_args`` does.
    """
    cps = _normalize_checkpoints(checkpoints)
    n = _check_fit_args(oracle1, oracle2, plan1, plan2, lambda1, lambda2, L,
                        cps)

    t0 = time.perf_counter()
    hook_time = 0.0
    last1, last2 = cps[-1] if cps else (0, 0)
    v1 = _ViewState(oracle1, plan1, lambda1, last1)
    v2 = _ViewState(oracle2, plan2, lambda2, last2)
    f1, f2 = v1.factor, v2.factor
    x_cross = np.zeros((0, 0))
    T_hat = np.zeros((0, 0))
    entries: list[RankPathEntry] = []

    for m1, m2 in cps:
        k10, k20 = f1.m, f2.m
        v1.advance(m1)
        v2.advance(m2)
        Q1, Q2, M1, M2 = f1.Q, f2.Q, f1.M, f2.M
        x_cross = _border_x(x_cross, Q1, Q2)
        T_hat = _border_t_hat(T_hat, M1, x_cross, M2, k10, k20)

        rho, ap, bp, sig_next = _checkpoint_solution(Q1, Q2, T_hat, L)
        model = KccaModel(kind="nystrom", n=n, lambda1=lambda1, lambda2=lambda2,
                          L=L, rho=rho, alpha_prime=ap, beta_prime=bp,
                          sigma_next=sig_next, view1=oracle1, view2=oracle2,
                          landmarks1=_landmarks(plan1, v1.kept, m1),
                          landmarks2=_landmarks(plan2, v2.kept, m2))
        nkcca_coefficients(model, Q1, M1, Q2, M2)
        entry = RankPathEntry(m1=m1, m2=m2, rho_tilde=rho, model=model)
        entry.wall_time_incremental = time.perf_counter() - t0 - hook_time
        if on_checkpoint is not None:
            h0 = time.perf_counter()
            on_checkpoint(entry, Q1, Q2, T_hat)
            hook_time += time.perf_counter() - h0
        entries.append(entry)
    return entries


def nkcca_coefficients(model: KccaModel, Q1: np.ndarray, M1: np.ndarray,
                       Q2: np.ndarray, M2: np.ndarray) -> KccaModel:
    """Set ``model.alpha``/``beta`` from each view's basis Q and M = P R^-1:
    alpha = (sqrt(N) / N lam1) (alpha' - Q1 M1 M1^T Q1^T alpha'), beta
    likewise. Returns the model."""
    for name, ap, Q, M, lam in (
            ("alpha", model.alpha_prime, Q1, M1, model.lambda1),
            ("beta", model.beta_prime, Q2, M2, model.lambda2)):
        setattr(model, name, _coefficients(ap, Q @ (M @ (M.T @ (Q.T @ ap))),
                                           model.n, lam))
    return model


def nkcca_fit_direct(oracle1: KernelColumns, oracle2: KernelColumns,
                     plan1: SamplingPlan, plan2: SamplingPlan,
                     lambda1: float, lambda2: float, L: int,
                     m1: int | None = None, m2: int | None = None,
                     compute_coefficients: bool = True,
                     keep_t: bool = False) -> RankPathEntry:
    """Non-incremental Nystrom KCCA at one rank (m1, m2), by default the
    plans' lengths: the restart reference of ``nkcca_fit``, built from
    scratch with library factorizations over the same candidates and gate.
    ``keep_t`` stores the dense approximate T on the model. Raises as
    ``_check_fit_args`` does.
    """
    m1 = plan1.m if m1 is None else m1
    m2 = plan2.m if m2 is None else m2
    n = _check_fit_args(oracle1, oracle2, plan1, plan2, lambda1, lambda2, L,
                        [(m1, m2)])
    t0 = time.perf_counter()

    built = []
    for oracle, plan, m, lam in ((oracle1, plan1, m1, lambda1),
                                 (oracle2, plan2, m2, lambda2)):
        cand = _candidates(plan.indices, m)
        idx_all = plan.indices[cand]
        A_all, _, G_all = _equilibrated_block(oracle.columns(idx_all), idx_all,
                                              lam)

        # the same gate as the incremental path, on the whole target at once
        kept, R = admit_columns(G_all)
        A = A_all[:, kept]
        Q, P = scipy.linalg.qr(A, mode="economic")

        # M = P R^-1 from scratch: R^T M^T = P^T
        M = solve_upper(R, P.T, trans=True).T
        built.append((A, R, Q, M, _landmarks(plan, cand[kept], m)))

    (A1, R1, Q1, M1, lm1), (A2, R2, Q2, M2, lm2) = built
    # Kt = R1^-T (A1^T A2) R2^-1 from scratch
    k_tilde = solve_upper(R1, A1.T @ A2, trans=True)
    k_tilde = solve_upper(R2, k_tilde.T, trans=True).T
    T_hat = (M1 @ k_tilde) @ M2.T
    rho, ap, bp, sig_next = _checkpoint_solution(Q1, Q2, T_hat, L)
    model = KccaModel(kind="nystrom", n=n, lambda1=lambda1, lambda2=lambda2,
                      L=L, rho=rho, alpha_prime=ap, beta_prime=bp,
                      sigma_next=sig_next, view1=oracle1, view2=oracle2,
                      landmarks1=lm1, landmarks2=lm2)
    if keep_t:
        model.t_matrix = Q1 @ T_hat @ Q2.T
    if compute_coefficients:
        nkcca_coefficients(model, Q1, M1, Q2, M2)
    entry = RankPathEntry(m1=m1, m2=m2, rho_tilde=rho, model=model)
    entry.wall_time_restart = time.perf_counter() - t0
    return entry


def _cgs2(w: np.ndarray, B: np.ndarray) -> None:
    """Orthogonalize w against the orthonormal rows of B in place, with two
    classical Gram-Schmidt passes."""
    for _ in range(2):
        w -= B.T @ (B @ w)


def _gkl_estimate(s: np.ndarray, residual: float) -> float:
    """Relative error estimate of the top singular value s[0] of B_k, whose
    triplet leaves ``residual``: the gap-based (Kato-Temple) estimate
    residual^2 / (2 (s[0]^2 - s[1]^2)), or the residual's own bound
    residual / s[0] at k = 1 and while s[1] is within rounding of s[0]."""
    gap = s[0] ** 2 - s[1] ** 2 if s.size > 1 else 0.0
    if gap > _GKL_GAP_RTOL * s[0] ** 2:
        return residual ** 2 / (2.0 * gap)
    return residual / s[0]


def _non_finite(**arrays) -> ValueError:
    """The error for an operator that came out non-finite, naming the
    first argument with a non-finite entry."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            return ValueError(f"{name} has non-finite entries")
    return ValueError("the operator's products are not finite")


def _gkl_norm(*terms, scale: float = 0.0, operands: dict | None = None):
    """Spectral norm of the n x n operator E = terms[0] - terms[1] - ...,
    each term a matrix or a tuple of matrices standing for their product:
    terms are applied factor by factor and only read, so no product or
    difference is formed. Golub-Kahan-Lanczos bidiagonalization that stops
    once ``_gkl_estimate`` is at most _GKL_RTOL, when a Lanczos coefficient
    is at most n eps max(scale, ||E v_1||) (``scale``: the size of the
    terms E is a difference of), or after n steps.

    Returns (sigma, steps, residual, estimate); the estimate is nan at a
    coefficient breakdown, and the zero operator gives 0.0. Raises the
    ValueError of _non_finite(**operands) when E v_1 is not finite, which
    any non-finite operand entry makes it.
    """
    terms = [t if isinstance(t, tuple) else (t,) for t in terms]

    def apply(v, transpose):
        """E v, or E^T v: the first term's product minus the others'."""
        out = None
        for factors in terms:
            w = v
            for F in (factors if transpose else factors[::-1]):
                w = (F.T if transpose else F) @ w
            out = w if out is None else out - w
        return out

    n = terms[0][0].shape[0]
    V = np.empty((_GKL_BLOCK, n))
    U = np.empty((_GKL_BLOCK, n))
    B = np.zeros((_GKL_BLOCK, _GKL_BLOCK))   # B_k is its leading k x k block
    v = _arpack_start(n)
    V[0] = v / np.linalg.norm(v)
    p = apply(V[0], False)
    if not np.isfinite(p).all():
        raise _non_finite(**(operands or {}))
    tiny = n * np.finfo(float).eps * max(scale, np.linalg.norm(p))
    for k in range(1, n + 1):
        # p = E v_k - beta_{k-1} u_{k-1}
        _cgs2(p, U[:k - 1])
        alpha = np.linalg.norm(p)
        B[k - 1, k - 1] = alpha
        if alpha <= tiny:
            # E v_k lies in span(U_{k-1}): what B_k leaves out is alpha_k,
            # and no estimate is formed
            return np.linalg.norm(B[:k, :k], 2), k, alpha, math.nan
        U[k - 1] = p / alpha
        q = apply(U[k - 1], True) - alpha * V[k - 1]
        _cgs2(q, V[:k])
        beta = np.linalg.norm(q)
        x, s, _ = np.linalg.svd(B[:k, :k])
        residual = beta * abs(x[-1, 0])
        estimate = _gkl_estimate(s, residual)
        if estimate <= _GKL_RTOL or beta <= tiny or k == n:
            return s[0], k, residual, estimate
        if k == V.shape[0]:
            grow = min(_GKL_BLOCK, n - k)
            V = np.vstack([V, np.empty((grow, n))])
            U = np.vstack([U, np.empty((grow, n))])
            B = np.pad(B, ((0, grow), (0, grow)))
        B[k - 1, k] = beta
        V[k] = q / beta
        p = apply(V[k], False) - beta * U[k - 1]


def t_error_norm(T: np.ndarray, Q1: np.ndarray, Q2: np.ndarray,
                 T_hat: np.ndarray) -> float:
    """Spectral norm of E = T - Q1 T_hat Q2^T, the dense exact T against
    the low-rank T of a checkpoint (what its ``on_checkpoint`` hook
    receives), from ``_gkl_norm`` with no N x r product formed; the
    arguments are only read.

    Raises ValueError naming the argument when T is not square, Q1 or Q2
    lacks T's rows, T_hat is not Q1's by Q2's column count, or an entry is
    non-finite (found on the first product E v_1, not by a pass over T).
    """
    T, Q1, Q2, T_hat = (np.asarray(a, dtype=float) for a in (T, Q1, Q2, T_hat))
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError("T must be a square matrix")
    n = T.shape[0]
    for name, Q in (("Q1", Q1), ("Q2", Q2)):
        if Q.ndim != 2 or Q.shape[0] != n:
            raise ValueError(f"{name} must have T's {n} rows")
    if T_hat.shape != (Q1.shape[1], Q2.shape[1]):
        raise ValueError(f"T_hat must be {Q1.shape[1]} x {Q2.shape[1]}, "
                         "the column counts of Q1 and Q2")
    sigma, k, residual, estimate = _gkl_norm(
        T, (Q1, T_hat, Q2.T), scale=np.linalg.norm(T_hat),
        operands=dict(T=T, Q1=Q1, Q2=Q2, T_hat=T_hat))
    _log.debug("t_error_norm: %d Lanczos steps, residual %.3e (sigma %.6e), "
               "estimate %.3e", k, residual, sigma, estimate)
    return float(sigma)


# ---------------------------------------------------------------------------
# Out-of-sample mapping and evaluation
# ---------------------------------------------------------------------------

def project_many(model: KccaModel, X_new, view: int) -> np.ndarray:
    """The n_new x L projections k(x)^T H coeffs of the rows of X_new on
    one view (1 or 2), from exact kernel affinities to all training points,
    up to a per-dimension shift. Holds one row chunk of affinities at a
    time. Raises ValueError for another view, a model without that view's
    oracle or coefficients, and points that ``KernelColumns.cross``
    rejects.
    """
    if view not in (1, 2):
        raise ValueError("view must be 1 or 2")
    oracle = model.view1 if view == 1 else model.view2
    coeffs = model.alpha if view == 1 else model.beta
    if oracle is None:
        raise ValueError("model has no training-data oracle for this view")
    if coeffs is None:
        raise ValueError("model has no coefficients for this view; fit "
                         "with compute_coefficients=True")
    X_new = np.atleast_2d(X_new)
    centered = coeffs - coeffs.mean(axis=0)
    rows = max(1, _PROJECT_CHUNK_ENTRIES // oracle.n)
    out = np.empty((X_new.shape[0], coeffs.shape[1]))
    for lo in range(0, X_new.shape[0], rows):
        out[lo:lo + rows] = oracle.cross(X_new[lo:lo + rows]) @ centered
    return out


def total_correlation(proj_x: np.ndarray, proj_y: np.ndarray) -> float:
    """Sum of absolute per-dimension Pearson correlations of paired
    projections: rows are pairs, and a 1-D vector is one dimension.
    Dimensions with zero variance contribute 0. Non-finite entries raise
    ValueError naming the argument."""
    views = []
    for name, proj in (("proj_x", proj_x), ("proj_y", proj_y)):
        proj = np.asarray(proj, dtype=float)
        _check_finite(name, proj)
        views.append(proj[:, None] if proj.ndim == 1 else np.atleast_2d(proj))
    proj_x, proj_y = views
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

# The one record format: versions 1 and 2 also stored landmark weights.
_FORMAT_VERSION = 3
# The model fields of a record, each stored under its own name when it is
# not None; a 0-d entry loads as its str, int or float. Each view's
# landmarks and kernel bandwidth follow under keys ending in its tag.
_RECORD_FIELDS = ("kind", "n", "lambda1", "lambda2", "L", "rho",
                  "alpha_prime", "beta_prime", "alpha", "beta", "sigma_next")


def save_model(model: KccaModel, path) -> None:
    """Persist a fitted model to a flat .npz record (format version 3)."""
    payload = {"format_version": _FORMAT_VERSION}
    payload.update((key, getattr(model, key)) for key in _RECORD_FIELDS
                   if getattr(model, key) is not None)
    for tag in ("1", "2"):
        lm = getattr(model, f"landmarks{tag}")
        if lm is not None:
            payload[f"landmark_indices{tag}"] = lm.indices
            payload[f"landmark_draws{tag}"] = lm.draws
            payload[f"landmark_skipped{tag}"] = np.array(lm.skipped,
                                                         dtype=int)
        oracle = getattr(model, f"view{tag}")
        if oracle is not None:
            payload[f"sigma_rbf{tag}"] = oracle.spec.sigma
    np.savez(path, **payload)


def load_model(path, X1=None, X2=None) -> KccaModel:
    """Load a model saved by save_model; only format version 3 loads.

    Training inputs are not stored in the record; pass X1/X2 to re-attach
    projection oracles (the stored kernel bandwidths are reused). Each must
    have the record's n rows, or ValueError names the view.
    """
    with np.load(path, allow_pickle=False) as z:
        if int(z["format_version"]) != _FORMAT_VERSION:
            raise ValueError(f"model format version {z['format_version']}: "
                             f"only version {_FORMAT_VERSION} loads")
        entries = {key: z[key] for key in _RECORD_FIELDS if key in z}
        model = KccaModel(**{key: a.item() if a.ndim == 0 else a
                             for key, a in entries.items()})
        for tag, X in (("1", X1), ("2", X2)):
            if f"landmark_indices{tag}" in z:
                lm = Landmarks(indices=z[f"landmark_indices{tag}"],
                               draws=int(z[f"landmark_draws{tag}"]),
                               skipped=z[f"landmark_skipped{tag}"].tolist())
                setattr(model, f"landmarks{tag}", lm)
            if X is not None:
                if f"sigma_rbf{tag}" not in z:
                    raise ValueError("record has no kernel bandwidth for "
                                     f"view {tag}")
                spec = KernelSpec(sigma=float(z[f"sigma_rbf{tag}"]))
                oracle = KernelColumns.from_data(spec, X)
                if oracle.n != model.n:
                    raise ValueError(f"X{tag} has {oracle.n} rows; the record "
                                     f"was fitted on n = {model.n}")
                setattr(model, f"view{tag}", oracle)
    return model
