"""Ridge leverage scores, effective dimension, and column-sampling distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import KernelColumns, as_matrix

__all__ = [
    "LeverageScores",
    "SamplingDistribution",
    "exact_leverage",
    "approx_leverage",
    "effective_dimension",
    "make_distribution",
]

# Probability floor applied before renormalization so importance weights
# 1/sqrt(M p_i) stay finite even for duplicate/degenerate points.
PROB_FLOOR = 1e-12

# Rows of the whitened sketch per triangular solve in approx_leverage. A solve
# with all N right-hand sides at once makes OpenBLAS pack a panel that grows
# with N (about 7 MB at N = 3000) and stays resident for the process.
_SOLVE_ROWS = 512


@dataclass(frozen=True)
class LeverageScores:
    """Per-sample ridge leverage scores l_i = (K (K + N gamma I)^-1)_ii.

    d_eff is their sum, the effective dimension of K at shrinkage gamma.
    """

    scores: np.ndarray
    gamma: float
    d_eff: float


@dataclass(frozen=True)
class SamplingDistribution:
    """Column-sampling probabilities over the N training points."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.shape[0]


def _psd_eigh(K: np.ndarray, eigvals_only: bool = False):
    """Eigendecomposition with tiny negative eigenvalues clipped to zero.

    Uses LAPACK's divide-and-conquer driver: scipy's default MRRR driver
    (``evr``) can be several times slower on the clustered spectra of RBF
    kernels. Returns the eigenvalues alone when ``eigvals_only``.
    """
    out = scipy.linalg.eigh(K, eigvals_only=eigvals_only, driver="evd")
    if eigvals_only:
        return np.maximum(out, 0.0)
    sig, U = out
    return np.maximum(sig, 0.0), U


def exact_leverage(K, gamma: float) -> LeverageScores:
    """Exact gamma-ridge leverage scores of a PSD matrix.

    Computed from the symmetric eigendecomposition K = U diag(sig) U^T as
    l_i = sum_j sig_j / (sig_j + N gamma) * U_ij^2, which are the diagonal
    entries of K (K + N gamma I)^-1.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    K = as_matrix(K)
    n = K.shape[0]
    sig, U = _psd_eigh(K)
    shrink = sig / (sig + n * gamma)
    scores = np.einsum("ij,j,ij->i", U, shrink, U)
    np.clip(scores, 0.0, 1.0, out=scores)
    return LeverageScores(scores=scores, gamma=gamma, d_eff=float(shrink.sum()))


def effective_dimension(K, gamma: float) -> float:
    """trace(K (K + N gamma I)^-1) = sum of the gamma-ridge leverage scores."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    K = as_matrix(K)
    n = K.shape[0]
    sig = _psd_eigh(K, eigvals_only=True)
    return float(np.sum(sig / (sig + n * gamma)))


def approx_leverage(oracle: KernelColumns, gamma: float, sketch_size: int,
                    seed: int) -> LeverageScores:
    """Sketched leverage-score estimates from a column subsample.

    Draws `sketch_size` distinct columns uniformly and reports the diagonal
    of L (L + N gamma I)^-1 for the landmark approximation L = C W^+ C^T
    (C = the sampled columns, W = their square submatrix). One symmetric
    eigendecomposition W = U diag(sig) U^T whitens the sketch: with the
    directions above the eps-threshold of the pseudo-inverse kept,
    F = C U+ diag(sig+)^-1/2 gives L = F F^T. By the push-through identity
    the estimates are the squared column norms of R^-T F^T, where R is the
    upper Cholesky factor of F^T F + N gamma I; the shift bounds its
    condition number by 1 + ||F||^2 / (N gamma). Since L is dominated by K
    in the PSD order, the estimates never exceed the exact scores. With the
    full sketch, L = K and the estimates are exact.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = oracle.n
    if not 1 <= sketch_size <= n:
        raise ValueError(f"sketch_size must be in [1, {n}]")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=sketch_size, replace=False))

    C = np.column_stack([oracle.column(i) for i in idx])
    W = C[idx, :]
    sig_w, U_w = _psd_eigh(0.5 * (W + W.T))
    tol = sig_w.max(initial=0.0) * sketch_size * np.finfo(float).eps
    keep = sig_w > tol
    F = C @ (U_w[:, keep] / np.sqrt(sig_w[keep]))
    del C  # at most two N x s arrays are ever live: C and F
    S = F.T @ F
    S[np.diag_indices_from(S)] += n * gamma
    R = scipy.linalg.cholesky(S, lower=False, check_finite=False)
    scores = np.empty(n)
    for lo in range(0, n, _SOLVE_ROWS):
        # F[lo:hi]^T is a column-major view, so the solve runs in place
        Z = scipy.linalg.solve_triangular(R, F[lo:lo + _SOLVE_ROWS].T,
                                          trans="T", lower=False,
                                          overwrite_b=True, check_finite=False)
        scores[lo:lo + _SOLVE_ROWS] = np.einsum("ij,ij->j", Z, Z)
    np.clip(scores, 0.0, 1.0, out=scores)
    return LeverageScores(scores=scores, gamma=gamma, d_eff=float(scores.sum()))


def make_distribution(scores: LeverageScores, mix_uniform: float = 0.0) -> SamplingDistribution:
    """Blend the leverage distribution l_i / d_eff with the uniform one.

    mix_uniform = 0 gives pure leverage-score sampling, 1 gives uniform
    sampling. A floor of PROB_FLOOR / N is applied before the final exact
    renormalization.
    """
    if not 0.0 <= mix_uniform <= 1.0:
        raise ValueError("mix_uniform must lie in [0, 1]")
    l = np.asarray(scores.scores, dtype=float)
    n = l.shape[0]
    if mix_uniform < 1.0 and scores.d_eff <= 0:
        raise ValueError("all-zero leverage scores require mix_uniform = 1")
    if mix_uniform == 1.0:
        ridge_part = np.zeros(n)
    else:
        ridge_part = l / scores.d_eff
    p = (1.0 - mix_uniform) * ridge_part + mix_uniform / n
    p = np.maximum(p, PROB_FLOOR / n)
    return SamplingDistribution(p=p / p.sum())
