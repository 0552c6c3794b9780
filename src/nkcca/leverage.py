"""Ridge leverage scores, effective dimension, and column-sampling distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import (KernelColumns, _check_finite, _check_positive,
                      as_matrix)

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

# Rows per block of approx_leverage's whitening product, which writes F over
# C: the product's one temporary is this many rows of F.
_SOLVE_ROWS = 512
# _inverse_factor symmetrizes a centered matrix, and kcca._ridge_projection
# mirrors its triangle, this many columns at a time.
_COLUMN_BLOCK = 128


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
        if p.ndim != 1:
            raise ValueError("probabilities must be a 1-D array")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if not abs(p.sum() - 1.0) <= 1e-12:   # a NaN sum fails it too
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.shape[0]


def _psd_eigh(K: np.ndarray, eigvals_only: bool = False,
              overwrite: bool = False):
    """(sig, U) of a symmetric K by LAPACK's divide and conquer (``evd``),
    with tiny negative eigenvalues clipped to zero; sig alone with
    ``eigvals_only``. K is only read, unless ``overwrite`` and K is
    F-ordered: then it is factored in place and holds U."""
    out = scipy.linalg.eigh(K, eigvals_only=eigvals_only, driver="evd",
                            overwrite_a=overwrite)
    if eigvals_only:
        return np.maximum(out, 0.0)
    sig, U = out
    return np.maximum(sig, 0.0), U


def _sketch_eigh(W: np.ndarray):
    """``_psd_eigh`` of the symmetrized sketch block (W + W^T) / 2, factored
    in its own buffer: one s x s array besides W, which is only read."""
    S = W + W.T
    S *= 0.5
    return _psd_eigh(S.T, overwrite=True)


def _whitening(eig, shift: float) -> np.ndarray:
    """The s x k map U+ diag(sig+ + shift)^-1/2 for ``eig`` =
    _sketch_eigh(W), W = U diag(sig) U^T: U+ and sig+ keep the k directions
    with sig + shift above sig_max * s * eps. A new array; ``eig`` is only
    read, so it serves every shift."""
    sig, U = eig
    tol = sig.max(initial=0.0) * sig.shape[0] * np.finfo(float).eps
    keep = sig + shift > tol
    scaled = U[:, keep]
    scaled /= np.sqrt(sig[keep] + shift)
    return scaled


def _shifted_cholesky(S: np.ndarray, shift: float, matrix: str, param: str,
                      value: float) -> np.ndarray:
    """The upper Cholesky factor of a finite S + shift I, in S's own buffer
    if S is F-ordered (S is overwritten either way); LinAlgError naming
    ``matrix`` and ``param`` = ``value`` unless it is numerically positive
    definite."""
    S[np.diag_indices_from(S)] += shift
    try:
        return scipy.linalg.cholesky(S, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"{matrix} is not numerically positive definite at {param} = "
            f"{value:g} ({exc})") from None


def _inverse_factor(K: np.ndarray, lam: float, name: str, param: str,
                    centered: bool = False) -> np.ndarray:
    """R^-1, zero below the diagonal, for R^T R = Kc + N lam I, Kc being a
    symmetric N x N K or, with ``centered``, H K H, as one new column-major
    array. K is only read: a C-ordered K's lower triangle, any other K's
    upper one. Raises ValueError naming ``name`` for a non-finite K, and
    ``_shifted_cholesky``'s LinAlgError naming ``param``."""
    _check_finite(name, K)
    flip = K.flags.c_contiguous
    P = np.array(K.T if flip else K, order="F")
    n = P.shape[0]
    if centered:
        # C = K - row - col + grand, term by term, on K or K^T, then
        # (C + C^T) / 2 in the upper triangle the factor reads
        row, col = K.mean(axis=1), K.mean(axis=0)
        P -= row[None, :] if flip else row[:, None]
        P -= col[:, None] if flip else col[None, :]
        P += K.mean()
        for j in range(0, n, _COLUMN_BLOCK):
            upper = P[j:j + _COLUMN_BLOCK, j:]
            upper += P[j:, j:j + _COLUMN_BLOCK].T   # numpy buffers overlaps
            upper *= 0.5
        name = f"H {name} H"
    P = _shifted_cholesky(P, n * lam, f"{name} + N {param} I", param, lam)
    # R has a positive diagonal, so the in-place inverse cannot fail
    return scipy.linalg.lapack.dtrtri(P, lower=0, overwrite_c=1)[0]


def exact_leverage(K, gamma: float) -> LeverageScores:
    """Exact gamma-ridge leverage scores diag(K (K + N gamma I)^-1) of a PSD
    K, which is only read, clipped to [0, 1]; d_eff is their sum before
    clipping. Raises ValueError for a gamma that is not positive and finite
    or a non-finite K, and LinAlgError when K + N gamma I is not
    numerically positive definite.
    """
    _check_positive("gamma", gamma)
    # C-ordered, so the factor reads the lower triangle, as eigh does
    K = np.ascontiguousarray(as_matrix(K))
    n = K.shape[0]
    Rinv = _inverse_factor(K, gamma, "K", "gamma")
    shrunk = np.einsum("ij,ij->i", Rinv, Rinv)
    shrunk *= n * gamma
    scores = 1.0 - shrunk
    d_eff = float(n - shrunk.sum())
    np.clip(scores, 0.0, 1.0, out=scores)
    return LeverageScores(scores=scores, gamma=gamma, d_eff=d_eff)


def effective_dimension(K, gamma: float) -> float:
    """trace(K (K + N gamma I)^-1) = sum of the gamma-ridge leverage scores.
    Raises ValueError for a gamma that is not positive and finite, or a
    non-finite K."""
    _check_positive("gamma", gamma)
    K = as_matrix(K)
    _check_finite("K", K)
    n = K.shape[0]
    sig = _psd_eigh(K, eigvals_only=True)
    return float(np.sum(sig / (sig + n * gamma)))


def approx_leverage(oracle: KernelColumns, gamma: float, sketch_size: int,
                    seed: int) -> LeverageScores:
    """Sketched ridge leverage scores: the diagonal of L (L + N gamma I)^-1,
    clipped to [0, 1], for L = C W^+ C^T, C the kernel columns of
    ``sketch_size`` = s distinct indices drawn uniformly with ``seed`` and
    W their s x s block. They never exceed the exact scores and equal them
    with the full sketch. Holds one N x s array at a time: the oracle
    serves C twice. Raises ValueError for a gamma that is not positive and
    finite or s outside [1, N], and LinAlgError when F^T F + N gamma I is
    not numerically positive definite.
    """
    _check_positive("gamma", gamma)
    n = oracle.n
    if not 1 <= sketch_size <= n:
        raise ValueError(f"sketch_size must be in [1, {n}]")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=sketch_size, replace=False))

    C = oracle.columns(idx)
    W = C[idx, :]
    del C   # the sketch eigh holds W, its symmetrized copy and LAPACK's work
    scaled = _whitening(_sketch_eigh(W), 0.0)   # U is freed here
    del W
    # the same block again: F = C scaled is written over it by row blocks
    C = oracle.columns(idx)
    F = C[:, :scaled.shape[1]]
    for lo in range(0, n, _SOLVE_ROWS):
        F[lo:lo + _SOLVE_ROWS] = C[lo:lo + _SOLVE_ROWS] @ scaled
    del C, scaled, lo   # F, a view, is all that outlives the product
    R = _shifted_cholesky(F.T @ F, n * gamma, "F^T F + N gamma I", "gamma",
                          gamma)
    # F R^-1, in place where F is column-major (a KernelColumns block)
    Z = scipy.linalg.blas.dtrsm(1.0, R, F, side=1, overwrite_b=1)
    scores = np.einsum("ij,ij->i", Z, Z)
    np.clip(scores, 0.0, 1.0, out=scores)
    return LeverageScores(scores=scores, gamma=gamma, d_eff=float(scores.sum()))


def make_distribution(scores: LeverageScores) -> SamplingDistribution:
    """The leverage-score distribution l_i / d_eff.

    A floor of PROB_FLOOR / N is applied before the final exact
    renormalization.
    """
    if scores.d_eff <= 0:
        raise ValueError("all-zero leverage scores give no distribution")
    l = np.asarray(scores.scores, dtype=float)
    p = np.maximum(l / scores.d_eff, PROB_FLOOR / l.shape[0])
    return SamplingDistribution(p=p / p.sum())
