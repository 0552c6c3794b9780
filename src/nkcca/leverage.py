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

# Rows of the whitened sketch per triangular solve in approx_leverage. A solve
# with all N right-hand sides at once makes OpenBLAS pack a panel that grows
# with N (about 7 MB at N = 3000) and stays resident for the process.
_SOLVE_ROWS = 512
# Rows per block of the whitening product, which writes F over C. A multiple
# of the BLAS kernels' tile widths (384 = 3 * 128), so each block's rows fall
# in the same tiles as in one product over all N rows and round alike; a
# one-row remainder joins the block before it, since numpy multiplies a lone
# row by gemv.
_PRODUCT_ROWS = 384
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
    """Eigendecomposition with tiny negative eigenvalues clipped to zero.

    Uses LAPACK's divide-and-conquer driver: scipy's default MRRR driver
    (``evr``) can be several times slower on the clustered spectra of RBF
    kernels. Returns the eigenvalues alone when ``eigvals_only``. LAPACK
    reads a Fortran-ordered copy of K; with ``overwrite``, an F-ordered K is
    factored in its own buffer instead, which then holds the eigenvectors.
    """
    out = scipy.linalg.eigh(K, eigvals_only=eigvals_only, driver="evd",
                            overwrite_a=overwrite)
    if eigvals_only:
        return np.maximum(out, 0.0)
    sig, U = out
    return np.maximum(sig, 0.0), U


def _sketch_eigh(W: np.ndarray):
    """The eigendecomposition (sig, U) of a sketch block W, symmetrized and
    with tiny negative eigenvalues clipped: what ``_whitening`` scales at
    any shift. The symmetrized block is exactly symmetric, so its
    transpose, an F-ordered view of the same values, is factored in place:
    one s x s buffer besides W."""
    S = W + W.T
    S *= 0.5
    return _psd_eigh(S.T, overwrite=True)


def _whitening(eig, shift: float) -> np.ndarray:
    """The s x k map U+ diag(sig+ + shift)^-1/2 that ``_whitened_sketch``
    applies to the kernel columns C of a sketch block W.

    ``eig`` = _sketch_eigh(W) is W = U diag(sig) U^T, so one
    eigendecomposition serves every shift; U+ and sig+ keep the k
    directions whose sig + shift exceeds the eps-threshold
    sig_max * s * eps of the pseudo-inverse. U+ is a copy, scaled in place;
    U itself is left as it is for the next shift.
    """
    sig, U = eig
    tol = sig.max(initial=0.0) * sig.shape[0] * np.finfo(float).eps
    keep = sig + shift > tol
    scaled = U[:, keep]
    scaled /= np.sqrt(sig[keep] + shift)
    return scaled


def _whitened_sketch(C: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """The whitened sketch F = C U+ diag(sig+ + shift)^-1/2, so that
    F F^T = C (W + shift I)^+ C^T, written over C.

    C holds sampled kernel columns (N x s) and ``scaled`` =
    _whitening(_sketch_eigh(W), shift) for their s x s block W. F is formed
    in C's own buffer, ``_PRODUCT_ROWS`` rows at a time (a row block of the
    product reads only the same rows of C), bitwise as one product, and
    returned as the view C[:, :k]: C is consumed, and C and F never
    coexist. Every dense Nystrom approximation of the package comes from
    this factor: the leverage sketch at shift 0 and
    ``diagnostics.low_rank_dense`` at shift N gamma.
    """
    k, n = scaled.shape[1], C.shape[0]
    starts = range(0, max(n - 1, 1), _PRODUCT_ROWS)
    for lo, hi in zip(starts, [*starts[1:], n]):
        rows = C[lo:hi]
        rows[:, :k] = rows @ scaled
    return C[:, :k]


def _shifted_cholesky(S: np.ndarray, shift: float, matrix: str, param: str,
                      value: float) -> np.ndarray:
    """The upper Cholesky factor of a finite S + shift I, in S's own buffer
    if S is F-ordered; LinAlgError naming ``matrix`` and ``param`` = ``value``
    unless it is numerically positive definite."""
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
    symmetric N x N K or, with ``centered``, H K H. The centering, the
    factor and its inversion (dtrtri) run in place in one new column-major
    array. The factor reads a C-ordered K's lower triangle (its transpose
    has the result's layout) and any other K's upper one. K is only read;
    failures name it as ``name`` and lam as ``param``."""
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
    """Exact gamma-ridge leverage scores of a PSD matrix.

    The scores are the diagonal entries of K (K + N gamma I)^-1
    = I - N gamma (K + N gamma I)^-1. With the Cholesky factor
    R^T R = K + N gamma I, the inverse is R^-1 R^-T, so
    l_i = 1 - N gamma ||(R^-1)_{i,:}||^2 and
    d_eff = N - N gamma ||R^-1||_F^2, taken before the scores are clipped
    to [0, 1]. Raises ValueError on a non-finite K and LinAlgError when
    K + N gamma I is not numerically positive definite.
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
    """Sketched leverage-score estimates from a column subsample.

    Draws `sketch_size` distinct columns uniformly and reports the diagonal
    of L (L + N gamma I)^-1 for the landmark approximation L = C W^+ C^T
    (C = the sampled columns, W = their square submatrix). The whitened
    sketch F = C U+ diag(sig+)^-1/2 of ``_whitened_sketch`` gives L = F F^T.
    By the push-through identity the estimates are the squared column norms
    of R^-T F^T, where R is the upper Cholesky factor of
    F^T F + N gamma I; the shift bounds its
    condition number by 1 + ||F||^2 / (N gamma). Since L is dominated by K
    in the PSD order, the estimates never exceed the exact scores. With the
    full sketch, L = K and the estimates are exact. It holds one N x s
    array at a time: C is released once its s x s block W is taken, so the
    sketch eigh runs beside s x s arrays only; the oracle then serves C
    again (the same block) and F is written over it, so beside it only
    s x s arrays and a block of ``_SOLVE_ROWS`` rows are live. The second
    fetch costs one more N x s kernel block.
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
    # the same block again, whitened in its own buffer: F is a view of it
    F = _whitened_sketch(oracle.columns(idx), scaled)
    del scaled
    R = _shifted_cholesky(F.T @ F, n * gamma, "F^T F + N gamma I", "gamma",
                          gamma)
    scores = np.empty(n)
    for lo in range(0, n, _SOLVE_ROWS):
        # in place where F[lo:hi]^T is column-major (a C-ordered C); a
        # KernelColumns block is column-major, so its rows are copied
        Z = scipy.linalg.solve_triangular(R, F[lo:lo + _SOLVE_ROWS].T,
                                          trans="T", lower=False,
                                          overwrite_b=True, check_finite=False)
        scores[lo:lo + _SOLVE_ROWS] = np.einsum("ij,ij->j", Z, Z)
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
