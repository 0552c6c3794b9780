"""Random-Fourier-feature CCA baseline: explicit feature maps per view
followed by regularized linear CCA."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kcca import _top_svd
from .kernels import KernelSpec
from .nystrom import solve_upper

__all__ = [
    "RffMap",
    "make_rff_map",
    "rff_features",
    "LinearCcaModel",
    "linear_cca",
    "rcca_fit",
]


@dataclass(frozen=True)
class RffMap:
    """Random cosine feature map z(x) = sqrt(2/D) cos(W x + b) whose inner
    products approximate the RBF kernel in expectation."""

    frequencies: np.ndarray   # D x d, rows ~ N(0, sigma^-2 I)
    phases: np.ndarray        # D, ~ U[0, 2 pi)
    seed: int

    @property
    def n_features(self) -> int:
        return self.frequencies.shape[0]


def make_rff_map(dim: int, n_features: int, sigma: float, seed: int) -> RffMap:
    """D = n_features random features of the RBF kernel at bandwidth sigma
    (``KernelSpec``'s rule) for dim-dimensional points."""
    KernelSpec(sigma=sigma)
    if n_features < 1:
        raise ValueError(f"n_features = {n_features} must be at least 1")
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 1.0 / sigma, size=(n_features, dim))
    b = rng.uniform(0.0, 2.0 * np.pi, size=n_features)
    return RffMap(frequencies=W, phases=b, seed=seed)


def rff_features(rff: RffMap, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != rff.frequencies.shape[1]:
        raise ValueError("dimension mismatch between map and data")
    D = rff.n_features
    return np.sqrt(2.0 / D) * np.cos(X @ rff.frequencies.T + rff.phases)


@dataclass
class LinearCcaModel:
    correlations: np.ndarray
    wx: np.ndarray
    wy: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray

    def transform(self, Zx, Zy):
        """Canonical coordinates of paired feature rows of both views."""
        return ((np.asarray(Zx) - self.mean_x) @ self.wx,
                (np.asarray(Zy) - self.mean_y) @ self.wy)


def _whitening(Zc: np.ndarray, lam: float, name: str):
    """The upper Cholesky factor R of C + lam I, C = Zc^T Zc / N for a
    centered view Zc, so that Zc R^-1 is whitened, and the numerical rank
    of C from a pivoted Cholesky (LAPACK dpstrf at its default tolerance,
    D eps times C's largest diagonal). A lam below C's rounding level
    leaves C + lam I singular: LinAlgError naming the regularizer."""
    C = Zc.T @ Zc / Zc.shape[0]
    rank = int(scipy.linalg.lapack.dpstrf(C)[2])
    C[np.diag_indices_from(C)] += lam
    try:
        return scipy.linalg.cholesky(C, overwrite_a=True), rank
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"Z^T Z / N + {name} I is not numerically positive definite at "
            f"{name} = {lam:g} ({exc})") from None


def linear_cca(Zx, Zy, lambda1: float, lambda2: float, L: int) -> LinearCcaModel:
    """Regularized linear CCA on feature matrices.

    Each view is centered and whitened by R^-1, R the upper Cholesky
    factor of Z^T Z / N + lam I; the top-L singular triplets of the
    whitened cross-covariance R_x^-T (Z_x^T Z_y / N) R_y^-1 give the
    canonical correlations, and R^-1 maps their singular vectors to the
    weights. If fewer than L informative directions exist, the model is
    truncated with a warning. lambda1 and lambda2 must be positive and
    finite (ValueError), and large enough that Z^T Z / N + lam I is
    numerically positive definite (LinAlgError).
    """
    for name, lam in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not 0 < lam < math.inf:
            raise ValueError(f"{name} = {lam} must be positive and finite")
    Zx = np.atleast_2d(np.asarray(Zx, dtype=float))
    Zy = np.atleast_2d(np.asarray(Zy, dtype=float))
    n = Zx.shape[0]
    if Zy.shape[0] != n:
        raise ValueError("views have different sample counts")
    if n < 2:
        raise ValueError("need at least two samples")
    mean_x = Zx.mean(axis=0)
    mean_y = Zy.mean(axis=0)
    Xc = Zx - mean_x
    Yc = Zy - mean_y
    Rx, rank_x = _whitening(Xc, lambda1, "lambda1")
    Ry, rank_y = _whitening(Yc, lambda2, "lambda2")
    M = solve_upper(Rx, Xc.T @ Yc / n, trans=True)
    M = solve_upper(Ry, M.T, trans=True).T
    U, s, Vt = _top_svd(M, min(L, *M.shape))
    keep = min(L, rank_x, rank_y, int(np.sum(s > 1e-12)))
    if keep < L:
        warnings.warn(f"rank collapse: only {keep} of {L} canonical "
                      "directions are informative", stacklevel=2)
        keep = max(keep, 1)
    corr = np.clip(s[:keep], 0.0, 1.0)
    return LinearCcaModel(correlations=corr, wx=solve_upper(Rx, U[:, :keep]),
                          wy=solve_upper(Ry, Vt[:keep].T), mean_x=mean_x,
                          mean_y=mean_y)


def rcca_fit(X_train, Y_train, sigma1: float, sigma2: float, n_features: int,
             lambda1: float, lambda2: float, L: int, seed: int):
    """RFF-CCA pipeline: fit feature maps and linear CCA on training pairs.

    Returns (model, project) where project(X, Y) maps raw test pairs to
    canonical coordinates. The bandwidths follow ``KernelSpec``'s rule,
    n_features must be at least 1 and the regularizers positive and finite
    (ValueError).
    """
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    Y_train = np.atleast_2d(np.asarray(Y_train, dtype=float))
    map_x = make_rff_map(X_train.shape[1], n_features, sigma1, seed)
    map_y = make_rff_map(Y_train.shape[1], n_features, sigma2, seed + 1)
    model = linear_cca(rff_features(map_x, X_train), rff_features(map_y, Y_train),
                       lambda1, lambda2, L)

    def project(X, Y):
        return model.transform(rff_features(map_x, X), rff_features(map_y, Y))

    return model, project
