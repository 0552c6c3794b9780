"""Random-Fourier-feature CCA baseline: explicit feature maps per view
followed by regularized linear CCA."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kcca import _top_svd
from .kernels import KernelSpec, _check_finite, _check_positive, as_points
from .leverage import _shifted_cholesky
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
    """The N x D features sqrt(2/D) cos(X W^T + b) of the rows of X, formed
    in the buffer of X W^T: the phases, the cosine and the scale are
    applied in place, so the result is the only N x D array."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != rff.frequencies.shape[1]:
        raise ValueError("dimension mismatch between map and data")
    Z = X @ rff.frequencies.T
    Z += rff.phases
    np.cos(Z, out=Z)
    Z *= np.sqrt(2.0 / rff.n_features)
    return Z


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


def _whitening(C: np.ndarray, lam: float, name: str):
    """The upper Cholesky factor R of C + lam I, C = Zc^T Zc / N the
    covariance of a centered view Zc, so that Zc R^-1 is whitened, and the
    numerical rank of C from a pivoted Cholesky (LAPACK dpstrf at its
    default tolerance, D eps times C's largest diagonal). C is overwritten.
    A lam below C's rounding level leaves C + lam I singular: LinAlgError
    naming the regularizer."""
    rank = int(scipy.linalg.lapack.dpstrf(C)[2])
    return _shifted_cholesky(C, lam, f"Z^T Z / N + {name} I", name, lam), rank


def _check_pair(names, X, Y) -> None:
    """ValueError naming both arguments unless X and Y have as many rows."""
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"{names[0]} and {names[1]} must have as many rows, "
                         f"got {X.shape[0]} and {Y.shape[0]}")


def _check_training(names, X, Y, lambda1: float, lambda2: float) -> None:
    """The checks a fit makes of its paired views and regularizers: at
    least two pairs, and lambda1 and lambda2 positive and finite."""
    for name, lam in (("lambda1", lambda1), ("lambda2", lambda2)):
        _check_positive(f"{name} = {lam}", lam)
    _check_pair(names, X, Y)
    if X.shape[0] < 2:
        raise ValueError("need at least two samples")


def _centered_features(rff: RffMap, X: np.ndarray, mean=None):
    """(Z - mean, mean) for Z = rff_features(rff, X), centered in Z's own
    buffer; mean defaults to Z's column mean."""
    Z = rff_features(rff, X)
    if mean is None:
        mean = Z.mean(axis=0)
    Z -= mean
    return Z, mean


def _covariances(views: list):
    """Cxx, Cyy and Cxy of the two centered views [Xc, Yc] in ``views``:
    the D x D moments that are all the linear CCA core reads of the N x D
    features. ``views`` is emptied, so the views are released as soon as
    they are read: Cxy and Cxx are formed first, and Xc is released before
    Cyy. Each moment is divided by N in its own buffer."""
    Yc = views.pop()
    Xc = views.pop()
    n = Xc.shape[0]
    Cxy = Xc.T @ Yc
    Cxx = Xc.T @ Xc
    del Xc
    Cyy = Yc.T @ Yc
    for M in (Cxx, Cyy, Cxy):
        M /= n
    return Cxx, Cyy, Cxy


def _centered_cca(Cxx, Cyy, Cxy, mean_x, mean_y, lambda1: float,
                  lambda2: float, L: int) -> LinearCcaModel:
    """``linear_cca`` from the covariances of the centered views; Cxx and
    Cyy are overwritten by the whitening factors."""
    Rx, rank_x = _whitening(Cxx, lambda1, "lambda1")
    Ry, rank_y = _whitening(Cyy, lambda2, "lambda2")
    M = solve_upper(Rx, Cxy, trans=True)
    M = solve_upper(Ry, M.T, trans=True).T
    U, s, Vt = _top_svd(M, min(L, *M.shape))
    keep = min(L, rank_x, rank_y, int(np.sum(s > 1e-12)))
    if keep < L:
        warnings.warn(f"rank collapse: only {keep} of {L} canonical "
                      "directions are informative", stacklevel=3)
        keep = max(keep, 1)
    corr = np.clip(s[:keep], 0.0, 1.0)
    return LinearCcaModel(correlations=corr, wx=solve_upper(Rx, U[:, :keep]),
                          wy=solve_upper(Ry, Vt[:keep].T), mean_x=mean_x,
                          mean_y=mean_y)


def linear_cca(Zx, Zy, lambda1: float, lambda2: float, L: int) -> LinearCcaModel:
    """Regularized linear CCA on feature matrices (samples x features).

    Each view is centered and whitened by R^-1, R the upper Cholesky
    factor of Z^T Z / N + lam I; the top-L singular triplets of the
    whitened cross-covariance R_x^-T (Z_x^T Z_y / N) R_y^-1 give the
    canonical correlations, and R^-1 maps their singular vectors to the
    weights. If fewer than L informative directions exist, the model is
    truncated with a warning. Zx and Zy are left unwritten: each view is
    centered in a copy. They must be finite and 2-D with the same number
    of at least two rows, and lambda1 and lambda2 positive and finite
    (ValueError), and large enough that Z^T Z / N + lam I is numerically
    positive definite (LinAlgError).
    """
    Zx = np.asarray(Zx, dtype=float)
    Zy = np.asarray(Zy, dtype=float)
    for name, Z in (("Zx", Zx), ("Zy", Zy)):
        if Z.ndim != 2:
            raise ValueError(f"{name} must be 2-D (samples x features), got "
                             f"{Z.ndim}-D")
        _check_finite(name, Z)
    _check_training(("Zx", "Zy"), Zx, Zy, lambda1, lambda2)
    mean_x = Zx.mean(axis=0)
    mean_y = Zy.mean(axis=0)
    return _centered_cca(*_covariances([Zx - mean_x, Zy - mean_y]), mean_x,
                         mean_y, lambda1, lambda2, L)


def rcca_fit(X_train, Y_train, sigma1: float, sigma2: float, n_features: int,
             lambda1: float, lambda2: float, L: int, seed: int):
    """RFF-CCA pipeline: fit feature maps and linear CCA on training pairs.

    Returns (model, project) where project(X, Y) maps raw test pairs to
    canonical coordinates. The point sets follow ``kernels.as_points``,
    paired by row, at least two of them for training; the bandwidths follow
    ``KernelSpec``'s rule, n_features must be at least 1 and the
    regularizers positive and finite (ValueError), all checked before any
    feature is drawn. Each view's features are centered in their own
    buffer; the X features are released once Cxy and Cxx exist, before Cyy
    is formed, so the fit holds at most two N x D arrays beside two D x D
    covariances, and one beside three. ``project`` holds one N x D array,
    building, centering and projecting one view at a time.
    """
    X_train = as_points(X_train, "X_train")
    Y_train = as_points(Y_train, "Y_train")
    _check_training(("X_train", "Y_train"), X_train, Y_train, lambda1,
                    lambda2)
    map_x = make_rff_map(X_train.shape[1], n_features, sigma1, seed)
    map_y = make_rff_map(Y_train.shape[1], n_features, sigma2, seed + 1)
    Xc, mean_x = _centered_features(map_x, X_train)
    Yc, mean_y = _centered_features(map_y, Y_train)
    views = [Xc, Yc]
    del Xc, Yc   # _covariances releases each view once it is read
    model = _centered_cca(*_covariances(views), mean_x, mean_y, lambda1,
                          lambda2, L)

    def project(X, Y):
        X, Y = as_points(X, "X"), as_points(Y, "Y")
        _check_pair(("X", "Y"), X, Y)
        # one N x D array at a time: each is freed after its product
        return (_centered_features(map_x, X, model.mean_x)[0] @ model.wx,
                _centered_features(map_y, Y, model.mean_y)[0] @ model.wy)

    return model, project
