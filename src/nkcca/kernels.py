"""Kernel evaluation, Gram matrices, and feature-space centering."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "KernelColumns",
    "gram",
    "center",
]


@dataclass(frozen=True)
class KernelSpec:
    """The bandwidth of a Gaussian RBF kernel exp(-||x - y||^2 / (2 sigma^2)).

    sigma must be positive with 2 sigma^2 a finite, normal double (about
    1e-154 <= sigma <= 1e154): outside that range the exponent's divisor
    overflows or underflows, and the kernel is no longer defined by it.
    """

    sigma: float = 1.0

    def __post_init__(self):
        two_var = 2.0 * self.sigma * self.sigma   # inf or 0 past the range
        if not (self.sigma > 0 and sys.float_info.min <= two_var < math.inf):
            raise ValueError(f"sigma = {self.sigma:g} must be positive with "
                             f"2 sigma^2 a finite, normal double")


def as_matrix(K) -> np.ndarray:
    """The one square-matrix check: K as a float ndarray, or ValueError."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("expected a square matrix")
    return K


def as_points(X) -> np.ndarray:
    """The one point-set check: X as a 2-D float array (rows are points)
    with 4 d max |x_ij|^2 finite for its d columns, or ValueError. That
    bound is finite only if every entry is, and it is at least 4 max
    ||x||^2, which bounds every term of the squared distances."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (points x features), got "
                         f"{X.ndim}-D")
    top = float(np.abs(X).max(initial=0.0))   # NaN if any entry is
    if not math.isfinite(4.0 * X.shape[1] * top * top):
        raise ValueError("X has non-finite entries, or squared distances "
                         "that overflow a double")
    return X


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise squared distances, clipped at 0 against rounding."""
    xx = np.einsum("ij,ij->i", X, X)
    yy = np.einsum("ij,ij->i", Y, Y)
    d2 = xx[:, None] + yy[None, :] - 2.0 * (X @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def gram(spec: KernelSpec, X) -> np.ndarray:
    """Build the uncentered N x N kernel matrix of the rows of X.

    It is ``cross_gram`` of X with itself, with the diagonal set to
    k(x, x) = 1 exactly. X is taken C-contiguous, so numpy forms X X^T of
    one buffer by a rank-k update (syrk) and the matrix is exactly
    symmetric with no mirroring pass.
    """
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
    K = cross_gram(spec, X, X)
    np.fill_diagonal(K, 1.0)
    return K


def cross_gram(spec: KernelSpec, X_new, X_train) -> np.ndarray:
    """Kernel affinities of the rows of two 2-D arrays (rows x rows)."""
    if X_new.shape[1] != X_train.shape[1]:
        raise ValueError("dimension mismatch between new and training points")
    return np.exp(_sq_dists(X_new, X_train) / (-2.0 * spec.sigma**2))


def center(K) -> np.ndarray:
    """Double-center a Gram matrix: H K H with H = I - (1/N) 11^T.

    Computed as K - rowmean - colmean + grandmean, symmetrized, in one
    N x N buffer; H is never formed.
    """
    K = as_matrix(K)
    row = K.mean(axis=1, keepdims=True)
    col = K.mean(axis=0, keepdims=True)
    grand = K.mean()
    out = K - row
    out -= col
    out += grand
    out += out.T   # numpy buffers the overlapping operand
    out *= 0.5
    return out


class KernelColumns:
    """Column oracle for a kernel matrix: serves columns of the kernel of
    (spec, X), evaluated on demand, without holding the N x N matrix in
    memory. X is validated here, once, by ``as_points``; so are the new
    points of ``cross``.
    """

    def __init__(self, spec: KernelSpec, X):
        self._X = as_points(X)
        self.spec = spec
        self.n = self._X.shape[0]

    @classmethod
    def from_data(cls, spec: KernelSpec, X) -> "KernelColumns":
        return cls(spec, X)

    def column(self, i: int) -> np.ndarray:
        """Kernel column i (length N)."""
        return self.columns([i])[:, 0]

    def columns(self, idx) -> np.ndarray:
        """Batched fetch: the N x len(idx) block of kernel columns."""
        idx = np.asarray(idx, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError("column index out of range")
        return cross_gram(self.spec, self._X[idx], self._X).T

    def cross(self, X_new) -> np.ndarray:
        """Kernel columns of new points against the training set (n_new x N)."""
        return cross_gram(self.spec, as_points(np.atleast_2d(X_new)), self._X)

    def dense(self) -> np.ndarray:
        return gram(self.spec, self._X)
