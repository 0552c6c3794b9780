"""Kernel evaluation, Gram matrices, and feature-space centering."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KernelSpec",
    "GramMatrix",
    "KernelColumns",
    "gram",
    "center",
]


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its bandwidth. Only the Gaussian RBF is supported."""

    family: str = "gaussian_rbf"
    sigma: float = 1.0

    def __post_init__(self):
        if self.family != "gaussian_rbf":
            raise ValueError(f"unsupported kernel family: {self.family!r}")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class GramMatrix:
    """Dense symmetric PSD kernel matrix over n training points."""

    entries: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("Gram matrix must be square")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n", entries.shape[0])


def as_matrix(K) -> np.ndarray:
    """Accept a GramMatrix or a plain square array; return the ndarray view."""
    if isinstance(K, GramMatrix):
        return K.entries
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("expected a square matrix")
    return K


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise squared distances, clipped at 0 against rounding."""
    xx = np.einsum("ij,ij->i", X, X)
    yy = np.einsum("ij,ij->i", Y, Y)
    d2 = xx[:, None] + yy[None, :] - 2.0 * (X @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def gram(spec: KernelSpec, X) -> GramMatrix:
    """Build the uncentered N x N kernel matrix of the rows of X.

    Symmetry is enforced by mirroring the upper triangle, and the diagonal
    is set to k(x, x) exactly (1 for the RBF).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    K = np.exp(_sq_dists(X, X) / (-2.0 * spec.sigma**2))
    iu = np.triu_indices(K.shape[0], k=1)
    K[(iu[1], iu[0])] = K[iu]
    np.fill_diagonal(K, 1.0)
    return GramMatrix(K)


def cross_gram(spec: KernelSpec, X_new, X_train) -> np.ndarray:
    """Kernel affinities of new points against training points (rows x cols)."""
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    if X_new.shape[1] != X_train.shape[1]:
        raise ValueError("dimension mismatch between new and training points")
    return np.exp(_sq_dists(X_new, X_train) / (-2.0 * spec.sigma**2))


def center(K) -> GramMatrix:
    """Double-center a Gram matrix: H K H with H = I - (1/N) 11^T.

    Computed as K - rowmean - colmean + grandmean; H is never formed.
    """
    K = as_matrix(K)
    row = K.mean(axis=1, keepdims=True)
    col = K.mean(axis=0, keepdims=True)
    grand = K.mean()
    out = K - row - col + grand
    out = 0.5 * (out + out.T)
    return GramMatrix(out)


class KernelColumns:
    """Column oracle for a kernel matrix: serves columns of the kernel of
    (spec, X), evaluated on demand, without holding the N x N matrix in
    memory. X is validated here, once: it must be a finite 2-D array (rows
    are points).
    """

    def __init__(self, spec: KernelSpec, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D (points x features), got "
                             f"{X.ndim}-D")
        if not np.all(np.isfinite(X)):
            raise ValueError("X has non-finite entries")
        self._X = X
        self.spec = spec
        self.n = X.shape[0]

    @classmethod
    def from_data(cls, spec: KernelSpec, X) -> "KernelColumns":
        return cls(spec, X)

    def column(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexError(f"column index {i} out of range [0, {self.n})")
        return cross_gram(self.spec, self._X[i : i + 1], self._X)[0]

    def columns(self, idx) -> np.ndarray:
        """Batched fetch: the N x len(idx) block of kernel columns."""
        idx = np.asarray(idx, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError("column index out of range")
        return cross_gram(self.spec, self._X[idx], self._X).T

    def cross(self, X_new) -> np.ndarray:
        """Kernel columns of new points against the training set (n_new x N)."""
        return cross_gram(self.spec, X_new, self._X)

    def dense(self) -> np.ndarray:
        return gram(self.spec, self._X).entries
