"""Kernel evaluation, Gram matrices, and the input checks of points and
matrices."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "KernelColumns",
    "gram",
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


def _check_positive(name: str, *values: float, zero_ok: bool = False) -> None:
    """The one range check of a regularizer or shrinkage: ValueError naming
    ``name`` unless every value is positive (or zero, with ``zero_ok``) and
    finite. NaN fails."""
    for value in values:
        if not (0 < value < math.inf or (zero_ok and value == 0)):
            lower = "nonnegative" if zero_ok else "positive"
            raise ValueError(f"{name} must be {lower} and finite")


def _check_finite(name: str, a: np.ndarray) -> None:
    """The one finiteness check of an array argument: ValueError naming
    ``name`` if ``a`` has a NaN or infinite entry."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")


def as_matrix(K) -> np.ndarray:
    """The one square-matrix check: K as a float ndarray, or ValueError."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("expected a square matrix")
    return K


def as_points(X, name: str = "X") -> np.ndarray:
    """The one point-set check: X as a 2-D float array (rows are points)
    with 4 d max |x_ij|^2 finite for its d columns, or ValueError naming
    the argument ``name``. That bound is finite only if every entry is,
    and it is at least 4 max ||x||^2, which bounds every term of the
    squared distances."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-D (points x features), got "
                         f"{X.ndim}-D")
    top = float(np.abs(X).max(initial=0.0))   # NaN if any entry is
    if not math.isfinite(4.0 * X.shape[1] * top * top):
        raise ValueError(f"{name} has non-finite entries, or squared "
                         "distances that overflow a double")
    return X


# Entries of the (xx + yy) row chunk that cross_gram subtracts its doubled
# X Y^T from: the one buffer it holds besides its result.
_ROW_CHUNK_ENTRIES = 1 << 16


def gram(spec: KernelSpec, X) -> np.ndarray:
    """The uncentered, exactly symmetric N x N kernel matrix of the rows of
    X: ``cross_gram`` of a C-contiguous X with itself, with its diagonal
    set to 1. X is only read."""
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
    K = cross_gram(spec, X, X)
    np.fill_diagonal(K, 1.0)
    return K


def cross_gram(spec: KernelSpec, X_new, X_train) -> np.ndarray:
    """Kernel affinities exp(-max(||x||^2 + ||y||^2 - 2 x^T y, 0) /
    (2 sigma^2)) of the rows of two 2-D arrays (rows x rows), which are only
    read. The result is the only array of its size; beside it one row chunk
    of ``_ROW_CHUNK_ENTRIES`` is live. Raises ValueError for arrays of
    different widths.
    """
    if X_new.shape[1] != X_train.shape[1]:
        raise ValueError("dimension mismatch between new and training points")
    xx = np.einsum("ij,ij->i", X_new, X_new)
    yy = np.einsum("ij,ij->i", X_train, X_train)
    K = X_new @ X_train.T
    K *= 2.0
    scale = -2.0 * spec.sigma**2
    rows = max(1, _ROW_CHUNK_ENTRIES // max(1, K.shape[1]))
    chunk = np.empty((min(rows, K.shape[0]), K.shape[1]))
    for lo in range(0, K.shape[0], rows):
        block, part = K[lo:lo + rows], chunk[:K.shape[0] - lo]
        np.add(xx[lo:lo + rows, None], yy, out=part)
        np.subtract(part, block, out=block)
        np.maximum(block, 0.0, out=block)   # clip rounding below 0
        block /= scale
        np.exp(block, out=block)
    return K


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
        """Batched fetch: the N x len(idx) block of kernel columns, a new
        array on every call and bitwise the same block for the same idx, so
        a caller may consume it (``chol_append_block`` does) or fetch it
        again rather than keep it (``approx_leverage`` does)."""
        idx = np.asarray(idx, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError("column index out of range")
        return cross_gram(self.spec, self._X[idx], self._X).T

    def cross(self, X_new) -> np.ndarray:
        """Kernel columns of new points against the training set (n_new x N)."""
        return cross_gram(self.spec, as_points(np.atleast_2d(X_new)), self._X)

    def dense(self) -> np.ndarray:
        return gram(self.spec, self._X)
