"""Shared helpers for the test suite."""

import dataclasses
import os
import tracemalloc

# Idle OpenBLAS workers spin for a while before they sleep, and on a
# machine with as many cores as BLAS threads that spinning slows the
# suite's many small BLAS calls; a short timeout lets them sleep sooner.
# OpenBLAS reads it when it loads, so it is set before numpy is imported,
# and only when the caller has not set it.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np
import scipy.linalg

from nkcca.datasets import synthetic_circles
from nkcca.kcca import KccaModel, Landmarks
from nkcca.kernels import KernelSpec, as_matrix, gram
from nkcca.sampling import SamplingPlan


def random_psd(rng, n, rank=None, jitter=0.0):
    """Random symmetric PSD matrix with controllable rank and floor."""
    rank = rank or n
    A = rng.normal(size=(n, rank))
    K = A @ A.T / rank
    if jitter:
        K += jitter * np.eye(n)
    return 0.5 * (K + K.T)


def ring_gram(n, seed, sigma=1.0, view=1):
    """RBF Gram matrix of one view of the synthetic ring data."""
    ds = synthetic_circles(n, seed)
    X = ds.X if view == 1 else ds.Y
    return gram(KernelSpec(sigma=sigma), X)


def centering_matrix(n):
    return np.eye(n) - np.ones((n, n)) / n


def center(K):
    """Double-center a Gram matrix: H K H with H = I - (1/N) 11^T, as
    K - rowmean - colmean + grandmean, symmetrized. The formula the
    library's in-place centering (leverage._inverse_factor) follows term
    by term, so its matrix is the bitwise oracle of that centering."""
    K = as_matrix(K)
    out = K - K.mean(axis=1, keepdims=True)
    out -= K.mean(axis=0, keepdims=True)
    out += K.mean()
    out += out.T   # numpy buffers the overlapping operand
    out *= 0.5
    return out


def kernel_eval(spec, x, y):
    """Pairwise reference k(x, y) = exp(-||x-y||^2 / (2 sigma^2))."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d2 = float(np.dot(x - y, x - y))
    return float(np.exp(-d2 / (2.0 * spec.sigma**2)))


def recording(fn, out):
    """Wrap fn so that every result it returns is appended to out; patch a
    solver's internal name with it to read what the solver computed."""
    def wrapper(*args):
        result = fn(*args)
        out.append(result)
        return result
    return wrapper


def traced_peak(fn, *args, **kwargs):
    """The tracemalloc peak, in bytes, of one call fn(*args, **kwargs): what
    the call allocates on top of what was live before it, its result
    included. numpy's array buffers are traced, except those a
    ``FactorState`` keeps in its own memory mappings."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def resident_bytes():
    """The resident memory of this process, in bytes, from
    /proc/self/statm (Linux only): pages committed by first writes, which
    tracemalloc cannot see."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def unit_plan(indices):
    """A plan with prescribed indices and unit weights.

    This is the unweighted sampling-matrix convention (nonzero entries 1),
    recovered as p_j = 1/M so that 1/sqrt(M p_j) = 1.
    """
    indices = np.asarray(indices, dtype=int)
    m = indices.shape[0]
    return SamplingPlan(indices=indices, p_sampled=np.full(m, 1.0 / m))


def full_plan(n):
    """All n columns once, unit weights (exact-recovery diagnostic)."""
    return unit_plan(np.arange(n))


def sampling_matrix(plan, n):
    """Dense N x M sampling matrix S with S[i_j, j] = weights[j]: the
    reference for the weighted sampling the dense verifiers apply."""
    S = np.zeros((n, plan.m))
    S[plan.indices, np.arange(plan.m)] = plan.weights
    return S


class ArrayColumns:
    """A column oracle served from a given kernel matrix: the ``n``,
    ``column``, ``columns`` and ``dense`` of ``KernelColumns`` for tests
    that need a hand-made or random PSD kernel rather than one of data."""

    def __init__(self, K):
        self._K = np.array(as_matrix(K), dtype=float)
        self.n = self._K.shape[0]

    def column(self, i):
        return self._K[:, i].copy()

    def columns(self, idx):
        return self._K[:, np.asarray(idx, dtype=int)]

    def dense(self):
        return self._K.copy()


def eigen_leverage(K, gamma, driver=None):
    """The eigen formula for exact ridge leverage scores: with
    K = U diag(sig) U^T (negative eigenvalues clipped to 0),
    l_i = sum_j sig_j / (sig_j + N gamma) U_ij^2 and d_eff = the sum of the
    shrink factors. Returns (scores, d_eff)."""
    n = K.shape[0]
    sig, U = scipy.linalg.eigh(K, driver=driver)
    sig = np.maximum(sig, 0.0)
    shrink = sig / (sig + n * gamma)
    return np.einsum("ij,j,ij->i", U, shrink, U), float(shrink.sum())


# not in the record: the oracles hold the training data (only their kernel
# spec is stored), and the dense T is a diagnostics-only attachment
_UNSAVED = {"view1", "view2", "t_matrix"}


def _assert_same(a, b, name):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype, name
        np.testing.assert_array_equal(b, a, err_msg=name)
    else:
        assert type(b) is type(a) and b == a, name


def assert_same_record_state(model, back):
    """Every field of ``model`` that a saved record holds is equal in
    ``back``, arrays with their dtype and scalars with their Python type,
    landmark bookkeeping included."""
    for f in dataclasses.fields(KccaModel):
        if f.name in _UNSAVED:
            continue
        a, b = getattr(model, f.name), getattr(back, f.name)
        if isinstance(a, Landmarks):
            for g in dataclasses.fields(Landmarks):
                _assert_same(getattr(a, g.name), getattr(b, g.name),
                             f"{f.name}.{g.name}")
        else:
            _assert_same(a, b, f.name)
