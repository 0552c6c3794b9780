"""Column sampling plans: with-replacement draws and their weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .leverage import SamplingDistribution

__all__ = [
    "SamplingPlan",
    "sample",
]


@dataclass(frozen=True)
class SamplingPlan:
    """A with-replacement draw of M kernel columns plus importance weights.

    `p_sampled[j]` is the probability the j-th draw had under its
    distribution; the scaled sampling matrix has entries ``weights[j] = 1 /
    sqrt(M * p_sampled[j])``. The dense verifiers in ``diagnostics`` use
    them. The Nystrom solver reads only ``indices``: at zero shrinkage the
    approximation ``K S (S^T K S)^+ S^T K`` does not change when S's columns
    are rescaled, and the solver scales each column to a unit diagonal of its
    own factor target.
    """

    indices: np.ndarray
    p_sampled: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices)
        p = np.asarray(self.p_sampled, dtype=float)
        if idx.ndim != 1 or idx.shape != p.shape:
            raise ValueError("indices and p_sampled must be 1-D and aligned")
        if idx.size < 1:
            raise ValueError("a plan needs at least one column")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"column indices must be integers, got "
                             f"{idx.dtype}")
        if np.any(idx < 0):
            raise ValueError("column indices must be nonnegative")
        if not np.all((p > 0) & np.isfinite(p)):
            raise ValueError("sampled probabilities must be positive and "
                             "finite")
        object.__setattr__(self, "indices", idx.astype(int))
        object.__setattr__(self, "p_sampled", p)

    @property
    def m(self) -> int:
        return self.indices.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return 1.0 / np.sqrt(self.m * self.p_sampled)


def sample(dist: SamplingDistribution, m: int, seed: int) -> SamplingPlan:
    """Draw m column indices i.i.d. with replacement from dist.

    The integer seed makes the draw reproducible across platforms (PCG64).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    idx = np.random.default_rng(seed).choice(dist.n, size=m, p=dist.p)
    return SamplingPlan(indices=idx, p_sampled=dist.p[idx])

