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
    """A with-replacement draw of M kernel columns, ``indices``, and the
    probability ``p_sampled[j]`` the j-th draw had. The dense verifiers
    scale the sampling matrix by ``weights[j] = 1 / sqrt(M p_sampled[j])``;
    the Nystrom solver reads only ``indices``. Raises ValueError for empty
    or unaligned arrays, non-integer or negative indices, or probabilities
    that are not positive and finite.
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


def _check_plan(name: str, plan: SamplingPlan, n: int) -> None:
    """The one range check of a plan against N samples: ValueError naming
    ``name`` unless every index lies in [0, n) (SamplingPlan itself rejects
    negative ones)."""
    if plan.indices.max(initial=-1) >= n:
        raise ValueError(f"{name} has indices outside [0, {n})")


def sample(dist: SamplingDistribution, m: int, seed: int) -> SamplingPlan:
    """Draw m column indices i.i.d. with replacement from dist.

    The integer seed makes the draw reproducible across platforms (PCG64).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    idx = np.random.default_rng(seed).choice(dist.n, size=m, p=dist.p)
    return SamplingPlan(indices=idx, p_sampled=dist.p[idx])

