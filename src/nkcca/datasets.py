"""Two-view synthetic data generation and paired-CSV ingestion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PairedDataset",
    "synthetic_circles",
    "load_paired_csv",
    "write_paired_csv",
]

_MAX_RESAMPLE_ROUNDS = 1000


@dataclass
class PairedDataset:
    """Row-aligned two-view data with train/tune/test split tags."""

    X: np.ndarray
    Y: np.ndarray
    split: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        if self.X.shape[0] != self.Y.shape[0] or self.X.shape[0] != self.split.shape[0]:
            raise ValueError("views and split tags must be row-aligned")
        if not (np.isfinite(self.X).all() and np.isfinite(self.Y).all()):
            raise ValueError("data contains NaN or Inf")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def subset(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        mask = self.split == tag
        return self.X[mask], self.Y[mask]


def synthetic_circles(n: int, seed: int) -> PairedDataset:
    """Two noisy-ring views driven by a shared uniform latent variable.

    Per row: Z ~ U[0,1]; U = Z + 0.06 + eta_x with eta_x ~ N(0, 0.02)
    (0.02 is the variance); V = Z + 3 + eta_y with eta_y ~ N(0, 0.03);
    radii R_x = sqrt(-4 log(U / 1.5)), R_y = sqrt(-4 log(V / 4.1)); angles
    uniform on [0, 2 pi). Each view is the 2-D point (R cos th, R sin th).

    Rows whose log argument falls outside (0, 1] (so the radius would be
    undefined) are resampled as a whole (Z, noises, angles) tuple from the
    same stream, capped at 1000 rounds. Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    X = np.empty((n, 2))
    Y = np.empty((n, 2))
    pending = np.arange(n)
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        m = pending.size
        if m == 0:
            break
        z = rng.uniform(0.0, 1.0, size=m)
        u = z + 0.06 + rng.normal(0.0, np.sqrt(0.02), size=m)
        v = z + 3.0 + rng.normal(0.0, np.sqrt(0.03), size=m)
        th_x = rng.uniform(0.0, 2.0 * np.pi, size=m)
        th_y = rng.uniform(0.0, 2.0 * np.pi, size=m)
        ok = (u > 0) & (u <= 1.5) & (v > 0) & (v <= 4.1)
        rows = pending[ok]
        r_x = np.sqrt(-4.0 * np.log(u[ok] / 1.5))
        r_y = np.sqrt(-4.0 * np.log(v[ok] / 4.1))
        X[rows, 0] = r_x * np.cos(th_x[ok])
        X[rows, 1] = r_x * np.sin(th_x[ok])
        Y[rows, 0] = r_y * np.cos(th_y[ok])
        Y[rows, 1] = r_y * np.sin(th_y[ok])
        pending = pending[~ok]
    else:
        raise RuntimeError("row resampling did not terminate within "
                           f"{_MAX_RESAMPLE_ROUNDS} rounds")
    return PairedDataset(X=X, Y=Y, split=np.full(n, "train"), seed=seed)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _parse_csv(path) -> np.ndarray:
    """Comma-separated numeric table; a first row none of whose cells parses
    as a number is a header.

    Raises ValueError naming the file and line of a cell that does not parse
    or is not finite (NaN, Inf).
    """
    rows = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    start = 0
    if lines and not any(_is_number(c) for c in lines[0].split(",")):
        start = 1
    for ln, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        try:
            row = [float(c) for c in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}: parse failure at line {ln}: {exc}") from exc
        if not np.isfinite(row).all():
            raise ValueError(f"{path}: non-finite value at line {ln}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts {sorted(widths)}")
    return np.asarray(rows, dtype=float)


def _parse_split_spec(spec: str, n: int) -> tuple[int, int, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("split spec must be train:tune:test")
    vals = [float(p) for p in parts]
    if all(float(v).is_integer() and v >= 1 for v in vals) and sum(vals) == n:
        counts = [int(v) for v in vals]
    else:
        total = sum(vals)
        if total <= 0:
            raise ValueError("split fractions must be positive")
        counts = [int(round(v / total * n)) for v in vals[:2]]
        counts.append(n - sum(counts))
    if any(c < 0 for c in counts) or sum(counts) != n:
        raise ValueError(f"split {spec} does not partition {n} rows")
    return tuple(counts)


def load_paired_csv(path_x, path_y, split_spec: str = "0.6:0.2:0.2",
                    seed: int = 0) -> PairedDataset:
    """Load two row-aligned CSV files, shuffle, and tag splits.

    The split spec is `train:tune:test`, either absolute counts summing to
    the row count or relative fractions.
    """
    X = _parse_csv(path_x)
    Y = _parse_csv(path_y)
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"row-count mismatch: {X.shape[0]} vs {Y.shape[0]}")
    n = X.shape[0]
    perm = np.random.default_rng(seed).permutation(n)
    X, Y = X[perm], Y[perm]
    n_train, n_tune, n_test = _parse_split_spec(split_spec, n)
    split = np.concatenate([np.full(n_train, "train"), np.full(n_tune, "tune"),
                            np.full(n_test, "test")])
    return PairedDataset(X=X, Y=Y, split=split, seed=seed)


def write_paired_csv(dataset: PairedDataset, path_x, path_y) -> None:
    np.savetxt(path_x, dataset.X, delimiter=",", fmt="%.17g")
    np.savetxt(path_y, dataset.Y, delimiter=",", fmt="%.17g")
