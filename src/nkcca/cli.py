"""Experiment runner: desk-scale benchmark commands emitting plot-ready CSVs.

Configuration is a flat key=value file (lists as `a,b,c`, integer ranges as
`start:stop:step`, `#` comments); command-line flags override file keys.
Every run writes its tables plus a README documenting the columns into the
output directory. Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackError

from .baselines import rcca_fit
from .datasets import load_paired_csv, synthetic_circles, write_paired_csv
from .diagnostics import (correlation_error_check, projection_error_check,
                          psd_ordering_check, stability_check,
                          tail_bound_check, write_reports)
from .kcca import (exact_kcca, nkcca_fit, nkcca_fit_direct, project_many,
                   save_model, t_error_norm, total_correlation)
from .kernels import KernelColumns, KernelSpec, gram
from .leverage import (SamplingDistribution, approx_leverage, exact_leverage,
                       make_distribution)
from .sampling import sample


class ConfigError(Exception):
    """Invalid configuration (maps to exit code 2)."""


@dataclass
class ExperimentConfig:
    dataset: str = "synthetic"          # synthetic | csv
    n: int = 3000                       # synthetic training size
    tune_n: int = 0                     # 0 -> same as n
    test_n: int = 0
    csv_x: str = ""
    csv_y: str = ""
    split: str = "0.6:0.2:0.2"
    data_seed: int = 0
    sigma1: tuple = (1.0,)
    sigma2: tuple = (1.0,)
    lambda1: tuple = (1e-3,)
    lambda2: tuple = (1e-3,)
    strategy: str = "uniform"           # uniform | ridge | exact
    gamma_mult: tuple = (1.0,)
    ranks: tuple = tuple(range(100, 1001, 100))
    L: int = 1
    seeds: tuple = (0,)
    sketch: int = 0                     # 0 -> auto (2x max rank, capped at N)
    select_n: int = 600                 # train subsample for grid selection
    out: str = "runs"

    def validate(self):
        if self.dataset not in ("synthetic", "csv"):
            raise ConfigError(f"unknown dataset kind {self.dataset!r}")
        if self.dataset == "csv" and not (self.csv_x and self.csv_y):
            raise ConfigError("csv dataset needs csv_x and csv_y")
        for key in ("sigma1", "sigma2", "lambda1", "lambda2", "gamma_mult",
                    "ranks", "seeds"):
            if len(getattr(self, key)) == 0:
                raise ConfigError(f"{key} grid must be nonempty")
        if any(v <= 0 for v in self.sigma1 + self.sigma2 + self.lambda1
               + self.lambda2 + self.gamma_mult):
            raise ConfigError("sigma, lambda, and gamma multipliers must be positive")
        if list(self.ranks) != sorted(set(self.ranks)):
            raise ConfigError("ranks must be strictly increasing")
        if self.strategy not in ("uniform", "ridge", "exact"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.L < 1:
            raise ConfigError("L must be at least 1")


_TUPLE_KEYS = {"sigma1", "sigma2", "lambda1", "lambda2", "gamma_mult",
               "ranks", "seeds"}
_INT_KEYS = {"n", "tune_n", "test_n", "data_seed", "L", "sketch", "select_n"}


def _parse_scalar_list(raw: str, as_int: bool) -> tuple:
    raw = raw.strip()
    if ":" in raw and "," not in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range syntax is start:stop:step, got {raw!r}")
        start, stop, step = (int(p) for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError(f"bad range {raw!r}")
        return tuple(range(start, stop + 1, step))
    conv = int if as_int else float
    try:
        return tuple(conv(p) for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse list {raw!r}: {exc}") from exc


def _coerce(key: str, raw) -> object:
    if isinstance(raw, (tuple, int, float)):
        return raw
    raw = str(raw)
    if key in _TUPLE_KEYS:
        return _parse_scalar_list(raw, as_int=key in ("ranks", "seeds"))
    if key in _INT_KEYS:
        return int(raw)
    return raw


def load_config_file(path) -> dict:
    values = {}
    valid = {f.name for f in fields(ExperimentConfig)}
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in valid:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for f in fields(ExperimentConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = _coerce(f.name, flag)
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Shared experiment plumbing
# ---------------------------------------------------------------------------

def _make_data(cfg: ExperimentConfig) -> SimpleNamespace:
    if cfg.dataset == "synthetic":
        tune_n = cfg.tune_n or cfg.n
        test_n = cfg.test_n or cfg.n
        train = synthetic_circles(cfg.n, cfg.data_seed)
        tune = synthetic_circles(tune_n, cfg.data_seed + 1)
        test = synthetic_circles(test_n, cfg.data_seed + 2)
        return SimpleNamespace(X_train=train.X, Y_train=train.Y,
                               X_tune=tune.X, Y_tune=tune.Y,
                               X_test=test.X, Y_test=test.Y)
    try:
        ds = load_paired_csv(cfg.csv_x, cfg.csv_y, cfg.split, cfg.data_seed)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load the csv dataset: {exc}") from exc
    xtr, ytr = ds.subset("train")
    xtu, ytu = ds.subset("tune")
    xte, yte = ds.subset("test")
    if min(len(xtr), len(xtu), len(xte)) == 0:
        raise ConfigError("every split must be nonempty")
    return SimpleNamespace(X_train=xtr, Y_train=ytr, X_tune=xtu, Y_tune=ytu,
                           X_test=xte, Y_test=yte)


def _select_model(cfg: ExperimentConfig, data: SimpleNamespace):
    """Grid-search (sigma1, sigma2, lambda1, lambda2) by tuning-set total
    correlation of exact KCCA on a train subsample."""
    n_sel = min(cfg.select_n, data.X_train.shape[0])
    Xs = data.X_train[:n_sel]
    Ys = data.Y_train[:n_sel]
    best = None
    single = (len(cfg.sigma1) == len(cfg.sigma2) == len(cfg.lambda1)
              == len(cfg.lambda2) == 1)
    if single:
        return cfg.sigma1[0], cfg.sigma2[0], cfg.lambda1[0], cfg.lambda2[0]
    for s1 in cfg.sigma1:
        for s2 in cfg.sigma2:
            spec1, spec2 = KernelSpec(sigma=s1), KernelSpec(sigma=s2)
            K1, K2 = gram(spec1, Xs), gram(spec2, Ys)
            o1 = KernelColumns.from_data(spec1, Xs)
            o2 = KernelColumns.from_data(spec2, Ys)
            for l1 in cfg.lambda1:
                for l2 in cfg.lambda2:
                    model = exact_kcca(K1, K2, l1, l2, L=cfg.L,
                                       view1=o1, view2=o2)
                    tc = total_correlation(
                        project_many(model, data.X_tune, 1),
                        project_many(model, data.Y_tune, 2))
                    if best is None or tc > best[0]:
                        best = (tc, s1, s2, l1, l2)
    return best[1], best[2], best[3], best[4]


def _view_distribution(cfg: ExperimentConfig, oracle: KernelColumns,
                       lam: float, gamma_mult: float,
                       strategy: str | None = None) -> SamplingDistribution:
    """Sampling distribution for one view. Leverage scores are part of the
    method (deterministic given the data), so the sketch seed derives from
    the data seed, not from the per-run sampling seeds."""
    strategy = strategy or cfg.strategy
    n = oracle.n
    if strategy == "uniform":
        return SamplingDistribution(p=np.full(n, 1.0 / n), beta_floor=1.0)
    gamma = gamma_mult * lam
    if strategy == "exact":
        scores = exact_leverage(oracle.dense(), gamma)
    else:
        sketch = cfg.sketch or min(n, max(max(cfg.ranks) + 200, 500))
        sketch = min(sketch, n)
        scores = approx_leverage(oracle, gamma, sketch,
                                 seed=cfg.data_seed + 104729)
    return make_distribution(scores, mix_uniform=0.0)


def _csv_out(outdir: Path, name: str, header: list, rows: list) -> Path:
    path = outdir / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_run_readme(outdir: Path, command: str, cfg: ExperimentConfig,
                      tables: dict[str, list[str]]) -> None:
    lines = [f"# {command} run", "", "Configuration:", "```"]
    for f in fields(ExperimentConfig):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    lines += ["```", ""]
    for name, cols in tables.items():
        lines.append(f"## {name}")
        lines += [f"- `{c}`" for c in cols]
        lines.append("")
    (outdir / "README.md").write_text("\n".join(lines))


def _outdir(cfg: ExperimentConfig, command: str) -> Path:
    out = Path(cfg.out) / command
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = resolve_config(args)
    outdir = _outdir(cfg, "gen-data")
    ds = synthetic_circles(cfg.n, cfg.data_seed)
    write_paired_csv(ds, outdir / "x.csv", outdir / "y.csv")
    _write_run_readme(outdir, "gen-data", cfg, {
        "x.csv / y.csv": ["rows: paired observations",
                          "columns: 2-D view coordinates, no header"]})
    print(f"wrote {outdir}/x.csv and {outdir}/y.csv ({cfg.n} rows)")
    return 0


def cmd_exact(args) -> int:
    cfg = resolve_config(args)
    data = _make_data(cfg)
    s1, s2, l1, l2 = _select_model(cfg, data)
    spec1, spec2 = KernelSpec(sigma=s1), KernelSpec(sigma=s2)
    o1 = KernelColumns.from_data(spec1, data.X_train)
    o2 = KernelColumns.from_data(spec2, data.Y_train)
    model = exact_kcca(gram(spec1, data.X_train), gram(spec2, data.Y_train),
                       l1, l2, L=cfg.L, view1=o1, view2=o2)
    tc = total_correlation(project_many(model, data.X_test, 1),
                           project_many(model, data.Y_test, 2))
    outdir = _outdir(cfg, "exact")
    rows = [[i + 1, rho] for i, rho in enumerate(model.rho)]
    _csv_out(outdir, "correlations.csv", ["component", "rho"], rows)
    save_model(model, outdir / "model.npz")
    _write_run_readme(outdir, "exact", cfg, {
        "correlations.csv": ["component: canonical index (1-based)",
                             "rho: training canonical correlation"]})
    print(f"sigma=({s1:.4g},{s2:.4g}) lambda=({l1:.4g},{l2:.4g}) "
          f"rho1={model.rho[0]:.6f} test_total_correlation={tc:.4f}")
    return 0


class _PathRunner:
    """Caches per-strategy oracles and sampling distributions so repeated
    seeds only redraw plans."""

    def __init__(self, cfg, data, s1, s2, l1, l2):
        self.cfg, self.l1, self.l2 = cfg, l1, l2
        spec1, spec2 = KernelSpec(sigma=s1), KernelSpec(sigma=s2)
        self.o1 = KernelColumns.from_data(spec1, data.X_train)
        self.o2 = KernelColumns.from_data(spec2, data.Y_train)
        self._dists: dict[str, tuple] = {}

    def distributions(self, strategy):
        if strategy not in self._dists:
            gm = self.cfg.gamma_mult[0]
            self._dists[strategy] = (
                _view_distribution(self.cfg, self.o1, self.l1, gm, strategy),
                _view_distribution(self.cfg, self.o2, self.l2, gm, strategy))
        return self._dists[strategy]

    def plans(self, strategy, seed):
        d1, d2 = self.distributions(strategy)
        return (sample(d1, max(self.cfg.ranks), seed=seed),
                sample(d2, max(self.cfg.ranks), seed=seed + 1))

    def fit(self, strategy, seed, on_checkpoint=None):
        plan1, plan2 = self.plans(strategy, seed)
        entries = nkcca_fit(self.o1, self.o2, plan1, plan2, self.l1, self.l2,
                            self.cfg.L, checkpoints=list(self.cfg.ranks),
                            on_checkpoint=on_checkpoint)
        return entries, (self.o1, self.o2, plan1, plan2)


def cmd_nkcca(args) -> int:
    cfg = resolve_config(args)
    data = _make_data(cfg)
    s1, s2, l1, l2 = _select_model(cfg, data)
    runner = _PathRunner(cfg, data, s1, s2, l1, l2)
    rows = []
    for seed in cfg.seeds:
        entries, _ = runner.fit(cfg.strategy, seed)
        for e in entries:
            tc = total_correlation(project_many(e.model, data.X_test, 1),
                                   project_many(e.model, data.Y_test, 2))
            rows.append([seed, e.m1, e.rho_tilde[0], tc,
                         e.wall_time_incremental])
    outdir = _outdir(cfg, "nkcca")
    _csv_out(outdir, "rank_path.csv",
             ["seed", "rank", "rho1", "test_total_correlation", "wall_s"], rows)
    _write_run_readme(outdir, "nkcca", cfg, {
        "rank_path.csv": ["seed: sampling seed", "rank: landmark draws per view",
                          "rho1: top approximate canonical correlation",
                          "test_total_correlation: sum of |Pearson| over L dims",
                          "wall_s: cumulative incremental wall time"]})
    print(f"wrote {outdir}/rank_path.csv ({len(rows)} rows)")
    return 0


def cmd_rcca(args) -> int:
    cfg = resolve_config(args)
    data = _make_data(cfg)
    s1, s2, l1, l2 = _select_model(cfg, data)
    rows = []
    for seed in cfg.seeds:
        for rank in cfg.ranks:
            _, proj = rcca_fit(data.X_train, data.Y_train, s1, s2, rank,
                               l1, l2, cfg.L, seed)
            px, py = proj(data.X_test, data.Y_test)
            rows.append([seed, rank, total_correlation(px, py)])
    outdir = _outdir(cfg, "rcca")
    _csv_out(outdir, "rcca.csv", ["seed", "rank", "test_total_correlation"], rows)
    _write_run_readme(outdir, "rcca", cfg, {
        "rcca.csv": ["seed: feature-map seed", "rank: number of random features",
                     "test_total_correlation: sum of |Pearson| over L dims"]})
    print(f"wrote {outdir}/rcca.csv ({len(rows)} rows)")
    return 0


def _error_curve_rows(cfg, data, strategies, progress=print):
    """Shared by error-curve and the strategy comparison: per (strategy,
    seed, rank) approximation errors against the dense exact reference."""
    s1, s2, l1, l2 = _select_model(cfg, data)
    spec1, spec2 = KernelSpec(sigma=s1), KernelSpec(sigma=s2)
    o1 = KernelColumns.from_data(spec1, data.X_train)
    o2 = KernelColumns.from_data(spec2, data.Y_train)
    progress(f"exact reference at N={data.X_train.shape[0]} ...")
    exact = exact_kcca(gram(spec1, data.X_train), gram(spec2, data.Y_train),
                       l1, l2, L=cfg.L, keep_t=True, view1=o1, view2=o2)
    gap = exact.rho[0] - (exact.rho[1] if cfg.L > 1 else exact.sigma_next)
    n = exact.n
    runner = _PathRunner(cfg, data, s1, s2, l1, l2)
    rows = []
    for strategy in strategies:
        for seed in cfg.seeds:
            records = []

            def hook(entry, f1, f2, core):
                records.append(t_error_norm(exact.t_matrix, f1, f2, core))

            entries, _ = runner.fit(strategy, seed, on_checkpoint=hook)
            for e, t_err in zip(entries, records):
                flip = -1.0 if float(e.model.alpha_prime[:, 0]
                                     @ exact.alpha_prime[:, 0]) < 0 else 1.0
                rho_err = abs(exact.rho[0] - e.rho_tilde[0])
                alpha_err = float(np.linalg.norm(
                    exact.alpha[:, 0] - flip * e.model.alpha[:, 0])) / math.sqrt(n)
                bound = ((0.5 + 4.0 * math.sqrt(2.0) / gap) * t_err / (n * l1)
                         if gap > 0 else float("inf"))
                rows.append([strategy, seed, e.m1, rho_err, t_err, alpha_err,
                             bound])
            progress(f"  {strategy} seed {seed}: done "
                     f"({entries[-1].wall_time_incremental:.1f}s)")
    return rows, (s1, s2, l1, l2, gap)


def _append_means(rows):
    """Seed-averaged rows (seed column = 'mean') per (strategy, rank)."""
    out = list(rows)
    keys = sorted({(r[0], r[2]) for r in rows})
    for strategy, rank in keys:
        block = [r for r in rows if r[0] == strategy and r[2] == rank]
        means = [float(np.mean([b[i] for b in block])) for i in range(3, 7)]
        out.append([strategy, "mean", rank] + means)
    return out


_ERROR_COLS = ["strategy", "seed", "rank", "rho_err", "t_err", "alpha_err",
               "stability_bound"]
_ERROR_DOC = [
    "strategy: uniform | ridge | exact leverage sampling",
    "seed: sampling seed, or 'mean' for the seed average",
    "rank: landmark draws per view (M1 = M2)",
    "rho_err: |rho - rho_tilde| for the top canonical correlation",
    "t_err: spectral norm of T - T_tilde",
    "alpha_err: ||alpha - alpha_tilde|| / sqrt(N)",
    "stability_bound: (1/2 + 4 sqrt2 / r) t_err / (N lambda1)",
]


def cmd_error_curve(args) -> int:
    cfg = resolve_config(args)
    data = _make_data(cfg)
    rows, _ = _error_curve_rows(cfg, data, [cfg.strategy])
    rows = _append_means(rows)
    outdir = _outdir(cfg, "error-curve")
    _csv_out(outdir, "error_curve.csv", _ERROR_COLS, rows)
    _write_run_readme(outdir, "error-curve", cfg, {"error_curve.csv": _ERROR_DOC})
    print(f"wrote {outdir}/error_curve.csv ({len(rows)} rows)")
    return 0


def cmd_speedup(args) -> int:
    cfg = resolve_config(args)
    data = _make_data(cfg)
    s1, s2, l1, l2 = _select_model(cfg, data)
    runner = _PathRunner(cfg, data, s1, s2, l1, l2)
    rows = []
    for seed in cfg.seeds:
        entries, (o1, o2, plan1, plan2) = runner.fit(cfg.strategy, seed)
        restart_total = 0.0
        for e in entries:
            direct = nkcca_fit_direct(o1, o2, plan1, plan2, l1, l2, cfg.L,
                                      m1=e.m1, m2=e.m2)
            restart_total += direct.wall_time_restart
            drho = float(np.abs(e.rho_tilde - direct.rho_tilde).max())
            rows.append([seed, e.m1, e.wall_time_incremental,
                         direct.wall_time_restart, restart_total,
                         restart_total / e.wall_time_incremental, drho])
    outdir = _outdir(cfg, "speedup")
    _csv_out(outdir, "speedup.csv",
             ["seed", "rank", "incremental_cum_s", "restart_s",
              "restart_cum_s", "speedup", "drho_vs_restart"], rows)
    by_seed = {}
    for r in rows:
        by_seed.setdefault(r[0], []).append(r[5])
    trend = all(s[-1] >= s[len(s) // 2] for s in by_seed.values() if len(s) > 1)
    _write_run_readme(outdir, "speedup", cfg, {
        "speedup.csv": ["seed: sampling seed", "rank: checkpoint",
                        "incremental_cum_s: cumulative incremental wall time",
                        "restart_s: one fresh non-incremental fit at this rank",
                        "restart_cum_s: summed restarts through this rank",
                        "speedup: restart_cum_s / incremental_cum_s",
                        "drho_vs_restart: max |rho_tilde| gap vs restart"]})
    print(f"wrote {outdir}/speedup.csv; speedup nondecreasing over last half: "
          f"{trend}")
    return 0


def cmd_compare(args) -> int:
    cfg = resolve_config(args)
    data = _make_data(cfg)
    s1, s2, l1, l2 = _select_model(cfg, data)
    runner = _PathRunner(cfg, data, s1, s2, l1, l2)
    rows = []
    for seed in cfg.seeds:
        per_rank = {}
        for strategy in ("uniform", cfg.strategy if cfg.strategy != "uniform"
                         else "ridge"):
            entries, _ = runner.fit(strategy, seed)
            for e in entries:
                tc = total_correlation(
                    project_many(e.model, data.X_test, 1),
                    project_many(e.model, data.Y_test, 2))
                per_rank.setdefault(e.m1, {})[strategy] = tc
        for rank in cfg.ranks:
            _, proj = rcca_fit(data.X_train, data.Y_train, s1, s2, rank,
                               l1, l2, cfg.L, seed)
            px, py = proj(data.X_test, data.Y_test)
            per_rank.setdefault(rank, {})["rcca"] = total_correlation(px, py)
        for rank in cfg.ranks:
            d = per_rank[rank]
            rows.append([seed, rank, d.get("rcca"), d.get("uniform"),
                         d.get("ridge", d.get("exact"))])
    keys = sorted({r[1] for r in rows})
    for rank in keys:
        block = [r for r in rows if r[1] == rank]
        rows.append(["mean", rank] + [float(np.mean([b[i] for b in block]))
                                      for i in range(2, 5)])
    outdir = _outdir(cfg, "compare")
    _csv_out(outdir, "compare.csv",
             ["seed", "rank", "rcca", "nkcca_uniform", "nkcca_ridge"], rows)
    _write_run_readme(outdir, "compare", cfg, {
        "compare.csv": ["seed: sampling seed, or 'mean' for the seed average",
                        "rank: landmarks / random features",
                        "rcca: RFF-CCA test total correlation",
                        "nkcca_uniform: uniform-sampling test total correlation",
                        "nkcca_ridge: leverage-sampling test total correlation"]})
    print(f"wrote {outdir}/compare.csv ({len(rows)} rows)")
    return 0


def cmd_check_bounds(args) -> int:
    cfg = resolve_config(args)
    if cfg.dataset == "synthetic" and cfg.n > 400:
        # the bound checks are dense N x N verifiers
        print(f"check-bounds: n={cfg.n} exceeds the dense-check limit 400; "
              f"using n=200", file=sys.stderr)
        cfg.n = 200
        cfg.tune_n = cfg.test_n = 200
    data = _make_data(cfg)
    s1, s2, l1, l2 = _select_model(cfg, data)
    runner = _PathRunner(cfg, data, s1, s2, l1, l2)
    o1, o2 = runner.o1, runner.o2
    K1 = gram(KernelSpec(sigma=s1), data.X_train)
    K2 = gram(KernelSpec(sigma=s2), data.Y_train)
    exact = exact_kcca(K1, K2, l1, l2, L=cfg.L, keep_t=True, view1=o1, view2=o2)
    gamma1 = cfg.gamma_mult[0] * l1
    gamma2 = cfg.gamma_mult[0] * l2
    t_gate = 0.9
    rank = min(max(cfg.ranks), K1.n - 1)
    d1, d2 = runner.distributions(cfg.strategy)
    reports = []
    for seed in cfg.seeds:
        plan1 = sample(d1, rank, seed=seed)
        plan2 = sample(d2, rank, seed=seed + 1)
        reports.append(psd_ordering_check(K1, plan1, gamma1))
        reports.append(tail_bound_check(K1, plan1, gamma1, t_gate))
        reports.append(projection_error_check(K1, plan1, gamma1, l1, t_gate))
        reports.append(correlation_error_check(K1, K2, (plan1, plan2), (l1, l2),
                                      (gamma1, gamma2), t_gate, t_gate))
        approx = nkcca_fit_direct(o1, o2, plan1, plan2, l1, l2, L=1,
                                  keep_t=True)
        reports.extend(stability_check(exact, approx.model,
                                       data.X_test[:200], c=1.0))
    outdir = _outdir(cfg, "check-bounds")
    write_reports(outdir / "bounds.csv", reports)
    _write_run_readme(outdir, "check-bounds", cfg, {
        "bounds.csv": ["context: which inequality", "lhs / rhs: both sides",
                       "holds: lhs <= rhs + 1e-8 max(1, rhs)",
                       "applicable: False when preconditions failed"]})
    bad = [r for r in reports if r.applicable and not r.holds]
    print(f"wrote {outdir}/bounds.csv: {len(reports)} reports, "
          f"{len(bad)} gated failures")
    return 0 if not bad else 3


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nkcca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen-data": cmd_gen_data,
        "exact": cmd_exact,
        "nkcca": cmd_nkcca,
        "rcca": cmd_rcca,
        "error-curve": cmd_error_curve,
        "speedup": cmd_speedup,
        "compare": cmd_compare,
        "check-bounds": cmd_check_bounds,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        for f in fields(ExperimentConfig):
            p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                           default=None)
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError,
            ArpackError) as exc:
        # ArpackError covers ArpackNoConvergence from the iterative SVDs
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
