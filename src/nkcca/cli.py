"""Experiment runner: desk-scale benchmark commands emitting plot-ready CSVs.

Configuration is a flat key=value file (lists as `a,b,c`, integer ranges as
`start:stop:step`, `#` comments); command-line flags override file keys.
Every run writes its tables plus a README documenting the columns into the
output directory; progress messages go to stderr. Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import logging
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
from .diagnostics import _DENSE_N_LIMIT as _CHECK_N_LIMIT
from .diagnostics import (_stability_terms, correlation_error_check,
                          projection_error_check, psd_ordering_check,
                          stability_check, tail_bound_check)
from .kcca import (_EXACT_N_LIMIT, exact_kcca, nkcca_fit, nkcca_fit_direct,
                   project_many, save_model, t_error_norm, total_correlation)
from .kernels import KernelColumns, KernelSpec, _check_positive, as_points
from .leverage import (SamplingDistribution, approx_leverage, exact_leverage,
                       make_distribution)
from .sampling import sample

_log = logging.getLogger("nkcca.cli")  # not __name__: __main__ under python -m


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
    gamma_mult: float = 1.0             # gamma = gamma_mult * lambda
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
        for f in fields(self):
            if isinstance(f.default, tuple) and not getattr(self, f.name):
                raise ConfigError(f"{f.name} grid must be nonempty")
        # the library's own range rules, as configuration errors
        try:
            for sigma in self.sigma1 + self.sigma2:
                KernelSpec(sigma=sigma)
            _check_positive("lambda1", *self.lambda1)
            _check_positive("lambda2", *self.lambda2)
            _check_positive("gamma_mult", self.gamma_mult)
            for lam in self.lambda1 + self.lambda2:
                # gamma = gamma_mult * lambda may underflow to 0 or overflow
                _check_positive(f"gamma = gamma_mult * lambda = "
                                f"{self.gamma_mult:g} * {lam:g}",
                                self.gamma_mult * lam)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if list(self.ranks) != sorted(set(self.ranks)):
            raise ConfigError("ranks must be strictly increasing")
        if self.ranks[0] < 1:
            raise ConfigError("ranks must be at least 1")
        if self.dataset == "synthetic" and self.n < 1:
            raise ConfigError("n must be at least 1")
        for key in ("tune_n", "test_n", "sketch", "data_seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be nonnegative")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be nonnegative")
        if self.select_n < 2:
            # selection on one point scores every grid point 0
            raise ConfigError("select_n must be at least 2")
        if self.strategy not in ("uniform", "ridge", "exact"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.L < 1:
            raise ConfigError("L must be at least 1")


def _parse_scalar_list(raw: str, conv) -> tuple:
    raw = raw.strip()
    if ":" in raw and "," not in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range syntax is start:stop:step, got {raw!r}")
        start, stop, step = (int(p) for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError(f"bad range {raw!r}")
        return tuple(range(start, stop + 1, step))
    try:
        return tuple(conv(p) for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse list {raw!r}: {exc}") from exc


def _coerce(key: str, raw) -> object:
    """A config value from its text, typed as the key's default in
    ExperimentConfig: a tuple default is a grid of its first element's
    type, a number one number, a string the text itself."""
    if isinstance(raw, (tuple, int, float)):
        return raw
    raw = str(raw)
    default = getattr(ExperimentConfig, key)
    if isinstance(default, tuple):
        return _parse_scalar_list(raw, type(default[0]))
    if isinstance(default, str):
        return raw
    try:
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} takes one number, got {raw!r}") from exc


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
        sizes = (cfg.n, cfg.tune_n or cfg.n, cfg.test_n or cfg.n)
        parts = [(ds.X, ds.Y) for ds in (synthetic_circles(n, cfg.data_seed + i)
                                         for i, n in enumerate(sizes))]
    else:
        try:
            ds = load_paired_csv(cfg.csv_x, cfg.csv_y, cfg.split, cfg.data_seed)
            as_points(ds.X), as_points(ds.Y)   # the kernels' input check
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load the csv dataset: {exc}") from exc
        parts = [ds.subset(name) for name in ("train", "tune", "test")]
    for name, (x, _) in zip(("training", "tuning", "test"), parts):
        # a correlation needs at least two pairs
        if len(x) < 2:
            raise ConfigError(f"the {name} split needs at least 2 pairs, "
                              f"has {len(x)}")
    (xtr, ytr), (xtu, ytu), (xte, yte) = parts
    return SimpleNamespace(X_train=xtr, Y_train=ytr, X_tune=xtu, Y_tune=ytu,
                           X_test=xte, Y_test=yte)


def _view_distribution(cfg: ExperimentConfig, oracle: KernelColumns,
                       lam: float, strategy: str | None = None
                       ) -> SamplingDistribution:
    """Sampling distribution for one view. Leverage scores are part of the
    method (deterministic given the data), so the sketch seed derives from
    the data seed, not from the per-run sampling seeds."""
    strategy = strategy or cfg.strategy
    n = oracle.n
    if strategy == "uniform":
        return SamplingDistribution(p=np.full(n, 1.0 / n))
    gamma = cfg.gamma_mult * lam
    if strategy == "exact":
        scores = exact_leverage(oracle.dense(), gamma)
    else:
        sketch = min(n, cfg.sketch or max(max(cfg.ranks) + 200, 500))
        scores = approx_leverage(oracle, gamma, sketch,
                                 seed=cfg.data_seed + 104729)
    return make_distribution(scores)


class _Experiment:
    """One command's pipeline: the selected model, the two training oracles
    and the per-strategy sampling distributions, built once for all seeds.
    A training N above `dense_limit` (the command's dense N x N work) or
    below L is a configuration error, raised before any of that work."""

    def __init__(self, cfg: ExperimentConfig, data: SimpleNamespace | None = None,
                 dense_limit: int | None = None):
        self.cfg = cfg
        self.data = data = _make_data(cfg) if data is None else data
        n = data.X_train.shape[0]
        if dense_limit is not None and n > dense_limit:
            raise ConfigError(f"the training split has N = {n} points; this "
                              f"command is dense and limited to N <= {dense_limit}")
        if cfg.L > n:
            raise ConfigError(f"L = {cfg.L} exceeds the training split's "
                              f"N = {n}")
        self.s1, self.s2, self.l1, self.l2 = self._select_model()
        self.o1 = KernelColumns.from_data(KernelSpec(sigma=self.s1), data.X_train)
        self.o2 = KernelColumns.from_data(KernelSpec(sigma=self.s2), data.Y_train)
        self._dists: dict[str, tuple] = {}

    def _select_model(self):
        """Grid-search (sigma1, sigma2, lambda1, lambda2) by tuning-set total
        correlation of exact KCCA on a train subsample."""
        cfg, d = self.cfg, self.data
        grid = (cfg.sigma1, cfg.sigma2, cfg.lambda1, cfg.lambda2)
        if all(len(g) == 1 for g in grid):
            return tuple(g[0] for g in grid)
        n_sel = min(cfg.select_n, d.X_train.shape[0])
        if cfg.L > n_sel:
            raise ConfigError(f"L = {cfg.L} exceeds the {n_sel} training "
                              f"points of model selection (select_n)")
        best = None
        for s1, s2 in itertools.product(cfg.sigma1, cfg.sigma2):
            o1 = KernelColumns.from_data(KernelSpec(sigma=s1), d.X_train[:n_sel])
            o2 = KernelColumns.from_data(KernelSpec(sigma=s2), d.Y_train[:n_sel])
            K1, K2 = o1.dense(), o2.dense()
            for l1, l2 in itertools.product(cfg.lambda1, cfg.lambda2):
                model = exact_kcca(K1, K2, l1, l2, L=cfg.L, view1=o1, view2=o2)
                tc = self.score(model, tune=True)
                if best is None or tc > best[0]:
                    best = (tc, s1, s2, l1, l2)
        return best[1:]

    def distributions(self, strategy):
        if strategy not in self._dists:
            self._dists[strategy] = tuple(
                _view_distribution(self.cfg, o, lam, strategy)
                for o, lam in ((self.o1, self.l1), (self.o2, self.l2)))
        return self._dists[strategy]

    def plans(self, strategy, seed, m=None):
        """Landmark plans for both views; `m` draws each (default max rank)."""
        m = m or max(self.cfg.ranks)
        d1, d2 = self.distributions(strategy)
        return sample(d1, m, seed=seed), sample(d2, m, seed=seed + 1)

    def fit(self, plans, on_checkpoint=None):
        """The rank path over the configured checkpoints."""
        return nkcca_fit(self.o1, self.o2, *plans, self.l1, self.l2, self.cfg.L,
                         checkpoints=list(self.cfg.ranks),
                         on_checkpoint=on_checkpoint)

    def exact(self, grams=None, keep_t=False):
        """Dense exact KCCA on the training set (`grams` if already held)."""
        K1, K2 = grams or (self.o1.dense(), self.o2.dense())
        return exact_kcca(K1, K2, self.l1, self.l2, L=self.cfg.L,
                          keep_t=keep_t, view1=self.o1, view2=self.o2)

    def score(self, model, tune=False) -> float:
        """Total correlation of a fitted model on the test (or tuning) pairs."""
        d = self.data
        X, Y = (d.X_tune, d.Y_tune) if tune else (d.X_test, d.Y_test)
        return total_correlation(project_many(model, X, 1), project_many(model, Y, 2))

    def rcca(self, seed, rank) -> float:
        """Test-set total correlation of the RFF-CCA baseline."""
        d = self.data
        _, proj = rcca_fit(d.X_train, d.Y_train, self.s1, self.s2, rank,
                           self.l1, self.l2, self.cfg.L, seed)
        return total_correlation(*proj(d.X_test, d.Y_test))


def _write_run(cfg: ExperimentConfig, command: str, table: str, docs: list,
               rows: list | None = None) -> Path:
    """Write the run README documenting `table` from `docs`, its (column,
    description) pairs, and given `rows` the table under that header."""
    outdir = Path(cfg.out) / command
    outdir.mkdir(parents=True, exist_ok=True)
    if rows is not None:
        with open(outdir / table, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([col for col, _ in docs])
            writer.writerows(rows)
    lines = [f"# {command} run", "", "Configuration:", "```"]
    lines += [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(ExperimentConfig)]
    lines += ["```", "", f"## {table}"]
    lines += [f"- `{col}: {doc}`" for col, doc in docs] + [""]
    (outdir / "README.md").write_text("\n".join(lines))
    return outdir


def _append_means(rows, seed_col):
    """Append seed-averaged rows (seed = 'mean') per distinct (columns before
    the seed, rank); rank follows the seed and the values follow the rank."""
    def key(r):
        return tuple(r[:seed_col]) + (r[seed_col + 1],)

    out = list(rows)
    for k in sorted({key(r) for r in rows}):
        block = [r[seed_col + 2:] for r in rows if key(r) == k]
        out.append(list(k[:-1]) + ["mean", k[-1]]
                   + [float(np.mean(col)) for col in zip(*block)])
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = resolve_config(args)
    ds = synthetic_circles(cfg.n, cfg.data_seed)
    outdir = _write_run(cfg, "gen-data", "x.csv / y.csv", [
        ("rows", "paired observations"),
        ("columns", "2-D view coordinates, no header")])
    write_paired_csv(ds, outdir / "x.csv", outdir / "y.csv")
    print(f"wrote {outdir}/x.csv and {outdir}/y.csv ({cfg.n} rows)")
    return 0


def cmd_exact(args) -> int:
    exp = _Experiment(resolve_config(args), dense_limit=_EXACT_N_LIMIT)
    model = exp.exact()
    rows = [[i + 1, rho] for i, rho in enumerate(model.rho)]
    outdir = _write_run(exp.cfg, "exact", "correlations.csv", [
        ("component", "canonical index (1-based)"),
        ("rho", "training canonical correlation")], rows)
    save_model(model, outdir / "model.npz")
    print(f"sigma=({exp.s1:.4g},{exp.s2:.4g}) lambda=({exp.l1:.4g},{exp.l2:.4g}) "
          f"rho1={model.rho[0]:.6f} test_total_correlation={exp.score(model):.4f}")
    return 0


def cmd_nkcca(args) -> int:
    exp = _Experiment(resolve_config(args))
    rows = [[seed, e.m1, e.rho_tilde[0], exp.score(e.model),
             e.wall_time_incremental]
            for seed in exp.cfg.seeds
            for e in exp.fit(exp.plans(exp.cfg.strategy, seed))]
    outdir = _write_run(exp.cfg, "nkcca", "rank_path.csv", [
        ("seed", "sampling seed"), ("rank", "landmark draws per view"),
        ("rho1", "top approximate canonical correlation"),
        ("test_total_correlation", "sum of |Pearson| over L dims"),
        ("wall_s", "cumulative incremental wall time")], rows)
    print(f"wrote {outdir}/rank_path.csv ({len(rows)} rows)")
    return 0


def cmd_rcca(args) -> int:
    exp = _Experiment(resolve_config(args))
    rows = [[seed, rank, exp.rcca(seed, rank)]
            for seed in exp.cfg.seeds for rank in exp.cfg.ranks]
    outdir = _write_run(exp.cfg, "rcca", "rcca.csv", [
        ("seed", "feature-map seed"), ("rank", "number of random features"),
        ("test_total_correlation", "sum of |Pearson| over L dims")], rows)
    print(f"wrote {outdir}/rcca.csv ({len(rows)} rows)")
    return 0


def _error_curve_rows(cfg, data, strategies):
    """Per (strategy, seed, rank) approximation errors of the rank path
    against the dense exact reference."""
    exp = _Experiment(cfg, data, dense_limit=_EXACT_N_LIMIT)
    _log.info("exact reference at N=%d ...", exp.o1.n)
    exact = exp.exact(keep_t=True)
    n = exact.n
    rows = []
    for strategy in strategies:
        for seed in cfg.seeds:
            t_errs = []
            entries = exp.fit(exp.plans(strategy, seed), on_checkpoint=(
                lambda e, Q1, Q2, T_hat: t_errs.append(
                    t_error_norm(exact.t_matrix, Q1, Q2, T_hat))))
            for e, t_err in zip(entries, t_errs):
                gap, coef, flip = _stability_terms(exact, e.model.alpha_prime)
                rho_err = abs(exact.rho[0] - e.rho_tilde[0])
                alpha_err = float(np.linalg.norm(
                    exact.alpha[:, 0] - flip * e.model.alpha[:, 0])) / math.sqrt(n)
                bound = coef * t_err / (n * exp.l1) if gap > 0 else math.inf
                rows.append([strategy, seed, e.m1, rho_err, t_err, alpha_err, bound])
            _log.info("  %s seed %s: done (%.1fs)", strategy, seed,
                      entries[-1].wall_time_incremental)
    return rows


def cmd_error_curve(args) -> int:
    cfg = resolve_config(args)
    rows = _append_means(_error_curve_rows(cfg, _make_data(cfg), [cfg.strategy]),
                         seed_col=1)
    outdir = _write_run(cfg, "error-curve", "error_curve.csv", [
        ("strategy", "uniform | ridge | exact leverage sampling"),
        ("seed", "sampling seed, or 'mean' for the seed average"),
        ("rank", "landmark draws per view (M1 = M2)"),
        ("rho_err", "|rho - rho_tilde| for the top canonical correlation"),
        ("t_err", "spectral norm of T - T_tilde"),
        ("alpha_err", "||alpha - alpha_tilde|| / sqrt(N)"),
        ("stability_bound", "(1/2 + 4 sqrt2 / r) t_err / (N lambda1)")], rows)
    print(f"wrote {outdir}/error_curve.csv ({len(rows)} rows)")
    return 0


def cmd_speedup(args) -> int:
    exp = _Experiment(resolve_config(args))
    cfg = exp.cfg
    rows = []
    for seed in cfg.seeds:
        plans = exp.plans(cfg.strategy, seed)
        restart_total = 0.0
        for e in exp.fit(plans):
            direct = nkcca_fit_direct(exp.o1, exp.o2, *plans, exp.l1, exp.l2,
                                      cfg.L, m1=e.m1, m2=e.m2)
            restart_total += direct.wall_time_restart
            drho = float(np.abs(e.rho_tilde - direct.rho_tilde).max())
            rows.append([seed, e.m1, e.wall_time_incremental,
                         direct.wall_time_restart, restart_total,
                         restart_total / e.wall_time_incremental, drho])
    outdir = _write_run(cfg, "speedup", "speedup.csv", [
        ("seed", "sampling seed"), ("rank", "checkpoint"),
        ("incremental_cum_s", "cumulative incremental wall time"),
        ("restart_s", "one fresh non-incremental fit at this rank"),
        ("restart_cum_s", "summed restarts through this rank"),
        ("speedup", "restart_cum_s / incremental_cum_s"),
        ("drho_vs_restart", "max |rho_tilde| gap vs restart")], rows)
    ratios = ([r[5] for r in rows if r[0] == seed] for seed in cfg.seeds)
    trend = all(s[-1] >= s[len(s) // 2] for s in ratios if len(s) > 1)
    print(f"wrote {outdir}/speedup.csv; speedup nondecreasing over last half: "
          f"{trend}")
    return 0


def cmd_compare(args) -> int:
    exp = _Experiment(resolve_config(args))
    cfg = exp.cfg
    other = cfg.strategy if cfg.strategy != "uniform" else "ridge"
    rows = []
    for seed in cfg.seeds:
        tc = {s: {e.m1: exp.score(e.model) for e in exp.fit(exp.plans(s, seed))}
              for s in ("uniform", other)}
        rows += [[seed, rank, exp.rcca(seed, rank), tc["uniform"][rank],
                  tc[other][rank]] for rank in cfg.ranks]
    rows = _append_means(rows, seed_col=0)
    outdir = _write_run(cfg, "compare", "compare.csv", [
        ("seed", "sampling seed, or 'mean' for the seed average"),
        ("rank", "landmarks / random features"),
        ("rcca", "RFF-CCA test total correlation"),
        ("nkcca_uniform", "uniform-sampling test total correlation"),
        ("nkcca_ridge", "leverage-sampling test total correlation")], rows)
    print(f"wrote {outdir}/compare.csv ({len(rows)} rows)")
    return 0


def cmd_check_bounds(args) -> int:
    cfg = resolve_config(args)
    if cfg.dataset == "synthetic" and cfg.n > 400:
        # the bound checks are dense N x N verifiers
        print(f"check-bounds: n={cfg.n} exceeds the dense-check limit 400; "
              f"using n=200, tune_n=200 and test_n=200 instead of "
              f"tune_n={cfg.tune_n or cfg.n} and test_n={cfg.test_n or cfg.n}",
              file=sys.stderr)
        cfg.n = cfg.tune_n = cfg.test_n = 200
    exp = _Experiment(cfg, dense_limit=min(_CHECK_N_LIMIT, _EXACT_N_LIMIT))
    o1, o2, l1, l2 = exp.o1, exp.o2, exp.l1, exp.l2
    K1, K2 = o1.dense(), o2.dense()
    exact = exp.exact((K1, K2), keep_t=True)
    gamma1, gamma2 = cfg.gamma_mult * l1, cfg.gamma_mult * l2
    t_gate = 0.9
    reports = []
    for seed in cfg.seeds:
        plan1, plan2 = exp.plans(cfg.strategy, seed, min(max(cfg.ranks), o1.n - 1))
        reports.append(psd_ordering_check(K1, plan1, gamma1))
        reports.append(tail_bound_check(K1, plan1, gamma1, t_gate))
        reports.append(projection_error_check(K1, plan1, gamma1, l1, t_gate))
        reports.append(correlation_error_check(K1, K2, (plan1, plan2), (l1, l2),
                                               (gamma1, gamma2), t_gate, t_gate))
        approx = nkcca_fit_direct(o1, o2, plan1, plan2, l1, l2, L=1,
                                  keep_t=True)
        reports += stability_check(exact, approx.model, exp.data.X_test[:200],
                                   c=1.0, grams=(K1, K2))
    rows = [[r.context, r.lhs, r.rhs, r.holds, r.applicable] for r in reports]
    outdir = _write_run(cfg, "check-bounds", "bounds.csv", [
        ("context", "which inequality"), ("lhs", "left-hand side"),
        ("rhs", "right-hand side"), ("holds", "lhs <= rhs + 1e-8 max(1, rhs)"),
        ("applicable", "False when preconditions failed")], rows)
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
    # progress records of the package go to stderr for this run only
    log = logging.getLogger("nkcca")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
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
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
