import csv
from dataclasses import fields

import numpy as np
import pytest

from nkcca.cli import (ConfigError, ExperimentConfig, load_config_file, main,
                       resolve_config)
from nkcca.datasets import synthetic_circles
from nkcca.diagnostics import _stability_terms
from nkcca.kcca import exact_kcca
from nkcca.kernels import KernelSpec, gram


def run(argv):
    return main(argv)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def base_flags(tmp_path, **over):
    flags = {
        "n": "60", "tune-n": "60", "test-n": "60",
        "sigma1": "1.0", "sigma2": "1.0",
        "lambda1": "0.001", "lambda2": "0.001",
        "ranks": "10,20", "L": "1", "seeds": "0,1",
        "out": str(tmp_path),
    }
    flags.update(over)
    out = []
    for key, val in flags.items():
        out += [f"--{key}", val]
    return out


# --- config handling -----------------------------------------------------------

def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# comment\n"
        "n = 500\n"
        "ranks = 100:300:100\n"
        "seeds = 0,1,2   # trailing comment\n"
        "lambda1 = 0.01,0.001\n"
        "strategy = ridge\n")
    values = load_config_file(cfg_file)
    assert values["n"] == 500
    assert values["ranks"] == (100, 200, 300)
    assert values["seeds"] == (0, 1, 2)
    assert values["lambda1"] == (0.01, 0.001)
    assert values["strategy"] == "ridge"


def test_config_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        load_config_file(cfg_file)


def test_flags_override_file(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("n = 500\nL = 2\n")

    class Args:
        config = str(cfg_file)
        n = "250"

    args = Args()
    for name in ExperimentConfig.__dataclass_fields__:
        if not hasattr(args, name):
            setattr(args, name, None)
    cfg = resolve_config(args)
    assert cfg.n == 250
    assert cfg.L == 2


def test_config_validation_errors(tmp_path):
    nan, inf = float("nan"), float("inf")
    for bad in (dict(strategy="magic"), dict(ranks=(50, 20)),
                dict(dataset="csv"), dict(lambda1=(0.0,)),
                dict(ranks=(0,)), dict(n=0), dict(tune_n=-3),
                dict(test_n=-1), dict(seeds=(-1,)), dict(data_seed=-1),
                dict(strategy="ridge", sketch=-5),
                dict(sigma1=(0.5, 1.0), select_n=0), dict(sigma1=(nan,)),
                dict(lambda1=(nan,)), dict(lambda1=(inf,)),
                dict(gamma_mult=inf)):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad).validate()
    # an infinite regularizer used to run to exit code 0
    assert run(["nkcca"] + base_flags(tmp_path, lambda1="inf")) == 2
    # an integer key that does not parse used to end in a traceback
    assert run(["nkcca"] + base_flags(tmp_path, n="6o")) == 2
    assert not (tmp_path / "nkcca").exists()


# the key tables _coerce read before it took each key's type from its
# default in ExperimentConfig
_OLD_TUPLE_KEYS = ("sigma1", "sigma2", "lambda1", "lambda2", "ranks", "seeds")
_OLD_NUMBER_KEYS = {"n": int, "tune_n": int, "test_n": int, "data_seed": int,
                    "L": int, "sketch": int, "select_n": int,
                    "gamma_mult": float}


@pytest.mark.parametrize("raw", ["7", "2.5", "1,2,3", "0.5,1e-3", "10:30:10",
                                 "ridge", "6o", "1:2"])
def test_coerce_agrees_with_the_old_key_tables(raw):
    from nkcca.cli import _coerce

    def old(key):
        if key in _OLD_TUPLE_KEYS:
            conv = int if key in ("ranks", "seeds") else float
            if ":" in raw and "," not in raw:
                parts = raw.split(":")
                if len(parts) != 3:
                    raise ConfigError(raw)
                start, stop, step = (int(p) for p in parts)
                return tuple(range(start, stop + 1, step))
            return tuple(conv(p) for p in raw.split(","))
        if key in _OLD_NUMBER_KEYS:
            return _OLD_NUMBER_KEYS[key](raw)
        return raw

    for f in fields(ExperimentConfig):
        try:
            expected = old(f.name)
        except (ValueError, ConfigError):
            with pytest.raises(ConfigError):
                _coerce(f.name, raw)
            continue
        got = _coerce(f.name, raw)
        assert got == expected and type(got) is type(expected), f.name
        if isinstance(got, tuple):
            assert [type(v) for v in got] == [type(v) for v in expected]


def test_gamma_mult_grid_is_rejected(tmp_path):
    ExperimentConfig(gamma_mult=10.0).validate()
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("gamma_mult = 1.0,10.0\n")
    with pytest.raises(ConfigError, match="gamma_mult"):
        load_config_file(cfg_file)


def test_gamma_mult_grid_exit_code(tmp_path, capsys):
    assert run(["nkcca"] + base_flags(tmp_path, **{"gamma-mult": "1,10"})) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "gamma_mult" in err
    assert not (tmp_path / "nkcca").exists()


def test_bad_config_exit_code(tmp_path):
    assert run(["nkcca", "--strategy", "magic",
                "--out", str(tmp_path)]) == 2


def test_numerical_failure_exit_code(monkeypatch, tmp_path):
    import scipy.linalg
    from nkcca import cli as cli_mod

    def boom(args):
        raise scipy.linalg.LinAlgError("synthetic failure")

    monkeypatch.setattr(cli_mod, "cmd_exact", boom)
    parser_args = ["exact", "--out", str(tmp_path)]
    # rebuild the parser so the patched handler is wired in
    monkeypatch.setattr(cli_mod, "build_parser", cli_mod.build_parser)
    args = cli_mod.build_parser().parse_args(parser_args)
    args.handler = boom
    monkeypatch.setattr(cli_mod.argparse.ArgumentParser, "parse_args",
                        lambda self, argv=None: args)
    assert cli_mod.main(parser_args) == 3


# --- commands -------------------------------------------------------------------

def test_gen_data_deterministic(tmp_path):
    assert run(["gen-data", "--n", "40", "--data-seed", "3",
                "--out", str(tmp_path / "a")]) == 0
    assert run(["gen-data", "--n", "40", "--data-seed", "3",
                "--out", str(tmp_path / "b")]) == 0
    ax = (tmp_path / "a" / "gen-data" / "x.csv").read_text()
    bx = (tmp_path / "b" / "gen-data" / "x.csv").read_text()
    assert ax == bx
    assert len(ax.splitlines()) == 40


def test_exact_command_runs(tmp_path, capsys):
    assert run(["exact"] + base_flags(tmp_path, n="50", **{"tune-n": "50"})) == 0
    out = capsys.readouterr().out
    assert "rho1=" in out
    assert (tmp_path / "exact" / "model.npz").exists()
    assert (tmp_path / "exact" / "README.md").exists()


def test_nkcca_command_emits_rank_path(tmp_path):
    assert run(["nkcca"] + base_flags(tmp_path)) == 0
    rows = read_csv(tmp_path / "nkcca" / "rank_path.csv")
    assert rows[0] == ["seed", "rank", "rho1", "test_total_correlation",
                       "wall_s"]
    assert len(rows) == 1 + 2 * 2  # seeds x ranks


def test_rcca_command(tmp_path):
    assert run(["rcca"] + base_flags(tmp_path, ranks="20,40")) == 0
    rows = read_csv(tmp_path / "rcca" / "rcca.csv")
    assert len(rows) == 1 + 4
    vals = [float(r[2]) for r in rows[1:]]
    assert all(0 <= v <= 1.0 + 1e-6 for v in vals)


def test_error_curve_command_and_determinism(tmp_path, capsys):
    argv = ["error-curve"] + base_flags(tmp_path / "r1", seeds="0,1")
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert "exact reference at N=60" in captured.err  # progress goes to stderr
    assert "uniform seed 1: done" in captured.err
    assert "exact reference" not in captured.out
    argv2 = ["error-curve"] + base_flags(tmp_path / "r2", seeds="0,1")
    assert run(argv2) == 0
    a = (tmp_path / "r1" / "error-curve" / "error_curve.csv").read_text()
    b = (tmp_path / "r2" / "error-curve" / "error_curve.csv").read_text()
    assert a == b
    rows = read_csv(tmp_path / "r1" / "error-curve" / "error_curve.csv")
    assert rows[0][:4] == ["strategy", "seed", "rank", "rho_err"]
    mean_rows = [r for r in rows[1:] if r[1] == "mean"]
    assert len(mean_rows) == 2
    for r in rows[1:]:
        assert float(r[3]) >= 0
        assert float(r[4]) >= float(r[3]) - 1e-8  # Weyl: t_err >= rho_err


def test_error_curve_stability_bound_uses_the_diagnostics_terms(tmp_path):
    # the bound column is the coefficient of stability_check's layers II and
    # III times t_err / (N lambda1), at the gap of rho_2 for L > 1
    assert run(["error-curve"] + base_flags(tmp_path, seeds="0", L="2")) == 0
    rows = read_csv(tmp_path / "error-curve" / "error_curve.csv")
    assert rows[0][4::2] == ["t_err", "stability_bound"]
    train = synthetic_circles(60, 0)
    spec = KernelSpec(sigma=1.0)
    exact = exact_kcca(gram(spec, train.X), gram(spec, train.Y), 1e-3, 1e-3,
                       L=2)
    _, coef, _ = _stability_terms(exact, exact.alpha_prime)
    seed_rows = [r for r in rows[1:] if r[1] != "mean"]
    assert len(seed_rows) == 2
    for r in seed_rows:
        assert float(r[6]) == pytest.approx(
            coef * float(r[4]) / (60 * 1e-3), rel=1e-12)


def test_speedup_command(tmp_path):
    assert run(["speedup"] + base_flags(tmp_path, seeds="0")) == 0
    rows = read_csv(tmp_path / "speedup" / "speedup.csv")
    assert rows[0] == ["seed", "rank", "incremental_cum_s", "restart_s",
                       "restart_cum_s", "speedup", "drho_vs_restart"]
    for r in rows[1:]:
        assert float(r[6]) <= 1e-8  # restart equals incremental output


def test_compare_command(tmp_path):
    assert run(["compare"] + base_flags(tmp_path, seeds="0",
                                        strategy="ridge")) == 0
    rows = read_csv(tmp_path / "compare" / "compare.csv")
    assert rows[0] == ["seed", "rank", "rcca", "nkcca_uniform", "nkcca_ridge"]
    data = [r for r in rows[1:] if r[0] != "mean"]
    assert len(data) == 2
    for r in rows[1:]:
        for v in r[2:]:
            assert np.isfinite(float(v))


def test_check_bounds_command(tmp_path):
    code = run(["check-bounds"] + base_flags(tmp_path, seeds="0,1",
                                             ranks="10,30"))
    assert code == 0
    rows = read_csv(tmp_path / "check-bounds" / "bounds.csv")
    assert rows[0] == ["context", "lhs", "rhs", "holds", "applicable"]
    for _, lhs, rhs, holds, applicable in rows[1:]:
        float(lhs), float(rhs)
        assert {holds, applicable} <= {"True", "False"}
    gated = [r for r in rows[1:] if r[4] == "True"]
    assert gated, "expected at least one applicable report"
    assert all(r[3] == "True" for r in gated)


def _arpack_fails(monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    from nkcca import kcca

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(kcca, "svds", no_convergence)


def test_arpack_no_convergence_exit_code(monkeypatch, tmp_path, capsys):
    _arpack_fails(monkeypatch)
    # at N = 150 the exact T lies above the ARPACK crossover for L + 1 = 2
    code = run(["exact"] + base_flags(tmp_path, n="150", **{"tune-n": "50"}))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "No convergence" in err
    assert err.count("\n") == 1


def test_arpack_no_convergence_exit_code_on_rank_path(monkeypatch, tmp_path,
                                                      capsys):
    _arpack_fails(monkeypatch)
    # at rank 200 of N = 300 (sigma 0.3) the checkpoint T_hat is about
    # 148 x 139, above the ARPACK crossover for L + 1 = 2
    code = run(["nkcca"] + base_flags(tmp_path, n="300", sigma1="0.3",
                                      sigma2="0.3", ranks="200", seeds="0"))
    assert code == 3
    assert not (tmp_path / "nkcca").exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "No convergence" in err
    assert err.count("\n") == 1


def test_check_bounds_reports_reduced_size(tmp_path, capsys):
    code = run(["check-bounds"] + base_flags(tmp_path, n="500", seeds="0",
                                             ranks="10,30"))
    assert code == 0
    err = capsys.readouterr().err
    assert "n=500" in err and "n=200" in err
    rows = read_csv(tmp_path / "check-bounds" / "bounds.csv")
    assert len(rows) > 1


def test_check_bounds_notice_names_every_overridden_size(tmp_path, capsys):
    code = run(["check-bounds"] + base_flags(tmp_path, n="500",
                                             **{"tune-n": "1000",
                                                "test-n": "1000"},
                                             seeds="0", ranks="10"))
    assert code == 0
    err = capsys.readouterr().err
    assert "n=500" in err
    assert "tune_n=1000" in err and "test_n=1000" in err
    assert "tune_n=200" in err and "test_n=200" in err
    readme = (tmp_path / "check-bounds" / "README.md").read_text()
    assert "tune_n = 200" in readme and "test_n = 200" in readme
    assert len(read_csv(tmp_path / "check-bounds" / "bounds.csv")) > 1


@pytest.mark.parametrize("cell", ["oops", "nan"])
def test_bad_csv_cell_is_config_error(tmp_path, capsys, cell):
    rows = [f"{i}.0,{i % 3}.5" for i in range(12)]
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    y.write_text("\n".join(rows) + "\n")
    rows[4] = f"{cell},1.0"
    x.write_text("\n".join(rows) + "\n")
    code = run(["nkcca", "--dataset", "csv", "--csv-x", str(x),
                "--csv-y", str(y), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"{x}: " in err and "line 5" in err


def test_csv_whose_squared_distances_overflow_is_config_error(tmp_path,
                                                              capsys):
    # one coordinate of 1e200 made the kernel's squared distances NaN, and
    # compare ended in an eigh traceback
    rng = np.random.default_rng(0)
    X, Y = rng.normal(size=(40, 2)), rng.normal(size=(40, 2))
    X[0, 0] = 1e200
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(x, X, delimiter=",")
    np.savetxt(y, Y, delimiter=",")
    code = run(["compare", "--dataset", "csv", "--csv-x", str(x),
                "--csv-y", str(y), "--ranks", "5,10",
                "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "overflow" in err
    assert not (tmp_path / "out" / "compare").exists()


def test_bad_csv_first_row_is_config_error(tmp_path, capsys):
    rows = [f"{i}.0,{i % 3}.5" for i in range(12)]
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    y.write_text("\n".join(rows) + "\n")
    rows[0] = "oops,1.0"
    x.write_text("\n".join(rows) + "\n")
    code = run(["nkcca", "--dataset", "csv", "--csv-x", str(x),
                "--csv-y", str(y), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"{x}: " in err and "line 1" in err


def test_check_bounds_builds_distributions_once(monkeypatch, tmp_path):
    from nkcca import cli as cli_mod

    calls = []
    original = cli_mod._view_distribution

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "_view_distribution", counting)
    code = run(["check-bounds"] + base_flags(tmp_path, seeds="0,1,2",
                                             ranks="10,30"))
    assert code == 0
    assert len(calls) == 2  # one per view, shared by every seed


def test_exact_above_dense_limit_is_config_error(tmp_path, capsys):
    code = run(["exact"] + base_flags(tmp_path, n="5001", **{"tune-n": "50",
                                                            "test-n": "50"}))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "5001" in err and "5000" in err
    assert not (tmp_path / "exact").exists()


def test_check_bounds_csv_above_dense_limit_is_config_error(tmp_path, capsys):
    # a 3,500-row dataset puts N = 2100 in the default 0.6 training split
    rng = np.random.default_rng(0)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(x, rng.standard_normal((3500, 2)), delimiter=",")
    np.savetxt(y, rng.standard_normal((3500, 2)), delimiter=",")
    code = run(["check-bounds", "--dataset", "csv", "--csv-x", str(x),
                "--csv-y", str(y), "--ranks", "10,20",
                "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "2100" in err and "2000" in err
    assert not (tmp_path / "out" / "check-bounds").exists()


@pytest.mark.parametrize("command, over, words", [
    ("nkcca", {"n": "30", "ranks": "10", "test-n": "1"}, ["test", "2 pairs"]),
    ("compare", {"n": "30", "ranks": "10", "test-n": "1"}, ["test", "2 pairs"]),
    ("exact", {"n": "30", "L": "40"}, ["L = 40", "N = 30"]),
    ("nkcca", {"n": "30", "ranks": "10", "tune-n": "1", "sigma1": "1,2"},
     ["tuning", "2 pairs"]),
    ("exact", {"n": "30", "L": "20", "select-n": "10", "sigma1": "1,2"},
     ["L = 20", "select_n"]),
    ("nkcca", {"n": "40", "ranks": "21,28,37", "tune-n": "3",
               "strategy": "ridge", "sigma1": "1e200"}, ["sigma = 1e+200"]),
    ("nkcca", {"n": "3", "ranks": "10", "strategy": "ridge", "sketch": "45",
               "sigma1": "1e-200"}, ["sigma = 1e-200"]),
    ("check-bounds", {"n": "27", "L": "3", "sigma1": "1e-200",
                      "lambda1": "1e-3,1e-1"}, ["sigma = 1e-200"]),
    ("compare", {"n": "40", "ranks": "5,40", "tune-n": "3",
                 "lambda1": "1e-300", "gamma-mult": "1e-300"},
     ["gamma", "1e-300 * 1e-300"]),
    ("nkcca", {"strategy": "ridge", "lambda1": "1e300", "gamma-mult": "1e300"},
     ["gamma", "1e+300 * 1e+300"]),
    ("exact", {"n": "20", "sigma1": "0.5,1.0", "select-n": "1"},
     ["select_n", "at least 2"]),
    ("rcca", {"n": "1", "tune-n": "2", "test-n": "2"}, ["training", "2 pairs"]),
], ids=["nkcca-test-n-1", "compare-test-n-1", "exact-L-above-N",
        "nkcca-tune-n-1-grid", "exact-L-above-select-n", "nkcca-sigma-1e200",
        "nkcca-sigma-1e-200", "check-bounds-sigma-1e-200",
        "compare-gamma-underflow", "nkcca-gamma-overflow", "exact-select-n-1",
        "rcca-n-1"])
def test_degenerate_split_or_l_is_config_error(tmp_path, capsys, command,
                                                over, words):
    code = run([command] + base_flags(tmp_path, **{"tune-n": "0",
                                                   "test-n": "0", **over}))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert all(w in err for w in words)
    assert not (tmp_path / command).exists()


def test_compare_agrees_with_rank_path_and_rcca(tmp_path):
    """compare, nkcca and rcca share one experiment runner, so at the same
    config compare's columns are exactly the other commands' tables."""
    for command in ("compare", "nkcca", "rcca"):
        assert run([command] + base_flags(tmp_path)) == 0
    compare = {(r[0], r[1]): r for r in
               read_csv(tmp_path / "compare" / "compare.csv")[1:]}
    rank_path = read_csv(tmp_path / "nkcca" / "rank_path.csv")[1:]
    rcca = read_csv(tmp_path / "rcca" / "rcca.csv")[1:]
    assert len(rank_path) == len(rcca) == 4
    for seed, rank, _, tc, _ in rank_path:
        assert compare[(seed, rank)][3] == tc
    for seed, rank, tc in rcca:
        assert compare[(seed, rank)][2] == tc
