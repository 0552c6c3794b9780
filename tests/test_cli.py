import csv

import numpy as np
import pytest

from nkcca.cli import (ConfigError, ExperimentConfig, load_config_file, main,
                       resolve_config)


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


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(strategy="magic").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(ranks=(50, 20)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="csv").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(lambda1=(0.0,)).validate()


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


def test_error_curve_command_and_determinism(tmp_path):
    argv = ["error-curve"] + base_flags(tmp_path / "r1", seeds="0,1")
    assert run(argv) == 0
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
    gated = [r for r in rows[1:] if r[4] == "True"]
    assert gated, "expected at least one applicable report"
    assert all(r[3] == "True" for r in gated)


def test_arpack_no_convergence_exit_code(monkeypatch, tmp_path, capsys):
    from scipy.sparse.linalg import ArpackNoConvergence

    from nkcca import kcca

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    # route the exact solver's top-L extraction through svds
    monkeypatch.setattr(kcca, "_DENSE_SVD_LIMIT", 0)
    monkeypatch.setattr(kcca, "svds", no_convergence)
    code = run(["exact"] + base_flags(tmp_path, n="50", **{"tune-n": "50"}))
    assert code == 3
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
