import numpy as np
import pytest

from nkcca.datasets import (PairedDataset, load_paired_csv, synthetic_circles,
                            write_paired_csv)

# Frozen from an independent 4e6-sample rejection-sampling run of the stated
# generative recipe (uniform latent, additive Gaussian noise, rows with
# invalid log arguments redrawn).
ORACLE_MEAN_U = 0.568258
ORACLE_MEAN_V = 3.492187


def recovered_uv(ds):
    """Invert the ring construction: U = 1.5 exp(-R_x^2/4), V analogously."""
    r2x = np.sum(ds.X**2, axis=1)
    r2y = np.sum(ds.Y**2, axis=1)
    return 1.5 * np.exp(-r2x / 4.0), 4.1 * np.exp(-r2y / 4.0)


def test_synthetic_shapes_and_tags():
    ds = synthetic_circles(37, seed=0)
    assert ds.X.shape == (37, 2)
    assert ds.Y.shape == (37, 2)
    assert set(ds.split) == {"train"}
    assert ds.n == 37


def test_synthetic_deterministic():
    a = synthetic_circles(64, seed=9)
    b = synthetic_circles(64, seed=9)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.Y, b.Y)
    c = synthetic_circles(64, seed=10)
    assert not np.array_equal(a.X, c.X)


def test_synthetic_log_arguments_valid():
    ds = synthetic_circles(5000, seed=3)
    u, v = recovered_uv(ds)
    assert np.all(u > 0) and np.all(u <= 1.5 + 1e-12)
    assert np.all(v > 0) and np.all(v <= 4.1 + 1e-12)


def test_synthetic_moment_check():
    ds = synthetic_circles(100_000, seed=12)
    u, v = recovered_uv(ds)
    # within the stated +-0.01 of the raw means, and tighter against the
    # independently simulated truncated means
    assert abs(u.mean() - 0.56) < 0.01
    assert abs(v.mean() - 3.5) < 0.01
    assert abs(u.mean() - ORACLE_MEAN_U) < 0.003
    assert abs(v.mean() - ORACLE_MEAN_V) < 0.003


def test_synthetic_rejects_bad_n():
    with pytest.raises(ValueError):
        synthetic_circles(0, seed=0)


def test_paired_dataset_validation():
    with pytest.raises(ValueError):
        PairedDataset(X=np.zeros((3, 2)), Y=np.zeros((2, 2)),
                      split=np.full(3, "train"))
    with pytest.raises(ValueError):
        PairedDataset(X=np.full((2, 2), np.nan), Y=np.zeros((2, 2)),
                      split=np.full(2, "train"))


def write_csvs(tmp_path, n=10, header=False):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, 3))
    Y = rng.normal(size=(n, 2))
    px, py = tmp_path / "x.csv", tmp_path / "y.csv"
    for path, arr in ((px, X), (py, Y)):
        lines = []
        if header:
            lines.append(",".join(f"c{i}" for i in range(arr.shape[1])))
        lines += [",".join(f"{v:.17g}" for v in row) for row in arr]
        path.write_text("\n".join(lines) + "\n")
    return px, py, X, Y


def test_load_paired_csv_counts_split(tmp_path):
    px, py, X, Y = write_csvs(tmp_path, n=10)
    ds = load_paired_csv(px, py, split_spec="6:2:2", seed=1)
    counts = {tag: int((ds.split == tag).sum()) for tag in ("train", "tune", "test")}
    assert counts == {"train": 6, "tune": 2, "test": 2}
    assert ds.n == 10


def test_load_paired_csv_fraction_split_and_shuffle_determinism(tmp_path):
    px, py, X, Y = write_csvs(tmp_path, n=20)
    a = load_paired_csv(px, py, split_spec="0.5:0.25:0.25", seed=3)
    b = load_paired_csv(px, py, split_spec="0.5:0.25:0.25", seed=3)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.split, b.split)
    assert int((a.split == "train").sum()) == 10
    # rows remain paired after the shuffle
    for i in range(20):
        j = np.where((X == a.X[i]).all(axis=1))[0][0]
        np.testing.assert_array_equal(a.Y[i], Y[j])


def test_load_paired_csv_header_autodetect(tmp_path):
    px, py, X, Y = write_csvs(tmp_path, n=8, header=True)
    ds = load_paired_csv(px, py, split_spec="4:2:2", seed=0)
    assert ds.n == 8


def test_load_paired_csv_row_mismatch(tmp_path):
    px, py, _, _ = write_csvs(tmp_path, n=6)
    py.write_text("1.0,2.0\n")
    with pytest.raises(ValueError, match="mismatch"):
        load_paired_csv(px, py, "0.5:0.25:0.25", 0)


def test_load_paired_csv_parse_error_reports_line(tmp_path):
    px = tmp_path / "x.csv"
    px.write_text("1.0,2.0\n3.0,oops\n")
    py = tmp_path / "y.csv"
    py.write_text("1.0\n2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_paired_csv(px, py, "1:0:1", 0)


def test_load_paired_csv_bad_first_row_is_data_not_header(tmp_path):
    px = tmp_path / "x.csv"
    px.write_text("oops,1.0\n1,2\n3,4\n")
    py = tmp_path / "y.csv"
    py.write_text("1.0\n2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_paired_csv(px, py, "2:0:1", 0)


def test_round_trip_write_then_read(tmp_path):
    ds = synthetic_circles(15, seed=4)
    write_paired_csv(ds, tmp_path / "x.csv", tmp_path / "y.csv")
    back = load_paired_csv(tmp_path / "x.csv", tmp_path / "y.csv",
                           split_spec="15:0:0", seed=11)
    order = np.argsort(back.X[:, 0])
    ref = np.argsort(ds.X[:, 0])
    np.testing.assert_allclose(back.X[order], ds.X[ref], atol=1e-15)
    np.testing.assert_allclose(back.Y[order], ds.Y[ref], atol=1e-15)


def test_splits_partition_rows(tmp_path):
    px, py, _, _ = write_csvs(tmp_path, n=11)
    ds = load_paired_csv(px, py, split_spec="0.6:0.2:0.2", seed=2)
    total = sum(int((ds.split == t).sum()) for t in ("train", "tune", "test"))
    assert total == 11
