"""Mixture generation, ground-truth partitions, dataset CSV io."""

import math

import numpy as np
import pytest

from hdbwdm import (
    DataError,
    MixtureConfig,
    OUTLIER,
    TRIMMED,
    UsageError,
    generate,
    read_dataset_csv,
    true_partition,
    write_dataset_csv,
)
from hdbwdm.datagen import _cluster_means


def test_benchmark_shape_and_counts():
    ds = generate(MixtureConfig())
    assert ds.X.shape == (550, 500)
    assert int((ds.labels == OUTLIER).sum()) == 50
    for k in range(5):
        assert int((ds.labels == k).sum()) == 100


def test_clean_case_has_no_outlier_rows():
    cfg = MixtureConfig(n_inliers=60, d=4, K_true=3, outlier_fraction=0.0, seed=2)
    ds = generate(cfg)
    assert ds.X.shape == (60, 4)
    assert not (ds.labels == OUTLIER).any()
    assert np.bincount(ds.labels).tolist() == [20, 20, 20]


def test_generate_is_deterministic_per_seed():
    cfg = MixtureConfig(n_inliers=40, d=6, K_true=2, seed=7)
    a = generate(cfg)
    b = generate(cfg)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.labels, b.labels)
    c = generate(MixtureConfig(n_inliers=40, d=6, K_true=2, seed=8))
    assert not np.array_equal(a.X, c.X)


def test_cluster_means_are_collinear_multiples_of_spacing():
    cfg = MixtureConfig(n_inliers=50, d=9, K_true=4, center_spacing=15.0)
    means = _cluster_means(cfg)
    assert means.shape == (4, 9)
    for k in range(4):
        assert np.all(means[k] == k * 15.0)
    for i in range(4):
        for j in range(4):
            dist = float(np.linalg.norm(means[i] - means[j]))
            assert dist == pytest.approx(abs(i - j) * 15.0 * math.sqrt(9), rel=1e-12)


def test_cluster_size_remainder_goes_to_lowest_ids():
    cfg = MixtureConfig(n_inliers=7, d=2, K_true=3, outlier_fraction=0.0, seed=0)
    sizes = np.bincount(generate(cfg).labels, minlength=3)
    assert sizes.tolist() == [3, 2, 2]
    cfg = MixtureConfig(n_inliers=502, d=2, K_true=5, outlier_fraction=0.0, seed=0)
    sizes = np.bincount(generate(cfg).labels, minlength=5)
    assert sizes.tolist() == [101, 101, 100, 100, 100]


def test_sample_moments_track_the_config():
    # bounds piloted over these exact 20 seeds; worst grand-mean deviation
    # 0.0082 and worst pooled-variance error 1.4% leave wide margins
    for seed in range(20):
        cfg = MixtureConfig(seed=seed)
        sd = cfg.within_sd
        ds = generate(cfg)
        for k in range(cfg.K_true):
            rows = ds.X[ds.labels == k]
            dev = rows.mean(axis=0) - k * cfg.center_spacing
            assert abs(dev.mean()) <= 0.5 * sd
            assert abs(dev.mean()) <= 6.0 * sd / math.sqrt(100 * cfg.d)
            pooled = rows.var(axis=0, ddof=1).mean()
            assert abs(pooled - sd**2) <= 0.15 * sd**2


def test_outlier_rows_are_bounded_and_spread_out():
    within = 0
    total = 0
    for seed in range(20):
        cfg = MixtureConfig(seed=seed)
        lo, hi = cfg.outlier_range
        ds = generate(cfg)
        out = ds.X[ds.labels == OUTLIER]
        assert float(out.min()) >= lo
        assert float(out.max()) <= hi
        spans = out.max(axis=1) - out.min(axis=1)
        within += int((spans >= 0.5 * (hi - lo)).sum())
        total += out.shape[0]
    assert within / total >= 0.99


def test_outliers_are_shuffled_into_the_row_order():
    ds = generate(MixtureConfig(seed=3))
    positions = np.flatnonzero(ds.labels == OUTLIER)
    assert positions.tolist() != list(range(500, 550))


def test_outlier_count_rounds_from_the_fraction():
    assert MixtureConfig(n_inliers=500, outlier_fraction=0.10).n_outliers == 50
    assert MixtureConfig(n_inliers=8, K_true=2, outlier_fraction=0.125).n_outliers == 1
    cfg = MixtureConfig(n_inliers=30, K_true=2, outlier_fraction=0.2)
    assert cfg.n_total == 36


def test_config_validation():
    with pytest.raises(ValueError, match="n_inliers"):
        MixtureConfig(n_inliers=0)
    with pytest.raises(ValueError, match="d must"):
        MixtureConfig(d=0)
    with pytest.raises(ValueError, match="K_true"):
        MixtureConfig(K_true=0)
    with pytest.raises(ValueError, match="K_true"):
        MixtureConfig(n_inliers=3, K_true=4)
    with pytest.raises(ValueError, match="within_sd"):
        MixtureConfig(within_sd=0.0)
    with pytest.raises(ValueError, match="outlier_fraction"):
        MixtureConfig(outlier_fraction=1.0)
    with pytest.raises(ValueError, match="outlier_fraction"):
        MixtureConfig(outlier_fraction=-0.1)
    with pytest.raises(ValueError, match="outlier_range"):
        MixtureConfig(outlier_range=(5.0, 5.0))
    with pytest.raises(ValueError, match="seed"):
        MixtureConfig(seed=-1)


@pytest.mark.parametrize("settings, message", [
    ({"within_sd": math.nan}, "within_sd"),
    ({"within_sd": math.inf}, "within_sd"),
    ({"center_spacing": math.nan}, "center_spacing"),
    ({"center_spacing": math.inf}, "center_spacing"),
    ({"center_spacing": 1e308}, "center_spacing"),  # the largest mean, 4 * 1e308, overflows
    ({"K_true": 1, "center_spacing": math.inf}, "center_spacing"),  # its one mean, 0 * inf, is nan
    ({"outlier_range": (-math.inf, 100.0)}, "outlier_range"),
    ({"outlier_range": (-1e308, 1e308)}, "outlier_range"),  # finite bounds, infinite width
    ({"within_sd": 1e308}, "within_sd"),  # 64 * within_sd overflows
    # the largest mean and 64 * within_sd are finite, but not their sum
    ({"K_true": 2, "center_spacing": 1.7e308, "within_sd": 1e306}, "within_sd"),
])
def test_a_mixture_whose_draws_cannot_be_finite_is_refused(settings, message):
    with pytest.raises(UsageError, match=message):
        MixtureConfig(**settings)


def test_true_partition_maps_outliers_to_trimmed():
    cfg = MixtureConfig(n_inliers=30, d=3, K_true=3, outlier_fraction=0.2, seed=1)
    ds = generate(cfg)
    part = true_partition(ds)
    assert part.K == 3
    assert part.alpha == 0.0
    assert part.labels is not ds.labels
    assert np.array_equal(part.labels == TRIMMED, ds.labels == OUTLIER)
    assert np.array_equal(part.labels[part.labels != TRIMMED], ds.labels[ds.labels != OUTLIER])


def test_dataset_csv_round_trip_with_labels(tmp_path):
    cfg = MixtureConfig(n_inliers=12, d=3, K_true=2, outlier_fraction=0.25, seed=5)
    ds = generate(cfg)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds.X, ds.labels, path)
    first = path.read_text().splitlines()[0]
    assert first == "x0,x1,x2,label"
    X, y = read_dataset_csv(path)
    assert np.array_equal(X, ds.X)
    assert np.array_equal(y, ds.labels)


def test_dataset_csv_round_trip_headerless(tmp_path):
    cfg = MixtureConfig(n_inliers=10, d=2, K_true=2, outlier_fraction=0.2, seed=6)
    ds = generate(cfg)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds.X, ds.labels, path, header=False)
    X, y = read_dataset_csv(path)  # sniffed from the OUT tokens
    assert np.array_equal(X, ds.X)
    assert np.array_equal(y, ds.labels)


def test_dataset_csv_unlabeled_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(8, 4))
    path = tmp_path / "plain.csv"
    write_dataset_csv(X, None, path)
    back, y = read_dataset_csv(path)
    assert y is None
    assert np.array_equal(back, X)


def test_dataset_csv_header_alone_decides_the_label_column(tmp_path):
    # an unlabeled write of whole-valued features reads back whole: its header names no label
    X = np.arange(40.0).reshape(8, 5)
    path = tmp_path / "whole.csv"
    write_dataset_csv(X, None, path)
    back, y = read_dataset_csv(path)
    assert y is None
    assert np.array_equal(back, X)
    path.write_text("a,LABEL\n1.5,2\n3.5,4\n")
    back, y = read_dataset_csv(path)
    assert back.tolist() == [[1.5], [3.5]] and y.tolist() == [2, 4]


def test_dataset_csv_label_sniffing_rules(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("a,b,label\n1.5,2.5,0\n3.5,4.5,1\n")
    X, y = read_dataset_csv(path)
    assert X.shape == (2, 2) and y.tolist() == [0, 1]

    # a trailing integer-valued column reads as labels unless forced off
    path = tmp_path / "ints.csv"
    path.write_text("1.5,2.0\n3.5,4.0\n")
    X, y = read_dataset_csv(path)
    assert X.shape == (2, 1) and y.tolist() == [2, 4]
    X, y = read_dataset_csv(path, labels=False)
    assert X.shape == (2, 2) and y is None

    path = tmp_path / "frac.csv"
    path.write_text("1.5,2.25\n3.5,4.75\n")
    X, y = read_dataset_csv(path)
    assert X.shape == (2, 2) and y is None


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_dataset_csv_non_finite_trailing_column(tmp_path, value):
    # a non-finite trailing value is data, not a label: the finiteness check reports it
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"1.0,2.0\n3.0,{value}\n")
    with pytest.raises(DataError, match="non-finite"):
        read_dataset_csv(path)

    # in a column named as labels it cannot be an integer label
    path.write_text(f"x0,label\n1.0,2\n3.0,{value}\n")
    with pytest.raises(DataError, match="cannot parse"):
        read_dataset_csv(path)


@pytest.mark.parametrize("value", ["1e300", "-1e300", "9223372036854775808", "9.3e18"])
def test_dataset_csv_whole_values_beyond_int64_are_data(tmp_path, value):
    # whole-valued floats that no int64 label can hold are read as data
    path = tmp_path / "huge.csv"
    path.write_text(f"1.0,2.0\n3.0,{value}\n")
    X, y = read_dataset_csv(path)
    assert y is None
    assert X.shape == (2, 2) and X[1, 1] == float(value)

    # the int64 extremes that do fit still read as labels
    path.write_text("1.0,-9223372036854775808\n3.0,9.2e18\n")
    X, y = read_dataset_csv(path)
    assert X.shape == (2, 1) and y.tolist() == [-(2**63), 9_200_000_000_000_000_000]

    # forced or named labels still refuse the value
    path.write_text(f"1.0,2\n3.0,{value}\n")
    with pytest.raises(DataError, match="cannot parse"):
        read_dataset_csv(path, labels=True)
    path.write_text(f"x0,label\n1.0,2\n3.0,{value}\n")
    with pytest.raises(DataError, match="cannot parse"):
        read_dataset_csv(path)


_TOKENS = [
    "-0.0", "5e-324", "1e308", repr(0.1 + 0.2), repr(2 / 3), repr(-math.pi * 1e-200),
    "+2", "1_000", "\u0661\u0662", " 1.5", "2.5\t", "\t -7.25  ",
]


@pytest.mark.parametrize("header", ["", " a ,\tb, label \r\n"])
def test_dataset_csv_cells_parse_bitwise_as_float(tmp_path, header):
    # every cell is read exactly as float() reads it, spaces, tabs and CRLF included
    rows = [_TOKENS, _TOKENS[::-1], _TOKENS[3:] + _TOKENS[:3]]
    labels = [" 0", " OUT", "\t1"]
    lines = [",".join(r + [lab]) for r, lab in zip(rows, labels)]
    path = tmp_path / "tokens.csv"
    path.write_bytes((header + "\r\n".join(lines) + "\r\n").encode("utf-8"))
    X, y = read_dataset_csv(path)
    assert X.tobytes() == np.array([[float(t) for t in r] for r in rows]).tobytes()
    assert y.tolist() == [0, OUTLIER, 1]

    path.write_bytes(("\r\n".join(",".join(r) for r in rows) + "\r\n").encode("utf-8"))
    X, y = read_dataset_csv(path)
    assert y is None
    assert X.tobytes() == np.array([[float(t) for t in r] for r in rows]).tobytes()


def test_dataset_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "noisy.csv"
    path.write_text("# comment\n\n1.0,2.0\n\n3.0,4.0\n")
    X, y = read_dataset_csv(path, labels=False)
    assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
    assert y is None


def test_dataset_csv_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="ragged"):
        read_dataset_csv(ragged)

    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,nan\n2.0,3.0\n")
    with pytest.raises(DataError, match="non-finite"):
        read_dataset_csv(bad, labels=False)

    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing here\n")
    with pytest.raises(DataError, match="no data rows"):
        read_dataset_csv(empty)

    only_labels = tmp_path / "only.csv"
    only_labels.write_text("0\n1\n")
    with pytest.raises(DataError, match="no feature columns"):
        read_dataset_csv(only_labels, labels=True)

    garbled = tmp_path / "garbled.csv"
    garbled.write_text("1.0,x\n2.0,0\n")
    with pytest.raises(DataError, match="cannot parse"):
        read_dataset_csv(garbled, labels=True)
