"""Mixture generation, ground-truth partitions, dataset CSV io."""

import math

import numpy as np
import pytest

from hdbwdm import (
    DataError,
    MixtureConfig,
    TRIMMED,
    UsageError,
    generate,
    read_dataset_csv,
    true_partition,
    write_dataset_csv,
)
import hdbwdm.datagen as datagen
from hdbwdm.datagen import _cluster_means, _float_matrix


def test_benchmark_shape_and_counts():
    ds = generate(MixtureConfig())
    assert ds.X.shape == (550, 500)
    assert int((ds.labels == TRIMMED).sum()) == 50
    for k in range(5):
        assert int((ds.labels == k).sum()) == 100


def test_clean_case_has_no_outlier_rows():
    cfg = MixtureConfig(n_inliers=60, d=4, K_true=3, outlier_fraction=0.0, seed=2)
    ds = generate(cfg)
    assert ds.X.shape == (60, 4)
    assert not (ds.labels == TRIMMED).any()
    assert np.bincount(ds.labels).tolist() == [20, 20, 20]


def test_generate_is_deterministic_per_seed():
    cfg = MixtureConfig(n_inliers=40, d=6, K_true=2, seed=7)
    a = generate(cfg)
    b = generate(cfg)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.labels, b.labels)
    c = generate(MixtureConfig(n_inliers=40, d=6, K_true=2, seed=8))
    assert not np.array_equal(a.X, c.X)


def _generate_by_vstack(cfg):
    """``generate`` as one array per block, stacked, then shuffled."""
    rng = np.random.default_rng(cfg.seed)
    base, rem = divmod(cfg.n_inliers, cfg.K_true)
    sizes = [base + (k < rem) for k in range(cfg.K_true)]
    blocks, labels = [], []
    for k, size in enumerate(sizes):
        blocks.append(rng.standard_normal((size, cfg.d)) * cfg.within_sd + _cluster_means(cfg)[k])
        labels.append(np.full(size, k, dtype=int))
    if cfg.n_outliers:
        blocks.append(rng.uniform(*cfg.outlier_range, size=(cfg.n_outliers, cfg.d)))
        labels.append(np.full(cfg.n_outliers, TRIMMED, dtype=int))
    perm = rng.permutation(cfg.n_total)
    return np.vstack(blocks)[perm], np.concatenate(labels)[perm]


@pytest.mark.parametrize(
    "settings",
    [
        {},
        {"n_inliers": 6000, "d": 20, "K_true": 5},
        {"n_inliers": 503, "d": 7, "K_true": 4, "outlier_fraction": 0.0},
        {"n_inliers": 37, "d": 3, "K_true": 1},
        {"n_inliers": 61, "d": 12, "K_true": 3, "within_sd": 0.3, "center_spacing": -2.5},
    ],
    ids=["benchmark", "tall", "remainder without outliers", "one cluster", "negative spacing"],
)
def test_generate_is_bitwise_the_stacked_blocks(settings):
    for seed in range(6):
        ds = generate(MixtureConfig(**settings, seed=seed))
        X, labels = _generate_by_vstack(MixtureConfig(**settings, seed=seed))
        assert ds.X.tobytes() == X.tobytes(), seed
        assert ds.labels.dtype == labels.dtype and np.array_equal(ds.labels, labels), seed


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
        out = ds.X[ds.labels == TRIMMED]
        assert float(out.min()) >= lo
        assert float(out.max()) <= hi
        spans = out.max(axis=1) - out.min(axis=1)
        within += int((spans >= 0.5 * (hi - lo)).sum())
        total += out.shape[0]
    assert within / total >= 0.99


def test_outliers_are_shuffled_into_the_row_order():
    ds = generate(MixtureConfig(seed=3))
    positions = np.flatnonzero(ds.labels == TRIMMED)
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
    assert np.array_equal(part.labels == TRIMMED, ds.labels == TRIMMED)
    assert np.array_equal(part.labels[part.labels != TRIMMED], ds.labels[ds.labels != TRIMMED])


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

    # a trailing integer-valued column reads as labels unless a header names it data
    path = tmp_path / "ints.csv"
    path.write_text("1.5,2.0\n3.5,4.0\n")
    X, y = read_dataset_csv(path)
    assert X.shape == (2, 1) and y.tolist() == [2, 4]
    path.write_text("x0,x1\n1.5,2.0\n3.5,4.0\n")
    X, y = read_dataset_csv(path)
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

    # labels sniffed from an OUT cell, or named by the header, still refuse the value
    path.write_text(f"1.0,OUT\n3.0,{value}\n")
    with pytest.raises(DataError, match="cannot parse"):
        read_dataset_csv(path)
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
    if header:  # name the leading columns too: a header is as wide as the rows
        header = "".join(f"x{j}," for j in range(len(_TOKENS) - 2)) + header
    path = tmp_path / "tokens.csv"
    path.write_bytes((header + "\r\n".join(lines) + "\r\n").encode("utf-8"))
    X, y = read_dataset_csv(path)
    assert X.tobytes() == np.array([[float(t) for t in r] for r in rows]).tobytes()
    assert y.tolist() == [0, TRIMMED, 1]

    path.write_bytes(("\r\n".join(",".join(r) for r in rows) + "\r\n").encode("utf-8"))
    X, y = read_dataset_csv(path)
    assert y is None
    assert X.tobytes() == np.array([[float(t) for t in r] for r in rows]).tobytes()


def test_a_headerless_file_of_no_rows_is_one_empty_line(tmp_path):
    path = tmp_path / "none.csv"
    write_dataset_csv(np.empty((0, 3)), None, path, header=False)
    assert path.read_bytes() == b"\n"
    with pytest.raises(DataError, match="has no data rows$"):
        read_dataset_csv(path)


def test_dataset_csv_ignores_a_byte_order_mark(tmp_path):
    # the mark is not part of the first cell, so a headerless file stays headerless
    path = tmp_path / "marked.csv"
    path.write_bytes(b"\xef\xbb\xbf1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n7.0,8.0,1\n")
    X, y = read_dataset_csv(path)
    assert X.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]
    assert y.tolist() == [0, 1, 0, 1]


def test_dataset_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "noisy.csv"
    path.write_text("# comment\n\nx0,x1\n\n1.0,2.0\n\n3.0,4.0\n")
    X, y = read_dataset_csv(path)
    assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
    assert y is None


def test_dataset_csv_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="ragged"):
        read_dataset_csv(ragged)

    wide = tmp_path / "wide.csv"
    wide.write_text("x0,x1,x2,label\n1.0,2.0,0\n3.0,4.0,1\n")
    with pytest.raises(DataError, match="has a header of 4 cells, but its rows have 3$"):
        read_dataset_csv(wide)

    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,nan\n2.0,3.0\n")
    with pytest.raises(DataError, match="non-finite"):
        read_dataset_csv(bad)

    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing here\n")
    with pytest.raises(DataError, match="no data rows"):
        read_dataset_csv(empty)

    only_labels = tmp_path / "only.csv"
    only_labels.write_text("label\n0\n1\n")
    with pytest.raises(DataError, match="no feature columns"):
        read_dataset_csv(only_labels)

    garbled = tmp_path / "garbled.csv"
    garbled.write_text("x0,label\n1.0,x\n2.0,0\n")
    with pytest.raises(DataError, match="cannot parse"):
        read_dataset_csv(garbled)


# Files long enough to span several of the reader's parse blocks, so that two
# defects placed far apart land in different blocks.
_LONG_ROWS = 40_000


def _long_file(path, header=None, width=4, edits=None):
    """A ``_LONG_ROWS``-row file of ``width``-cell rows, the last cell a label; ``edits`` maps
    a row index to the text that replaces that row."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(_LONG_ROWS, width - 1))
    labels = rng.integers(0, 3, size=_LONG_ROWS)
    lines = [",".join([*map(repr, row), str(lab)]) for row, lab in zip(X.tolist(), labels.tolist())]
    for i, text in (edits or {}).items():
        lines[i] = text
    if header is not None:
        lines.insert(0, header)
    path.write_text("".join(f"{line}\n" for line in lines))
    return X, labels


def test_a_ragged_row_late_outranks_a_bad_cell_early(tmp_path):
    path = tmp_path / "long.csv"
    _long_file(path, "x0,x1,x2,label", edits={10: "x,1.0,2.0,0", _LONG_ROWS - 5: "1.0,2.0,0"})
    with pytest.raises(DataError, match="has ragged rows$"):
        read_dataset_csv(path)


def test_a_bad_feature_cell_late_outranks_a_bad_label_early(tmp_path):
    path = tmp_path / "long.csv"
    _long_file(path, "x0,x1,x2,label", edits={10: "1.0,2.0,3.0,y", _LONG_ROWS - 5: "1.0,z,3.0,0"})
    with pytest.raises(DataError, match="could not convert string to float: 'z'$"):
        read_dataset_csv(path)
    # alone, the early label is the one reported
    _long_file(path, "x0,x1,x2,label", edits={10: "1.0,2.0,3.0,y"})
    with pytest.raises(DataError, match="could not convert string to float: 'y'$"):
        read_dataset_csv(path)


@pytest.mark.parametrize("header", [None, "x0,x1,x2,x3"])
def test_an_unlabeled_file_reports_its_first_bad_cell_in_row_order(tmp_path, header):
    # with no label column, a bad trailing cell early outranks a bad feature cell late
    path = tmp_path / "long.csv"
    _long_file(path, header, edits={10: "1.0,2.0,3.0,y", _LONG_ROWS - 5: "1.0,z,3.0,0"})
    with pytest.raises(DataError, match="could not convert string to float: 'y'$"):
        read_dataset_csv(path)


@pytest.mark.parametrize("tail", ["y", "OUT"])
def test_in_one_row_the_bad_feature_cell_outranks_the_trailing_cell(tmp_path, tail):
    path = tmp_path / "long.csv"
    _long_file(path, "x0,x1,x2,x3", edits={_LONG_ROWS - 5: f"1.0,z,3.0,{tail}"})
    with pytest.raises(DataError, match="could not convert string to float: 'z'$"):
        read_dataset_csv(path)


def test_a_block_numpy_refuses_is_parsed_once_by_float(tmp_path, monkeypatch):
    # a 1_000 cell in every block: float() reads each block's leading cells, once
    step = datagen._BLOCK_CELLS // 4
    edits = {row: "1_000,2.0,3.0,0" for row in range(7, _LONG_ROWS, step)}
    calls = []

    def spy(rows):
        calls.append(rows)
        return _float_matrix(rows)

    monkeypatch.setattr(datagen, "_float_matrix", spy)
    path = tmp_path / "long.csv"
    _long_file(path, "x0,x1,x2,label", edits=edits)
    X, y = read_dataset_csv(path)
    assert len(calls) == len(edits) == -(-_LONG_ROWS // step)
    assert all(len(row) == 3 for rows in calls for row in rows)
    assert X[7].tolist() == [1000.0, 2.0, 3.0] and y[7] == 0


def test_a_ragged_row_late_outranks_a_header_of_another_width(tmp_path):
    path = tmp_path / "long.csv"
    _long_file(path, "x0,label", edits={_LONG_ROWS - 5: "1.0,2.0,3.0,4.0,0"})
    with pytest.raises(DataError, match="has ragged rows$"):
        read_dataset_csv(path)


def test_headerless_labels_are_sniffed_from_the_whole_file(tmp_path):
    path = tmp_path / "long.csv"
    X, labels = _long_file(path, edits={_LONG_ROWS - 5: "1.0,2.0,3.0,OUT"})
    back, y = read_dataset_csv(path)  # one OUT cell in the last rows makes the column labels
    assert back[:10].tobytes() == X[:10].tobytes() and back.shape == X.shape
    assert y[-5] == TRIMMED and np.array_equal(np.delete(y, -5), np.delete(labels, -5))

    # with it, a fractional trailing value in the first rows is a bad label
    _long_file(path, edits={10: "1.0,2.0,3.0,1.5", _LONG_ROWS - 5: "1.0,2.0,3.0,OUT"})
    with pytest.raises(DataError, match="label '1.5' is not a whole number that fits int64$"):
        read_dataset_csv(path)
    # without it, the same value makes the column data
    _long_file(path, edits={10: "1.0,2.0,3.0,1.5"})
    back, y = read_dataset_csv(path)
    assert y is None and back.shape == (_LONG_ROWS, 4) and back[10, 3] == 1.5


def test_cells_in_a_late_block_parse_bitwise_as_float(tmp_path):
    path = tmp_path / "long.csv"
    late = _LONG_ROWS - 3
    header = ",".join([*(f"x{j}" for j in range(len(_TOKENS))), "label"])
    _long_file(path, header, width=len(_TOKENS) + 1, edits={late: ",".join(_TOKENS + [" OUT"])})
    X, y = read_dataset_csv(path)
    assert X[late].tobytes() == np.array([float(t) for t in _TOKENS]).tobytes()
    assert y[late] == TRIMMED


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
@pytest.mark.parametrize("parser", ["numpy", "float"])
def test_an_information_separator_at_a_cell_edge_is_stripped(tmp_path, monkeypatch, sep, parser):
    # str.strip() removes U+001C..U+001F and float() does not, so a cell edged by one reads as
    # float(cell.strip()) mid-row and at a row's end alike; a 1_000 cell sends its block to float()
    late = _LONG_ROWS - 5
    edits = {late: f"{sep}1.0,2.5{sep},{sep}-7.25{sep},2{sep}"}
    if parser == "float":
        edits[late - 1] = "1_000,2.0,3.0,0"
    calls = []

    def spy(rows):  # records each float() parse
        calls.append(rows)
        return _float_matrix(rows)

    monkeypatch.setattr(datagen, "_float_matrix", spy)
    path = tmp_path / "long.csv"
    _long_file(path, "x0,x1,x2,label", edits=edits)
    X, y = read_dataset_csv(path)
    assert X[late].tobytes() == np.array([1.0, 2.5, -7.25]).tobytes() and y[late] == 2
    assert bool(calls) == (parser == "float")
    if parser == "float":
        assert X[late - 1].tolist() == [1000.0, 2.0, 3.0]


@pytest.mark.parametrize("side, bound", [("write", 1.0), ("read", 3.0)])
def test_dataset_csv_io_holds_about_one_matrix(tmp_path, side, bound):
    # each side works through the file a block of cells at a time, so beside the matrix
    # it holds one block's text and numbers; the reader also joins its blocks at the end
    import tracemalloc

    rng = np.random.default_rng(5)
    X = rng.normal(size=(4000, 100))
    labels = rng.integers(TRIMMED, 3, size=4000)
    path = tmp_path / "big.csv"
    if side == "read":
        write_dataset_csv(X, labels, path)
    tracemalloc.start()
    try:
        if side == "write":
            write_dataset_csv(X, labels, path)
        else:
            back, y = read_dataset_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * X.nbytes, peak / X.nbytes
    if side == "read":
        assert back.tobytes() == X.tobytes() and np.array_equal(y, labels)
