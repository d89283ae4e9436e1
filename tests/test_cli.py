"""Subcommand behavior and exit codes of the command line front end."""

import json
import os
import re
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

from hdbwdm import MixtureConfig, generate, read_dataset_csv, write_dataset_csv
from hdbwdm.cli import main
import hdbwdm.harness as harness
from hdbwdm.reports import read_diagnostic, read_index_report


def _write_small_dataset(tmp_path, with_labels=True, seed=3):
    cfg = MixtureConfig(n_inliers=40, d=30, K_true=2, outlier_fraction=0.1, seed=seed)
    ds = generate(cfg)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds.X, ds.labels if with_labels else None, path)
    return path


def test_generate_writes_a_csv(tmp_path, capsys):
    code = main([
        "generate", "--n-inliers", "12", "--d", "4", "--k-true", "3",
        "--outlier-fraction", "0.25", "--seed", "2", "--out", str(tmp_path),
    ])
    assert code == 0
    X, y = read_dataset_csv(tmp_path / "dataset.csv")
    assert X.shape == (15, 4)
    assert (y == -1).sum() == 3
    assert "dataset.csv" in capsys.readouterr().out


def test_generate_json_and_headerless_variants(tmp_path):
    code = main([
        "generate", "--n-inliers", "8", "--d", "3", "--k-true", "2",
        "--outlier-fraction", "0", "--format", "json", "--out", str(tmp_path),
    ])
    assert code == 0
    obj = json.loads((tmp_path / "dataset.json").read_text())
    assert len(obj["X"]) == 8 and len(obj["X"][0]) == 3
    assert obj["config"]["K_true"] == 2

    code = main([
        "generate", "--n-inliers", "8", "--d", "3", "--k-true", "2",
        "--outlier-fraction", "0", "--no-header", "--out", str(tmp_path),
    ])
    assert code == 0
    first = (tmp_path / "dataset.csv").read_text().splitlines()[0]
    assert not first.startswith("x0,")


def test_bwdm_scores_a_labeled_csv(tmp_path, capsys):
    path = _write_small_dataset(tmp_path)
    code = main(["bwdm", str(path), "--center", "medoid", "--out", str(tmp_path)])
    assert code == 0
    report = read_index_report(tmp_path / "report.csv")
    assert report.center_kind == "medoid"
    assert report.n_used == 40  # OUT rows excluded
    assert repr(report.bwdm) in capsys.readouterr().out


def test_bwdm_requires_labels(tmp_path):
    path = _write_small_dataset(tmp_path, with_labels=False)
    assert main(["bwdm", str(path), "--out", str(tmp_path)]) == 2


def test_hdbwdm_runs_the_pipeline(tmp_path, capsys):
    path = _write_small_dataset(tmp_path)
    code = main([
        "hdbwdm", str(path), "--k", "2", "--p", "8", "--alpha", "0.1",
        "--seed", "4", "--format", "json", "--out", str(tmp_path),
    ])
    assert code == 0
    report = read_index_report(tmp_path / "report.json", "json")
    assert report.p == 8 and report.K == 2 and report.projection == "rp"
    assert "hd-bwdm=" in capsys.readouterr().out


def test_hdbwdm_error_exit_codes(tmp_path):
    path = _write_small_dataset(tmp_path)
    # data error: unreadable input
    assert main(["hdbwdm", str(tmp_path / "nope.csv"), "--k", "2", "--p", "4"]) == 2
    # usage errors: p above the data's d, invalid alpha, unknown flag, missing required flag
    assert main(["hdbwdm", str(path), "--k", "2", "--p", "99", "--out", str(tmp_path)]) == 1
    assert main(["hdbwdm", str(path), "--k", "2", "--p", "8", "--alpha", "0.7"]) == 1
    assert main(["hdbwdm", str(path), "--k", "2", "--p", "8", "--bogus", "1"]) == 1
    assert main(["hdbwdm", str(path), "--p", "8"]) == 1


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_hdbwdm_non_finite_trailing_column_is_a_data_error(tmp_path, capsys, value):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"1.0,2.0\n3.0,{value}\n")
    assert main(["hdbwdm", str(path), "--k", "2", "--p", "1", "--out", str(tmp_path)]) == 2
    assert "contains non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("1.0,2.0\n3.0\n", "dataset file {path} has ragged rows"),
    ("1.0,2.0\n3.0, x \t\n", "cannot parse dataset file {path}: could not convert string to float: 'x'"),
    ("1.0,,2.0\n3.0,4.0,5.0\n", "cannot parse dataset file {path}: could not convert string to float: ''"),
    ("1.0,2.0\n 3.0 , inf \n", "dataset file {path} contains non-finite values"),
    ("nan,2.5\n3.0,4.5\n", "dataset file {path} contains non-finite values"),
    ("x0,\tlabel\n1.0,2\n3.0, inf\n",
     "cannot parse dataset file {path}: cannot convert float infinity to integer"),
    ("x0,label\n1.0,0\n2.0,1\n3.0,1.5\n4.0,0\n5.0,1\n",
     "cannot parse dataset file {path}: label '1.5' is not a whole number that fits int64"),
    ("x0,label\n1.0,0\n2.0,1\n3.0,1e20\n4.0,0\n5.0,1\n",
     "cannot parse dataset file {path}: label '1e20' is not a whole number that fits int64"),
    ("x0,label\n1.0,2.0,0\n3.0,4.0,1\n",
     "dataset file {path} has a header of 2 cells, but its rows have 3"),
])
def test_csv_data_errors_exit_2_with_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    assert main(["hdbwdm", str(path), "--k", "2", "--p", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "data error: " + message.format(path=path) + "\n"


@pytest.mark.parametrize("labels, argv, message", [  # label -1 is written as OUT
    ([0, 0, 0, 0, -1, 0], ["bwdm"], "need at least 2 cluster labels, found 1"),
    ([0, 2, 0, 2, -1, 2], ["bwdm"],
     "retained cluster ids must be 0..K-1 with none missing, got [0, 2]"),
    (None, ["selectk", "--k-max", "3", "--p", "2", "--score-true", "--input"],
     "--score-true needs a label column in {path}"),
])
def test_label_refusals_exit_2_with_one_line(tmp_path, capsys, labels, argv, message):
    path = tmp_path / "data.csv"
    write_dataset_csv(np.arange(18.0).reshape(6, 3) ** 1.5, labels, path)
    out = tmp_path / "out"
    assert main(argv + [str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "data error: " + message.format(path=path) + "\n"
    assert not out.exists()


_ROWS = "1.0,2.0,0\n1.5,2.5,0\n1.0,2.5,0\n9.0,8.0,1\n9.5,8.5,1\n9.0,8.5,1\n"


@pytest.mark.parametrize("argv", [["bwdm"], ["hdbwdm", "--k", "2", "--p", "1"]])
def test_a_byte_order_mark_leaves_every_row_and_the_labels(tmp_path, argv):
    # the mark is not part of the first cell, so a headerless file stays headerless
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(_ROWS)
    marked.write_bytes(b"\xef\xbb\xbf" + _ROWS.encode("utf-8"))
    for path in (plain, marked):
        assert main(argv + [str(path), "--out", str(tmp_path / path.stem)]) == 0
    report = (tmp_path / "marked" / "report.csv").read_bytes()
    assert report == (tmp_path / "plain" / "report.csv").read_bytes()


def test_hdbwdm_reads_a_trailing_column_beyond_int64_as_data(tmp_path, capsys):
    # whole-valued floats, one of them too large for an int64 label
    rows = [f"{i % 2 * 50}.0,{i % 3}.0,{i % 2 * 40 + i % 5}.0" for i in range(19)]
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(rows + ["1.0,2.0,1e19"]) + "\n")
    # p=3 needs the third column as data; read as labels it would leave d=2
    code = main(["hdbwdm", str(path), "--k", "2", "--p", "3", "--format", "json",
                 "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    report = read_index_report(tmp_path / "report.json", "json")
    assert report.p == 3 and report.n_used == 18


@pytest.mark.parametrize("exc, detail", [
    (MemoryError("Unable to allocate 3.2 GiB for an array\nwith shape (20000, 20000)"),
     "Unable to allocate 3.2 GiB for an array with shape (20000, 20000)"),
    (MemoryError(), "allocation failed"),
])
def test_memory_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch, exc, detail):
    import hdbwdm.cli as cli

    def exhausted(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_hdbwdm", exhausted)
    path = _write_small_dataset(tmp_path)
    assert main(["hdbwdm", str(path), "--k", "2", "--p", "4", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"out of memory: {detail}\n"


@pytest.mark.parametrize("route", ["lapack", "np.linalg.svd"])
def test_a_pca_svd_that_does_not_converge_exits_3_with_one_line(tmp_path, capsys, monkeypatch, route):
    from hdbwdm import _openblas

    entries = _openblas._numpy_openblas()
    if route == "lapack":
        if entries is None:
            pytest.skip("numpy has no bundled OpenBLAS, so fit_pca calls np.linalg.svd")

        def not_converging(*args):
            entries.dgesdd(*args)
            args[-1]._obj.value = 1  # INFO > 0, passed by reference

        monkeypatch.setattr(_openblas, "_numpy_openblas", lambda: entries._replace(dgesdd=not_converging))
    else:
        def not_converging(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(_openblas, "_numpy_openblas", lambda: None)
        monkeypatch.setattr(np.linalg, "svd", not_converging)
    path = _write_small_dataset(tmp_path)
    code = main(["hdbwdm", str(path), "--k", "2", "--p", "4", "--method", "pca", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == "numerical failure: PCA's SVD did not converge\n"


def test_hdbwdm_numerical_failure_exit_code(tmp_path):
    # identical rows: every restart converges with an empty second cluster
    dup = tmp_path / "dup.csv"
    write_dataset_csv(np.ones((8, 5)), None, dup)
    code = main(["hdbwdm", str(dup), "--k", "2", "--p", "3", "--alpha", "0",
                 "--out", str(tmp_path)])
    assert code == 3


def test_selectk_skip_warnings_take_one_line_each(tmp_path, capsys):
    # identical rows: each K is skipped with a warning, then no K is usable
    dup = tmp_path / "dup.csv"
    dup.write_text("1.0,2.0,3.0,4.5\n" * 8)
    code = main(["selectk", "--input", str(dup), "--k-max", "3", "--p", "3",
                 "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 3, err
    assert lines[0].startswith("warning: K=2 skipped: ")
    assert lines[1].startswith("warning: K=3 skipped: ")
    assert lines[2].startswith("numerical failure: ")
    assert ".py:" not in err


@pytest.mark.parametrize("argv", [
    ["bwdm", "--center", "smedian"],
    ["hdbwdm", "--k", "2", "--p", "3", "--center", "smedian"],
])
def test_a_stalled_spatial_median_is_one_warning_line_and_exit_0(tmp_path, capsys, monkeypatch, argv):
    import hdbwdm.clustering as clustering

    path = _write_small_dataset(tmp_path)
    monkeypatch.setattr(clustering, "_WEISZFELD_MAX_ITER", 2)
    assert main([argv[0], str(path), *argv[1:], "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 2, captured.err
    for k, line in enumerate(lines):
        assert re.fullmatch(
            rf"warning: spatial median of cluster {k} \(\d+ rows\) did not converge in 2 steps", line
        ), line
    assert "wrote" in captured.out


def test_no_subcommand_and_help_exit_codes(capsys):
    assert main([]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_diagnostic_command(tmp_path, capsys):
    args = [
        "diagnostic", "--n-inliers", "40", "--d", "30", "--k-true", "2",
        "--outlier-fraction", "0.1", "--p", "8", "--alpha", "0.1",
        "--seed", "5", "--out", str(tmp_path),
    ]
    assert main(args) == 0
    report = read_diagnostic(tmp_path)
    assert set(report.entries) == {"true", "kmeans", "trimmed-kmeans"}
    assert (tmp_path / "diagnostic.svg").exists()
    assert "true: bwdm=" in capsys.readouterr().out

    assert main([
        "diagnostic", "--n-inliers", "40", "--d", "30", "--k-true", "2",
        "--p", "0", "--out", str(tmp_path),
    ]) == 1


def test_sweep_command_and_worker_byte_identity(tmp_path, capsys):
    base = [
        "sweep", "--n-inliers", "40", "--d", "30", "--k-true", "2",
        "--outlier-fraction", "0.1", "--p-list", "6,10", "--methods", "rp",
        "--reps", "2", "--alpha", "0.1", "--seed", "4",
    ]
    one = tmp_path / "w1"
    two = tmp_path / "w2"
    assert main(base + ["--workers", "1", "--out", str(one)]) == 0
    assert main(base + ["--workers", "2", "--out", str(two)]) == 0
    for name in ("sweep_cells.csv", "sweep_reps.csv", "sweep.svg"):
        assert (one / name).read_bytes() == (two / name).read_bytes()
    assert "p=6 method=rp" in capsys.readouterr().out


def test_sweep_usage_and_numerical_exits(tmp_path):
    assert main([
        "sweep", "--p-list", "6", "--methods", "umap", "--reps", "2",
        "--out", str(tmp_path),
    ]) == 1
    assert main([
        "sweep", "--p-list", "", "--methods", "rp", "--reps", "2",
        "--out", str(tmp_path),
    ]) == 1
    assert main([
        "sweep", "--p-list", "4,4", "--methods", "rp", "--reps", "2",
        "--out", str(tmp_path),
    ]) == 1
    # coincident-blob construction whose trim step empties a cluster
    assert main([
        "sweep", "--n-inliers", "6", "--d", "12", "--k-true", "2",
        "--within-sd", "1e-300", "--outlier-fraction", "0",
        "--p-list", "4", "--methods", "rp", "--reps", "3",
        "--alpha", "0.45", "--seed", "0", "--out", str(tmp_path),
    ]) == 3


def test_a_spaced_method_list_is_read_like_a_spaced_p_list(tmp_path, capsys):
    assert main([
        "sweep", "--n-inliers", "40", "--d", "30", "--k-true", "2", "--p-list", "6, 10",
        "--methods", "rp, pca", "--reps", "2", "--out", str(tmp_path / "spaced"),
    ]) == 0
    out = capsys.readouterr().out
    assert "p=10 method=rp" in out and "p=10 method=pca" in out


_unpatched_sweep_job = harness._sweep_job


def _sweep_job_killed_on_rep_1(job, sweep=None):
    """A sweep job whose worker process dies at rep 1, as if the OOM killer took it."""
    if job[2] == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _unpatched_sweep_job(job, sweep)


def test_a_killed_sweep_worker_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # forked workers inherit the patched job, so one of them kills itself mid-run
    monkeypatch.setattr(harness, "_sweep_job", _sweep_job_killed_on_rep_1)
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--n-inliers", "40", "--d", "30", "--k-true", "2", "--p-list", "6",
        "--methods", "rp", "--reps", "3", "--workers", "2", "--out", str(out),
    ]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: a sweep worker process died") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["diagnostic", "--alpha", "0.7"], "alpha must lie in [0, 0.5), got 0.7"),
    (["sweep", "--alpha", "0.7"], "alpha must lie in [0, 0.5), got 0.7"),
    (["sweep", "--reps", "1"], "reps must be >= 2, got 1"),
    (["sweep", "--workers", "0"], "n_workers must be >= 1, got 0"),
    (["sweep", "--p-list", "4,x"],
     "cannot parse --p-list '4,x': invalid literal for int() with base 10: 'x'"),
])
def test_bad_harness_values_are_usage_errors_before_any_data(
    tmp_path, capsys, monkeypatch, argv, message
):
    def no_data(cfg):
        raise AssertionError("data generated before the values were checked")

    monkeypatch.setattr("hdbwdm.harness.generate", no_data)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["diagnostic", "sweep", "selectk", "hdbwdm"])
def test_p_above_d_is_one_usage_error_in_every_command(tmp_path, capsys, command):
    mix = ["--n-inliers", "40", "--d", "10", "--k-true", "2"]
    argv = {
        "diagnostic": ["diagnostic", *mix, "--p", "11"],
        "sweep": ["sweep", *mix, "--p-list", "11", "--reps", "2"],
        "selectk": ["selectk", *mix, "--k-max", "3", "--p", "11"],
        "hdbwdm": ["hdbwdm", str(_write_small_dataset(tmp_path)), "--k", "2", "--p", "31"],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("usage error: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--p-list", "0", "--reps", "2"],
    ["sweep", "--p-list", "4,4", "--reps", "2"],
    ["sweep", "--methods", "rp,rp", "--reps", "2"],
    ["hdbwdm", "nope.csv", "--k", "2", "--p", "4", "--alpha", "0.7"],
], ids=["p-below-one", "repeated-p", "repeated-method", "alpha-before-the-file"])
def test_flag_only_usage_errors_come_before_any_data(tmp_path, capsys, monkeypatch, argv):
    def no_data(*args, **kwargs):
        raise AssertionError("data touched before the values were checked")

    monkeypatch.setattr("hdbwdm.harness.generate", no_data)
    monkeypatch.setattr("hdbwdm.cli.generate", no_data)
    monkeypatch.setattr("hdbwdm.cli.read_dataset_csv", no_data)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("usage error: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--spacing", "nan"],
    ["generate", "--within-sd", "inf"],
    ["generate", "--outlier-lo=-1e308", "--outlier-hi=1e308"],
    ["diagnostic", "--spacing", "nan"],
    ["generate", "--n-inliers", "20", "--d", "3", "--k-true", "2", "--within-sd", "1e308"],
], ids=["nan-spacing", "infinite-sd", "infinite-outlier-width", "diagnostic-nan-spacing",
        "overflowing-sd"])
def test_a_mixture_whose_draws_cannot_be_finite_is_one_usage_error(
    tmp_path, capsys, monkeypatch, argv
):
    def no_data(*args, **kwargs):
        raise AssertionError("data drawn before the values were checked")

    monkeypatch.setattr("hdbwdm.harness.generate", no_data)
    monkeypatch.setattr("hdbwdm.cli.generate", no_data)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("usage error: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "diagnostic", "hdbwdm"])
def test_a_fit_that_retains_at_most_k_rows_is_one_usage_error(
    tmp_path, capsys, monkeypatch, command
):
    # 4 rows at alpha = 0.45 keep 2 = K: AWDM's denominator retained - K would be 0
    mix = ["--n-inliers", "4", "--d", "5", "--k-true", "2", "--outlier-fraction", "0"]
    data = tmp_path / "four.csv"
    write_dataset_csv(np.arange(20.0).reshape(4, 5) ** 1.5, None, data)
    argv = {
        "sweep": ["sweep", *mix, "--p-list", "2", "--reps", "2", "--methods", "rp"],
        "diagnostic": ["diagnostic", *mix, "--p", "2"],
        "hdbwdm": ["hdbwdm", str(data), "--k", "2", "--p", "2"],
    }[command]

    def refused(*args, **kwargs):
        raise AssertionError("reached a step the check should have come before")

    monkeypatch.setattr("hdbwdm.harness.generate", refused)  # the harness draws no data
    monkeypatch.setattr("hdbwdm.validity.trimmed_kmeans", refused)  # the pipeline fits nothing
    assert main(argv + ["--alpha", "0.45", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == (
        "usage error: trimming 2 of 4 rows leaves 2 retained observations; "
        "the index needs more than K=2\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["generate", "--bogus"], "hdbwdm: unrecognized arguments: --bogus"),
    (["sweep", "--reps", "x"], "hdbwdm sweep: argument --reps: invalid int value: 'x'"),
])
def test_argparse_refusals_are_one_usage_error_line(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_selectk_on_a_generated_mixture(tmp_path, capsys):
    code = main([
        "selectk", "--n-inliers", "40", "--d", "20", "--k-true", "3",
        "--spacing", "40.0", "--outlier-fraction", "0.1",
        "--k-min", "2", "--k-max", "4", "--p", "8", "--seed", "6",
        "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "selectk.csv").read_text().splitlines()
    assert lines[0].startswith("# k_star=")
    assert "k_star=" in capsys.readouterr().out


def test_selectk_scores_true_labels_from_a_csv(tmp_path):
    path = _write_small_dataset(tmp_path, seed=6)
    code = main([
        "selectk", "--input", str(path), "--k-min", "2", "--k-max", "3",
        "--p", "8", "--alpha", "0.1", "--seed", "1", "--score-true",
        "--format", "json", "--out", str(tmp_path),
    ])
    assert code == 0
    obj = json.loads((tmp_path / "selectk.json").read_text())
    assert obj["true_report"] is not None
    assert obj["true_report"]["n_used"] == 40


def test_selectk_scores_the_true_labels_of_a_generated_mixture(tmp_path, capsys):
    # outliers are TRIMMED in the generated labels and in the CSV's read back alike
    mixture = ["--n-inliers", "40", "--d", "20", "--k-true", "3", "--spacing", "40.0",
               "--outlier-fraction", "0.1", "--seed", "6"]
    scan = ["--k-min", "2", "--k-max", "3", "--p", "8", "--score-true", "--format", "json"]
    gen, csv = tmp_path / "gen", tmp_path / "csv"
    assert main(["selectk", *mixture, *scan, "--out", str(gen)]) == 0
    assert "true labels: bwdm=" in capsys.readouterr().out
    assert main(["generate", *mixture, "--out", str(tmp_path)]) == 0
    data = str(tmp_path / "dataset.csv")
    assert main(["selectk", "--input", data, "--seed", "6", *scan, "--out", str(csv)]) == 0
    obj = json.loads((gen / "selectk.json").read_text())
    assert obj["true_report"]["n_used"] == 40 and obj["true_report"]["k"] == 3
    assert (gen / "selectk.json").read_bytes() == (csv / "selectk.json").read_bytes()


def test_selectk_error_exits(tmp_path):
    assert main(["selectk", "--k-min", "5", "--k-max", "3", "--out", str(tmp_path)]) == 1
    assert main([
        "selectk", "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path),
    ]) == 2


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_module_entry_point_runs_in_a_subprocess(tmp_path, capsys):
    # python -m hdbwdm.cli ends in os._exit after main: what main prints must
    # still reach the pipes, with main's exit code and the same written files
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # pipes stay buffered
    dup = tmp_path / "dup.csv"
    write_dataset_csv(np.ones((8, 5)), None, dup)
    out = tmp_path / "out"
    cases = [
        (0, ["generate", "--n-inliers", "8", "--d", "3", "--k-true", "2",
             "--outlier-fraction", "0", "--out", str(out)]),
        (1, ["generate", "--bogus"]),
        (2, ["bwdm", str(tmp_path / "missing.csv"), "--out", str(out)]),
        (3, ["hdbwdm", str(dup), "--k", "2", "--p", "3", "--alpha", "0", "--out", str(out)]),
    ]
    for code, argv in cases:
        shutil.rmtree(out, ignore_errors=True)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out or captured.err
        written = _files(out)
        shutil.rmtree(out, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, "-m", "hdbwdm.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
        assert _files(out) == written
        assert bool(written) == (code == 0)


_HEAVY_MODULES = """
import json, sys
from hdbwdm.cli import main

def heavy():
    names = (
        "scipy", "scipy.spatial", "scipy.sparse", "scipy.linalg", "concurrent.futures.process",
        "numpy.ma",
    )
    return [m for m in names if m in sys.modules]

out = sys.argv[1]
seen = {"import": heavy()}
codes = [main(["generate", "--n-inliers", "60", "--d", "6", "--k-true", "3", "--out", out])]
codes.append(main(["bwdm", out + "/dataset.csv", "--center", "smedian", "--out", out + "/bw"]))
seen["generate, bwdm"] = heavy()
codes.append(main(["hdbwdm", out + "/dataset.csv", "--k", "3", "--p", "4", "--out", out + "/hd"]))
seen["hdbwdm"] = heavy()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_only_distance_commands_load_scipy(tmp_path):
    # no command imports a scipy package or numpy.ma, or starts a process pool:
    # hdbwdm's k-means and medoids load only scipy's compiled distance extension
    proc = subprocess.run(
        [sys.executable, "-c", _HEAVY_MODULES, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["seen"] == {"import": [], "generate, bwdm": [], "hdbwdm": []}

    argv = ["hdbwdm", str(tmp_path / "dataset.csv"), "--k", "3", "--p", "4"]
    assert main([*argv, "--out", str(tmp_path / "in-process")]) == 0
    in_process = (tmp_path / "in-process" / "report.csv").read_bytes()
    assert in_process == (tmp_path / "hd" / "report.csv").read_bytes()


_LIBRARY_PATHS = """
import sys
from hdbwdm import MixtureConfig, PipelineConfig, bwdm, generate, hd_bwdm, select_k, true_partition
from hdbwdm.harness import run_diagnostic, run_select_k, run_sweep

cfg = MixtureConfig(n_inliers=60, d=12, K_true=3)
ds = generate(cfg)
truth = true_partition(ds)
for kind in ("medoid", "spatial-median"):
    bwdm(ds.X, truth, kind)
    for method in ("rp", "pca"):
        hd_bwdm(ds.X, PipelineConfig(K=3, p=5, projection=method, center_kind=kind))
    template = PipelineConfig(p=5, center_kind=kind)
    select_k(ds.X, range(2, 5), template)
    run_select_k(ds.X, range(2, 5), template, truth)
run_sweep(cfg, [4, 8], ["rp", "pca"], reps=2, alpha=0.1, master_seed=0)
run_diagnostic(cfg, 6, 0.1, 0)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_no_library_path_loads_numpy_ma():
    # np.unique and np.median import all of numpy.ma (about 1.2 MB); the
    # pipeline, the harness and both center kinds call neither
    proc = subprocess.run([sys.executable, "-c", _LIBRARY_PATHS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_BROKEN_KERNEL = """
import sys, types
import numpy as np
import hdbwdm.geometry as geometry
from hdbwdm.cli import run

real = geometry._scipy_extension


def load(name):
    module = real(name)
    return types.SimpleNamespace(
        cdist_sqeuclidean=module.cdist_sqeuclidean,
        cdist_euclidean=lambda XA, XB: np.nextafter(module.cdist_euclidean(XA, XB), np.inf),
        pdist_euclidean=module.pdist_euclidean,
    )


geometry._scipy_extension = load
run(sys.argv[1:])
"""


@pytest.mark.parametrize("command", ["hdbwdm", "bwdm"])
def test_a_kernel_that_fails_its_check_exits_3_with_one_line(tmp_path, command):
    import scipy

    assert main(["generate", "--n-inliers", "60", "--d", "6", "--k-true", "3",
                 "--out", str(tmp_path)]) == 0
    argv = [command, str(tmp_path / "dataset.csv"), "--out", str(tmp_path / "refused")]
    if command == "hdbwdm":
        argv += ["--k", "3", "--p", "4"]
    proc = subprocess.run(
        [sys.executable, "-c", _BROKEN_KERNEL, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        f"import error: scipy {scipy.__version__}'s cdist_euclidean fails its load-time check"
        " against numpy"
    ]
    assert proc.stdout == "" and not (tmp_path / "refused").exists()
