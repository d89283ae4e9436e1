"""Subcommand behavior and exit codes of the command line front end."""

import json
import subprocess
import sys

import numpy as np
import pytest

from hdbwdm import MixtureConfig, generate, read_dataset_csv, write_dataset_csv
from hdbwdm.cli import main
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
    # data errors: oversized p, unreadable input
    assert main(["hdbwdm", str(path), "--k", "2", "--p", "99", "--out", str(tmp_path)]) == 2
    assert main(["hdbwdm", str(tmp_path / "nope.csv"), "--k", "2", "--p", "4"]) == 2
    # usage errors: invalid alpha, unknown flag, missing required flag
    assert main(["hdbwdm", str(path), "--k", "2", "--p", "8", "--alpha", "0.7"]) == 1
    assert main(["hdbwdm", str(path), "--k", "2", "--p", "8", "--bogus", "1"]) == 1
    assert main(["hdbwdm", str(path), "--p", "8"]) == 1


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_hdbwdm_non_finite_trailing_column_is_a_data_error(tmp_path, capsys, value):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"1.0,2.0\n3.0,{value}\n")
    assert main(["hdbwdm", str(path), "--k", "2", "--p", "1", "--out", str(tmp_path)]) == 2
    assert "contains non-finite values" in capsys.readouterr().err


def test_hdbwdm_numerical_failure_exit_code(tmp_path):
    # identical rows: every restart converges with an empty second cluster
    dup = tmp_path / "dup.csv"
    write_dataset_csv(np.ones((8, 5)), None, dup)
    code = main(["hdbwdm", str(dup), "--k", "2", "--p", "3", "--alpha", "0",
                 "--out", str(tmp_path)])
    assert code == 3


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
    # coincident-blob construction whose trim step empties a cluster
    assert main([
        "sweep", "--n-inliers", "6", "--d", "12", "--k-true", "2",
        "--within-sd", "1e-300", "--outlier-fraction", "0",
        "--p-list", "4", "--methods", "rp", "--reps", "3",
        "--alpha", "0.45", "--seed", "0", "--out", str(tmp_path),
    ]) == 3


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


def test_selectk_error_exits(tmp_path):
    assert main(["selectk", "--k-min", "5", "--k-max", "3", "--out", str(tmp_path)]) == 1
    assert main([
        "selectk", "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path),
    ]) == 2


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "hdbwdm.cli", "generate",
            "--n-inliers", "8", "--d", "3", "--k-true", "2",
            "--outlier-fraction", "0", "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "dataset.csv").exists()
