"""File round-trips and figure rendering for reports."""

import json
import math

import numpy as np
import pytest

from hdbwdm import (
    DataError,
    IndexReport,
    MixtureConfig,
    PipelineConfig,
    generate,
    hd_bwdm,
    true_partition,
)
from hdbwdm.harness import run_diagnostic, run_select_k, run_sweep
from hdbwdm.reports import (
    diagnostic_figure_svg,
    read_diagnostic,
    read_index_report,
    read_sweep,
    sweep_figure_svg,
    write_diagnostic,
    write_index_report,
    write_select_k,
    write_sweep,
)


def _mixture(**overrides):
    base = dict(n_inliers=40, d=30, K_true=2, outlier_fraction=0.1)
    base.update(overrides)
    return MixtureConfig(**base)


def _one_report():
    X = generate(_mixture(seed=3)).X
    return hd_bwdm(X, PipelineConfig(K=2, p=6, alpha=0.1, seed=5))


def _degenerate_report():
    return IndexReport(
        abdm=2.0,
        awdm=0.0,
        bwdm=math.inf,
        K=2,
        p=None,
        alpha=0.0,
        projection="none",
        center_kind="medoid",
        seed=None,
        n_used=4,
        degenerate=True,
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_index_report_file_round_trip(tmp_path, fmt):
    report = _one_report()
    path = tmp_path / f"report.{fmt}"
    write_index_report(report, path, fmt)
    assert read_index_report(path, fmt) == report


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_index_report_round_trips_inf_and_full_space(tmp_path, fmt):
    report = _degenerate_report()
    path = tmp_path / f"report.{fmt}"
    write_index_report(report, path, fmt)
    back = read_index_report(path, fmt)
    assert back == report
    assert math.isinf(back.bwdm) and back.p is None and back.seed is None


def test_index_report_reader_rejects_multiple_rows(tmp_path):
    report = _one_report()
    path = tmp_path / "report.csv"
    write_index_report(report, path, "csv")
    text = path.read_text()
    path.write_text(text + text.splitlines()[1] + "\n")
    with pytest.raises(DataError, match="exactly one report row"):
        read_index_report(path, "csv")


def test_commented_csv_needs_a_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only=comments\n")
    with pytest.raises(DataError, match="no header"):
        read_index_report(path, "csv")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_diagnostic_round_trip(tmp_path, fmt):
    report = run_diagnostic(_mixture(), p=8, alpha=0.1, seed=5)
    write_diagnostic(report, tmp_path, fmt)
    assert read_diagnostic(tmp_path, fmt) == report
    assert (tmp_path / "diagnostic.svg").exists()


def test_diagnostic_files_are_byte_deterministic(tmp_path):
    report = run_diagnostic(_mixture(), p=8, alpha=0.1, seed=5)
    again = run_diagnostic(_mixture(), p=8, alpha=0.1, seed=5)
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    write_diagnostic(report, a_dir, "csv")
    write_diagnostic(again, b_dir, "csv")
    for name in ("diagnostic.csv", "diagnostic.svg"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_diagnostic_csv_rows_carry_the_ratio(tmp_path):
    report = run_diagnostic(_mixture(), p=8, alpha=0.1, seed=7)
    write_diagnostic(report, tmp_path, "csv")
    lines = (tmp_path / "diagnostic.csv").read_text().splitlines()
    header = next(l for l in lines if l.startswith("partition,")).split(",")
    for line in lines:
        name = line.split(",", 1)[0]
        if name in ("true", "kmeans", "trimmed-kmeans"):
            cells = dict(zip(header, line.split(",")))
            ratio = float(cells["abdm"]) / float(cells["awdm"])
            assert float(cells["bwdm"]) == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_round_trip(tmp_path, fmt):
    cfg = _mixture()
    cells = run_sweep(cfg, [6, 10], ["rp", "pca"], reps=3, alpha=0.1, master_seed=9)
    write_sweep(cells, cfg, 0.1, 9, False, tmp_path, fmt)
    back, info = read_sweep(tmp_path, fmt)
    assert back == cells
    assert info["config"] == cfg
    assert info["alpha"] == 0.1
    assert info["master_seed"] == 9
    assert info["fresh_data"] is False
    assert (tmp_path / "sweep.svg").exists()


def test_sweep_round_trip_preserves_fresh_data_flag(tmp_path):
    cfg = _mixture()
    cells = run_sweep(cfg, [6], ["rp"], reps=2, alpha=0.1, master_seed=1, fresh_data=True)
    write_sweep(cells, cfg, 0.1, 1, True, tmp_path, "csv")
    _, info = read_sweep(tmp_path, "csv")
    assert info["fresh_data"] is True


def test_sweep_files_identical_across_worker_counts(tmp_path):
    cfg = _mixture()
    serial = run_sweep(cfg, [6], ["rp", "pca"], reps=3, alpha=0.1, master_seed=4)
    pooled = run_sweep(cfg, [6], ["rp", "pca"], reps=3, alpha=0.1, master_seed=4, n_workers=2)
    a_dir = tmp_path / "serial"
    b_dir = tmp_path / "pooled"
    write_sweep(serial, cfg, 0.1, 4, False, a_dir, "csv")
    write_sweep(pooled, cfg, 0.1, 4, False, b_dir, "csv")
    for name in ("sweep_cells.csv", "sweep_reps.csv", "sweep.svg"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_select_k_writers(tmp_path):
    ds = generate(
        MixtureConfig(n_inliers=40, d=20, K_true=3, center_spacing=40.0,
                      outlier_fraction=0.2, seed=6)
    )
    template = PipelineConfig(K=2, p=8, alpha=0.2, seed=3)
    report = run_select_k(ds.X, range(2, 5), template, truth=true_partition(ds))

    write_select_k(report, tmp_path, "csv")
    lines = (tmp_path / "selectk.csv").read_text().splitlines()
    assert lines[0] == f"# k_star={report.K_star}"
    firsts = [line.split(",", 1)[0] for line in lines[2:]]
    assert firsts == ["2", "3", "4", "true"]

    write_select_k(report, tmp_path, "json")
    obj = json.loads((tmp_path / "selectk.json").read_text())
    assert obj["k_star"] == report.K_star
    assert set(obj["reports"]) == {"2", "3", "4"}
    assert obj["true_report"]["n_used"] == 40
    for k, rep in report.reports.items():
        assert obj["reports"][str(k)]["bwdm"] == rep.bwdm


def test_diagnostic_figure_contents():
    report = run_diagnostic(_mixture(), p=8, alpha=0.1, seed=5)
    svg = diagnostic_figure_svg(report)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    for name in ("true", "kmeans", "trimmed-kmeans"):
        assert f">{name}</text>" in svg
    assert svg.count("<rect") >= 7  # background + two bars per partition
    assert "bwdm=" in svg


def test_sweep_figure_contents():
    cfg = _mixture()
    cells = run_sweep(cfg, [6, 10], ["rp", "pca"], reps=3, alpha=0.1, master_seed=9)
    svg = sweep_figure_svg(cells)
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 2
    assert ">rp</text>" in svg and ">pca</text>" in svg
    assert ">6</text>" in svg and ">10</text>" in svg
    # one marker per (p, method) point and whiskers for defined sds
    assert svg.count("<circle") == 4
