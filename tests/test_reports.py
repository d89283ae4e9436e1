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
    SelectKResult,
    fit_random_projection,
    generate,
    hd_bwdm,
    true_partition,
)
from hdbwdm.harness import (
    DiagnosticReport,
    RepResult,
    SweepCell,
    run_diagnostic,
    run_select_k,
    run_sweep,
)
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
        K=2,
        p=None,
        alpha=0.0,
        projection="none",
        center_kind="medoid",
        seed=None,
        n_used=4,
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


@pytest.mark.parametrize("edit, message", [
    (lambda header, row: [header, row, row], "exactly one report row"),
    (lambda header, row: [header, ",".join(row.split(",")[:8])], "row of 8 cells, but its header has 11"),
    (lambda header, row: [header, row + ",7"], "row of 12 cells, but its header has 11"),
], ids=["extra-row", "short-row", "long-row"])
def test_index_report_reader_rejects_multiple_rows(tmp_path, edit, message):
    report = _one_report()
    path = tmp_path / "report.csv"
    write_index_report(report, path, "csv")
    path.write_text("\n".join(edit(*path.read_text().splitlines())) + "\n")
    with pytest.raises(DataError, match=message) as caught:
        read_index_report(path, "csv")
    assert str(path) in str(caught.value)


def test_report_csv_reader_skips_blank_lines(tmp_path):
    report = _one_report()
    path = tmp_path / "report.csv"
    write_index_report(report, path, "csv")
    header, row = path.read_text().splitlines()
    path.write_text(f"\n{header}\n\n{row}\n\n")
    assert read_index_report(path, "csv") == report


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


@pytest.mark.parametrize("kind", ["diagnostic", "sweep"])
def test_numpy_float_settings_write_as_plain_floats(tmp_path, kind):
    # a numpy float64 setting writes the bytes of the Python float and reads back
    plain = _mixture(within_sd=0.7)
    numpy_valued = _mixture(within_sd=np.float64(0.7))
    for cfg, out in ((plain, tmp_path / "plain"), (numpy_valued, tmp_path / "numpy")):
        if kind == "diagnostic":
            report = run_diagnostic(cfg, p=8, alpha=np.float64(0.1), seed=5)
            write_diagnostic(report, out, "csv")
            assert read_diagnostic(out, "csv") == report
        else:
            cells = run_sweep(cfg, [6], ["rp"], reps=2, alpha=0.1, master_seed=9)
            write_sweep(cells, cfg, np.float64(0.1), 9, False, out, "csv")
            assert read_sweep(out, "csv") == (cells, {
                "config": plain, "alpha": 0.1, "master_seed": 9, "fresh_data": False,
            })
    for path in sorted((tmp_path / "plain").iterdir()):
        assert (tmp_path / "numpy" / path.name).read_bytes() == path.read_bytes()


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


# ------------------------------------------------------------- golden bytes
# Reports built from literals (no clustering, so no BLAS rounding can reach
# them) and the exact text every writer must produce for them.

def _literal_report(abdm, awdm, K, seed, n_used=40):
    return IndexReport(abdm=abdm, awdm=awdm, K=K, p=6, alpha=0.1,
                       projection="rp", center_kind="medoid", seed=seed, n_used=n_used)


_DEGENERATE = IndexReport(abdm=2.0, awdm=0.0, K=2, p=None, alpha=0.0,
                          projection="none", center_kind="spatial-median", seed=None, n_used=4)
_GOLDEN_CONFIG = MixtureConfig(n_inliers=40, d=30, K_true=2, center_spacing=12.5,
                               within_sd=0.5, outlier_fraction=0.1,
                               outlier_range=(-50.0, 50.0), seed=7)

_INDEX_CSV = """\
abdm,awdm,bwdm,k,p,alpha,projection,center_kind,seed,n_used,degenerate
3.0,0.5,6.0,2,6,0.1,rp,medoid,11,40,0
"""
_INDEX_JSON = """\
{
  "abdm": 3.0,
  "alpha": 0.1,
  "awdm": 0.5,
  "bwdm": 6.0,
  "center_kind": "medoid",
  "degenerate": false,
  "k": 2,
  "n_used": 40,
  "p": 6,
  "projection": "rp",
  "seed": 11
}
"""
_DEGENERATE_CSV = """\
abdm,awdm,bwdm,k,p,alpha,projection,center_kind,seed,n_used,degenerate
2.0,0.0,inf,2,FULL,0.0,none,spatial-median,none,4,1
"""
_DEGENERATE_JSON = """\
{
  "abdm": 2.0,
  "alpha": 0.0,
  "awdm": 0.0,
  "bwdm": Infinity,
  "center_kind": "spatial-median",
  "degenerate": true,
  "k": 2,
  "n_used": 4,
  "p": "FULL",
  "projection": "none",
  "seed": null
}
"""
_CONFIG_COMMENTS = """\
# cfg_n_inliers=40
# cfg_d=30
# cfg_K_true=2
# cfg_center_spacing=12.5
# cfg_within_sd=0.5
# cfg_outlier_fraction=0.1
# cfg_seed=7
# cfg_outlier_lo=-50.0
# cfg_outlier_hi=50.0
"""
_CONFIG_JSON = """\
  "config": {
    "K_true": 2,
    "center_spacing": 12.5,
    "d": 30,
    "n_inliers": 40,
    "outlier_fraction": 0.1,
    "outlier_range": [
      -50.0,
      50.0
    ],
    "seed": 7,
    "within_sd": 0.5
  },
"""
_DIAGNOSTIC_CSV = _CONFIG_COMMENTS + """\
# p=6
# alpha=0.1
# master_seed=5
# projection_seed=99
partition,abdm,awdm,bwdm,k,p,alpha,projection,center_kind,seed,n_used,degenerate
true,3.0,1.5,2.0,2,6,0.1,rp,medoid,21,40,0
kmeans,2.0,0.0,inf,2,FULL,0.0,none,spatial-median,none,4,1
trimmed-kmeans,2.5,0.25,10.0,2,6,0.1,rp,medoid,23,40,0
"""
_DIAGNOSTIC_JSON = """\
{
  "alpha": 0.1,
""" + _CONFIG_JSON + """\
  "entries": {
    "kmeans": {
      "abdm": 2.0,
      "alpha": 0.0,
      "awdm": 0.0,
      "bwdm": Infinity,
      "center_kind": "spatial-median",
      "degenerate": true,
      "k": 2,
      "n_used": 4,
      "p": "FULL",
      "projection": "none",
      "seed": null
    },
    "trimmed-kmeans": {
      "abdm": 2.5,
      "alpha": 0.1,
      "awdm": 0.25,
      "bwdm": 10.0,
      "center_kind": "medoid",
      "degenerate": false,
      "k": 2,
      "n_used": 40,
      "p": 6,
      "projection": "rp",
      "seed": 23
    },
    "true": {
      "abdm": 3.0,
      "alpha": 0.1,
      "awdm": 1.5,
      "bwdm": 2.0,
      "center_kind": "medoid",
      "degenerate": false,
      "k": 2,
      "n_used": 40,
      "p": 6,
      "projection": "rp",
      "seed": 21
    }
  },
  "master_seed": 5,
  "p": 6,
  "projection_seed": 99
}
"""
_SWEEP_CELLS_CSV = _CONFIG_COMMENTS + """\
# alpha=0.1
# master_seed=9
# fresh_data=1
p,method,reps,mean_bwdm,sd_bwdm,cv
6,rp,2,1.5,0.3535533905932738,0.23570226039551587
10,pca,1,2.0,nan,nan
"""
_SWEEP_REPS_CSV = """\
p,method,rep,seed,value
6,rp,0,101,1.25
6,rp,2,103,1.75
10,pca,1,202,2.0
"""
_SWEEP_JSON = """\
{
  "alpha": 0.1,
  "cells": [
    {
      "cv": 0.23570226039551587,
      "mean_bwdm": 1.5,
      "method": "rp",
      "p": 6,
      "per_rep": [
        [
          0,
          101,
          1.25
        ],
        [
          2,
          103,
          1.75
        ]
      ],
      "reps": 2,
      "sd_bwdm": 0.3535533905932738
    },
    {
      "cv": NaN,
      "mean_bwdm": 2.0,
      "method": "pca",
      "p": 10,
      "per_rep": [
        [
          1,
          202,
          2.0
        ]
      ],
      "reps": 1,
      "sd_bwdm": NaN
    }
  ],
""" + _CONFIG_JSON + """\
  "fresh_data": true,
  "master_seed": 9
}
"""
_SELECTK_CSV = """\
# k_star=2
candidate_k,abdm,awdm,bwdm,k,p,alpha,projection,center_kind,seed,n_used,degenerate
2,2.0,0.0,inf,2,FULL,0.0,none,spatial-median,none,4,1
3,4.0,0.5,8.0,3,6,0.1,rp,medoid,31,40,0
true,4.5,0.5,9.0,3,6,0.1,rp,medoid,31,36,0
"""
_SELECTK_JSON = """\
{
  "k_star": 2,
  "reports": {
    "2": {
      "abdm": 2.0,
      "alpha": 0.0,
      "awdm": 0.0,
      "bwdm": Infinity,
      "center_kind": "spatial-median",
      "degenerate": true,
      "k": 2,
      "n_used": 4,
      "p": "FULL",
      "projection": "none",
      "seed": null
    },
    "3": {
      "abdm": 4.0,
      "alpha": 0.1,
      "awdm": 0.5,
      "bwdm": 8.0,
      "center_kind": "medoid",
      "degenerate": false,
      "k": 3,
      "n_used": 40,
      "p": 6,
      "projection": "rp",
      "seed": 31
    }
  },
  "true_report": {
    "abdm": 4.5,
    "alpha": 0.1,
    "awdm": 0.5,
    "bwdm": 9.0,
    "center_kind": "medoid",
    "degenerate": false,
    "k": 3,
    "n_used": 36,
    "p": 6,
    "projection": "rp",
    "seed": 31
  }
}
"""


def _write_golden(kind, out, fmt):
    if kind == "index":
        write_index_report(_literal_report(3.0, 0.5, 2, 11), out / f"report.{fmt}", fmt)
    elif kind == "degenerate":
        write_index_report(_DEGENERATE, out / f"report.{fmt}", fmt)
    elif kind == "diagnostic":
        entries = {"true": _literal_report(3.0, 1.5, 2, 21), "kmeans": _DEGENERATE,
                   "trimmed-kmeans": _literal_report(2.5, 0.25, 2, 23)}
        report = DiagnosticReport(entries=entries, config=_GOLDEN_CONFIG, p=6, alpha=0.1,
                                  master_seed=5, projection_seed=99)
        write_diagnostic(report, out, fmt)
    elif kind == "sweep":
        cells = [
            SweepCell(p=6, method="rp", per_rep=(RepResult(0, 101, 1.25), RepResult(2, 103, 1.75))),
            SweepCell(p=10, method="pca", per_rep=(RepResult(1, 202, 2.0),)),
        ]
        write_sweep(cells, _GOLDEN_CONFIG, 0.1, 9, True, out, fmt)
    else:
        # candidates deliberately out of order: the CSV rows come out sorted
        reports = {3: _literal_report(4.0, 0.5, 3, 31), 2: _DEGENERATE}
        true_report = _literal_report(4.5, 0.5, 3, 31, n_used=36)
        result = SelectKResult(reports=reports, model=fit_random_projection(4, 2, 0),
                               true_report=true_report)
        write_select_k(result, out, fmt)


_GOLDEN = {
    ("index", "csv"): {"report.csv": _INDEX_CSV},
    ("index", "json"): {"report.json": _INDEX_JSON},
    ("degenerate", "csv"): {"report.csv": _DEGENERATE_CSV},
    ("degenerate", "json"): {"report.json": _DEGENERATE_JSON},
    ("diagnostic", "csv"): {"diagnostic.csv": _DIAGNOSTIC_CSV},
    ("diagnostic", "json"): {"diagnostic.json": _DIAGNOSTIC_JSON},
    ("sweep", "csv"): {"sweep_cells.csv": _SWEEP_CELLS_CSV, "sweep_reps.csv": _SWEEP_REPS_CSV},
    ("sweep", "json"): {"sweep.json": _SWEEP_JSON},
    ("selectk", "csv"): {"selectk.csv": _SELECTK_CSV},
    ("selectk", "json"): {"selectk.json": _SELECTK_JSON},
}


@pytest.mark.parametrize("kind, fmt", list(_GOLDEN))
def test_report_files_match_golden_bytes(tmp_path, kind, fmt):
    _write_golden(kind, tmp_path, fmt)
    files = _GOLDEN[kind, fmt]
    written = {p.name for p in tmp_path.iterdir() if p.suffix != ".svg"}
    assert written == set(files)
    for name, text in files.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8")


def test_readers_recompute_the_derived_columns(tmp_path):
    # bwdm and degenerate follow abdm and awdm; reps, mean_bwdm, sd_bwdm and
    # cv follow the replications, whatever the derived columns of a file say
    (tmp_path / "report.csv").write_text(_INDEX_CSV.replace(",6.0,", ",7.0,").replace(",0\n", ",1\n"))
    back = read_index_report(tmp_path / "report.csv")
    assert back == _literal_report(3.0, 0.5, 2, 11)
    assert (back.bwdm, back.degenerate) == (6.0, False)
    (tmp_path / "sweep_cells.csv").write_text(_SWEEP_CELLS_CSV.replace("6,rp,2,1.5,", "6,rp,5,9.0,"))
    (tmp_path / "sweep_reps.csv").write_text(_SWEEP_REPS_CSV)
    cells, _ = read_sweep(tmp_path)
    assert (cells[0].reps, cells[0].mean_bwdm, cells[0].sd_bwdm) == (2, 1.5, math.sqrt(0.125))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_readers_skip_a_byte_order_mark(tmp_path, fmt):
    report = _one_report()
    path = tmp_path / f"report.{fmt}"
    write_index_report(report, path, fmt)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read_index_report(path, fmt) == report


def test_diagnostic_entries_keep_their_order_in_both_formats(tmp_path):
    report = run_diagnostic(_mixture(), p=8, alpha=0.1, seed=5)
    orders = [list(report.entries)]
    for fmt in ("csv", "json"):
        write_diagnostic(report, tmp_path / fmt, fmt)
        orders.append(list(read_diagnostic(tmp_path / fmt, fmt).entries))
    assert orders == [["true", "kmeans", "trimmed-kmeans"]] * 3
