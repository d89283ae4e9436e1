"""Serialization of reports to CSV/JSON and small self-rendered figures.

Floats are written with ``repr`` (shortest round-trip form) and comment
lines carry run provenance as ``# key=value``, so a written file reads
back into an identical in-memory structure and identical runs produce
byte-identical files.  Figures are emitted as minimal static SVG built
by string assembly; no plotting dependency is involved.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict

from .datagen import MixtureConfig
from .errors import DataError
from .harness import DiagnosticReport, RepResult, SelectKReport, SweepCell
from .validity import IndexReport

__all__ = [
    "write_index_report",
    "read_index_report",
    "write_diagnostic",
    "read_diagnostic",
    "write_sweep",
    "read_sweep",
    "write_select_k",
    "diagnostic_figure_svg",
    "sweep_figure_svg",
]

_REPORT_COLS = [
    "abdm", "awdm", "bwdm", "k", "p", "alpha", "projection",
    "center_kind", "seed", "n_used", "degenerate",
]


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if v is None:
        return "none"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _report_row(rep: IndexReport) -> list[str]:
    d = rep.to_dict()
    return [_fmt(d[c]) for c in _REPORT_COLS]


def _report_from_cells(cells: dict) -> IndexReport:
    """``IndexReport.from_dict`` converts the types; only two CSV spellings differ."""
    seed = None if cells["seed"] == "none" else cells["seed"]
    return IndexReport.from_dict({**cells, "seed": seed, "degenerate": cells["degenerate"] == "1"})


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_commented_csv(path):
    """Split a file into ({comment key: value}, header cells, data rows)."""
    meta = {}
    header = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = [c.strip() for c in line.split(",")]
            else:
                rows.append([c.strip() for c in line.split(",")])
    if header is None:
        raise DataError(f"{path} has no header row")
    return meta, header, rows


def _config_comments(cfg: MixtureConfig) -> list[str]:
    d = asdict(cfg)
    lo, hi = d.pop("outlier_range")
    d["outlier_lo"], d["outlier_hi"] = lo, hi
    return [f"# cfg_{k}={_fmt(v)}" for k, v in d.items()]


def _config_from_meta(meta: dict) -> MixtureConfig:
    return MixtureConfig(
        n_inliers=int(meta["cfg_n_inliers"]),
        d=int(meta["cfg_d"]),
        K_true=int(meta["cfg_K_true"]),
        center_spacing=float(meta["cfg_center_spacing"]),
        within_sd=float(meta["cfg_within_sd"]),
        outlier_fraction=float(meta["cfg_outlier_fraction"]),
        outlier_range=(float(meta["cfg_outlier_lo"]), float(meta["cfg_outlier_hi"])),
        seed=int(meta["cfg_seed"]),
    )


def _json_dump(obj, path) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- index report

def write_index_report(report: IndexReport, path, fmt: str = "csv") -> None:
    if fmt == "json":
        _json_dump(report.to_dict(), path)
    else:
        text = ",".join(_REPORT_COLS) + "\n" + ",".join(_report_row(report)) + "\n"
        _write_text(path, text)


def read_index_report(path, fmt: str = "csv") -> IndexReport:
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            return IndexReport.from_dict(json.load(fh))
    _, header, rows = _read_commented_csv(path)
    if len(rows) != 1:
        raise DataError(f"{path} should hold exactly one report row, has {len(rows)}")
    return _report_from_cells(dict(zip(header, rows[0])))


# ----------------------------------------------------------------- diagnostic

_DIAG_ORDER = ["true", "kmeans", "trimmed-kmeans"]


def write_diagnostic(report: DiagnosticReport, out_dir, fmt: str = "csv") -> None:
    """Write diagnostic.{csv|json} plus diagnostic.svg into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "json":
        obj = {
            "config": _config_dict(report.config),
            "p": report.p,
            "alpha": report.alpha,
            "master_seed": report.master_seed,
            "projection_seed": report.projection_seed,
            "entries": {k: v.to_dict() for k, v in report.entries.items()},
        }
        _json_dump(obj, os.path.join(out_dir, "diagnostic.json"))
    else:
        lines = _config_comments(report.config)
        lines += [
            f"# p={report.p}",
            f"# alpha={_fmt(report.alpha)}",
            f"# master_seed={report.master_seed}",
            f"# projection_seed={report.projection_seed}",
            "partition," + ",".join(_REPORT_COLS),
        ]
        for name in _DIAG_ORDER:
            lines.append(name + "," + ",".join(_report_row(report.entries[name])))
        _write_text(os.path.join(out_dir, "diagnostic.csv"), "\n".join(lines) + "\n")
    _write_text(os.path.join(out_dir, "diagnostic.svg"), diagnostic_figure_svg(report))


def _config_dict(cfg: MixtureConfig) -> dict:
    d = asdict(cfg)
    d["outlier_range"] = list(d["outlier_range"])
    return d


def _config_from_dict(d: dict) -> MixtureConfig:
    d = dict(d)
    d["outlier_range"] = tuple(d["outlier_range"])
    return MixtureConfig(**d)


def read_diagnostic(out_dir, fmt: str = "csv") -> DiagnosticReport:
    if fmt == "json":
        with open(os.path.join(out_dir, "diagnostic.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        return DiagnosticReport(
            entries={k: IndexReport.from_dict(v) for k, v in obj["entries"].items()},
            config=_config_from_dict(obj["config"]),
            p=int(obj["p"]),
            alpha=float(obj["alpha"]),
            master_seed=int(obj["master_seed"]),
            projection_seed=int(obj["projection_seed"]),
        )
    meta, header, rows = _read_commented_csv(os.path.join(out_dir, "diagnostic.csv"))
    entries = {}
    for row in rows:
        cells = dict(zip(header, row))
        entries[cells["partition"]] = _report_from_cells(cells)
    return DiagnosticReport(
        entries=entries,
        config=_config_from_meta(meta),
        p=int(meta["p"]),
        alpha=float(meta["alpha"]),
        master_seed=int(meta["master_seed"]),
        projection_seed=int(meta["projection_seed"]),
    )


# ---------------------------------------------------------------------- sweep

def write_sweep(
    cells: list[SweepCell],
    cfg: MixtureConfig,
    alpha: float,
    master_seed: int,
    fresh_data: bool,
    out_dir,
    fmt: str = "csv",
) -> None:
    """Write sweep_cells / sweep_reps plus sweep.svg into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "json":
        obj = {
            "config": _config_dict(cfg),
            "alpha": alpha,
            "master_seed": master_seed,
            "fresh_data": fresh_data,
            "cells": [
                {
                    "p": c.p,
                    "method": c.method,
                    "reps": c.reps,
                    "mean_bwdm": c.mean_bwdm,
                    "sd_bwdm": c.sd_bwdm,
                    "cv": c.cv,
                    "per_rep": [[r.rep, r.seed, r.value] for r in c.per_rep],
                }
                for c in cells
            ],
        }
        _json_dump(obj, os.path.join(out_dir, "sweep.json"))
    else:
        head = _config_comments(cfg) + [
            f"# alpha={_fmt(float(alpha))}",
            f"# master_seed={master_seed}",
            f"# fresh_data={_fmt(bool(fresh_data))}",
        ]
        cell_lines = head + ["p,method,reps,mean_bwdm,sd_bwdm,cv"]
        for c in cells:
            cell_lines.append(
                f"{c.p},{c.method},{c.reps},{_fmt(c.mean_bwdm)},{_fmt(c.sd_bwdm)},{_fmt(c.cv)}"
            )
        _write_text(os.path.join(out_dir, "sweep_cells.csv"), "\n".join(cell_lines) + "\n")
        rep_lines = ["p,method,rep,seed,value"]
        for c in cells:
            for r in c.per_rep:
                rep_lines.append(f"{c.p},{c.method},{r.rep},{r.seed},{_fmt(r.value)}")
        _write_text(os.path.join(out_dir, "sweep_reps.csv"), "\n".join(rep_lines) + "\n")
    _write_text(os.path.join(out_dir, "sweep.svg"), sweep_figure_svg(cells))


def read_sweep(out_dir, fmt: str = "csv"):
    """Read back a written sweep; returns ``(cells, info)``.

    ``info`` holds the provenance: config, alpha, master_seed, fresh_data.
    """
    if fmt == "json":
        with open(os.path.join(out_dir, "sweep.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        cells = [
            SweepCell(
                p=int(c["p"]),
                method=c["method"],
                reps=int(c["reps"]),
                mean_bwdm=float(c["mean_bwdm"]),
                sd_bwdm=float(c["sd_bwdm"]),
                cv=float(c["cv"]),
                per_rep=tuple(
                    RepResult(rep=int(r), seed=int(s), value=float(v)) for r, s, v in c["per_rep"]
                ),
            )
            for c in obj["cells"]
        ]
        info = {
            "config": _config_from_dict(obj["config"]),
            "alpha": float(obj["alpha"]),
            "master_seed": int(obj["master_seed"]),
            "fresh_data": bool(obj["fresh_data"]),
        }
        return cells, info
    meta, header, rows = _read_commented_csv(os.path.join(out_dir, "sweep_cells.csv"))
    _, rep_header, rep_rows = _read_commented_csv(os.path.join(out_dir, "sweep_reps.csv"))
    reps_by_cell: dict[tuple[int, str], list[RepResult]] = {}
    for row in rep_rows:
        cells_row = dict(zip(rep_header, row))
        key = (int(cells_row["p"]), cells_row["method"])
        reps_by_cell.setdefault(key, []).append(
            RepResult(
                rep=int(cells_row["rep"]),
                seed=int(cells_row["seed"]),
                value=float(cells_row["value"]),
            )
        )
    cells = []
    for row in rows:
        c = dict(zip(header, row))
        key = (int(c["p"]), c["method"])
        cells.append(
            SweepCell(
                p=key[0],
                method=key[1],
                reps=int(c["reps"]),
                mean_bwdm=float(c["mean_bwdm"]),
                sd_bwdm=float(c["sd_bwdm"]),
                cv=float(c["cv"]),
                per_rep=tuple(reps_by_cell.get(key, [])),
            )
        )
    info = {
        "config": _config_from_meta(meta),
        "alpha": float(meta["alpha"]),
        "master_seed": int(meta["master_seed"]),
        "fresh_data": meta["fresh_data"] == "1",
    }
    return cells, info


# ------------------------------------------------------------------- select K

def write_select_k(report: SelectKReport, out_dir, fmt: str = "csv") -> None:
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "json":
        obj = {
            "k_star": report.K_star,
            "reports": {str(k): v.to_dict() for k, v in report.reports.items()},
            "true_report": None if report.true_report is None else report.true_report.to_dict(),
        }
        _json_dump(obj, os.path.join(out_dir, "selectk.json"))
        return
    lines = [f"# k_star={report.K_star}", "candidate_k," + ",".join(_REPORT_COLS)]
    for k in sorted(report.reports):
        lines.append(f"{k}," + ",".join(_report_row(report.reports[k])))
    if report.true_report is not None:
        lines.append("true," + ",".join(_report_row(report.true_report)))
    _write_text(os.path.join(out_dir, "selectk.csv"), "\n".join(lines) + "\n")


# -------------------------------------------------------------------- figures

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_COLORS = {"rp": "#1f77b4", "pca": "#d62728"}


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]


def _axes(parts: list[str]) -> None:
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT
    parts.append(
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" stroke="black" fill="none"/>'
    )


def sweep_figure_svg(cells: list[SweepCell]) -> str:
    """Mean bwdm vs p with +-1 sd whiskers, one polyline per method."""
    ps = sorted({c.p for c in cells})
    methods = sorted({c.method for c in cells})
    top = max(c.mean_bwdm + (0.0 if math.isnan(c.sd_bwdm) else c.sd_bwdm) for c in cells)
    top = top * 1.1 if top > 0 else 1.0
    lo_p, hi_p = min(ps), max(ps)
    span = (hi_p - lo_p) or 1

    def sx(p):
        return _ML + (_W - _ML - _MR) * (p - lo_p + 0.1 * span) / (1.2 * span)

    def sy(v):
        return (_H - _MB) - (_H - _MB - _MT) * v / top

    parts = _svg_open("mean bwdm by projection dimension")
    _axes(parts)
    for i in range(5):
        v = top * i / 4
        y = sy(v)
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{v:.1f}</text>'
        )
    for p in ps:
        x = sx(p)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 18}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{p}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">projection dimension p</text>'
    )
    for mi, method in enumerate(methods):
        color = _COLORS.get(method, "#333333")
        pts = [(c.p, c.mean_bwdm, c.sd_bwdm) for c in cells if c.method == method]
        pts.sort()
        path = " ".join(f"{sx(p):.2f},{sy(m):.2f}" for p, m, _ in pts)
        parts.append(f'<polyline points="{path}" stroke="{color}" fill="none" stroke-width="2"/>')
        for p, m, s in pts:
            x = sx(p)
            parts.append(f'<circle cx="{x:.2f}" cy="{sy(m):.2f}" r="3" fill="{color}"/>')
            if not math.isnan(s):
                parts.append(
                    f'<line x1="{x:.2f}" y1="{sy(m - s):.2f}" x2="{x:.2f}" y2="{sy(m + s):.2f}" '
                    f'stroke="{color}"/>'
                )
        ly = _MT + 16 * (mi + 1)
        parts.append(
            f'<line x1="{_W - _MR - 90}" y1="{ly}" x2="{_W - _MR - 66}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 60}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{method}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def diagnostic_figure_svg(report: DiagnosticReport) -> str:
    """Grouped abdm/awdm bars per partition on a log scale, bwdm printed above."""
    names = [n for n in _DIAG_ORDER if n in report.entries]
    vals = []
    for n in names:
        e = report.entries[n]
        vals.extend([e.abdm, max(e.awdm, 1e-12)])
    lo = min(math.log10(v) for v in vals) - 0.3
    hi = max(math.log10(v) for v in vals) + 0.3

    def sy(v):
        frac = (math.log10(v) - lo) / (hi - lo)
        return (_H - _MB) - (_H - _MB - _MT) * frac

    parts = _svg_open("between and within distance components (log scale)")
    _axes(parts)
    group_w = (_W - _ML - _MR) / max(len(names), 1)
    bar_w = group_w * 0.28
    for gi, name in enumerate(names):
        e = report.entries[name]
        cx = _ML + group_w * (gi + 0.5)
        for bi, (v, color, label) in enumerate(
            [(e.abdm, "#1f77b4", "abdm"), (max(e.awdm, 1e-12), "#ff7f0e", "awdm")]
        ):
            x = cx + (bi - 1) * bar_w + bar_w * 0.1
            y = sy(v)
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w * 0.8:.2f}" '
                f'height="{_H - _MB - y:.2f}" fill="{color}"/>'
            )
        bw = "inf" if math.isinf(e.bwdm) else f"{e.bwdm:.2f}"
        parts.append(
            f'<text x="{cx:.2f}" y="{_MT + 14}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">bwdm={bw}</text>'
        )
        parts.append(
            f'<text x="{cx:.2f}" y="{_H - _MB + 18}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif">{name}</text>'
        )
    for bi, (color, label) in enumerate([("#1f77b4", "abdm"), ("#ff7f0e", "awdm")]):
        ly = _MT + 16 * (bi + 1)
        parts.append(f'<rect x="{_W - _MR - 90}" y="{ly - 8}" width="12" height="10" fill="{color}"/>')
        parts.append(
            f'<text x="{_W - _MR - 72}" y="{ly}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
