"""Serialization of reports to CSV/JSON and small self-rendered figures.

One CSV codec and one JSON codec serve every report kind.  Floats are
written with ``repr`` (shortest round-trip form) and CSV comment lines
carry run provenance as ``# key=value``, so a written file reads back
into an identical in-memory structure and identical runs give
byte-identical files.  Figures are minimal static SVG; no plotting
dependency is involved.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, fields

from .datagen import MixtureConfig
from .errors import DataError
from .harness import DiagnosticReport, RepResult, SweepCell
from .validity import IndexReport, SelectKResult

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
# the scalar fields of a kind, each with the type it reads back as
_DIAG_FIELDS = dict(p=int, alpha=float, master_seed=int, projection_seed=int)
_CELL_FIELDS = dict(p=int, method=str, reps=int, mean_bwdm=float, sd_bwdm=float, cv=float)
_DIAG_ORDER = ["true", "kmeans", "trimmed-kmeans"]


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if v is None:
        return "none"
    if isinstance(v, float):
        return repr(float(v))  # a numpy float64 is a float whose repr names its type
    return str(v)


# ---------------------------------------------------------------------- codec

def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path, header, rows, meta=None) -> None:
    """``# key=value`` comment lines, then the header, then one line per row."""
    lines = [f"# {key}={_fmt(value)}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _read_csv(path):
    """Read a ``_write_csv`` file back as ({comment key: value}, [{header cell: cell}])."""
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
                continue
            cells = [c.strip() for c in line.split(",")]
            if header is None:
                header = cells
            elif len(cells) != len(header):
                raise DataError(
                    f"{path} has a row of {len(cells)} cells, but its header has {len(header)}"
                )
            else:
                rows.append(dict(zip(header, cells)))
    if header is None:
        raise DataError(f"{path} has no header row")
    return meta, rows


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _report_row(rep: IndexReport) -> list:
    d = rep.to_dict()
    return [d[c] for c in _REPORT_COLS]


def _report_from_cells(cells: dict) -> IndexReport:
    """``IndexReport.from_dict`` converts the types; only two CSV spellings differ."""
    seed = None if cells["seed"] == "none" else cells["seed"]
    return IndexReport.from_dict({**cells, "seed": seed, "degenerate": cells["degenerate"] == "1"})


def _config_dict(cfg: MixtureConfig) -> dict:
    d = asdict(cfg)
    d["outlier_range"] = list(d["outlier_range"])
    return d


def _config_comments(cfg: MixtureConfig) -> dict:
    """``_config_dict`` as CSV ``cfg_*`` comments, the range split into a trailing lo, hi."""
    d = _config_dict(cfg)
    d["outlier_lo"], d["outlier_hi"] = d.pop("outlier_range")
    return {f"cfg_{k}": v for k, v in d.items()}


def _config_from(info: dict) -> MixtureConfig:
    """Decode the config of a JSON report (``config``) or of a CSV one (``cfg_*`` comments)."""
    if "config" in info:
        d = info["config"]
    else:
        d = {k[len("cfg_"):]: v for k, v in info.items() if k.startswith("cfg_")}
        d["outlier_range"] = (d.pop("outlier_lo"), d.pop("outlier_hi"))
    kinds = {f.name: type(f.default) for f in fields(MixtureConfig)}
    return MixtureConfig(**{
        k: tuple(map(float, v)) if kinds[k] is tuple else kinds[k](v) for k, v in d.items()
    })


# ---------------------------------------------------------------- index report

def write_index_report(report: IndexReport, path, fmt: str = "csv") -> None:
    if fmt == "json":
        _write_json(path, report.to_dict())
    else:
        _write_csv(path, _REPORT_COLS, [_report_row(report)])


def read_index_report(path, fmt: str = "csv") -> IndexReport:
    if fmt == "json":
        return IndexReport.from_dict(_read_json(path))
    _, rows = _read_csv(path)
    if len(rows) != 1:
        raise DataError(f"{path} should hold exactly one report row, has {len(rows)}")
    return _report_from_cells(rows[0])


# ----------------------------------------------------------------- diagnostic

def write_diagnostic(report: DiagnosticReport, out_dir, fmt: str = "csv") -> None:
    """Write diagnostic.{csv|json} plus diagnostic.svg into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    info = {f: getattr(report, f) for f in _DIAG_FIELDS}
    if fmt == "json":
        entries = {k: v.to_dict() for k, v in report.entries.items()}
        obj = {"config": _config_dict(report.config), **info, "entries": entries}
        _write_json(os.path.join(out_dir, "diagnostic.json"), obj)
    else:
        rows = [[name, *_report_row(report.entries[name])] for name in _DIAG_ORDER]
        _write_csv(
            os.path.join(out_dir, "diagnostic.csv"),
            ["partition", *_REPORT_COLS],
            rows,
            {**_config_comments(report.config), **info},
        )
    _write_text(os.path.join(out_dir, "diagnostic.svg"), diagnostic_figure_svg(report))


def read_diagnostic(out_dir, fmt: str = "csv") -> DiagnosticReport:
    if fmt == "json":
        info = _read_json(os.path.join(out_dir, "diagnostic.json"))
        entries = {k: IndexReport.from_dict(v) for k, v in info["entries"].items()}
    else:
        info, rows = _read_csv(os.path.join(out_dir, "diagnostic.csv"))
        entries = {row["partition"]: _report_from_cells(row) for row in rows}
    return DiagnosticReport(
        entries=entries,
        config=_config_from(info),
        **{f: kind(info[f]) for f, kind in _DIAG_FIELDS.items()},
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
                {**{f: getattr(c, f) for f in _CELL_FIELDS},
                 "per_rep": [[r.rep, r.seed, r.value] for r in c.per_rep]}
                for c in cells
            ],
        }
        _write_json(os.path.join(out_dir, "sweep.json"), obj)
    else:
        meta = {
            **_config_comments(cfg),
            "alpha": float(alpha),
            "master_seed": master_seed,
            "fresh_data": bool(fresh_data),
        }
        rows = [[getattr(c, f) for f in _CELL_FIELDS] for c in cells]
        _write_csv(os.path.join(out_dir, "sweep_cells.csv"), _CELL_FIELDS, rows, meta)
        rows = [[c.p, c.method, r.rep, r.seed, r.value] for c in cells for r in c.per_rep]
        header = ["p", "method", "rep", "seed", "value"]
        _write_csv(os.path.join(out_dir, "sweep_reps.csv"), header, rows)
    _write_text(os.path.join(out_dir, "sweep.svg"), sweep_figure_svg(cells))


def read_sweep(out_dir, fmt: str = "csv"):
    """Read back a written sweep; returns ``(cells, info)``.

    ``info`` holds the provenance: config, alpha, master_seed, fresh_data.
    """
    if fmt == "json":
        info = _read_json(os.path.join(out_dir, "sweep.json"))
        rows = info["cells"]
    else:
        info, rows = _read_csv(os.path.join(out_dir, "sweep_cells.csv"))
        _, reps = _read_csv(os.path.join(out_dir, "sweep_reps.csv"))
        for c in rows:
            c["per_rep"] = [(r["rep"], r["seed"], r["value"]) for r in reps
                            if (int(r["p"]), r["method"]) == (int(c["p"]), c["method"])]
    cells = [
        SweepCell(
            **{f: kind(c[f]) for f, kind in _CELL_FIELDS.items()},
            per_rep=tuple(
                RepResult(rep=int(r), seed=int(s), value=float(v)) for r, s, v in c["per_rep"]
            ),
        )
        for c in rows
    ]
    return cells, {
        "config": _config_from(info),
        "alpha": float(info["alpha"]),
        "master_seed": int(info["master_seed"]),
        "fresh_data": info["fresh_data"] in (True, "1"),
    }


# ------------------------------------------------------------------- select K

def write_select_k(report: SelectKResult, out_dir, fmt: str = "csv") -> None:
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "json":
        obj = {
            "k_star": report.K_star,
            "reports": {str(k): v.to_dict() for k, v in report.reports.items()},
            "true_report": None if report.true_report is None else report.true_report.to_dict(),
        }
        _write_json(os.path.join(out_dir, "selectk.json"), obj)
        return
    rows = [[k, *_report_row(report.reports[k])] for k in sorted(report.reports)]
    if report.true_report is not None:
        rows.append(["true", *_report_row(report.true_report)])
    _write_csv(
        os.path.join(out_dir, "selectk.csv"),
        ["candidate_k", *_REPORT_COLS],
        rows,
        {"k_star": report.K_star},
    )


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
