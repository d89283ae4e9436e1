"""Command line front end.

Subcommands: generate, bwdm, hdbwdm, diagnostic, sweep, selectk.  Every
subcommand takes ``--out DIR`` and ``--format csv|json``.  Exit codes:
0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .clustering import Partition, TRIMMED
from .datagen import (
    OUTLIER,
    MixtureConfig,
    generate,
    read_dataset_csv,
    true_partition,
    write_dataset_csv,
)
from .errors import DataError, NumericalError
from .harness import run_diagnostic, run_select_k, run_sweep
from .reports import (
    _config_dict,
    write_diagnostic,
    write_index_report,
    write_select_k,
    write_sweep,
)
from .validity import PipelineConfig, bwdm, hd_bwdm

_CENTER_NAMES = {"medoid": "medoid", "smedian": "spatial-median"}


class _UsageError(Exception):
    pass


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_mixture(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("mixture")
    g.add_argument("--n-inliers", type=int, default=500)
    g.add_argument("--d", type=int, default=500)
    g.add_argument("--k-true", type=int, default=5)
    g.add_argument("--spacing", type=float, default=15.0)
    g.add_argument("--within-sd", type=float, default=math.sqrt(0.5))
    g.add_argument("--outlier-fraction", type=float, default=0.10)
    g.add_argument("--outlier-lo", type=float, default=-100.0)
    g.add_argument("--outlier-hi", type=float, default=100.0)


def _mixture_from(args) -> MixtureConfig:
    try:
        return MixtureConfig(
            n_inliers=args.n_inliers,
            d=args.d,
            K_true=args.k_true,
            center_spacing=args.spacing,
            within_sd=args.within_sd,
            outlier_fraction=args.outlier_fraction,
            outlier_range=(args.outlier_lo, args.outlier_hi),
            seed=args.seed,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_generate(args) -> int:
    cfg = _mixture_from(args)
    ds = generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    if args.format == "json":
        obj = {
            "config": _config_dict(cfg),
            "X": ds.X.tolist(),
            "labels": ["OUT" if v == OUTLIER else int(v) for v in ds.labels],
        }
        path = os.path.join(args.out, "dataset.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        path = os.path.join(args.out, "dataset.csv")
        write_dataset_csv(ds.X, ds.labels, path, header=not args.no_header)
    print(f"wrote {path} ({ds.X.shape[0]} rows, {ds.X.shape[1]} columns)")
    return 0


def _partition_from_labels(y: np.ndarray) -> Partition:
    ids = sorted(set(int(v) for v in y if v != OUTLIER))
    if len(ids) < 2:
        raise DataError(f"need at least 2 cluster labels, found {len(ids)}")
    if ids != list(range(len(ids))):
        raise DataError(f"labels must be contiguous 0..K-1 (plus OUT), found {ids}")
    labels = np.where(y == OUTLIER, TRIMMED, y)
    return Partition(labels=labels, K=len(ids), alpha=0.0, source="external")


def _cmd_bwdm(args) -> int:
    X, y = read_dataset_csv(args.input)
    if y is None:
        raise DataError(f"{args.input} has no label column; bwdm needs labels")
    part = _partition_from_labels(y)
    report = bwdm(X, part, _CENTER_NAMES[args.center])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"report.{args.format}")
    write_index_report(report, path, args.format)
    print(f"bwdm={report.bwdm!r} (abdm={report.abdm!r}, awdm={report.awdm!r}, K={report.K})")
    print(f"wrote {path}")
    return 0


def _cmd_hdbwdm(args) -> int:
    X, _ = read_dataset_csv(args.input)
    try:
        cfg = PipelineConfig(
            K=args.k,
            p=args.p,
            alpha=args.alpha,
            projection=args.method,
            center_kind=_CENTER_NAMES[args.center],
            clusterer="trimmed-kmeans",
            seed=args.seed,
            scale=not args.no_scale,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    report = hd_bwdm(X, cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"report.{args.format}")
    write_index_report(report, path, args.format)
    print(f"hd-bwdm={report.bwdm!r} (K={report.K}, p={report.p}, {report.projection})")
    print(f"wrote {path}")
    return 0


def _cmd_diagnostic(args) -> int:
    cfg = _mixture_from(args)
    if not 1 <= args.p <= cfg.d:
        raise _UsageError(f"--p must lie in [1, d], got {args.p}")
    report = run_diagnostic(cfg, args.p, args.alpha, args.seed)
    write_diagnostic(report, args.out, args.format)
    for name in ("true", "kmeans", "trimmed-kmeans"):
        e = report.entries[name]
        print(f"{name}: bwdm={e.bwdm!r} (abdm={e.abdm!r}, awdm={e.awdm!r})")
    print(f"wrote {os.path.join(args.out, 'diagnostic.' + args.format)}")
    return 0


def _parse_list(text: str, cast, flag: str):
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"cannot parse {flag} {text!r}: {exc}") from exc
    if not values:
        raise _UsageError(f"{flag} is empty")
    return values


def _cmd_sweep(args) -> int:
    cfg = _mixture_from(args)
    p_values = _parse_list(args.p_list, int, "--p-list")
    methods = _parse_list(args.methods, str, "--methods")
    for m in methods:
        if m not in ("rp", "pca"):
            raise _UsageError(f"--methods entries must be rp or pca, got {m!r}")
    cells = run_sweep(
        cfg,
        p_values,
        methods,
        reps=args.reps,
        alpha=args.alpha,
        master_seed=args.seed,
        fresh_data=args.fresh_data,
        n_workers=args.workers,
    )
    write_sweep(cells, cfg, args.alpha, args.seed, args.fresh_data, args.out, args.format)
    for c in cells:
        print(
            f"p={c.p} method={c.method} reps={c.reps} "
            f"mean={c.mean_bwdm:.4f} sd={c.sd_bwdm:.4f} cv={c.cv:.4f}"
        )
    print(f"wrote sweep files under {args.out}")
    return 0


def _cmd_selectk(args) -> int:
    if args.k_min < 2 or args.k_max < args.k_min:
        raise _UsageError(f"need 2 <= --k-min <= --k-max, got {args.k_min}..{args.k_max}")
    truth = None
    if args.input is not None:
        X, y = read_dataset_csv(args.input)
        if args.score_true:
            if y is None:
                raise DataError(f"--score-true needs a label column in {args.input}")
            truth = _partition_from_labels(y)
    else:
        ds = generate(_mixture_from(args))
        X = ds.X
        if args.score_true:
            truth = true_partition(ds)
    try:
        cfg = PipelineConfig(
            K=2,
            p=args.p,
            alpha=args.alpha,
            projection=args.method,
            center_kind=_CENTER_NAMES[args.center],
            clusterer="trimmed-kmeans",
            seed=args.seed,
            scale=not args.no_scale,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    report = run_select_k(X, range(args.k_min, args.k_max + 1), cfg, truth)
    write_select_k(report, args.out, args.format)
    print(f"k_star={report.K_star}")
    for k in sorted(report.reports):
        print(f"K={k}: bwdm={report.reports[k].bwdm!r}")
    if report.true_report is not None:
        print(f"true labels: bwdm={report.true_report.bwdm!r}")
    print(f"wrote {os.path.join(args.out, 'selectk.' + args.format)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdbwdm",
        description="Robust cluster validity for high-dimensional data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a benchmark mixture dataset")
    _add_mixture(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-header", action="store_true", help="omit the CSV header row")
    _add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bwdm", help="score a labeled CSV in its original space")
    p.add_argument("input", help="dataset CSV with a trailing label column")
    p.add_argument("--center", choices=sorted(_CENTER_NAMES), default="smedian")
    _add_common(p)
    p.set_defaults(func=_cmd_bwdm)

    p = sub.add_parser("hdbwdm", help="scale, project, cluster and score a CSV")
    p.add_argument("input", help="dataset CSV (label column ignored if present)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--method", choices=("rp", "pca"), default="rp")
    p.add_argument("--center", choices=sorted(_CENTER_NAMES), default="medoid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-scale", action="store_true", help="skip median/MAD scaling")
    _add_common(p)
    p.set_defaults(func=_cmd_hdbwdm)

    p = sub.add_parser("diagnostic", help="true vs fitted partitions on one dataset")
    _add_mixture(p)
    p.add_argument("--p", type=int, default=150)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_diagnostic)

    p = sub.add_parser("sweep", help="replicated index sweep over p and methods")
    _add_mixture(p)
    p.add_argument("--p-list", default="150,300,400", help="comma-separated p values")
    p.add_argument("--methods", default="rp,pca", help="comma-separated subset of rp,pca")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fresh-data", action="store_true", help="regenerate data per replication")
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("selectk", help="choose K by maximizing the index")
    p.add_argument("--input", help="dataset CSV; omit to generate the benchmark mixture")
    _add_mixture(p)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--p", type=int, default=150)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--method", choices=("rp", "pca"), default="rp")
    p.add_argument("--center", choices=sorted(_CENTER_NAMES), default="medoid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-scale", action="store_true")
    p.add_argument("--score-true", action="store_true", help="also score the true labels")
    _add_common(p)
    p.set_defaults(func=_cmd_selectk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
