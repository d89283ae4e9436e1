"""Command line front end.

Subcommands: generate, bwdm, hdbwdm, diagnostic, sweep, selectk.  Every
subcommand takes ``--out DIR`` and ``--format csv|json``.  Exit codes:
0 success, 1 usage error (an argument the parser refuses, or a
:class:`UsageError`, raised where the library checks the value), 2 data
error, 3 numerical failure or out of memory.  Each error is one line on
stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import NoReturn

from .clustering import Partition
from .datagen import (
    MixtureConfig,
    generate,
    read_dataset_csv,
    true_partition,
    write_dataset_csv,
)
from .errors import DataError, NumericalError, UsageError
from .harness import run_diagnostic, run_select_k, run_sweep
from .projection import _KINDS
from .reports import (
    write_dataset_json,
    write_diagnostic,
    write_index_report,
    write_select_k,
    write_sweep,
)
from .validity import PipelineConfig, bwdm, hd_bwdm

_CENTER_NAMES = {"medoid": "medoid", "smedian": "spatial-median"}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are one ``usage error:`` line and exit 1."""

    def error(self, message) -> NoReturn:
        print(f"usage error: {self.prog}: {message}", file=sys.stderr)
        sys.exit(1)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_mixture(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("mixture")
    g.add_argument("--n-inliers", type=int, default=MixtureConfig.n_inliers)
    g.add_argument("--d", type=int, default=MixtureConfig.d)
    g.add_argument("--k-true", type=int, default=MixtureConfig.K_true)
    g.add_argument("--spacing", type=float, default=MixtureConfig.center_spacing)
    g.add_argument("--within-sd", type=float, default=MixtureConfig.within_sd)
    g.add_argument("--outlier-fraction", type=float, default=MixtureConfig.outlier_fraction)
    g.add_argument("--outlier-lo", type=float, default=MixtureConfig.outlier_range[0])
    g.add_argument("--outlier-hi", type=float, default=MixtureConfig.outlier_range[1])


def _add_pipeline(parser: argparse.ArgumentParser, p_default: int | None = None) -> None:
    """The flags ``hdbwdm`` and ``selectk`` share; ``--p`` is required without a default."""
    parser.add_argument("--p", type=int, required=p_default is None, default=p_default)
    parser.add_argument("--alpha", type=float, default=PipelineConfig.alpha)
    parser.add_argument("--method", choices=_KINDS, default=PipelineConfig.projection)
    center = {kind: flag for flag, kind in _CENTER_NAMES.items()}[PipelineConfig.center_kind]
    parser.add_argument("--center", choices=sorted(_CENTER_NAMES), default=center)
    parser.add_argument("--seed", type=int, default=PipelineConfig.seed)
    parser.add_argument("--no-scale", action="store_true", help="skip median/MAD scaling")


def _mixture_from(args) -> MixtureConfig:
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


def _pipeline_from(args, K=None) -> PipelineConfig:
    return PipelineConfig(
        K=K,
        p=args.p,
        alpha=args.alpha,
        projection=args.method,
        center_kind=_CENTER_NAMES[args.center],
        seed=args.seed,
        scale=not args.no_scale,
    )


def _cmd_generate(args) -> int:
    ds = generate(_mixture_from(args))
    os.makedirs(args.out, exist_ok=True)
    if args.format == "json":
        path = os.path.join(args.out, "dataset.json")
        write_dataset_json(ds, path)
    else:
        path = os.path.join(args.out, "dataset.csv")
        write_dataset_csv(ds.X, ds.labels, path, header=not args.no_header)
    print(f"wrote {path} ({ds.X.shape[0]} rows, {ds.X.shape[1]} columns)")
    return 0


def _partition_from_labels(y) -> Partition:
    part = Partition(labels=y, alpha=0.0)
    if part.K < 2:
        raise DataError(f"need at least 2 cluster labels, found {part.K}")
    return part


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
    cfg = _pipeline_from(args, K=args.k)
    report = hd_bwdm(read_dataset_csv(args.input)[0], cfg)  # no name: hd_bwdm frees the raw rows
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"report.{args.format}")
    write_index_report(report, path, args.format)
    print(f"hd-bwdm={report.bwdm!r} (K={report.K}, p={report.p}, {report.projection})")
    print(f"wrote {path}")
    return 0


def _cmd_diagnostic(args) -> int:
    report = run_diagnostic(_mixture_from(args), args.p, args.alpha, args.seed)
    write_diagnostic(report, args.out, args.format)
    for name, e in report.entries.items():
        print(f"{name}: bwdm={e.bwdm!r} (abdm={e.abdm!r}, awdm={e.awdm!r})")
    print(f"wrote {os.path.join(args.out, 'diagnostic.' + args.format)}")
    return 0


def _parse_list(text: str, cast, flag: str):
    try:
        values = [cast(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse {flag} {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"{flag} is empty")
    return values


def _cmd_sweep(args) -> int:
    cfg = _mixture_from(args)
    p_values = _parse_list(args.p_list, int, "--p-list")
    methods = _parse_list(args.methods, str, "--methods")
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
        raise UsageError(f"need 2 <= --k-min <= --k-max, got {args.k_min}..{args.k_max}")
    cfg = _pipeline_from(args)
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
    parser = _Parser(
        prog="hdbwdm",
        description="Robust cluster validity for high-dimensional data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a benchmark mixture dataset")
    _add_mixture(p)
    p.add_argument("--seed", type=int, default=MixtureConfig.seed)
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
    _add_pipeline(p)
    _add_common(p)
    p.set_defaults(func=_cmd_hdbwdm)

    p = sub.add_parser("diagnostic", help="true vs fitted partitions on one dataset")
    _add_mixture(p)
    p.add_argument("--p", type=int, default=150)
    p.add_argument("--alpha", type=float, default=PipelineConfig.alpha)
    p.add_argument("--seed", type=int, default=MixtureConfig.seed)
    _add_common(p)
    p.set_defaults(func=_cmd_diagnostic)

    p = sub.add_parser("sweep", help="replicated index sweep over p and methods")
    _add_mixture(p)
    p.add_argument("--p-list", default="150,300,400", help="comma-separated p values")
    methods = ",".join(_KINDS)
    p.add_argument("--methods", default=methods, help=f"comma-separated subset of {methods}")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--alpha", type=float, default=PipelineConfig.alpha)
    p.add_argument("--seed", type=int, default=MixtureConfig.seed)
    p.add_argument("--fresh-data", action="store_true", help="regenerate data per replication")
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("selectk", help="choose K by maximizing the index")
    p.add_argument("--input", help="dataset CSV; omit to generate the benchmark mixture")
    _add_mixture(p)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=8)
    _add_pipeline(p, p_default=150)
    p.add_argument("--score-true", action="store_true", help="also score the true labels")
    _add_common(p)
    p.set_defaults(func=_cmd_selectk)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = " ".join(str(exc).split()) or "allocation failed"
        print(f"out of memory: {detail}", file=sys.stderr)
        return 3
    except ImportError as exc:  # a scipy distance kernel missing or failing its check
        print(f"import error: {exc}", file=sys.stderr)
        return 3


def run(argv=None) -> NoReturn:
    """Process entry point: run :func:`main`, flush stdout and stderr, then ``os._exit``.

    Ending with ``os._exit`` skips the interpreter's teardown (module
    cleanup and the shutdown of the BLAS thread pool), a fixed cost of
    every process.  Every file a command writes is closed before ``main``
    returns, so the two standard streams are all that is left to flush.
    An exception that escapes ``main`` takes the normal path: traceback,
    then the usual interpreter exit.
    """
    code = main(argv)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
