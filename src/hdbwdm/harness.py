"""Experiment orchestration: diagnostics, projection sweeps, K scans.

Every run is driven by one master seed.  Sub-seeds are derived with
``derive_seed(master, *path)``, a pure function of the master seed and a
small integer path, so replication r of a sweep cell receives the same
seed no matter which other cells run or how many workers are used.
Outputs are therefore byte-identical across parallelism levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import Partition, kmeans, trimmed_kmeans
from .datagen import MixtureConfig, generate, true_partition
from .errors import NumericalError, UsageError
from .projection import fit_pca, fit_random_projection, project
from .validity import IndexReport, PipelineConfig, SelectKResult, hd_bwdm, select_k
from .validity import _admit, _embed, _fit_model, _score

__all__ = [
    "RepResult",
    "SweepCell",
    "DiagnosticReport",
    "derive_seed",
    "run_diagnostic",
    "run_sweep",
    "run_select_k",
]

_METHOD_CODES = {"rp": 0, "pca": 1}

# path tags under the master seed
_TAG_DATASET = 0
_TAG_REPLICATION = 1


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic 64-bit sub-seed for a (master, path...) address."""
    ss = np.random.SeedSequence([int(master_seed), *(int(x) for x in path)])
    return int(ss.generate_state(1, np.uint64)[0])


def _replication_stats(values) -> tuple[float, float, float]:
    """``(mean, sd, cv)`` of replicate values.

    ``sd`` uses the n-1 divisor and is NaN for a single value; ``cv`` is
    NaN whenever ``sd`` is undefined or the mean is zero.
    """
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValueError("replication statistics need at least one value")
    mean = float(vals.mean())
    # degenerate replicates carry +inf; inf - inf inside std is the
    # expected NaN outcome, not a condition worth a numpy warning
    with np.errstate(invalid="ignore"):
        sd = float(vals.std(ddof=1)) if vals.size > 1 else math.nan
    cv = sd / mean if not math.isnan(sd) and mean != 0.0 else math.nan
    return mean, sd, cv


@dataclass(frozen=True)
class DiagnosticReport:
    """One dataset, one embedding, the index for three partitions.

    ``entries`` holds IndexReports keyed "true", "kmeans" and
    "trimmed-kmeans", all computed on the same projected data with
    medoid centers.
    """

    entries: dict[str, IndexReport]
    config: MixtureConfig
    p: int
    alpha: float
    master_seed: int
    projection_seed: int


def run_diagnostic(cfg: MixtureConfig, p: int, alpha: float, seed: int) -> DiagnosticReport:
    """Compare the index across true / k-means / trimmed partitions.

    The dataset seed, projection seed and the two clusterer seeds are all
    derived from ``seed``; ``cfg.seed`` is ignored.  The data is robustly
    scaled and sent through one Gaussian random projection, then scored
    with the true labels (outliers pre-trimmed), a plain k-means fit and
    a trimmed k-means fit at ``alpha``, each with medoid centers.
    ``cfg.K_true``, ``p``, ``alpha`` and ``seed`` are checked before any
    data is drawn, ``p`` against ``cfg.d`` and ``cfg.K_true`` against the
    rows the trimmed fit retains included.
    """
    pcfg = PipelineConfig(K=cfg.K_true, p=p, alpha=alpha, seed=seed)
    _admit(pcfg, cfg.n_total, cfg.d)
    ds_seed, proj_seed, km_seed, tk_seed = (derive_seed(seed, i) for i in range(4))
    model = fit_random_projection(cfg.d, p, proj_seed)
    ds = generate(replace(cfg, seed=ds_seed))
    Xp = project(_embed(ds.X, True), model)

    parts = {
        "true": true_partition(ds),
        "kmeans": kmeans(Xp, cfg.K_true, seed=km_seed),
        "trimmed-kmeans": trimmed_kmeans(Xp, cfg.K_true, alpha, seed=tk_seed),
    }
    entries = {name: _score(Xp, pcfg, part) for name, part in parts.items()}
    return DiagnosticReport(
        entries=entries,
        config=replace(cfg, seed=ds_seed),
        p=int(p),
        alpha=float(alpha),
        master_seed=int(seed),
        projection_seed=proj_seed,
    )


@dataclass(frozen=True)
class RepResult:
    """One successful replication inside a sweep cell."""

    rep: int
    seed: int
    value: float


@dataclass(frozen=True)
class SweepCell:
    """Aggregated replications for one (p, method) combination."""

    p: int
    method: str
    reps: int
    mean_bwdm: float
    sd_bwdm: float
    cv: float
    per_rep: tuple[RepResult, ...]

    def __post_init__(self):
        if self.reps != len(self.per_rep):
            raise ValueError(f"reps={self.reps} but {len(self.per_rep)} replication records")


_SWEEP = None  # a pool worker's copy of the running sweep's shared state


def _init_worker(sweep) -> None:
    global _SWEEP
    _SWEEP = sweep


def _sweep_job(job, sweep=None):
    """One replication; module-level so worker processes can unpickle it.

    ``sweep`` is ``(cfg, alpha, scaled X, {p: PCA-projected rows})``, with
    X None for fresh data; pool workers get it once, from :func:`_init_worker`.
    """
    p, method, rep, rep_seed = job
    cfg, alpha, Xs, pca_rows = _SWEEP if sweep is None else sweep
    pcfg = PipelineConfig(
        K=cfg.K_true,
        p=p,
        alpha=alpha,
        projection=method,
        center_kind="medoid",
        seed=derive_seed(rep_seed, _TAG_REPLICATION),
    )
    try:
        if Xs is None:  # fresh data: one dataset and one embedding per replication
            Xs, pca_rows = _embedding(cfg, rep_seed, [p], [method])
        Xp = pca_rows[p] if method == "pca" else project(Xs, _fit_model(Xs, pcfg))
        report = _score(Xp, pcfg)
    except (ValueError, NumericalError) as exc:
        return (p, method, rep, rep_seed, None, str(exc))
    return (p, method, rep, rep_seed, report.bwdm, None)


def _embedding(cfg, seed, p_values, methods):
    """The dataset of ``seed`` scaled once, and its PCA projection at each p.

    One PCA fit at the largest p serves them all: loadings are signed row
    by row, so their leading rows are bitwise the fit at a smaller p.
    """
    Xs = _embed(generate(replace(cfg, seed=derive_seed(seed, _TAG_DATASET))).X, True)
    if "pca" not in methods:
        return Xs, {}
    top = fit_pca(Xs, max(p_values))
    m, ev = top.matrix, top.explained_variance
    return Xs, {
        p: project(Xs, replace(top, matrix=m[:p], explained_variance=ev[:p]))
        for p in p_values
    }


def run_sweep(
    cfg: MixtureConfig,
    p_values,
    methods,
    reps: int,
    alpha: float,
    master_seed: int,
    fresh_data: bool = False,
    n_workers: int = 1,
) -> list[SweepCell]:
    """Replicated index evaluation over a (p, method) grid.

    By default every replication reuses one dataset generated from the
    master seed and varies only the projection and clustering seeds;
    ``fresh_data=True`` regenerates the dataset per replication.  Every
    argument, each (p, method) against ``cfg``'s shape and ``cfg.K_true``
    against the rows ``alpha`` retains included, is checked before any
    data is drawn.  Failed replications are dropped; a cell with more
    than 20% failures raises a :class:`NumericalError`.  Replications may
    run across up to ``n_workers`` processes, never more than there are
    replications, without changing any output.
    """
    p_values = [int(p) for p in p_values]
    methods = list(methods)
    if not p_values or not methods:
        raise UsageError("p_values and methods must be non-empty")
    for m in methods:
        if m not in _METHOD_CODES:
            raise UsageError(f"unknown method {m!r}, expected one of {sorted(_METHOD_CODES)}")
    for name, values in (("p_values", p_values), ("methods", methods)):
        if len(set(values)) < len(values):
            raise UsageError(f"{name} must not repeat, got {values}")
    if reps < 2:
        raise UsageError(f"reps must be >= 2, got {reps}")
    if n_workers < 1:
        raise UsageError(f"n_workers must be >= 1, got {n_workers}")
    for p in p_values:  # what a single hd_bwdm call on the sweep's data would refuse
        for method in methods:
            pcfg = PipelineConfig(K=cfg.K_true, p=p, alpha=alpha, projection=method)
            _admit(pcfg, cfg.n_total, cfg.d)

    fixed = (None, None) if fresh_data else _embedding(cfg, master_seed, p_values, methods)
    sweep = (cfg, float(alpha), *fixed)
    jobs = [
        (p, method, rep, derive_seed(master_seed, _TAG_REPLICATION, p, _METHOD_CODES[method], rep))
        for p in p_values
        for method in methods
        for rep in range(reps)
    ]
    n_workers = min(n_workers, len(jobs))  # a pool starts all its workers up front
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import; only pools need it

        with ProcessPoolExecutor(n_workers, initializer=_init_worker, initargs=(sweep,)) as pool:
            results = list(pool.map(_sweep_job, jobs, chunksize=1))
    else:
        results = [_sweep_job(job, sweep) for job in jobs]

    # results come back in job order, so each cell is one run of reps rows, reps ascending
    cells = []
    for start in range(0, len(jobs), reps):
        p, method = jobs[start][:2]
        rows = results[start:start + reps]
        ok = [RepResult(rep=r, seed=s, value=v) for _, _, r, s, v, e in rows if e is None]
        failed = [(r, e) for _, _, r, _, _, e in rows if e is not None]
        if len(failed) > 0.2 * reps:
            raise NumericalError(
                f"cell (p={p}, method={method}) failed {len(failed)}/{reps} replications; "
                f"first failure: rep {failed[0][0]}: {failed[0][1]}"
            )
        mean, sd, cv = _replication_stats([r.value for r in ok])
        cells.append(
            SweepCell(
                p=p,
                method=method,
                reps=len(ok),
                mean_bwdm=mean,
                sd_bwdm=sd,
                cv=cv,
                per_rep=tuple(ok),
            )
        )
    return cells


def run_select_k(
    X,
    k_range,
    cfg_template: PipelineConfig,
    truth: Partition | None = None,
) -> SelectKResult:
    """Scan K over shared-embedding fits; optionally score a known partition.

    ``truth`` (for example :func:`true_partition` of a generated dataset,
    outliers marked TRIMMED) is scored in the same embedding the scan
    used, as the result's ``true_report``; it is never shown to the K
    scan's fits.  A ``truth`` of the wrong length is refused before the
    scan starts.
    """
    # scale once here so the truth score reuses the scan's scaled rows
    Xs = _embed(X, cfg_template.scale)
    cfg = replace(cfg_template, K=None, scale=False)  # the scan reads no K, and a truth fixes its own
    _admit(cfg, *Xs.shape, truth)
    result = select_k(Xs, k_range, cfg)
    if truth is None:
        return result
    return replace(result, true_report=hd_bwdm(Xs, cfg, truth, result.model))
