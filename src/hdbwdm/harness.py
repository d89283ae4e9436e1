"""Experiment orchestration: diagnostics, projection sweeps, K scans.

Every run is driven by one master seed.  Sub-seeds are derived with
``derive_seed(master, *path)``, a pure function of the master seed and a
small integer path, so replication r of a sweep cell receives the same
seed no matter which other cells run or how many workers are used.
Outputs are therefore byte-identical across parallelism levels.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .clustering import Partition, kmeans, trimmed_kmeans
from .datagen import MixtureConfig, generate, true_partition
from .errors import NumericalError
from .projection import fit_pca, fit_random_projection, project
from .validity import IndexReport, PipelineConfig, bwdm, hd_bwdm, select_k
from .validity import _embed, _fit_model, _score

__all__ = [
    "ReplicationStats",
    "RepResult",
    "SweepCell",
    "DiagnosticReport",
    "SelectKReport",
    "derive_seed",
    "replication_stats",
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


@dataclass(frozen=True)
class ReplicationStats:
    """Mean / sample SD / coefficient of variation of replicate values.

    ``sd`` uses the n-1 divisor and is NaN for a single value; ``cv`` is
    NaN whenever ``sd`` is undefined or the mean is zero.
    """

    mean: float
    sd: float
    cv: float

    @property
    def sd_defined(self) -> bool:
        return not math.isnan(self.sd)

    @property
    def cv_defined(self) -> bool:
        return not math.isnan(self.cv)


def replication_stats(values) -> ReplicationStats:
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValueError("replication_stats needs at least one value")
    mean = float(vals.mean())
    # degenerate replicates carry +inf; inf - inf inside std is the
    # expected NaN outcome, not a condition worth a numpy warning
    with np.errstate(invalid="ignore"):
        sd = float(vals.std(ddof=1)) if vals.size > 1 else math.nan
    cv = sd / mean if not math.isnan(sd) and mean != 0.0 else math.nan
    return ReplicationStats(mean=mean, sd=sd, cv=cv)


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
    a trimmed k-means fit at ``alpha``.
    """
    ds_seed, proj_seed, km_seed, tk_seed = (derive_seed(seed, i) for i in range(4))
    ds = generate(replace(cfg, seed=ds_seed))
    Xp = project(_embed(ds.X, True), fit_random_projection(cfg.d, p, proj_seed))

    parts = {
        "true": true_partition(ds),
        "kmeans": kmeans(Xp, cfg.K_true, seed=km_seed),
        "trimmed-kmeans": trimmed_kmeans(Xp, cfg.K_true, alpha, seed=tk_seed),
    }
    entries = {
        name: bwdm(Xp, part, "medoid", projection="rp", p=p, seed=seed)
        for name, part in parts.items()
    }
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
        clusterer="trimmed-kmeans",
        seed=derive_seed(rep_seed, _TAG_REPLICATION),
    )
    try:
        if Xs is None:  # fresh data: one dataset and one embedding per replication
            Xs, pca_rows = _embedding(cfg, rep_seed, [p], [method])
        Xp = pca_rows.get(p) if method == "pca" else None
        if Xp is None:  # a random projection, or a PCA width out of reach
            Xp = project(Xs, _fit_model(Xs, pcfg))
        report = _score(Xp, pcfg)
    except (ValueError, NumericalError) as exc:
        return (p, method, rep, rep_seed, None, str(exc))
    return (p, method, rep, rep_seed, report.bwdm, None)


def _embedding(cfg, seed, p_values, methods):
    """The dataset of ``seed`` scaled once, and its PCA projection at each p it reaches.

    One PCA fit at the largest such p serves them all: loadings are signed
    row by row, so their leading rows are bitwise the fit at a smaller p.
    A p out of reach gets no rows and fails per replication.
    """
    Xs = _embed(generate(replace(cfg, seed=derive_seed(seed, _TAG_DATASET))).X, True)
    usable = [p for p in p_values if 1 <= p <= min(Xs.shape[0] - 1, Xs.shape[1])]
    if "pca" not in methods or not usable:
        return Xs, {}
    top = fit_pca(Xs, max(usable))
    m, ev = top.matrix, top.explained_variance
    return Xs, {
        p: project(Xs, replace(top, matrix=m[:p], explained_variance=ev[:p]))
        for p in usable
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
    ``fresh_data=True`` regenerates the dataset per replication.  Failed
    replications are dropped; a cell with more than 20% failures raises
    a :class:`NumericalError`.  Replications may run across
    ``n_workers`` processes without changing any output.
    """
    p_values = [int(p) for p in p_values]
    methods = list(methods)
    if not p_values or not methods:
        raise ValueError("p_values and methods must be non-empty")
    for m in methods:
        if m not in _METHOD_CODES:
            raise ValueError(f"unknown method {m!r}, expected one of {sorted(_METHOD_CODES)}")
    if reps < 2:
        raise ValueError(f"reps must be >= 2, got {reps}")

    fixed = (None, None) if fresh_data else _embedding(cfg, master_seed, p_values, methods)
    sweep = (cfg, float(alpha), *fixed)
    jobs = [
        (p, method, rep, derive_seed(master_seed, _TAG_REPLICATION, p, _METHOD_CODES[method], rep))
        for p in p_values
        for method in methods
        for rep in range(reps)
    ]
    if n_workers > 1:
        with ProcessPoolExecutor(n_workers, initializer=_init_worker, initargs=(sweep,)) as pool:
            results = list(pool.map(_sweep_job, jobs, chunksize=1))
    else:
        results = [_sweep_job(job, sweep) for job in jobs]

    by_cell: dict[tuple[int, str], list] = {(p, m): [] for p in p_values for m in methods}
    for p, method, rep, rep_seed, value, err in results:
        by_cell[(p, method)].append((rep, rep_seed, value, err))

    cells = []
    for p in p_values:
        for method in methods:
            rows = sorted(by_cell[(p, method)])
            ok = [RepResult(rep=r, seed=s, value=v) for r, s, v, e in rows if e is None]
            failed = [(r, e) for r, s, v, e in rows if e is not None]
            if len(failed) > 0.2 * reps:
                raise NumericalError(
                    f"cell (p={p}, method={method}) failed {len(failed)}/{reps} replications; "
                    f"first failure: rep {failed[0][0]}: {failed[0][1]}"
                )
            stats = replication_stats([r.value for r in ok])
            cells.append(
                SweepCell(
                    p=p,
                    method=method,
                    reps=len(ok),
                    mean_bwdm=stats.mean,
                    sd_bwdm=stats.sd,
                    cv=stats.cv,
                    per_rep=tuple(ok),
                )
            )
    return cells


@dataclass(frozen=True)
class SelectKReport:
    """K scan outcome plus an optional true-label score in the same embedding."""

    K_star: int
    reports: dict[int, IndexReport]
    true_report: IndexReport | None


def run_select_k(
    X,
    k_range,
    cfg_template: PipelineConfig,
    truth: Partition | None = None,
) -> SelectKReport:
    """Scan K over shared-embedding fits; optionally score a known partition.

    ``truth`` (for example :func:`true_partition` of a generated dataset,
    outliers marked TRIMMED) is scored in the same embedding the scan
    used; it is never shown to the clusterer.
    """
    # scale once here so the truth score reuses the scan's scaled rows
    Xs = _embed(X, cfg_template.scale)
    result = select_k(Xs, k_range, replace(cfg_template, scale=False))
    true_report = None
    if truth is not None:
        cfg_true = replace(cfg_template, clusterer="external-labels", scale=False)
        true_report = hd_bwdm(Xs, cfg_true, truth, result.model)
    return SelectKReport(K_star=result.K_star, reports=result.reports, true_report=true_report)
