"""Median-based cluster validity: the BWDM family of indices.

ABDM is the average distance between cluster centers over ordered center
pairs; AWDM is the average distance from retained observations to their
own cluster center, with ``retained_count - K`` in the denominator.
BWDM is their ratio: larger means tighter clusters that sit farther
apart.  ``hd_bwdm`` evaluates the index after robust scaling, dimension
reduction and trimmed clustering, which is the intended use on
high-dimensional contaminated data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import _N_INIT, Partition, _seedings, cluster_centers, trimmed_kmeans
from .errors import NumericalError, UsageError
from .geometry import _as_points, _distance_kernels, robust_scale_apply, robust_scale_fit
from .projection import ProjectionModel, fit_pca, fit_random_projection, project

__all__ = [
    "IndexReport",
    "PipelineConfig",
    "SelectKResult",
    "abdm",
    "awdm",
    "bwdm",
    "hd_bwdm",
    "select_k",
]

_PROJECTIONS = ("rp", "pca")
_CENTER_KINDS = ("medoid", "spatial-median")


@dataclass(frozen=True)
class IndexReport:
    """One evaluated index value with full provenance.

    ``p`` is None when the index was computed in the original
    (unprojected) space; serializers spell that as ``"FULL"``.
    ``degenerate`` marks a zero within-cluster distance sum, in which
    case ``bwdm`` is the +inf sentinel.
    """

    abdm: float
    awdm: float
    bwdm: float
    K: int
    p: int | None
    alpha: float
    projection: str
    center_kind: str
    seed: int | None
    n_used: int
    degenerate: bool = False

    def __post_init__(self):
        if not self.degenerate:
            expect = self.abdm / self.awdm
            if not math.isclose(self.bwdm, expect, rel_tol=1e-12, abs_tol=0.0):
                raise ValueError(f"bwdm={self.bwdm!r} is not abdm/awdm={expect!r}")

    def to_dict(self) -> dict:
        return {
            "abdm": self.abdm,
            "awdm": self.awdm,
            "bwdm": self.bwdm,
            "k": self.K,
            "p": "FULL" if self.p is None else self.p,
            "alpha": self.alpha,
            "projection": self.projection,
            "center_kind": self.center_kind,
            "seed": self.seed,
            "n_used": self.n_used,
            "degenerate": self.degenerate,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IndexReport":
        p = d["p"]
        return cls(
            abdm=float(d["abdm"]),
            awdm=float(d["awdm"]),
            bwdm=float(d["bwdm"]),
            K=int(d["k"]),
            p=None if p in (None, "FULL") else int(p),
            alpha=float(d["alpha"]),
            projection=str(d["projection"]),
            center_kind=str(d["center_kind"]),
            seed=None if d["seed"] is None else int(d["seed"]),
            n_used=int(d["n_used"]),
            degenerate=bool(d["degenerate"]),
        )


def abdm(centers) -> float:
    """Average between-center distance over ordered pairs of the rows of ``centers``.

    Equals ``sum_{i != j} ||c_i - c_j|| / (K * (K - 1))``; needs K >= 2.
    """
    C = _as_points(centers, "centers")
    K = C.shape[0]
    if K < 2:
        raise ValueError(f"abdm needs at least 2 centers, got {K}")
    return float(2.0 * _distance_kernels().pdist_euclidean(C).sum() / (K * (K - 1)))


def awdm(X, part: Partition, centers) -> float:
    """Average within-cluster distance over retained observations.

    Sums the distance from each retained observation to its cluster
    center (row ``k`` of ``centers`` for cluster ``k``) and divides by
    ``retained_count - K``; trimmed observations contribute nothing.
    Requires ``retained_count > K``.
    """
    X = _as_points(X, "X")
    if X.shape[0] != part.n:
        raise ValueError(f"X has {X.shape[0]} rows but the partition labels {part.n}")
    retained = part.retained_count
    if retained <= part.K:
        raise ValueError(f"awdm needs retained_count > K, got {retained} <= {part.K}")
    mask = ~part.trimmed_mask
    diffs = X[mask] - np.asarray(centers, dtype=float)[part.labels[mask]]
    total = float(np.sqrt((diffs**2).sum(axis=1)).sum())
    return total / (retained - part.K)


def bwdm(X, part: Partition, center_kind: str = "spatial-median") -> IndexReport:
    """BWDM index of a partition: ``abdm / awdm`` with robust centers.

    Centers default to spatial medians; pass ``center_kind="medoid"``
    for the medoid variant used by the high-dimensional pipeline.  A zero
    AWDM (every retained observation sitting on its center) yields the
    +inf sentinel with ``degenerate=True`` instead of an error.  The
    report's provenance is the original space: ``projection="none"``,
    ``p=None``, ``seed=None``.
    """
    C = cluster_centers(X, part, kind=center_kind)
    return _index_report(X, part, C, center_kind, "none", None, None)


def _index_report(X, part: Partition, C: np.ndarray, kind, projection, p, seed) -> IndexReport:
    """``bwdm``'s index and report from ``kind`` centers already computed."""
    a = abdm(C)
    w = awdm(X, part, C)
    if w == 0.0:
        value, degenerate = math.inf, True
    else:
        value, degenerate = a / w, False
    return IndexReport(
        abdm=a,
        awdm=w,
        bwdm=value,
        K=part.K,
        p=p,
        alpha=part.alpha,
        projection=projection,
        center_kind=kind,
        seed=seed,
        n_used=part.retained_count,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class PipelineConfig:
    """Settings for one :func:`hd_bwdm` evaluation.

    ``seed`` feeds two derived streams, one for the random projection and
    one for the clusterer, so a single integer pins the whole run.
    ``K`` is keyword-only and may be left out where nothing is fitted at a
    single K: a :func:`select_k` template, or :func:`hd_bwdm` with
    ``true_labels``.
    """

    K: int | None = field(default=None, kw_only=True)
    p: int
    alpha: float = 0.1
    projection: str = "rp"
    center_kind: str = "medoid"
    seed: int = 0
    scale: bool = True

    def __post_init__(self):
        if self.K is not None and self.K < 2:
            raise UsageError(f"K must be >= 2, got {self.K}")
        if self.p < 1:
            raise UsageError(f"p must be >= 1, got {self.p}")
        if not 0.0 <= self.alpha < 0.5:
            raise UsageError(f"alpha must lie in [0, 0.5), got {self.alpha}")
        if self.projection not in _PROJECTIONS:
            raise UsageError(f"projection must be one of {_PROJECTIONS}, got {self.projection!r}")
        if self.center_kind not in _CENTER_KINDS:
            raise UsageError(f"center_kind must be one of {_CENTER_KINDS}, got {self.center_kind!r}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")


def _sub_seeds(seed: int, n: int = 2) -> list[int]:
    """Derived, documented sub-streams of one pipeline seed."""
    return [int(s) for s in np.random.SeedSequence(int(seed)).generate_state(n, np.uint64)]


def _embed(X_raw, scale: bool) -> np.ndarray:
    """Pipeline stage 1: validate the raw matrix once, then robust-scale it."""
    X = _as_points(X_raw, "X_raw")
    return robust_scale_apply(X, robust_scale_fit(X)) if scale else X


def _admit(cfg: PipelineConfig, n: int, d: int, truth: Partition | None = None) -> None:
    """Refuse ``cfg`` on ``n`` rows of ``d`` columns before any work: the shape rules.

    ``cfg.p`` may not exceed ``d``, nor, for PCA, the attainable rank
    ``n - 1``.  A ``truth`` partition must label all ``n`` rows; without
    one, a set ``cfg.K`` must leave more than K rows after trimming, since
    AWDM divides by ``retained_count - K``.
    """
    if cfg.p > d:
        raise UsageError(f"p={cfg.p} exceeds the data dimension d={d}")
    if cfg.projection == "pca" and cfg.p > n - 1:
        raise UsageError(
            f"p={cfg.p} exceeds the attainable rank {n - 1} for {n} observations in {d} dimensions"
        )
    if truth is not None and truth.n != n:
        raise ValueError(f"true_labels cover {truth.n} rows but the data has {n}")
    trim_count = math.ceil(cfg.alpha * n)
    if truth is None and cfg.K is not None and n - trim_count <= cfg.K:
        raise UsageError(
            f"trimming {trim_count} of {n} rows leaves {n - trim_count} retained observations; "
            f"the index needs more than K={cfg.K}"
        )


def _fit_model(Xs: np.ndarray, cfg: PipelineConfig, model=None) -> ProjectionModel:
    """Pipeline stage 2: fit the projection ``cfg`` names, or vet a supplied one."""
    if model is None:
        if cfg.projection == "rp":
            return fit_random_projection(Xs.shape[1], cfg.p, _sub_seeds(cfg.seed)[0])
        return fit_pca(Xs, cfg.p)
    if model.kind != cfg.projection or model.p != cfg.p:
        raise ValueError(
            f"supplied projection model ({model.kind}, p={model.p}) "
            f"does not match config ({cfg.projection}, p={cfg.p})"
        )
    return model


def _score(Xp: np.ndarray, cfg: PipelineConfig, part=None, *, seedings=None, memo=None) -> IndexReport:
    """Pipeline stage 3: score ``part``, else the trimmed k-means fit at ``cfg.alpha``.

    A K scan passes its shared ``seedings`` to ``trimmed_kmeans`` and its
    center ``memo`` to ``cluster_centers``."""
    if part is None:
        part = trimmed_kmeans(Xp, cfg.K, cfg.alpha, seed=_sub_seeds(cfg.seed)[1], seedings=seedings)
    C = cluster_centers(Xp, part, cfg.center_kind, memo=memo)
    return _index_report(Xp, part, C, cfg.center_kind, cfg.projection, cfg.p, cfg.seed)


def hd_bwdm(
    X_raw,
    cfg: PipelineConfig,
    true_labels: Partition | None = None,
    projection_model: ProjectionModel | None = None,
) -> IndexReport:
    """BWDM of high-dimensional data after scaling, projection and clustering.

    Pipeline: (1) optional median/MAD scaling, (2) dimension reduction to
    ``cfg.p`` via a seeded Gaussian random projection or PCA, (3) a
    partition: ``true_labels`` when given (any excluded rows already
    marked TRIMMED; they fix K and the trimmed rows, so ``cfg.K`` and
    ``cfg.alpha`` are unused and ``cfg.K`` may be None), else trimmed
    k-means with ``cfg.K`` clusters at ``cfg.alpha`` (``alpha = 0`` is
    plain k-means), (4) the index with ``cfg.center_kind`` centers,
    everything in the projected space.

    ``projection_model`` lets several calls share one fitted embedding;
    it must match ``cfg.projection`` and ``cfg.p``.
    """
    if true_labels is None and cfg.K is None:
        raise UsageError("hd_bwdm needs cfg.K to fit a partition, or true_labels to score")
    Xs = _embed(X_raw, cfg.scale)
    _admit(cfg, *Xs.shape, true_labels)
    return _score(project(Xs, _fit_model(Xs, cfg, projection_model)), cfg, true_labels)


@dataclass(frozen=True)
class SelectKResult:
    """Outcome of a K scan: the argmax K and the per-K reports.

    ``true_report`` is a known partition's score in the scan's embedding;
    only :func:`run_select_k` sets it.
    """

    K_star: int
    reports: dict[int, IndexReport]
    model: ProjectionModel
    true_report: IndexReport | None = None


def select_k(X_raw, k_range, cfg_template: PipelineConfig) -> SelectKResult:
    """Choose K by maximizing BWDM over a candidate range.

    The data is scaled once and sent through one projection fitted from
    ``cfg_template``; every K partitions the same projected rows, so the
    scan compares partitions, not projections.  Each clustering restart
    is seeded once, at the largest K, and those seedings are passed to
    every K's fit, which uses their leading K rows.  Each cluster's center
    is computed once per call: a member set that an earlier K already
    produced reuses its center.  ``cfg_template.K`` is not read and may
    be left out.  A K whose fit fails is skipped with a warning; if every
    K fails a :class:`NumericalError` is raised.  Ties go to the smallest K.
    """
    Xs = _embed(X_raw, cfg_template.scale)
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise UsageError("k_range is empty")
    limit = Xs.shape[0] * (1.0 - cfg_template.alpha) / 2.0
    if ks[0] < 2 or ks[-1] > limit:
        raise UsageError(
            f"k_range must lie within [2, n*(1-alpha)/2] = [2, {limit:.1f}], got {ks[0]}..{ks[-1]}"
        )
    # K <= n*(1-alpha)/2 keeps at least 2K > K rows after trimming, so no K is checked again
    _admit(replace(cfg_template, K=None), *Xs.shape)
    model = _fit_model(Xs, cfg_template)
    Xp = project(Xs, model)

    clust_seed = _sub_seeds(cfg_template.seed)[1]
    try:
        seedings = _seedings(
            Xp, ks[-1], math.ceil(cfg_template.alpha * Xp.shape[0]), clust_seed, range(_N_INIT)
        )
    except ValueError:  # left to each K's own fit, which reports it as that K's failure
        seedings = None
    reports: dict[int, IndexReport] = {}
    memo: dict = {}  # member-index bytes -> center, for this call only
    for k in ks:
        try:
            reports[k] = _score(Xp, replace(cfg_template, K=k), seedings=seedings, memo=memo)
        except (ValueError, NumericalError) as exc:
            warnings.warn(f"K={k} skipped: {exc}", stacklevel=2)
    if not reports:
        raise NumericalError(f"no K in {ks[0]}..{ks[-1]} produced a usable fit")
    best_k = max(sorted(reports), key=lambda k: reports[k].bwdm)  # ties keep the smallest K
    return SelectKResult(K_star=best_k, reports=reports, model=model)
