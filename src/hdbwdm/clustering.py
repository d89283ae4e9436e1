"""K-means and trimmed k-means with deterministic restart selection.

Trimmed k-means alternates concentration steps: assign every point to its
nearest center, discard the ``ceil(alpha * n)`` points farthest from
their assigned center, then recompute each center as the mean of its
retained members.  Iteration stops when both the labels and the trimmed
set repeat.  With ``alpha = 0`` this is exactly Lloyd's algorithm, and
``kmeans`` shares the same code path.

Restarts are seeded individually from ``(seed, restart_index)`` and the
best restart is chosen by the retained within-cluster sum of squared
distances, ties going to the lowest restart index, so results do not
depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import NumericalError
from .geometry import _as_points, medoid, spatial_median

__all__ = [
    "TRIMMED",
    "Partition",
    "ClusterCenters",
    "kmeans",
    "trimmed_kmeans",
    "cluster_centers",
]

TRIMMED = -1  # label sentinel for observations excluded from every cluster

_SOURCES = ("true-labels", "kmeans", "trimmed-kmeans", "external")


@dataclass(frozen=True)
class Partition:
    """Cluster labels for one dataset, with an explicit trimmed sentinel.

    ``labels[i]`` is a cluster id in ``0..K-1`` or :data:`TRIMMED`.
    ``alpha`` is the trimming proportion the fit was asked for (0 when no
    trimming was involved), ``source`` records how the labels came to be.
    """

    labels: np.ndarray
    K: int
    alpha: float
    source: str

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D array")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if not 0.0 <= self.alpha < 0.5:
            raise ValueError(f"alpha must lie in [0, 0.5), got {self.alpha}")
        if self.source not in _SOURCES:
            raise ValueError(f"source must be one of {_SOURCES}, got {self.source!r}")
        bad = (labels != TRIMMED) & ((labels < 0) | (labels >= self.K))
        if bad.any():
            raise ValueError(f"labels outside 0..{self.K - 1} (or TRIMMED) at rows {np.where(bad)[0][:5]}")
        present = np.unique(labels[labels != TRIMMED])
        if present.size != self.K:
            missing = sorted(set(range(self.K)) - set(present.tolist()))
            raise ValueError(f"cluster ids {missing} have no retained members")
        if self.source == "trimmed-kmeans" and self.alpha > 0.0:
            expect = math.ceil(self.alpha * labels.size)
            got = int((labels == TRIMMED).sum())
            if got != expect:
                raise ValueError(f"trimmed-kmeans partition should trim {expect} rows, has {got}")

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def trimmed_mask(self) -> np.ndarray:
        return self.labels == TRIMMED

    @property
    def retained_count(self) -> int:
        return int((self.labels != TRIMMED).sum())


@dataclass(frozen=True)
class ClusterCenters:
    """Per-cluster center estimates of one kind ("medoid" or "spatial-median")."""

    centers: np.ndarray
    kind: str
    member_counts: np.ndarray


class _RestartFailed(Exception):
    """A restart emptied a cluster under trimming; it is discarded."""


def _lowest(values: np.ndarray, m: int) -> np.ndarray:
    """Mask of the ``m`` smallest values, ties to the lowest index: a stable argsort's head."""
    cut = np.partition(values, m - 1)[m - 1]
    keep = values < cut
    keep[np.flatnonzero(values == cut)[: m - int(keep.sum())]] = True
    return keep


def _kmeanspp_init(X: np.ndarray, K: int, trim_count: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted draws after a uniform first center.

    Under trimming the proposal weights of the ``trim_count`` largest D^2
    values are zeroed each round.  Plain D^2 weighting concentrates almost
    all mass on gross outliers, so without this the seeding would place
    centers on exactly the points the fit is supposed to discard.  With
    ``trim_count = 0`` this is standard k-means++.
    """
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        w = np.where(_lowest(d2, n - trim_count), d2, 0.0) if trim_count else d2
        total = w.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=w / total))
        else:  # all candidate points coincide with chosen centers
            idx = int(rng.integers(n))
        centers[k] = X[idx]
        d2 = np.minimum(d2, ((X - centers[k]) ** 2).sum(axis=1))
    return centers


def _concentration_fit(X, K, trim_count, centers, max_iter):
    """One restart; returns (labels, retained_mask, objective)."""
    n = X.shape[0]
    centers = centers.copy()
    labels_prev = None
    mask_prev = None
    labels = None
    retained = None
    obj = np.inf
    for _ in range(max_iter):
        d2 = cdist(X, centers, "sqeuclidean")
        labels = d2.argmin(axis=1)
        dmin = d2[np.arange(n), labels]
        retained = _lowest(dmin, n - trim_count) if trim_count else np.ones(n, dtype=bool)
        obj = float(dmin[retained].sum())
        if (
            labels_prev is not None
            and np.array_equal(labels, labels_prev)
            and np.array_equal(retained, mask_prev)
        ):
            break
        for k in range(K):
            members = retained & (labels == k)
            if members.any():
                centers[k] = X[members].mean(axis=0)
            elif trim_count:
                raise _RestartFailed(f"cluster {k} lost all retained members")
            else:
                # reseed an emptied center at the point farthest from it
                far = int(((X - centers[k]) ** 2).sum(axis=1).argmax())
                centers[k] = X[far]
        labels_prev = labels
        mask_prev = retained
    for k in range(K):
        # a reseed that lands on a duplicate of another center can never win
        # the tie-break, so a cluster may still be empty at the fixpoint
        if not (retained & (labels == k)).any():
            raise _RestartFailed(f"cluster {k} empty at convergence")
    return labels, retained, obj


def _fit_best(X, K, alpha, seed, max_iter, n_init, source):
    X = _as_points(X, "X")
    n = X.shape[0]
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    if K > n:
        raise ValueError(f"K={K} exceeds the number of observations n={n}")
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5), got {alpha}")
    trim_count = math.ceil(alpha * n)
    if n - trim_count < K:
        raise ValueError(
            f"trimming {trim_count} of {n} rows leaves fewer than K={K} retained observations"
        )
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")

    best = None
    failures = []
    for restart in range(n_init):
        rng = np.random.default_rng([seed, restart])
        init = _kmeanspp_init(X, K, trim_count, rng)
        try:
            labels, retained, obj = _concentration_fit(X, K, trim_count, init, max_iter)
        except _RestartFailed as exc:
            failures.append(str(exc))
            continue
        if best is None or obj < best[0]:  # strict <: ties keep the lowest restart index
            best = (obj, labels, retained)
    if best is None:
        raise NumericalError(
            f"all {n_init} restarts failed (K={K}, alpha={alpha}): {failures[-1]}"
        )
    _, labels, retained = best
    out = np.where(retained, labels, TRIMMED)
    return Partition(labels=out, K=K, alpha=float(alpha), source=source)


def kmeans(X, K: int, seed: int = 0, max_iter: int = 100, n_init: int = 10) -> Partition:
    """Best-of-``n_init`` Lloyd k-means with k-means++ seeding.

    An emptied cluster is reseeded at the point farthest from its previous
    center.  The restart with the lowest within-cluster sum of squared
    distances wins.
    """
    return _fit_best(X, K, 0.0, seed, max_iter, n_init, source="kmeans")


def trimmed_kmeans(
    X, K: int, alpha: float, seed: int = 0, max_iter: int = 100, n_init: int = 10
) -> Partition:
    """Trimmed k-means via concentration steps.

    Exactly ``ceil(alpha * n)`` observations end up trimmed.  A restart
    that empties a cluster of retained members is discarded; if every
    restart fails a :class:`NumericalError` is raised.  With
    ``alpha = 0`` the result is identical to :func:`kmeans` under the
    same seed schedule (apart from the recorded source).
    """
    return _fit_best(X, K, alpha, seed, max_iter, n_init, source="trimmed-kmeans")


def cluster_centers(X, part: Partition, kind: str = "medoid") -> ClusterCenters:
    """Per-cluster robust centers over the retained members.

    ``kind="medoid"`` picks the member minimizing the within-cluster
    distance sum (the stored row is bit-identical to that member);
    ``kind="spatial-median"`` runs the Weiszfeld iteration.
    """
    if kind not in ("medoid", "spatial-median"):
        raise ValueError(f"kind must be 'medoid' or 'spatial-median', got {kind!r}")
    X = _as_points(X, "X")
    if X.shape[0] != part.n:
        raise ValueError(f"X has {X.shape[0]} rows but the partition labels {part.n}")
    centers = np.empty((part.K, X.shape[1]))
    counts = np.empty(part.K, dtype=int)
    for k in range(part.K):
        members = X[part.labels == k]
        if members.shape[0] == 0:
            raise ValueError(f"cluster {k} has no retained members")
        counts[k] = members.shape[0]
        if kind == "medoid":
            _, centers[k] = medoid(members)
        else:
            # tighter than the user-facing defaults so center jitter stays
            # well below the index invariance tolerances; the Weiszfeld rate
            # can sit near 0.97, which needs a few thousand iterations
            centers[k] = spatial_median(members, tol=1e-12, max_iter=20000)
    return ClusterCenters(centers=centers, kind=kind, member_counts=counts)

