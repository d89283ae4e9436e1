"""K-means and trimmed k-means with deterministic restart selection.

Trimmed k-means alternates concentration steps: assign every point to its
nearest center, discard the ``ceil(alpha * n)`` points farthest from
their assigned center, then recompute each center as the mean of its
retained members.  Iteration stops when no cluster's retained member set
changed, and a step recomputes the mean and the distance column of only
the clusters whose members changed: the others are bitwise what a full
recompute gives.  With ``alpha = 0`` this is exactly Lloyd's algorithm,
and ``kmeans`` shares the same code path.

Restarts are seeded individually from ``(seed, restart_index)`` and the
best restart is chosen by the retained within-cluster sum of squared
distances, ties going to the lowest restart index, so results do not
depend on evaluation order.

Every fit takes its restarts' seedings from ``_seedings``.  A K scan
builds them once, at its largest K, and passes them to each K's fit:
restart ``r`` draws from the same stream for every K and the trim count
does not depend on K, so the seeding for a smaller K is the leading K
rows of the largest one, and its first concentration step's distances
are the leading K columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError
from .geometry import _as_points, _distance_kernels, medoid, spatial_median

__all__ = [
    "TRIMMED",
    "Partition",
    "kmeans",
    "trimmed_kmeans",
    "cluster_centers",
]

TRIMMED = -1  # label sentinel for observations excluded from every cluster

_N_INIT = 10  # restarts per fit


@dataclass(frozen=True)
class Partition:
    """Cluster labels for one dataset, with an explicit trimmed sentinel.

    ``labels[i]`` is a cluster id in ``0..K-1`` or :data:`TRIMMED`.
    ``alpha`` is the trimming proportion the fit was asked for (0 when no
    trimming was involved).
    """

    labels: np.ndarray
    K: int
    alpha: float

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D array")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if not 0.0 <= self.alpha < 0.5:
            raise ValueError(f"alpha must lie in [0, 0.5), got {self.alpha}")
        bad = (labels != TRIMMED) & ((labels < 0) | (labels >= self.K))
        if bad.any():
            raise ValueError(f"labels outside 0..{self.K - 1} (or TRIMMED) at rows {np.where(bad)[0][:5]}")
        present = np.unique(labels[labels != TRIMMED])
        if present.size != self.K:
            missing = sorted(set(range(self.K)) - set(present.tolist()))
            raise ValueError(f"cluster ids {missing} have no retained members")

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def trimmed_mask(self) -> np.ndarray:
        return self.labels == TRIMMED

    @property
    def retained_count(self) -> int:
        return int((self.labels != TRIMMED).sum())


class _RestartFailed(Exception):
    """A restart emptied a cluster under trimming; it is discarded."""


def _lowest(values: np.ndarray, m: int) -> np.ndarray:
    """Mask of the ``m`` smallest values, ties to the lowest index: a stable argsort's head."""
    cut = np.partition(values, m - 1)[m - 1]
    keep = values < cut
    keep[np.flatnonzero(values == cut)[: m - int(keep.sum())]] = True
    return keep


def _kmeanspp_init(X: np.ndarray, K: int, trim_count: int, rng: np.random.Generator):
    """k-means++ seeding: D^2-weighted draws after a uniform first center.

    Under trimming the proposal weights of the ``trim_count`` largest D^2
    values are zeroed each round.  Plain D^2 weighting concentrates almost
    all mass on gross outliers, so without this the seeding would place
    centers on exactly the points the fit is supposed to discard.  With
    ``trim_count = 0`` this is standard k-means++.

    Returns ``(centers, dist)``: each center's ``cdist`` column is computed
    once, for the draws' D^2 and as ``dist``, bitwise ``cdist(X, centers, "sqeuclidean")``.
    """
    cdist_sqeuclidean = _distance_kernels().cdist_sqeuclidean  # scipy's, without scipy.spatial

    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    dist = np.empty((n, K))
    centers[0] = X[int(rng.integers(n))]
    for k in range(1, K):
        dist[:, k - 1] = cdist_sqeuclidean(X, centers[k - 1 : k])[:, 0]
        d2 = dist[:, :k].min(axis=1)  # squared distance to the nearest chosen center
        w = np.where(_lowest(d2, n - trim_count), d2, 0.0) if trim_count else d2
        total = w.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=w / total))
        else:  # all candidate points coincide with chosen centers
            idx = int(rng.integers(n))
        centers[k] = X[idx]
    dist[:, K - 1] = cdist_sqeuclidean(X, centers[K - 1 :])[:, 0]
    return centers, dist


def _seedings(X: np.ndarray, K: int, trim_count: int, seed: int, n_init: int):
    """Yield each restart's k-means++ seeding and its first-step distances.

    Restart ``r`` draws from ``default_rng([seed, r])``; each item is
    ``(init, cdist(X, init, "sqeuclidean"))``.  A fit at any K up to
    ``K`` takes the leading K rows and columns, which are bitwise what
    seeding at that K computes.
    """
    for r in range(n_init):
        yield _kmeanspp_init(X, K, trim_count, np.random.default_rng([seed, r]))


def _concentration_fit(X, K, trim_count, centers, max_iter, first_d2):
    """One restart from ``centers``; returns (labels, retained_mask, objective).

    ``first_d2`` is ``cdist(X, centers, "sqeuclidean")``; it may be a view
    shared with other fits, so it is copied before the first write.

    A step recomputes the mean and the distance column of a cluster only
    when its retained member set changed since the last step, plus, at
    ``trim_count = 0``, every emptied cluster, whose reseed moves its
    center on every step.  Every other column is kept: the same rows in
    the same order give a bitwise-equal mean, and ``cdist`` computes each
    column on its own, so the kept column is bitwise the fresh one.

    The fit stops when no retained member set changed.  A step whose
    trimmed rows alone switched nearest center repeats the centers, hence
    the labels, on the next step, so this returns what a test on labels
    and retained set together would.
    """
    cdist_sqeuclidean = _distance_kernels().cdist_sqeuclidean  # scipy's, without scipy.spatial

    n = X.shape[0]
    centers = centers.copy()
    d2 = first_d2.copy()
    moved = np.arange(K)
    for it in range(max_iter):
        if it:
            d2[:, moved] = cdist_sqeuclidean(X, centers[moved])
        labels = d2.argmin(axis=1)
        dmin = d2[np.arange(n), labels]
        retained = _lowest(dmin, n - trim_count) if trim_count else np.ones(n, dtype=bool)
        obj = float(dmin[retained].sum())
        owner = np.where(retained, labels, TRIMMED)
        if it:
            changed = owner != owner_prev
            if not changed.any():
                break
            moved = np.union1d(owner[changed], owner_prev[changed])
            moved = moved[moved != TRIMMED]
            if not trim_count:
                moved = np.union1d(moved, np.flatnonzero(np.bincount(labels, minlength=K) == 0))
        for k in moved:
            members = owner == k
            if members.any():
                centers[k] = X[members].mean(axis=0)
            elif trim_count:
                raise _RestartFailed(f"cluster {k} lost all retained members")
            else:
                # reseed an emptied center at the point farthest from it
                far = int(((X - centers[k]) ** 2).sum(axis=1).argmax())
                centers[k] = X[far]
        owner_prev = owner
    for k in range(K):
        # a reseed that lands on a duplicate of another center can never win
        # the tie-break, so a cluster may still be empty at the fixpoint
        if not (retained & (labels == k)).any():
            raise _RestartFailed(f"cluster {k} empty at convergence")
    return labels, retained, obj


def _fit_best(X, K, alpha, seed, max_iter=100, n_init=_N_INIT, seedings=None):
    """Best restart of a (trimmed) k-means fit.

    ``seedings`` defaults to ``_seedings(X, K, ...)``, drawn one restart
    at a time; a K scan passes the ones it built at its largest K.
    """
    X = _as_points(X, "X")
    n = X.shape[0]
    if K < 2:
        raise UsageError(f"K must be >= 2, got {K}")
    if K > n:
        raise UsageError(f"K={K} exceeds the number of observations n={n}")
    if not 0.0 <= alpha < 0.5:
        raise UsageError(f"alpha must lie in [0, 0.5), got {alpha}")
    trim_count = math.ceil(alpha * n)
    if n - trim_count < K:
        raise UsageError(
            f"trimming {trim_count} of {n} rows leaves fewer than K={K} retained observations"
        )
    if n_init < 1:
        raise UsageError(f"n_init must be >= 1, got {n_init}")
    if max_iter < 1:
        raise UsageError(f"max_iter must be >= 1, got {max_iter}")

    if seedings is None:
        seedings = _seedings(X, K, trim_count, seed, n_init)
    best = None
    failures = []
    for init, d2 in seedings:
        try:
            labels, retained, obj = _concentration_fit(
                X, K, trim_count, init[:K], max_iter, d2[:, :K]
            )
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
    return Partition(labels=out, K=K, alpha=float(alpha))


def kmeans(X, K: int, seed: int = 0, max_iter: int = 100, n_init: int = _N_INIT) -> Partition:
    """Best-of-``n_init`` Lloyd k-means with k-means++ seeding.

    An emptied cluster is reseeded at the point farthest from its previous
    center.  The restart with the lowest within-cluster sum of squared
    distances wins.  This is ``trimmed_kmeans(X, K, 0.0, ...)``.
    """
    return _fit_best(X, K, 0.0, seed, max_iter, n_init)


def trimmed_kmeans(
    X, K: int, alpha: float, seed: int = 0, max_iter: int = 100, n_init: int = _N_INIT
) -> Partition:
    """Trimmed k-means via concentration steps.

    Exactly ``ceil(alpha * n)`` observations end up trimmed.  A restart
    that empties a cluster of retained members is discarded; if every
    restart fails a :class:`NumericalError` is raised.  With
    ``alpha = 0`` this is :func:`kmeans`.
    """
    return _fit_best(X, K, alpha, seed, max_iter, n_init)


def cluster_centers(X, part: Partition, kind: str = "medoid") -> np.ndarray:
    """Per-cluster robust centers over the retained members, as a (K, dim) array.

    ``kind="medoid"`` picks the member minimizing the within-cluster
    distance sum (the stored row is bit-identical to that member);
    ``kind="spatial-median"`` runs the Weiszfeld iteration.
    """
    if kind not in ("medoid", "spatial-median"):
        raise ValueError(f"kind must be 'medoid' or 'spatial-median', got {kind!r}")
    X = _as_points(X, "X")
    if X.shape[0] != part.n:
        raise ValueError(f"X has {X.shape[0]} rows but the partition labels {part.n}")
    return _cluster_centers(X, part, kind, {})


def _cluster_centers(X: np.ndarray, part: Partition, kind: str, memo: dict) -> np.ndarray:
    """``cluster_centers`` on checked input, reusing the centers in ``memo``.

    ``memo`` maps the bytes of a cluster's member indices to its center.
    A center depends only on its member rows, so one memo may serve every
    partition of the same ``X`` with the same ``kind``; a K scan passes one
    for its whole call, since splitting one cluster leaves the others as they were.
    """
    centers = np.empty((part.K, X.shape[1]))
    for k in range(part.K):
        idx = np.flatnonzero(part.labels == k)
        if idx.size == 0:
            raise ValueError(f"cluster {k} has no retained members")
        key = idx.tobytes()
        if key not in memo:
            members = X[idx]
            if kind == "medoid":
                memo[key] = medoid(members)[1].copy()  # not a view that keeps the cluster alive
            else:
                # tighter than the user-facing defaults so center jitter stays
                # well below the index invariance tolerances; the Weiszfeld rate
                # can sit near 0.97, which needs a few thousand iterations
                memo[key] = spatial_median(members, tol=1e-12, max_iter=20000)
        centers[k] = memo[key]
    return centers
