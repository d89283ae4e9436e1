"""K-means and trimmed k-means with deterministic restart selection.

Trimmed k-means alternates concentration steps: assign every point to its
nearest center, discard the ``ceil(alpha * n)`` points farthest from
their assigned center, then recompute each center as the mean of its
retained members.  Iteration stops when no cluster's retained member set
changed, and a step recomputes the mean and the distances of only the
clusters whose members changed: the others are bitwise what a full
recompute gives.  With ``alpha = 0`` this is exactly Lloyd's algorithm,
and ``kmeans`` shares the same code path.

Restarts are seeded individually from ``(seed, restart_index)`` and the
best restart is chosen by the retained within-cluster sum of squared
distances, ties going to the lowest restart index, so results do not
depend on evaluation order.

The restarts run in lockstep groups: each k-means++ draw and each
concentration step makes one ``cdist`` call for the whole group, and one
vectorized pass each finds the group's nearest centers, trim cuts and
changed rows.  Every distance, cut, mean and objective is bitwise what the
restart computes alone: ``cdist`` computes each entry on its own, the
nearest center and the cut select existing values with the lowest-index
tie-break, and each mean and objective is still taken over one
restart's rows.  A group holds as many restarts as keep its
(restarts, K, n) distance block within ``_BLOCK_FLOATS`` = 2**15 floats
(256 KB), and at least one: grouping adds at most 256 KB to a block,
and once one restart's K * n distances pass that bound a group is one
restart, with the memory of a fit that runs its restarts one by one.

Every fit takes its restarts' seedings from ``_seedings``.  A K scan
builds them once, at its largest K, and passes them to each K's fit:
restart ``r`` draws from the same stream for every K and the trim count
does not depend on K, so the seeding for a smaller K is the leading K
centers of the largest one, and its first concentration step's distances
are the leading K distance rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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

_CENTER_KINDS = ("medoid", "spatial-median")  # what cluster_centers computes
_N_INIT = 10  # restarts per fit
_MAX_ITER = 100  # concentration steps per restart, at most
_BLOCK_FLOATS = 2**15  # most floats in a multi-restart group's (restarts, K, n) distances: 256 KB
_WEISZFELD_MAX_ITER = 20000  # steps per spatial-median center, at most


@dataclass(frozen=True)
class Partition:
    """Cluster labels for one dataset, with an explicit trimmed sentinel.

    ``labels[i]`` is a cluster id or :data:`TRIMMED`; ``K`` is computed, the
    largest retained id plus one, and each id in ``0..K-1`` must retain a
    member.  ``alpha`` is the trimming proportion the fit was asked for (0 if none).
    """

    labels: np.ndarray
    alpha: float
    K: int = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D array")
        if not 0.0 <= self.alpha < 0.5:
            raise ValueError(f"alpha must lie in [0, 0.5), got {self.alpha}")
        kept = labels[labels != TRIMMED]
        top = int(kept.max()) if kept.size else -1
        # top < size is tested first, so the bincount is never longer than n, whatever the ids
        if not (kept.size and kept.min() == 0 and top < kept.size and np.bincount(kept).all()):
            ids = np.array2string(np.unique(kept), separator=", ", threshold=8, edgeitems=3,
                                  formatter={"int": str})
            raise ValueError(f"retained cluster ids must be 0..K-1 with none missing, got {ids}")
        object.__setattr__(self, "K", top + 1)

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def trimmed_mask(self) -> np.ndarray:
        return self.labels == TRIMMED

    @property
    def retained_count(self) -> int:
        return int((self.labels != TRIMMED).sum())


def _lowest(values: np.ndarray, m: int) -> np.ndarray:
    """Mask of the ``m`` smallest values along the last axis, ties to the
    lowest index: a stable argsort's head, row by row."""
    cut = np.partition(values, m - 1, axis=-1)[..., m - 1 : m]
    keep = values < cut
    tied = values == cut
    keep |= tied & (np.cumsum(tied, axis=-1) <= m - keep.sum(axis=-1, keepdims=True))
    return keep


def _group_size(n: int, K: int, n_init: int) -> int:
    """Restarts per lockstep group: as many as fit one ``_BLOCK_FLOATS`` distance block."""
    return max(1, min(n_init, _BLOCK_FLOATS // (n * K)))


def _seedings(X: np.ndarray, K: int, trim_count: int, seed: int, restarts):
    """k-means++ seedings of ``restarts``, drawn in lockstep.

    D^2-weighted draws follow a uniform first center.  Under trimming the
    proposal weights of the ``trim_count`` largest D^2 values are zeroed
    each round.  Plain D^2 weighting concentrates almost all mass on gross
    outliers, so without this the seeding would place centers on exactly
    the points the fit is supposed to discard.  With ``trim_count = 0``
    this is standard k-means++.

    Restart ``r`` draws from ``default_rng([seed, r])``; each draw makes
    one ``cdist`` call for the newest center of every restart.  Returns
    ``(centers, dist)``, (R, K, dim) and (R, K, n): ``dist[i, k]`` is
    bitwise ``cdist(X, centers[i, k:k + 1], "sqeuclidean")[:, 0]``.  A fit
    at any K up to ``K`` takes the leading K centers and distance rows,
    which are bitwise what seeding at that K computes.
    """
    cdist_sqeuclidean = _distance_kernels().cdist_sqeuclidean  # scipy's, without scipy.spatial

    rngs = [np.random.default_rng([seed, r]) for r in restarts]
    n = X.shape[0]
    centers = np.empty((len(rngs), K, X.shape[1]))
    dist = np.empty((len(rngs), K, n))
    d2 = np.full((len(rngs), n), np.inf)  # squared distance to the nearest chosen center
    centers[:, 0] = X[[int(rng.integers(n)) for rng in rngs]]
    for k in range(1, K):
        dist[:, k - 1] = cdist_sqeuclidean(centers[:, k - 1], X)
        np.minimum(d2, dist[:, k - 1], out=d2)
        w = np.where(_lowest(d2, n - trim_count), d2, 0.0) if trim_count else d2
        total = w.sum(axis=1)
        for i, rng in enumerate(rngs):
            if total[i] > 0.0:
                idx = int(rng.choice(n, p=w[i] / total[i]))
            else:  # all candidate points coincide with chosen centers
                idx = int(rng.integers(n))
            centers[i, k] = X[idx]
    dist[:, K - 1] = cdist_sqeuclidean(centers[:, K - 1], X)
    return centers, dist


def _nearest(d2: np.ndarray):
    """``(labels, dmin)``, each (g, n): every row's nearest center in each
    restart of the (g, K, n) block ``d2``, and that center's entry.

    A running minimum over K keeps the first of tied centers, as ``argmin``
    does.
    """
    dmin = d2[:, 0].copy()
    labels = np.zeros(dmin.shape, dtype=np.intp)
    for k in range(1, d2.shape[1]):
        closer = d2[:, k] < dmin
        labels[closer] = k
        np.minimum(dmin, d2[:, k], out=dmin)
    return labels, dmin


def _outcome(labels: np.ndarray, retained: np.ndarray, dmin: np.ndarray, K: int):
    """A stopped restart's ``(labels, retained_mask, objective)``, or why it is discarded."""
    # a reseed that lands on a duplicate of another center can never win
    # the tie-break, so a cluster may still be empty at the fixpoint
    empty = np.flatnonzero(np.bincount(labels[retained], minlength=K) == 0)
    if empty.size:
        return f"cluster {empty[0]} empty at convergence"
    return labels, retained, float(dmin[retained].sum())


def _concentration_fit(X, trim_count, centers, first_d2, max_iter):
    """Concentration steps of a group of restarts, run in lockstep.

    ``centers`` is (g, K, dim) and ``first_d2`` its distances, (g, K, n),
    as ``_seedings`` returns them; either may be a view shared with other
    fits, so both are copied before the first write.  Returns one outcome
    per restart, in order: ``(labels, retained_mask, objective)``, or the
    message of the failure that discards the restart.

    Each step makes one ``cdist`` call over every (restart, moved cluster)
    pair, and one vectorized pass each, across the group, finds the
    nearest centers, the trim cut and the changed rows.  Every value is bitwise what the
    restart alone gives: ``cdist`` computes each entry on its own, the
    cut and the nearest center are exact, and each objective and each
    mean is still taken over one restart's rows.

    A step recomputes the mean and the distances of a cluster only when
    its retained member set changed since the last step, plus, at
    ``trim_count = 0``, every emptied cluster, whose reseed moves its
    center on every step.  Every other cluster's distances are kept: the
    same rows in the same order give a bitwise-equal mean.

    A restart stops when none of its retained member sets changed.  A
    step whose trimmed rows alone switched nearest center repeats the
    centers, hence the labels, on the next step, so this returns what a
    test on labels and retained set together would.
    """
    cdist_sqeuclidean = _distance_kernels().cdist_sqeuclidean  # scipy's, without scipy.spatial

    centers = centers.copy()
    d2 = first_d2.copy()
    g, K, n = d2.shape
    outcomes = [None] * g
    ids = np.arange(g)  # the restart behind each row of the working arrays
    moved = np.ones((g, K), dtype=bool)
    for it in range(max_iter):
        if it:
            rows, ks = np.nonzero(moved)
            d2[rows, ks] = cdist_sqeuclidean(centers[rows, ks], X)
        labels, dmin = _nearest(d2)
        retained = _lowest(dmin, n - trim_count) if trim_count else np.ones(dmin.shape, dtype=bool)
        owner = np.where(retained, labels, TRIMMED)
        stopped = np.zeros(len(ids), dtype=bool)
        if it:
            changed = owner != owner_prev
            stopped = ~changed.any(axis=1)
            rows, cols = np.nonzero(changed)
            moved = np.zeros((len(ids), K + 1), dtype=bool)  # column 0 stands for TRIMMED
            moved[rows, owner[rows, cols] + 1] = True
            moved[rows, owner_prev[rows, cols] + 1] = True
            moved = moved[:, 1:]
            if not trim_count:
                offsets = labels + K * np.arange(len(ids))[:, None]
                moved |= (np.bincount(offsets.ravel(), minlength=len(ids) * K) == 0).reshape(-1, K)
            moved[stopped] = False
        failed = np.zeros(len(ids), dtype=bool)
        for i, k in zip(*np.nonzero(moved)):
            if failed[i]:
                continue
            members = owner[i] == k
            if members.any():
                centers[i, k] = X[members].mean(axis=0)
            elif trim_count:
                outcomes[ids[i]] = f"cluster {k} lost all retained members"
                failed[i] = True
            else:
                # reseed an emptied center at the point farthest from it
                far = int(((X - centers[i, k]) ** 2).sum(axis=1).argmax())
                centers[i, k] = X[far]
        if it == max_iter - 1:
            stopped = ~failed
        for i in np.flatnonzero(stopped):
            outcomes[ids[i]] = _outcome(labels[i], retained[i], dmin[i], K)
        keep = ~(stopped | failed)
        if not keep.any():
            break
        if not keep.all():
            ids, centers, d2, moved, owner = (a[keep] for a in (ids, centers, d2, moved, owner))
        owner_prev = owner
    return outcomes


def kmeans(X, K: int, seed: int = 0, n_init: int = _N_INIT) -> Partition:
    """Best-of-``n_init`` Lloyd k-means with k-means++ seeding.

    An emptied cluster is reseeded at the point farthest from its previous
    center.  Each restart runs at most 100 concentration steps.  The
    restart with the lowest within-cluster sum of squared distances wins.
    This is ``trimmed_kmeans(X, K, 0.0, ...)``.
    """
    return trimmed_kmeans(X, K, 0.0, seed, n_init)


def trimmed_kmeans(
    X, K: int, alpha: float, seed: int = 0, n_init: int = _N_INIT, *, seedings=None
) -> Partition:
    """Trimmed k-means via concentration steps.

    Exactly ``ceil(alpha * n)`` observations end up trimmed.  Each restart
    runs at most 100 concentration steps.  A restart that empties a
    cluster of retained members is discarded; if every restart fails a
    :class:`NumericalError` is raised.  With ``alpha = 0`` this is
    :func:`kmeans`.

    The restarts run in lockstep groups of ``_group_size(n, K, n_init)``.
    ``seedings`` defaults to each group's own ``_seedings`` at K; a K scan
    passes the ``(centers, dist)`` it built for every restart at its
    largest K, whose leading K centers and distance rows each fit takes.
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

    group = _group_size(n, K, n_init)
    best = None
    failures = []
    for start in range(0, n_init, group):
        restarts = range(start, min(start + group, n_init))
        if seedings is None:
            centers, dist = _seedings(X, K, trim_count, seed, restarts)
        else:
            centers, dist = (a[restarts.start : restarts.stop, :K] for a in seedings)
        for outcome in _concentration_fit(X, trim_count, centers, dist, _MAX_ITER):
            if isinstance(outcome, str):
                failures.append(outcome)
            elif best is None or outcome[2] < best[2]:  # strict <: ties keep the lowest restart
                best = outcome
    if best is None:
        raise NumericalError(
            f"all {n_init} restarts failed (K={K}, alpha={alpha}): {failures[-1]}"
        )
    labels, retained, _ = best
    out = np.where(retained, labels, TRIMMED)
    return Partition(labels=out, alpha=float(alpha))


def cluster_centers(X, part: Partition, kind: str = "medoid", *, memo=None) -> np.ndarray:
    """Per-cluster robust centers over the retained members, as a (K, dim) array.

    ``kind="medoid"`` picks the member minimizing the within-cluster
    distance sum (the stored row is bit-identical to that member);
    ``kind="spatial-median"`` runs the Weiszfeld iteration.

    ``memo`` maps the bytes of a cluster's member indices to its center.
    A center depends only on its member rows, so one memo may serve every
    partition of the same ``X`` with the same ``kind``; a K scan passes one
    for its whole call, since splitting one cluster leaves the others as they were.

    A spatial median still moving after ``_WEISZFELD_MAX_ITER`` steps is
    kept as its last iterate, with a warning naming the cluster, its size
    and the steps run; a memo hit does not warn again.
    """
    if kind not in _CENTER_KINDS:
        raise UsageError(f"kind must be {' or '.join(map(repr, _CENTER_KINDS))}, got {kind!r}")
    X = _as_points(X, "X")
    if X.shape[0] != part.n:
        raise ValueError(f"X has {X.shape[0]} rows but the partition labels {part.n}")
    if memo is None:
        memo = {}
    centers = np.empty((part.K, X.shape[1]))
    for k in range(part.K):
        idx = np.flatnonzero(part.labels == k)
        key = idx.tobytes()
        if key not in memo:
            members = X[idx]
            if kind == "medoid":
                memo[key] = medoid(members)[1].copy()  # not a view that keeps the cluster alive
            else:
                # tighter than the user-facing defaults so center jitter stays
                # well below the index invariance tolerances; the Weiszfeld rate
                # can sit near 0.97, which needs a few thousand iterations
                memo[key], info = spatial_median(
                    members, tol=1e-12, max_iter=_WEISZFELD_MAX_ITER, full_output=True
                )
                if not info.converged:
                    warnings.warn(
                        f"spatial median of cluster {k} ({idx.size} rows) did not converge "
                        f"in {info.n_iter} steps",
                        stacklevel=2,
                    )
        centers[k] = memo[key]
    return centers
