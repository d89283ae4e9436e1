"""Independent reference implementations used to freeze expected values.

Everything in this file recomputes a quantity from its defining formula by
grid search, exhaustive enumeration or a plain numpy call, sharing no code
with the package, so a test that matches both can only pass when the
formulas agree.  All of it but ``median_mad``, ``pca_by_numpy_svd`` and
``weiszfeld_from_np_median`` is exponential or grid-based and only usable on
tiny inputs.
"""

import itertools
import math

import numpy as np


def grid_spatial_median(points, pad=1.0, steps=201, refinements=2):
    """2-D spatial median by brute-force grid search with refinement.

    Scans a padded bounding box on a steps x steps grid, then re-scans a
    shrinking window around the argmin.  Final grid pitch is roughly
    (box span / steps) * (4 / steps) ** refinements, comfortably below
    1e-3 for desk-sized inputs.
    """
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0) - pad
    hi = pts.max(axis=0) + pad
    best = None
    for _ in range(refinements + 1):
        xs = np.linspace(lo[0], hi[0], steps)
        ys = np.linspace(lo[1], hi[1], steps)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        obj = np.zeros_like(gx)
        for q in pts:
            obj += np.hypot(gx - q[0], gy - q[1])
        i, j = np.unravel_index(np.argmin(obj), obj.shape)
        best = np.array([xs[i], ys[j]])
        step = np.array([xs[1] - xs[0], ys[1] - ys[0]])
        lo = best - 2.0 * step
        hi = best + 2.0 * step
    return best


def distance_sum_objective(candidate, points):
    c = np.asarray(candidate, dtype=float)
    return float(sum(math.dist(c, q) for q in np.asarray(points, dtype=float)))


def median_mad(X):
    """Columnwise medians, and medians of the absolute deviations from them.

    Two ``np.median`` calls: the scaling's defining formula, and the
    bytes its selection-based fit must reproduce.
    """
    centers = np.median(X, axis=0)
    return centers, np.median(np.abs(X - centers), axis=0)


def pca_by_numpy_svd(X, p):
    """``(loadings, explained variance, centers)`` from ``np.linalg.svd`` of the centred X.

    The defining formula and the bytes ``fit_pca`` must reproduce: the
    top p rows of Vᵀ, each signed so that its largest-magnitude entry is
    positive, and the squared singular values over n - 1.
    """
    centers = X.mean(axis=0)
    _, svals, vt = np.linalg.svd(X - centers, full_matrices=False)
    loadings = vt[:p].copy()
    lead = np.argmax(np.abs(loadings), axis=1)
    signs = np.sign(loadings[np.arange(p), lead])
    signs[signs == 0] = 1.0
    loadings *= signs[:, None]
    return loadings, svals[:p] ** 2 / (X.shape[0] - 1), centers


def weiszfeld_from_np_median(points, tol=1e-8, max_iter=500):
    """Spatial median as Weiszfeld with the Vardi-Zhang step, started at ``np.median``.

    The iteration written out again, step for step as the package runs
    it, from the componentwise median that ``np.median(X, axis=0)``
    gives.  Returns ``(point, converged, n_iter)``; the package's result
    must match it byte for byte, so its own start gives ``np.median``'s bytes.
    """
    X = np.asarray(points, dtype=float)
    m, dim = X.shape
    shift = np.median(X, axis=0)
    if m <= 2:
        return shift, True, 0
    scale = float(np.linalg.norm(X - shift, axis=1).max())
    if scale == 0.0:
        return shift, True, 0
    Z = (X - shift) / scale
    y = np.zeros(dim)
    converged, n_iter = False, 0
    for n_iter in range(1, max_iter + 1):
        d = np.linalg.norm(Z - y, axis=1)
        far = d > 1e-13
        if not far.any():
            converged = True
            break
        w = 1.0 / d[far]
        t = (Z[far] * w[:, None]).sum(axis=0) / w.sum()
        eta = int((~far).sum())
        if eta:
            r = float(np.linalg.norm(((Z[far] - y) * w[:, None]).sum(axis=0)))
            if r <= eta:
                converged = True
                break
            t = (1.0 - eta / r) * t + eta / r * y
        step = float(np.linalg.norm(t - y))
        y = t
        if step < tol:
            converged = True
            break
    return shift + scale * y, converged, n_iter


def brute_medoid(points):
    """Medoid by double loop over members; returns (index, distance sums)."""
    pts = [list(map(float, row)) for row in np.atleast_2d(np.asarray(points, dtype=float))]
    sums = []
    for a in pts:
        sums.append(sum(math.dist(a, b) for b in pts))
    best = 0
    for i, s in enumerate(sums):
        if s < sums[best]:
            best = i
    return best, sums


def direct_bwdm(X, labels, K):
    """BWDM by direct formula transcription with exhaustive medoid search.

    Rows labelled -1 are excluded everywhere.  Returns (abdm, awdm, bwdm)
    with bwdm = inf when awdm is zero.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    labels = np.asarray(labels)
    centers = []
    for k in range(K):
        members = [list(map(float, X[i])) for i in range(len(X)) if labels[i] == k]
        if not members:
            raise ValueError(f"cluster {k} is empty")
        idx, _ = brute_medoid(members)
        centers.append(members[idx])
    between = 0.0
    for i in range(K):
        for j in range(K):
            if i != j:
                between += math.dist(centers[i], centers[j])
    abdm = between / (K * (K - 1))
    within = 0.0
    retained = 0
    for i in range(len(X)):
        if labels[i] == -1:
            continue
        within += math.dist(list(map(float, X[i])), centers[labels[i]])
        retained += 1
    if retained <= K:
        raise ValueError("retained count must exceed K")
    awdm = within / (retained - K)
    bwdm = abdm / awdm if awdm > 0.0 else math.inf
    return abdm, awdm, bwdm


def _partition_objective(X, trim_set, assignment, K):
    """Retained sum of squared distances to retained-member mean centers."""
    X = np.asarray(X, dtype=float)
    retained = [i for i in range(len(X)) if i not in trim_set]
    groups = {k: [] for k in range(K)}
    for i, k in zip(retained, assignment):
        groups[k].append(i)
    if any(not members for members in groups.values()):
        return None
    total = 0.0
    for k, members in groups.items():
        center = X[members].mean(axis=0)
        total += float(((X[members] - center) ** 2).sum())
    return total


def enumerate_trimmed_kmeans(X, K, trim):
    """Global optimum over every (trim set, assignment) pair.

    Returns (objective, trim set, labels) of the best combination, where
    labels has -1 on trimmed rows and canonical cluster ids (first
    appearance order) elsewhere.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = len(X)
    best = (math.inf, None, None)
    for trim_set in itertools.combinations(range(n), trim):
        trimmed = set(trim_set)
        m = n - trim
        for assignment in itertools.product(range(K), repeat=m):
            obj = _partition_objective(X, trimmed, assignment, K)
            if obj is not None and obj < best[0]:
                labels = np.full(n, -1)
                retained = [i for i in range(n) if i not in trimmed]
                for i, k in zip(retained, assignment):
                    labels[i] = k
                best = (obj, trimmed, canonical_labels(labels))
    return best


def enumerate_kmeans(X, K):
    return enumerate_trimmed_kmeans(X, K, 0)


def canonical_labels(labels):
    """Relabel clusters by first appearance so partitions compare as sets."""
    labels = np.asarray(labels)
    mapping = {}
    out = np.full(len(labels), -1)
    for i, lab in enumerate(labels):
        if lab == -1:
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out
