"""Distance primitives and robust location/scale estimators.

Spatial medians (Weiszfeld iteration with the Vardi-Zhang correction for
iterates that land on a data point), medoids, and componentwise
median/MAD standardization.  These are the building blocks of the
median-based validity scores in :mod:`hdbwdm.validity`.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import types
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "SpatialMedianInfo",
    "RobustScaleModel",
    "spatial_median",
    "medoid",
    "robust_scale_fit",
    "robust_scale_apply",
]

_MEDOID_PDIST = 512  # medoid uses pdist below this many rows: O(m^2) memory, under ~3 MB
_MEDOID_ROWS = 256  # and above it sums cdist in blocks of this many rows: O(256 m)


def _scipy_extension(name: str) -> types.ModuleType:
    """Load the extension module ``scipy.spatial.<name>`` without importing a scipy package.

    ``find_spec`` of a top-level name imports nothing, and the loader runs
    only the extension's own initialisation.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed as a package")
    folder = os.path.join(spec.submodule_search_locations[0], "spatial")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, name + suffix)
        if os.path.isfile(path):
            full = f"scipy.spatial.{name}"
            loader = importlib.machinery.ExtensionFileLoader(full, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(full, loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"no {name} extension in {folder}")


@functools.cache
def _distance_kernels() -> types.SimpleNamespace:
    """scipy's compiled float64 distance kernels, loaded once, on first use.

    ``cdist_sqeuclidean``, ``cdist_euclidean`` and ``pdist_euclidean`` come
    from ``scipy/spatial/_distance_pybind`` and ``to_squareform_from_vector_wrap``
    from ``_distance_wrap``: the functions that ``scipy.spatial.distance``'s
    ``cdist``, ``pdist`` and ``squareform`` call for float64 input, so the
    bytes are theirs.  Importing ``scipy.spatial`` itself would also load
    kd-trees, qhull, ``scipy.linalg``, ``scipy.sparse`` and scipy's own
    OpenBLAS, about 0.4 s and 30 MB.  These are private scipy names, so
    ``pyproject.toml`` bounds the scipy versions; a missing file raises
    ``ImportError`` naming it.
    """
    pybind = _scipy_extension("_distance_pybind")
    wrap = _scipy_extension("_distance_wrap")
    return types.SimpleNamespace(
        cdist_sqeuclidean=pybind.cdist_sqeuclidean,
        cdist_euclidean=pybind.cdist_euclidean,
        pdist_euclidean=pybind.pdist_euclidean,
        to_squareform_from_vector_wrap=wrap.to_squareform_from_vector_wrap,
    )


def _as_points(points, name: str = "points") -> np.ndarray:
    """Coerce to a float (m, dim) matrix; 1-D input is read as m scalar points."""
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty (m, dim) array, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError(f"{name} contains non-finite entries")
    return X


@dataclass(frozen=True)
class SpatialMedianInfo:
    """Convergence record for a spatial-median computation.

    Attributes
    ----------
    converged : bool
        False when the iteration stopped at ``max_iter`` without meeting
        the step tolerance.
    n_iter : int
        Number of Weiszfeld updates performed.
    objective : float
        Sum of Euclidean distances from the returned point to the data.
    """

    converged: bool
    n_iter: int
    objective: float


def _distance_sum(X: np.ndarray, c: np.ndarray) -> float:
    return float(np.linalg.norm(X - c, axis=1).sum())


def spatial_median(points, tol: float = 1e-8, max_iter: int = 500, full_output: bool = False):
    """Geometric (spatial) median of a point set.

    Runs the Weiszfeld fixed-point iteration started at the componentwise
    median, with the Vardi-Zhang correction when an iterate coincides
    with a data point.  Sets of one or two points are solved directly by
    the componentwise median (the midpoint for two points).

    The iteration is carried out on a translated and rescaled copy of the
    data (centred at the componentwise median, divided by the largest
    distance to it), so ``tol`` acts relative to the spread of the input.
    This keeps the result equivariant under scaling and translation down
    to floating-point level.

    Parameters
    ----------
    points : array-like, shape (m, dim)
        Input points; a 1-D sequence is treated as scalar points.
    tol : float
        Stop when the (rescaled) iterate moves less than this.
    max_iter : int
        Iteration cap; on hitting it the best iterate so far is returned
        and the convergence flag is set false.
    full_output : bool
        When true, return ``(point, SpatialMedianInfo)``.

    Returns
    -------
    ndarray of shape (dim,), or (ndarray, SpatialMedianInfo)
    """
    X = _as_points(points)
    m, dim = X.shape
    if m <= 2:
        c = np.median(X, axis=0)
        if full_output:
            return c, SpatialMedianInfo(True, 0, _distance_sum(X, c))
        return c

    shift = np.median(X, axis=0)
    scale = float(np.linalg.norm(X - shift, axis=1).max())
    if scale == 0.0:  # all points identical
        if full_output:
            return shift, SpatialMedianInfo(True, 0, 0.0)
        return shift
    Z = (X - shift) / scale

    y = np.zeros(dim)  # the componentwise median of Z
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        d = np.linalg.norm(Z - y, axis=1)
        far = d > 1e-13  # data rescaled to unit spread, so this is relative
        if not far.any():
            converged = True
            break
        w = 1.0 / d[far]
        t = (Z[far] * w[:, None]).sum(axis=0) / w.sum()
        eta = int((~far).sum())
        if eta == 0:
            y_next = t
        else:
            r_vec = ((Z[far] - y) * w[:, None]).sum(axis=0)
            r = float(np.linalg.norm(r_vec))
            if r <= eta:  # the coincident data point is itself the median
                converged = True
                break
            gamma = eta / r
            y_next = (1.0 - gamma) * t + gamma * y
        step = float(np.linalg.norm(y_next - y))
        y = y_next
        if step < tol:
            converged = True
            break

    c = shift + scale * y
    if full_output:
        return c, SpatialMedianInfo(converged, n_iter, _distance_sum(X, c))
    return c


def medoid(points) -> tuple[int, np.ndarray]:
    """Member of a point set minimizing the sum of distances to the others.

    Ties are broken toward the lowest index.  Returns ``(index, point)``
    where ``point`` is the actual data row (not a copy with new values).

    Below ``_MEDOID_PDIST`` rows each pair's distance is computed once, by
    ``pdist``, and scipy's ``squareform`` fill makes the square whose rows
    are summed; larger sets sum ``cdist`` in row blocks to bound memory.
    Both give bitwise the same row sums.  The kernels are scipy's compiled
    ones, loaded on first use without importing ``scipy.spatial`` (see
    ``_distance_kernels``).
    """
    X = _as_points(points)
    kernels = _distance_kernels()
    m = len(X)
    if m < _MEDOID_PDIST:
        # the C fill takes contiguous float64 arrays, as a fresh square and
        # pdist's fresh vector are; the result is bitwise squareform(pdist(X))
        square = np.zeros((m, m))
        kernels.to_squareform_from_vector_wrap(square, kernels.pdist_euclidean(X))
        sums = square.sum(axis=1)
    else:
        B = _MEDOID_ROWS
        sums = np.concatenate(
            [kernels.cdist_euclidean(X[a : a + B], X).sum(axis=1) for a in range(0, m, B)]
        )
    idx = int(np.argmin(sums))  # argmin takes the first minimum: lowest index
    return idx, X[idx]


@dataclass(frozen=True)
class RobustScaleModel:
    """Columnwise median/MAD standardization parameters.

    ``fallback_mask`` marks columns whose raw MAD was zero; their scale is
    set to 1 so the transform stays defined.
    """

    centers: np.ndarray
    scales: np.ndarray
    fallback_mask: np.ndarray


def robust_scale_fit(X) -> RobustScaleModel:
    """Fit per-column robust centers and scales.

    Centers are componentwise medians, scales are raw median absolute
    deviations (no normal-consistency factor).  A column with zero MAD
    gets scale 1 and is flagged in ``fallback_mask``.
    """
    X = _as_points(X, "X")
    centers = np.median(X, axis=0)
    scales = np.median(np.abs(X - centers), axis=0)
    fallback = scales == 0.0
    scales = np.where(fallback, 1.0, scales)
    return RobustScaleModel(centers=centers, scales=scales, fallback_mask=fallback)


def robust_scale_apply(X, model: RobustScaleModel) -> np.ndarray:
    """Apply a fitted robust scaling: ``(X - centers) / scales``."""
    X = _as_points(X, "X")
    d = model.centers.shape[0]
    if X.shape[1] != d:
        raise ValueError(f"dimension mismatch: X has {X.shape[1]} columns, model expects {d}")
    return (X - model.centers) / model.scales
