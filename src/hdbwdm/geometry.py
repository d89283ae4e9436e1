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
import math
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

_GEMM_CALLING_THREAD = 1 << 18  # OpenBLAS runs a product with m n k <= this on the calling thread
_MEDOID_ROWS = 256  # medoid's exact stage sums cdist over at most this many candidates at once


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
    """scipy's compiled float64 distance kernels, loaded and checked once, on first use.

    ``cdist_sqeuclidean``, ``cdist_euclidean`` and ``pdist_euclidean`` come
    from ``scipy/spatial/_distance_pybind``: the functions that
    ``scipy.spatial.distance``'s ``cdist`` and ``pdist`` call for float64
    input, so the bytes are theirs.  Importing ``scipy.spatial`` itself
    would also load kd-trees, qhull, ``scipy.linalg``, ``scipy.sparse`` and
    scipy's own OpenBLAS, about 0.4 s and 30 MB.  These are private scipy
    names, so ``pyproject.toml`` bounds the scipy versions, and each kernel
    runs once on a small fixed input against a numpy reference that gives
    the same bytes: squared differences added left to right, and their
    square root.  A missing file or kernel, a changed signature or other
    bytes raise one ``ImportError`` that names the kernel.
    """
    pybind = _scipy_extension("_distance_pybind")
    names = ("cdist_sqeuclidean", "cdist_euclidean", "pdist_euclidean")
    kernels = types.SimpleNamespace(**{name: getattr(pybind, name, None) for name in names})
    X = np.sin(np.arange(1.0, 36.0)).reshape(7, 5) * 10.0 ** np.arange(-2, 3)
    squares = np.add.accumulate((X[:, None] - X[None]) ** 2, axis=2)[..., -1]
    for name, args, expected in zip(
        names,
        [(X, X[:3]), (X, X[:3]), (X,)],
        [squares[:, :3], np.sqrt(squares[:, :3]), np.sqrt(squares[np.triu_indices(7, 1)])],
    ):
        try:
            same = np.array_equal(getattr(kernels, name)(*args), expected)
        except TypeError:
            same = False
        if not same:
            from importlib.metadata import version  # slower to import than the check runs

            scipy = version("scipy")
            raise ImportError(f"scipy {scipy}'s {name} fails its load-time check against numpy")
    return kernels


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
    shift = _median_rows(X.T.copy())  # np.median's bytes; the answer for one or two points
    c, converged, n_iter = shift, True, 0
    scale = float(np.linalg.norm(X - shift, axis=1).max()) if m > 2 else 0.0
    if scale > 0.0:
        Z = (X - shift) / scale
        y = np.zeros(dim)  # the componentwise median of Z
        converged = False
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
    return (c, SpatialMedianInfo(converged, n_iter, _distance_sum(X, c))) if full_output else c


def medoid(points) -> tuple[int, np.ndarray]:
    """Member of a point set minimizing the sum of distances to the others.

    Ties are broken toward the lowest index.  Returns ``(index, point)``
    where ``point`` is the actual data row (not a copy with new values).

    The answer is the ``argmin`` of the exact row sums ``E_i``, row ``i``
    of ``cdist(X, X)`` summed, which is bitwise row ``i`` of
    ``squareform(pdist(X))``.  Every set first passes a certified screen;
    ``E`` is computed only for the rows it keeps, in ``cdist`` calls of at
    most ``_MEDOID_ROWS`` rows.  The kernels are scipy's compiled ones,
    loaded on first use without importing ``scipy.spatial`` (see
    ``_distance_kernels``).

    *Screen.*  ``Z = X - mean`` (one m x p copy), ``n2_i = z_i . z_i``,
    and approximate sums ``S_i = sum_j sqrt|n2_i + n2_j - 2 z_i . z_j|``
    from the upper triangle of the Gram matrix in square tiles of at most
    ``b = isqrt(_GEMM_CALLING_THREAD / p)`` rows: each product has at most
    ``_GEMM_CALLING_THREAD`` multiply-adds, so OpenBLAS runs it on the
    calling thread, and balanced tiles of ``b >= 3`` rows have at least
    2 rows each, so none becomes a matrix-vector call with its own
    threading.  A tile off the diagonal adds its row sums to its rows and
    its column sums to its columns.  Cost: ``m^2 p`` flops, memory ``Z``
    plus one tile of at most ``_GEMM_CALLING_THREAD / p`` floats.

    *Bound.*  IEEE double arithmetic, round to nearest, gradual underflow:
    ``fl(a op b) = (a op b)(1 + d) + e``, ``|d| <= u = 2^-53``, and
    ``|e| <= lam = 2^-1074`` for products only; ``g_k = k u / (1 - k u)``.
    Let ``T_i = sum_j |x_i - x_j|`` in exact arithmetic and ``r_i = |z_i|``.

    1. Centring: ``z_ik = (x_ik - mu_k)(1 + d)`` for any float ``mu``, so
       ``| |z_i - z_j| - |x_i - x_j| | <= g_1 (r_i + r_j)``.
    2. Norms, summed in any order: ``|n2_i - r_i^2| <= g_p r_i^2 + p lam``,
       so ``r_i <= rho_i = sqrt((n2_i + p lam) / (1 - g_p))``.
    3. Gram entries, in any order, with or without FMA (Higham 2002,
       Sec. 3.1, and Cauchy-Schwarz): ``|G_ij - z_i . z_j| <= g_p r_i r_j
       + p lam``.
    4. ``q_ij = n2_i + n2_j - 2 G_ij``, in any order, adds two roundings of
       terms at most ``(1 + g_p)(r_i + r_j)^2``, so
       ``|q_ij - |z_i - z_j|^2| <= g_(p+2) (r_i + r_j)^2 + 5 p lam``.
    5. ``| sqrt|q| - sqrt(q*) | <= sqrt|q - q*|`` for ``q* >= 0``, and the
       root rounds by ``g_1`` of itself, so ``d_ij = fl(sqrt|q_ij|)`` is
       within ``sqrt(g_(p+2)) (r_i + r_j) + sqrt(5 p lam) + g_1 d_ij`` of
       ``|z_i - z_j|``, and ``d_ij <= 2 (r_i + r_j) + 2 sqrt(5 p lam)``.
    6. ``S_i`` adds m non-negative ``d_ij`` in some tree, off by at most
       ``g_(m-1)`` of their sum.  With ``P = sum_j rho_j``,
       ``A_i = m rho_i + P`` and ``t = m sqrt(5 p lam)``, steps 1-6 give
       ``|S_i - T_i| <= Delta_i = (g_1 + sqrt(g_(p+2)) + 2 g_m) A_i
       + (1 + 2 g_m) t``.
    7. The exact stage: each ``cdist`` entry is the root of a sum of
       squared differences (``_distance_kernels`` checks that formula when
       it loads), within ``g_(p+3) |x_i - x_j| + 2 sqrt(p lam)`` of
       ``|x_i - x_j|``, and ``E_i`` sums them in some tree.  With
       ``T_i <= (1 + g_1) A_i``, ``|E_i - T_i| <= eta_i = 2 (g_(p+3) + g_m)
       A_i + 2 t``.

    Let ``k`` be the lowest index with the least ``E``.  For every ``i``,
    ``S_k - Delta_k - eta_k <= T_k - eta_k <= E_k <= E_i <= T_i + eta_i <=
    S_i + Delta_i + eta_i``.  So ``k`` is among the candidates, the rows
    with ``S_i - B_i <= min_j (S_j + B_j)``, and it is their exact
    ``argmin``, lowest index first: the answer is the full ``E``'s, at any
    BLAS thread count or summation order.  ``B`` is twice ``Delta + eta``
    as evaluated in floating point.  ``B_i >= sqrt(u) (A_i + t)`` and
    ``S_i <= 3 (A_i + t)``, so the second ``Delta + eta`` covers the rounding of
    the bound itself (relative ``g_m`` in ``P``, a few ``u`` elsewhere) and
    of ``S +- B``.  A non-finite ``S`` or ``B`` makes its comparison
    false, and the row stays a candidate.
    """
    X = _as_points(points)
    cand = _medoid_candidates(X)
    kernels = _distance_kernels()
    chunks = [cand[a : a + _MEDOID_ROWS] for a in range(0, cand.size, _MEDOID_ROWS)]
    sums = np.concatenate([kernels.cdist_euclidean(X[c], X).sum(axis=1) for c in chunks])
    idx = int(cand[np.argmin(sums)])  # argmin takes the first minimum: lowest index
    return idx, X[idx]


@np.errstate(over="ignore", invalid="ignore")  # non-finite sums keep their rows
def _medoid_candidates(X: np.ndarray) -> np.ndarray:
    """The rows that ``medoid``'s certified screen keeps, ascending; see its docstring."""
    m, p = X.shape
    Z = X - X.sum(axis=0) / m
    n2 = np.einsum("ij,ij->i", Z, Z)
    b = max(3, math.isqrt(_GEMM_CALLING_THREAD // p))
    t = -(-m // b)
    edges = [m * i // t for i in range(t + 1)]  # t tiles of 2..b rows once m >= 2
    S = np.zeros(m)
    for i in range(t):
        a, e = edges[i], edges[i + 1]
        for c, f in zip(edges[i:-1], edges[i + 1 :]):
            G = Z[a:e] @ Z[c:f].T
            G *= -2.0
            G += n2[a:e, None]
            G += n2[c:f]
            np.sqrt(np.abs(G, out=G), out=G)
            S[a:e] += G.sum(axis=1)
            if c > a:  # a block off the diagonal stands for its mirror image too
                S[c:f] += G.sum(axis=0)
    u, lam = 2.0**-53, 2.0**-1074
    g = lambda k: k * u / (1 - k * u)  # the docstring's g_k
    rho = np.sqrt((n2 + p * lam) / (1 - g(p)))
    A = m * rho + rho.sum()
    tail = m * math.sqrt(5 * p * lam)
    delta = (g(1) + math.sqrt(g(p + 2)) + 2 * g(m)) * A + (1 + 2 * g(m)) * tail
    B = 2 * (delta + 2 * (g(p + 3) + g(m)) * A + 2 * tail)
    return np.flatnonzero(~(S - B > (S + B).min()))


@dataclass(frozen=True)
class RobustScaleModel:
    """Columnwise median/MAD standardization parameters.

    ``fallback_mask`` marks columns whose raw MAD was zero; their scale is
    set to 1 so the transform stays defined.
    """

    centers: np.ndarray
    scales: np.ndarray
    fallback_mask: np.ndarray


def _median_rows(T: np.ndarray) -> np.ndarray:
    """Each row's median by selection, leaving ``T`` partitioned: bitwise ``np.median(T, axis=1)``,
    whose mean of the middle values turns a -0.0 into 0.0, as the ``0.0 +`` does."""
    n = T.shape[1]
    h = n // 2
    T.partition(h, axis=1)
    if n % 2:
        return 0.0 + T[:, h]
    return (0.0 + T[:, :h].max(axis=1) + T[:, h]) / 2


def robust_scale_fit(X) -> RobustScaleModel:
    """Fit per-column robust centers and scales.

    Centers are componentwise medians, scales are raw median absolute
    deviations (no normal-consistency factor).  A column with zero MAD
    gets scale 1 and is flagged in ``fallback_mask``.
    """
    X = _as_points(X, "X")
    T = X.T.copy()  # one (d, n) working copy: each column's values contiguous
    centers = _median_rows(T)
    scales = _median_rows(np.abs(np.subtract(X.T, centers[:, None], out=T), out=T))
    fallback = scales == 0.0
    scales = np.where(fallback, 1.0, scales)
    return RobustScaleModel(centers=centers, scales=scales, fallback_mask=fallback)


def robust_scale_apply(X, model: RobustScaleModel) -> np.ndarray:
    """Apply a fitted robust scaling: ``(X - centers) / scales``."""
    X = _as_points(X, "X")
    d = model.centers.shape[0]
    if X.shape[1] != d:
        raise ValueError(f"dimension mismatch: X has {X.shape[1]} columns, model expects {d}")
    out = np.subtract(X, model.centers)
    return np.divide(out, model.scales, out=out)
