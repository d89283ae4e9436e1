"""Dimension reduction: Gaussian random projection and PCA.

Random projections use i.i.d. N(0, 1/p) entries, which preserves expected
squared norms (the Johnson-Lindenstrauss regime).  PCA is computed from
the SVD of the mean-centred data with a deterministic sign convention.
``distortion_profile`` measures how far a given embedding actually is
from isometry on sampled point pairs.

``project``'s product and ``fit_pca``'s SVD are the pipeline's only
threaded BLAS calls.  The package never changes the BLAS thread count, so
their bytes follow the BLAS build, its CPU kernel and its settings.
``fit_pca`` makes ``np.linalg.svd``'s own LAPACK call through numpy's
OpenBLAS, in buffers it owns, so the SVD's peak holds three fewer
matrix-sized buffers than numpy's; with another BLAS build it calls
``np.linalg.svd``.  Between calls numpy's OpenBLAS worker threads sleep,
not spin, because the package gives OpenBLAS its shortest idle timeout
when it is imported (see ``hdbwdm._openblas``).
"""

from __future__ import annotations

from ctypes import byref, c_int64
from dataclasses import dataclass

import numpy as np

from . import _openblas
from .errors import DataError, NumericalError, UsageError
from .geometry import _as_points

__all__ = [
    "ProjectionModel",
    "DistortionProfile",
    "fit_random_projection",
    "fit_pca",
    "project",
    "distortion_profile",
]

_KINDS = ("rp", "pca")  # the projection methods; a sweep's seed path holds a method's position


@dataclass(frozen=True)
class ProjectionModel:
    """A fitted linear embedding ``x -> matrix @ (x - centers)``.

    Attributes
    ----------
    kind : str
        "rp" (Gaussian random projection) or "pca".
    matrix : ndarray, shape (p, d)
        Projection rows.  Orthonormal loadings for PCA.
    centers : ndarray, shape (d,)
        Column offsets subtracted before projecting; zeros for "rp".
    seed : int or None
        Seed that generated a random projection; None for PCA.
    explained_variance : ndarray or None
        Descending component variances for PCA; None for "rp".
    """

    kind: str
    matrix: np.ndarray
    centers: np.ndarray
    seed: int | None = None
    explained_variance: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if np.ndim(self.matrix) != 2:
            raise ValueError(f"matrix must be 2-D (p, d), got shape {np.shape(self.matrix)}")
        if np.shape(self.centers) != (self.d,):
            raise ValueError(f"centers must have shape ({self.d},), got {np.shape(self.centers)}")
        ev = self.explained_variance
        if ev is not None and np.shape(ev) != (self.p,):
            raise ValueError(f"explained_variance must have shape ({self.p},), got {np.shape(ev)}")

    @property
    def p(self) -> int:
        """Target dimension: the number of projection rows."""
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        """Source dimension: the number of input columns."""
        return self.matrix.shape[1]


def fit_random_projection(d: int, p: int, seed: int) -> ProjectionModel:
    """Draw a p x d Gaussian projection with entries N(0, 1/p).

    The matrix is generated by ``numpy.random.default_rng(seed)`` via
    ``standard_normal``, so one seed always yields one matrix for a given
    numpy generator implementation.

    Preconditions: ``1 <= p <= d``.
    """
    if not 1 <= p <= d:
        raise UsageError(f"need 1 <= p <= d, got p={p}, d={d}")
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((p, d))
    matrix /= np.sqrt(p)
    return ProjectionModel(kind="rp", matrix=matrix, centers=np.zeros(d), seed=int(seed))


def fit_pca(X, p: int) -> ProjectionModel:
    """Top-p principal components of ``X`` via SVD of the centred matrix.

    Loadings are orthonormal rows in descending explained-variance order.
    Each row's sign is fixed so that its largest-magnitude entry is
    positive.  ``p`` may not exceed the attainable rank ``min(n-1, d)``.

    The SVD is ``np.linalg.svd(X - centers, full_matrices=False)``'s own
    LAPACK call, made in buffers this function owns (see ``_svd``), so
    the bytes are that call's.  They follow the BLAS build, its CPU
    kernel and its thread count, which this function never changes.  An
    SVD that does not converge raises :class:`NumericalError`.
    """
    X = _as_points(X, "X")
    n, d = X.shape
    if n < 2:
        raise UsageError(f"PCA needs at least 2 observations, got {n}")
    max_rank = min(n - 1, d)
    if not 1 <= p <= max_rank:
        raise UsageError(
            f"p={p} exceeds the attainable rank {max_rank} for {n} observations in {d} dimensions"
        )
    centers = X.mean(axis=0)
    svals, vt = _svd(X, centers)
    loadings = vt[:p].copy()
    explained = (svals[:p] ** 2) / (n - 1)
    # sign convention: largest-|entry| of each loading made positive
    lead = np.argmax(np.abs(loadings), axis=1)
    signs = np.sign(loadings[np.arange(p), lead])
    signs[signs == 0] = 1.0
    loadings *= signs[:, None]
    return ProjectionModel(
        kind="pca",
        matrix=loadings,
        centers=centers,
        seed=None,
        explained_variance=explained,
    )


def _svd(X: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and Vᵀ of ``np.linalg.svd(X - centers, full_matrices=False)``.

    numpy computes them in one LAPACK call, ``dgesdd`` with JOBZ='S'.
    With numpy's OpenBLAS (``hdbwdm._openblas``) this function makes that
    call itself, with numpy's arguments and numpy's workspace (the size an
    LWORK = -1 query reports, at least 1), so S and Vᵀ are numpy's bytes.
    X is centred straight into the Fortran-order A that LAPACK overwrites,
    and U, Vᵀ and the workspace are arrays of this call.  At the call the
    process holds A (n × d), U (n × k), Vᵀ (k × d) and the workspace,
    k = min(n, d); ``np.linalg.svd`` holds those and also the centred
    C-order copy and its outputs, second copies of U and Vᵀ.  A, U and the
    workspace are freed on return.

    With another BLAS build it calls ``np.linalg.svd`` as it stands.  An
    SVD that does not converge (INFO > 0; numpy's ``LinAlgError``) raises
    :class:`NumericalError`.  A negative INFO names an argument LAPACK
    refused, a programming error, and raises ``RuntimeError``.
    """
    entries = _openblas._numpy_openblas()
    if entries is None:
        try:
            _, svals, vt = np.linalg.svd(X - centers, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("PCA's SVD did not converge") from exc
        return svals, vt
    n, d = X.shape
    k = min(n, d)
    a = np.empty((n, d), order="F")
    np.subtract(X, centers, out=a)
    svals = np.empty(k)
    u = np.empty((n, k), order="F")
    vt = np.empty((k, d), order="F")
    iwork = np.empty(8 * k, dtype=np.int64)
    rows, cols, lda, ldvt = (c_int64(v) for v in (n, d, n, k))
    lwork, info = c_int64(-1), c_int64()

    def dgesdd(work):
        entries.dgesdd(
            b"S", byref(rows), byref(cols), a.ctypes.data, byref(lda), svals.ctypes.data,
            u.ctypes.data, byref(lda), vt.ctypes.data, byref(ldvt),
            work.ctypes.data, byref(lwork), iwork.ctypes.data, byref(info),
        )

    size = np.empty(1)
    dgesdd(size)  # LWORK = -1 asks for the workspace size, in WORK(1)
    lwork.value = max(1, int(size[0]))
    dgesdd(np.empty(lwork.value))
    if info.value > 0:
        raise NumericalError("PCA's SVD did not converge")
    if info.value < 0:
        raise RuntimeError(f"dgesdd refused its argument {-info.value}")
    return svals, vt


def project(X, model: ProjectionModel) -> np.ndarray:
    """Apply a fitted projection to an (n, d) matrix, returning (n, p).

    Zero centers (a random projection) make no centred copy.

    The bytes follow the BLAS build, its CPU kernel and its thread count,
    which this function never changes.
    """
    X = _as_points(X, "X")
    if X.shape[1] != model.d:
        raise ValueError(
            f"dimension mismatch: X has {X.shape[1]} columns, model expects {model.d}"
        )
    if np.any(model.centers):
        X = X - model.centers
    return X @ model.matrix.T


@dataclass(frozen=True)
class DistortionProfile:
    """Distance distortion of an embedding on sampled pairs.

    ``epsilon_hat`` is the largest observed deviation of the squared
    distance ratio from 1, i.e. ``max(|min_ratio-1|, |max_ratio-1|)``.
    """

    epsilon_hat: float
    min_ratio: float
    max_ratio: float
    pairs_sampled: int


def _decode_pair_index(m: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices over the i<j pairs of range(n) to (i, j)."""
    # pairs are ordered (0,1),(0,2),...,(0,n-1),(1,2),...: row i holds the
    # n-1-i pairs (i, i+1..n-1), so a row's start is the cumulative length
    # of the rows before it, and searchsorted finds the row of each index.
    row_len = np.arange(n - 1, 0, -1)
    starts = np.concatenate([[0], np.cumsum(row_len)])
    i = np.searchsorted(starts, m, side="right") - 1
    j = m - starts[i] + i + 1
    return i, j


def distortion_profile(X, X_proj, max_pairs: int = 10_000, seed: int = 0) -> DistortionProfile:
    """Squared-distance ratios of an embedding over sampled point pairs.

    Samples up to ``max_pairs`` unordered pairs uniformly without
    replacement (all pairs when there are fewer than ``max_pairs``).
    Pairs with zero distance in the source space are skipped.

    Parameters
    ----------
    X : array-like, shape (n, d)
        Source-space data.
    X_proj : array-like, shape (n, p)
        The same observations after projection, row-aligned with ``X``.
    max_pairs : int
        Sampling cap.
    seed : int
        Seed for the pair sample.
    """
    X = _as_points(X, "X")
    Xp = _as_points(X_proj, "X_proj")
    n = X.shape[0]
    if Xp.shape[0] != n:
        raise ValueError(f"row mismatch: X has {n} rows, X_proj has {Xp.shape[0]}")
    if n < 2:
        raise ValueError("need at least 2 rows to sample pairs")
    total = n * (n - 1) // 2
    if total <= max_pairs:
        lin = np.arange(total)
    else:
        rng = np.random.default_rng(seed)
        lin = rng.choice(total, size=max_pairs, replace=False)
    i, j = _decode_pair_index(lin, n)
    d2_src = ((X[i] - X[j]) ** 2).sum(axis=1)
    d2_dst = ((Xp[i] - Xp[j]) ** 2).sum(axis=1)
    keep = d2_src > 0.0
    if not keep.any():
        raise DataError("all sampled pairs have zero source-space distance")
    ratios = d2_dst[keep] / d2_src[keep]
    lo = float(ratios.min())
    hi = float(ratios.max())
    return DistortionProfile(
        epsilon_hat=max(abs(lo - 1.0), abs(hi - 1.0)),
        min_ratio=lo,
        max_ratio=hi,
        pairs_sampled=int(keep.sum()),
    )

