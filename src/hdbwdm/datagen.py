"""Synthetic benchmark data: Gaussian clusters plus uniform outliers.

Cluster k is drawn from N(mean_k, within_sd^2 * I) with
``mean_k = k * center_spacing`` in every coordinate, so adjacent cluster
centers sit ``center_spacing * sqrt(d)`` apart.  Outliers are appended
after the inliers with each coordinate uniform on ``outlier_range``,
then all rows are shuffled by the same seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import Partition
from .errors import DataError, UsageError

__all__ = [
    "OUTLIER",
    "MixtureConfig",
    "LabeledDataset",
    "generate",
    "true_partition",
    "write_dataset_csv",
    "read_dataset_csv",
]

OUTLIER = -1  # label sentinel for contamination rows ("OUT" in CSV)


@dataclass(frozen=True)
class MixtureConfig:
    """Generator settings; the defaults give the standard benchmark mixture.

    Values whose draws could not all be finite are refused before any
    draw, among them a ``within_sd`` for which
    ``|(K_true - 1) * center_spacing| + 64 * within_sd`` overflows.  The
    bound relies on numpy's ziggurat ``standard_normal``, whose tail draw
    ``r + x`` (``r`` = 3.654) is kept only if ``x**2 < 2 * -log(u)`` for a
    double ``u >= 2**-53``, so no draw exceeds 12.3 in magnitude, far
    below 64.
    """

    n_inliers: int = 500
    d: int = 500
    K_true: int = 5
    center_spacing: float = 15.0
    within_sd: float = math.sqrt(0.5)
    outlier_fraction: float = 0.10
    outlier_range: tuple[float, float] = (-100.0, 100.0)
    seed: int = 0

    def __post_init__(self):
        if self.n_inliers < 1:
            raise UsageError(f"n_inliers must be >= 1, got {self.n_inliers}")
        if self.d < 1:
            raise UsageError(f"d must be >= 1, got {self.d}")
        if not 1 <= self.K_true <= self.n_inliers:
            raise UsageError(f"need 1 <= K_true <= n_inliers, got K_true={self.K_true}")
        if not 0 < self.within_sd < math.inf:
            raise UsageError(f"within_sd must be finite and > 0, got {self.within_sd}")
        if not math.isfinite((self.K_true - 1) * self.center_spacing):
            raise UsageError(
                f"the largest cluster mean (K_true - 1) * center_spacing must be finite, "
                f"got center_spacing={self.center_spacing} with K_true={self.K_true}"
            )
        if not math.isfinite(abs((self.K_true - 1) * self.center_spacing) + 64 * self.within_sd):
            raise UsageError(
                f"within_sd={self.within_sd} is too large: "
                f"|(K_true - 1) * center_spacing| + 64 * within_sd must be finite"
            )
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise UsageError(f"outlier_fraction must lie in [0, 1), got {self.outlier_fraction}")
        lo, hi = self.outlier_range
        if not lo < hi:
            raise UsageError(f"outlier_range must be (lo, hi) with lo < hi, got {self.outlier_range}")
        if not math.isfinite(hi - lo):  # also false for an infinite bound
            raise UsageError(
                f"outlier_range needs finite bounds and a finite width hi - lo, got {self.outlier_range}"
            )
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")

    @property
    def n_outliers(self) -> int:
        return int(round(self.outlier_fraction * self.n_inliers))

    @property
    def n_total(self) -> int:
        return self.n_inliers + self.n_outliers


@dataclass(frozen=True)
class LabeledDataset:
    """Generated rows with ground-truth labels (cluster id or OUTLIER)."""

    X: np.ndarray
    labels: np.ndarray
    config: MixtureConfig


def _cluster_means(cfg: MixtureConfig) -> np.ndarray:
    """The (K_true, d) matrix of configured cluster centers."""
    return np.arange(cfg.K_true)[:, None] * cfg.center_spacing * np.ones(cfg.d)


def _cluster_sizes(cfg: MixtureConfig) -> np.ndarray:
    base, rem = divmod(cfg.n_inliers, cfg.K_true)
    sizes = np.full(cfg.K_true, base, dtype=int)
    sizes[:rem] += 1  # remainder goes to the lowest cluster ids
    return sizes


def generate(cfg: MixtureConfig) -> LabeledDataset:
    """Draw one labeled dataset from a mixture configuration.

    Draw order for a given seed is fixed: cluster 0..K-1 inlier blocks,
    then the outlier block, then one shuffle permutation, all from a
    single ``default_rng(cfg.seed)``.
    """
    rng = np.random.default_rng(cfg.seed)
    sizes = _cluster_sizes(cfg)
    means = _cluster_means(cfg)
    blocks = []
    labels = []
    for k in range(cfg.K_true):
        blocks.append(rng.standard_normal((sizes[k], cfg.d)) * cfg.within_sd + means[k])
        labels.append(np.full(sizes[k], k, dtype=int))
    n_out = cfg.n_outliers
    if n_out:
        lo, hi = cfg.outlier_range
        blocks.append(rng.uniform(lo, hi, size=(n_out, cfg.d)))
        labels.append(np.full(n_out, OUTLIER, dtype=int))
    X = np.vstack(blocks)
    y = np.concatenate(labels)
    perm = rng.permutation(cfg.n_total)
    return LabeledDataset(X=X[perm], labels=y[perm], config=cfg)


def true_partition(ds: LabeledDataset) -> Partition:
    """Ground-truth labels as a partition, outlier rows marked TRIMMED."""
    return Partition(labels=ds.labels.copy(), alpha=0.0)


def write_dataset_csv(X, labels, path, header: bool = True) -> None:
    """Write rows as CSV with an optional trailing label column.

    Labels may be None (no label column); outlier rows are written as
    ``OUT``.
    """
    X = np.asarray(X, dtype=float)
    lines = []
    if header:
        cols = [f"x{j}" for j in range(X.shape[1])]
        if labels is not None:
            cols.append("label")
        lines.append(",".join(cols))
    for i, row in enumerate(X):
        cells = [repr(float(v)) for v in row]
        if labels is not None:
            lab = int(labels[i])
            cells.append("OUT" if lab == OUTLIER else str(lab))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _is_float(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _fits_label(tok: str) -> bool:
    """Whether ``tok`` is a whole number that fits the int64 label dtype."""
    try:
        value = float(tok)
    except ValueError:
        return False
    return value.is_integer() and -(2.0**63) <= value < 2.0**63


def _float_matrix(rows: list[list[str]]) -> np.ndarray:
    """``float()`` of every cell, parsed in one call; a cell may carry spaces."""
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        for row in rows:  # raise float()'s error for the first bad cell, named without spaces
            for cell in row:
                float(cell.strip())
        raise


def read_dataset_csv(path):
    """Read a dataset CSV, returning ``(X, labels_or_None)``.

    The file is UTF-8, with or without a byte-order mark.  A header row is
    detected by non-numeric leading tokens; it must have as many cells as
    the rows.  A header's last cell alone decides: the trailing column is
    labels when that cell is ``label`` (in any case).  Without a header
    the trailing column is labels when any value in it is ``OUT``, or
    when every value in it is a whole number that fits int64.  Every
    label cell must be ``OUT`` or such a whole number; any other is a
    :class:`DataError`.
    """
    rows = []
    header_cells = None
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header_cells is None and rows == [] and not _is_float(cells[0]):
                header_cells = [c.strip() for c in cells]
                continue
            rows.append(cells)
    if not rows:
        raise DataError(f"dataset file {path} has no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"dataset file {path} has ragged rows")
    last = [r[-1].strip() for r in rows]
    if header_cells is None:
        labels = any(v.upper() == "OUT" for v in last) or (
            width > 1 and all(_fits_label(v) for v in last)
        )
    elif len(header_cells) != width:
        raise DataError(
            f"dataset file {path} has a header of {len(header_cells)} cells, "
            f"but its rows have {width}"
        )
    else:
        labels = header_cells[-1].lower() == "label"
    if labels and width < 2:
        raise DataError(f"dataset file {path} has no feature columns beside the label")
    if labels:
        for r in rows:
            r.pop()
    try:
        X = _float_matrix(rows)
        y = None
        if labels:
            for v in last:
                if v.upper() != "OUT" and not _fits_label(v):
                    int(float(v))  # text, inf and nan: float()'s or int()'s own message
                    raise ValueError(f"label {v!r} is not a whole number that fits int64")
            y = np.array([OUTLIER if v.upper() == "OUT" else int(float(v)) for v in last], dtype=int)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"cannot parse dataset file {path}: {exc}") from exc
    if not np.isfinite(X).all():
        raise DataError(f"dataset file {path} contains non-finite values")
    return X, y
