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
from .errors import DataError

__all__ = [
    "OUTLIER",
    "MixtureConfig",
    "LabeledDataset",
    "cluster_means",
    "generate",
    "true_partition",
    "write_dataset_csv",
    "read_dataset_csv",
]

OUTLIER = -1  # label sentinel for contamination rows ("OUT" in CSV)


@dataclass(frozen=True)
class MixtureConfig:
    """Generator settings; the defaults give the standard benchmark mixture."""

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
            raise ValueError(f"n_inliers must be >= 1, got {self.n_inliers}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if not 1 <= self.K_true <= self.n_inliers:
            raise ValueError(f"need 1 <= K_true <= n_inliers, got K_true={self.K_true}")
        if self.within_sd <= 0:
            raise ValueError(f"within_sd must be > 0, got {self.within_sd}")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError(f"outlier_fraction must lie in [0, 1), got {self.outlier_fraction}")
        lo, hi = self.outlier_range
        if not lo < hi:
            raise ValueError(f"outlier_range must be (lo, hi) with lo < hi, got {self.outlier_range}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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


def cluster_means(cfg: MixtureConfig) -> np.ndarray:
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
    means = cluster_means(cfg)
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
    return Partition(
        labels=ds.labels.copy(), K=ds.config.K_true, alpha=0.0, source="true-labels"
    )


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


def read_dataset_csv(path, labels: bool | None = None):
    """Read a dataset CSV, returning ``(X, labels_or_None)``.

    A header row is detected by non-numeric leading tokens.  With
    ``labels=None`` the trailing column is treated as labels when the
    header names it ``label``, when any value in it is ``OUT``, or when
    every value in it parses as an integer; pass True/False to force.
    """
    rows = []
    header_cells = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            if header_cells is None and rows == [] and not _is_float(cells[0]):
                header_cells = cells
                continue
            rows.append(cells)
    if not rows:
        raise DataError(f"dataset file {path} has no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"dataset file {path} has ragged rows")
    last = [r[-1] for r in rows]
    if labels is None:
        if header_cells is not None and header_cells[-1].lower() == "label":
            labels = True
        elif any(v.upper() == "OUT" for v in last):
            labels = True
        else:
            labels = width > 1 and all(_is_float(v) and float(v).is_integer() for v in last)
    if labels and width < 2:
        raise DataError(f"dataset file {path} has no feature columns beside the label")
    try:
        if labels:
            X = np.array([[float(v) for v in r[:-1]] for r in rows])
            y = np.array(
                [OUTLIER if v.upper() == "OUT" else int(float(v)) for v in last], dtype=int
            )
        else:
            X = np.array([[float(v) for v in r] for r in rows])
            y = None
    except (ValueError, OverflowError) as exc:
        raise DataError(f"cannot parse dataset file {path}: {exc}") from exc
    if not np.isfinite(X).all():
        raise DataError(f"dataset file {path} contains non-finite values")
    return X, y
