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

from .clustering import TRIMMED, Partition
from .errors import DataError, UsageError

__all__ = [
    "MixtureConfig",
    "LabeledDataset",
    "generate",
    "true_partition",
    "write_dataset_csv",
    "read_dataset_csv",
]

_BLOCK_CELLS = 1 << 14  # cells per block of the dataset CSV reader and writer


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
    """Generated rows with ground-truth labels: a cluster id, or TRIMMED for an outlier."""

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
    single ``default_rng(cfg.seed)``, into one matrix that is then
    shuffled into a copy: the peak is those two matrices.
    """
    rng = np.random.default_rng(cfg.seed)
    means = _cluster_means(cfg)
    X = np.empty((cfg.n_total, cfg.d))
    y = np.full(cfg.n_total, TRIMMED, dtype=int)
    start = 0
    for k, size in enumerate(_cluster_sizes(cfg)):
        block = X[start:start + size]  # a view, drawn, scaled and shifted in place
        rng.standard_normal(out=block)
        block *= cfg.within_sd
        block += means[k]
        y[start:start + size] = k
        start += size
    if cfg.n_outliers:
        X[start:] = rng.uniform(*cfg.outlier_range, size=(cfg.n_outliers, cfg.d))
    perm = rng.permutation(cfg.n_total)
    return LabeledDataset(X=X[perm], labels=y[perm], config=cfg)


def true_partition(ds: LabeledDataset) -> Partition:
    """Ground-truth labels as a partition, outlier rows marked TRIMMED."""
    return Partition(labels=ds.labels.copy(), alpha=0.0)


def write_dataset_csv(X, labels, path, header: bool = True) -> None:
    """Write rows as CSV with an optional trailing label column.

    Labels may be None (no label column); outlier rows are written as
    ``OUT``.  Rows are formatted and written a block of cells at a time,
    so beside ``X`` the writer holds one block's numbers and text.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    step = max(1, _BLOCK_CELLS // max(d, 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            cols = [f"x{j}" for j in range(d)]
            if labels is not None:
                cols.append("label")
            fh.write(",".join(cols) + "\n")
        elif not n:
            fh.write("\n")  # no header and no rows: one empty line
        for start in range(0, n, step):
            rows = X[start:start + step].tolist()
            if labels is None:
                lines = [",".join(map(repr, row)) for row in rows]
            else:
                lines = [
                    ",".join([*map(repr, row), "OUT" if int(lab) == TRIMMED else str(int(lab))])
                    for row, lab in zip(rows, labels[start:start + step], strict=True)
                ]
            fh.write("\n".join(lines))
            fh.write("\n")


def _is_float(cell: str) -> bool:
    """The one rule for what text is a number: ``float(cell.strip())`` parses it."""
    try:
        float(cell.strip())
    except ValueError:
        return False
    return True


def _float_matrix(rows: list[list[str]]):
    """``float(cell.strip())`` of every cell, parsed in one call.

    Returns ``(matrix, None)``, or ``(None, (i, message))``: ``float()``'s
    message for the first cell that does not parse, and its row ``i``.
    Only a refused call scans the rows a second time, to find ``i``.
    """
    try:
        return np.array([[cell.strip() for cell in row] for row in rows], dtype=float), None
    except ValueError as exc:
        i = next(i for i, row in enumerate(rows) if not all(map(_is_float, row)))
        return None, (i, str(exc))


def _label_error(tok: str) -> str:
    """Why ``tok`` is not ``OUT`` or a whole number that fits the int64 label dtype."""
    try:
        int(float(tok))  # text, inf and nan: float()'s or int()'s own message
    except (ValueError, OverflowError) as exc:
        return str(exc)
    return f"label {tok!r} is not a whole number that fits int64"


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

    Every cell reads as ``float(cell.strip())``, parsed once.  The rows are
    parsed a block of cells at a time and the blocks joined at the end, so
    the reader holds about two matrices and one block's text; which defect
    it reports is decided over the whole file, wherever the blocks fall.
    """
    header_cells = None
    width = None
    blocks = []  # (leading columns, trailing column, its OUT mask) per block
    n = 0  # data rows parsed
    # the file's first cell that float() refuses in the leading columns and in the
    # trailing one (OUT included), as (row, message); and its first bad label
    bad_lead = bad_tail = (math.inf, None)
    bad_label = None

    def parse(lines):
        nonlocal n, bad_lead, bad_tail, bad_label
        try:  # numpy's parser reads the leading columns unless it refuses a cell
            lead = np.loadtxt(lines, delimiter=",", usecols=range(width - 1), comments=None, ndmin=2)
        except ValueError:
            lead, refused = _float_matrix([line.split(",")[:-1] for line in lines])
            if refused:
                bad_lead = min(bad_lead, (n + refused[0], refused[1]))
        tails = [line[line.rfind(",") + 1:].strip() for line in lines]
        last = np.empty(len(tails))
        for i, tail in enumerate(tails):
            try:
                last[i] = float(tail)
            except ValueError as exc:  # OUT or text: nan
                last[i] = math.nan
                bad_tail = min(bad_tail, (n + i, str(exc)))
        out = np.array([t.upper() == "OUT" for t in tails], dtype=bool)
        whole = (last == np.trunc(last)) & (last >= -(2.0**63)) & (last < 2.0**63)
        bad = ~(out | whole)
        if bad.any() and bad_label is None:
            bad_label = _label_error(tails[int(np.argmax(bad))])
        blocks.append((lead, last, out))
        n += len(lines)

    with open(path, encoding="utf-8-sig") as fh:
        lines = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if width is None:
                cells = line.split(",")
                if header_cells is None and not _is_float(cells[0]):
                    header_cells = [c.strip() for c in cells]
                    continue
                width = len(cells)
                step = max(1, _BLOCK_CELLS // width)
            if line.count(",") != width - 1:
                raise DataError(f"dataset file {path} has ragged rows")
            lines.append(line)
            if len(lines) == step:
                parse(lines)
                lines = []
        if lines:
            parse(lines)
    if width is None:
        raise DataError(f"dataset file {path} has no data rows")
    if header_cells is None:
        labels = any(out.any() for _, _, out in blocks) or (width > 1 and bad_label is None)
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
        defect = bad_lead[1] or bad_label
    else:  # the first bad cell in row order; within a row the leading cells come first
        defect = min(bad_lead, bad_tail, key=lambda fact: fact[0])[1]
    if defect:
        raise DataError(f"cannot parse dataset file {path}: {defect}")
    X = np.empty((n, width - 1 if labels else width))
    y = np.empty(n, dtype=int) if labels else None
    row = 0
    for lead, last, out in blocks:
        stop = row + len(last)
        X[row:stop, :width - 1] = lead
        if labels:
            y[row:stop] = np.where(out, TRIMMED, last)
        else:
            X[row:stop, -1] = last
        row = stop
    if not np.isfinite(X).all():
        raise DataError(f"dataset file {path} contains non-finite values")
    return X, y
