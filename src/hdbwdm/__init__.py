"""Robust cluster validation for high-dimensional, contaminated data.

The package computes BWDM, a between/within validity ratio built on
spatial medians and medoids, and HD-BWDM, the same index evaluated after
robust scaling, dimension reduction (Gaussian random projection or PCA)
and trimmed clustering.  A small harness replicates the standard
diagnostic and sweep experiments, and ``hdbwdm`` on the command line
exposes the whole pipeline.
"""

from .clustering import (
    Partition,
    TRIMMED,
    cluster_centers,
    kmeans,
    trimmed_kmeans,
)
from .datagen import (
    LabeledDataset,
    MixtureConfig,
    OUTLIER,
    generate,
    read_dataset_csv,
    true_partition,
    write_dataset_csv,
)
from .errors import DataError, HdbwdmError, NumericalError, UsageError
from .geometry import (
    RobustScaleModel,
    SpatialMedianInfo,
    medoid,
    robust_scale_apply,
    robust_scale_fit,
    spatial_median,
)
from .harness import (
    DiagnosticReport,
    RepResult,
    SweepCell,
    derive_seed,
    run_diagnostic,
    run_select_k,
    run_sweep,
)
from .projection import (
    DistortionProfile,
    ProjectionModel,
    distortion_profile,
    fit_pca,
    fit_random_projection,
    project,
)
from .validity import (
    IndexReport,
    PipelineConfig,
    SelectKResult,
    abdm,
    awdm,
    bwdm,
    hd_bwdm,
    select_k,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "HdbwdmError",
    "UsageError",
    "DataError",
    "NumericalError",
    "spatial_median",
    "SpatialMedianInfo",
    "medoid",
    "robust_scale_fit",
    "robust_scale_apply",
    "RobustScaleModel",
    "ProjectionModel",
    "DistortionProfile",
    "fit_random_projection",
    "fit_pca",
    "project",
    "distortion_profile",
    "TRIMMED",
    "Partition",
    "kmeans",
    "trimmed_kmeans",
    "cluster_centers",
    "IndexReport",
    "PipelineConfig",
    "SelectKResult",
    "abdm",
    "awdm",
    "bwdm",
    "hd_bwdm",
    "select_k",
    "OUTLIER",
    "MixtureConfig",
    "LabeledDataset",
    "generate",
    "true_partition",
    "write_dataset_csv",
    "read_dataset_csv",
    "RepResult",
    "SweepCell",
    "DiagnosticReport",
    "derive_seed",
    "run_diagnostic",
    "run_sweep",
    "run_select_k",
]
