"""Robust cluster validation for high-dimensional, contaminated data.

The package computes BWDM, a between/within validity ratio built on
spatial medians and medoids, and HD-BWDM, the same index evaluated after
robust scaling, dimension reduction (Gaussian random projection or PCA)
and trimmed clustering.  A small harness replicates the standard
diagnostic and sweep experiments, and ``hdbwdm`` on the command line
exposes the whole pipeline.

The package exports ``__version__`` and every name in its modules'
``__all__`` lists, which are the one place a public name is declared.
"""

from . import _openblas  # noqa: F401  (first: it quiets OpenBLAS before numpy loads)
from .clustering import *
from .datagen import *
from .errors import *
from .geometry import *
from .harness import *
from .projection import *
from .validity import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *clustering.__all__,
    *datagen.__all__,
    *errors.__all__,
    *geometry.__all__,
    *harness.__all__,
    *projection.__all__,
    *validity.__all__,
]
