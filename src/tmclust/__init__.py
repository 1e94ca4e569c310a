"""Model-based clustering of multidimensional-array observations.

Finite mixtures of multilinear normal distributions: each component is a
Gaussian law on order-D arrays whose vec-covariance is a Kronecker product
of per-dimension scale matrices, optionally constrained dimension by
dimension (modified-Cholesky and diagonal families).  Fitting is EM with
conditional M-step sweeps; model selection is BIC over group counts and
family combinations; a simulation harness measures recovery.
"""

from ._version import __version__
from .em import (
    FitOptions,
    FitReport,
    FreeParamCount,
    MixtureModel,
    bic,
    e_step,
    fit,
    free_params,
    init_kmeans,
    normalize_identifiability,
)
from .errors import (
    DataFormatError,
    EmptyComponentError,
    NotPositiveDefiniteError,
    SingularScaleError,
    TmclustError,
)
from .io import DatasetManifest, load_dataset, read_manifest
from .mda import matricize_mode1, mode_product, vectorize
from .metrics import (
    adjusted_rand_index,
    kron_relative_error,
    rand_index,
    relative_error,
)
from .mlnd import MlndParams, log_density, log_density_batch, sample
from .parsimony import GpcmVviFactors, McdFactors, ScaleModel, SharedMcdFactors
from .selection import ScanGrid, ScanResult, ScanRow, scan
from .simulate import SimConfig, default_study, full_study, generate_dataset, run_study

__all__ = [
    "DataFormatError",
    "DatasetManifest",
    "EmptyComponentError",
    "FitOptions",
    "FitReport",
    "FreeParamCount",
    "GpcmVviFactors",
    "McdFactors",
    "MixtureModel",
    "MlndParams",
    "NotPositiveDefiniteError",
    "ScaleModel",
    "ScanGrid",
    "ScanResult",
    "ScanRow",
    "SharedMcdFactors",
    "SimConfig",
    "SingularScaleError",
    "TmclustError",
    "__version__",
    "adjusted_rand_index",
    "bic",
    "default_study",
    "e_step",
    "fit",
    "free_params",
    "full_study",
    "generate_dataset",
    "init_kmeans",
    "kron_relative_error",
    "load_dataset",
    "log_density",
    "log_density_batch",
    "matricize_mode1",
    "mode_product",
    "normalize_identifiability",
    "rand_index",
    "read_manifest",
    "relative_error",
    "run_study",
    "sample",
    "scan",
    "vectorize",
]
