"""Semi-supervised kernel regression with Laplacian regularization.

The estimator minimizes a least-squares data term plus a Dirichlet-energy
penalty (the expected squared gradient norm over the data) inside an RKHS,
computed by spectral filtering over the generalized eigenpairs of the
compressed covariance/penalty operator pencil.  Landmark (Nystrom-style)
compression with p drawn landmarks, pruned by a pivoted Cholesky of their
Gram to the r <= p numerically independent ones, keeps training at
O(p^2 d + p^2 r) for the pruning, O(n r d + n r^2) for the assembly and
O(r^3 / 3) for each Cholesky factorization that ``gevd`` makes to reduce
and check the pencil and the Tikhonov filter makes to solve it (O(r^3) for
the eigensolve, which only the cutoff filter reads); an exact dense-basis
solver provides the reference the compressed path is checked against.
"""

from .baselines import GraphConfig, HarmonicResult, graph_bandwidth, harmonic_propagate, krr_fit
from .errors import (
    InvalidArgumentError,
    KerlapError,
    NumericalConsistencyError,
    ResourceLimitError,
    SingularPencilError,
)
from .estimator import (
    DENSE_REPRESENTER,
    LANDMARK_KERNEL,
    FittedModel,
    ScheduleParams,
    decode_sign,
    fit,
    fit_exact,
    model_from_json,
    model_to_json,
    predict,
    schedule,
)
from .filters import CUTOFF, TIKHONOV, FilterSpec, filter_coefficients
from .filters import apply as apply_filter
from .kernel import GaussianKernel
from .operators import (
    OperatorBundle,
    SemiDataset,
    assemble,
    assemble_dense,
    load_dataset_csv,
    save_dataset_csv,
    select_landmarks,
)
from .pencil import PencilDecomposition, gevd, pencil_solve
from .synthdata import (
    CirclesSpec,
    GaussianMixSpec,
    bayes_error,
    gen_circles_with_truth,
    gen_gaussian_mix_with_truth,
)

__version__ = "0.1.0"

__all__ = [
    "CUTOFF",
    "CirclesSpec",
    "DENSE_REPRESENTER",
    "FilterSpec",
    "FittedModel",
    "GaussianKernel",
    "GaussianMixSpec",
    "GraphConfig",
    "HarmonicResult",
    "InvalidArgumentError",
    "KerlapError",
    "LANDMARK_KERNEL",
    "NumericalConsistencyError",
    "OperatorBundle",
    "PencilDecomposition",
    "ResourceLimitError",
    "ScheduleParams",
    "SemiDataset",
    "SingularPencilError",
    "apply_filter",
    "assemble",
    "assemble_dense",
    "bayes_error",
    "decode_sign",
    "filter_coefficients",
    "fit",
    "fit_exact",
    "gen_circles_with_truth",
    "gen_gaussian_mix_with_truth",
    "gevd",
    "graph_bandwidth",
    "harmonic_propagate",
    "krr_fit",
    "load_dataset_csv",
    "model_from_json",
    "model_to_json",
    "pencil_solve",
    "predict",
    "save_dataset_csv",
    "schedule",
    "select_landmarks",
]
