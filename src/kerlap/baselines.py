"""Comparison methods: transductive harmonic label propagation on a dense
Gaussian-weighted graph, and kernel ridge regression on the labeled points.

The graph baseline uses the classical formulation: all-pairs Gaussian edge
weights with zero diagonal, unnormalized combinatorial Laplacian, and the
harmonic solution f_u = (D_uu - W_uu)^-1 W_ul y_l on the unlabeled block.
It evaluates only the weights to the unlabeled points and turns their
unlabeled rows into D_uu - W_uu in place.  Both baselines solve their
system by ``pencil._spd_solve``, the Cholesky factorization with one jitter
retry that the dense oracle uses too, in place and on scipy's BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemv

from .errors import InvalidArgumentError, array, instance, integer, real
from .estimator import LANDMARK_KERNEL, FittedModel
from .kernel import GaussianKernel, bandwidth
from .operators import SemiDataset
from .pencil import _spd_solve


@dataclass(frozen=True)
class GraphConfig:
    """Gaussian edge-weight bandwidth for the graph baseline."""

    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", bandwidth("sigma", self.sigma))


@dataclass(frozen=True)
class HarmonicResult:
    """Propagated values on the unlabeled points; ``jittered`` flags a
    regularized fallback solve of a (numerically) singular unlabeled block."""

    values: np.ndarray
    jittered: bool


def graph_bandwidth(n: int, d: int) -> float:
    """Theoretically suggested graph bandwidth n^(-1/(d+4)) * ln(n)."""
    n, d = integer("n", n, low=2), integer("d", d)
    return float(n) ** (-1.0 / (d + 4)) * math.log(n)


def harmonic_propagate(ds: SemiDataset, config: GraphConfig) -> HarmonicResult:
    """Harmonic (transductive) solution on the unlabeled nodes.

    Weights W_ij = exp(-||X_i - X_j||^2 / (2 sigma^2)) for i != j, zero
    diagonal; D = diag of row sums.  Solves (D_uu - W_uu) f_u = W_ul y_l.
    Only the columns of W at the unlabeled points are evaluated, as one
    (n, n_u) Gram; its rows at the unlabeled points, W_uu, become D_uu -
    W_uu in place, and its rows at the labeled ones are W_ul^T.
    """
    instance("ds", ds, SemiDataset)
    instance("config", config, GraphConfig)
    n, n_l = ds.n, ds.n_labeled
    if n <= n_l:
        raise InvalidArgumentError("harmonic propagation needs at least one unlabeled point")
    X, y = ds.inputs, ds.labels
    W = GaussianKernel(config.sigma).gram(X, X[n_l:])
    L_uu = W[n_l:]
    diagonal = L_uu.reshape(-1)[:: n - n_l + 1]  # a view: W is C-contiguous
    diagonal[:] = 0.0
    # the full W is symmetric, so these column sums are its row sums
    degrees = W.sum(axis=0)
    # W_ul y on scipy's BLAS, as the solve (see operators._gram_of_rows)
    rhs = dgemv(1.0, W[:n_l].T, y)
    np.negative(L_uu, out=L_uu)
    diagonal += degrees
    f_u, jitter = _spd_solve(L_uu, rhs, "the unlabeled graph block")
    return HarmonicResult(values=f_u, jittered=jitter > 0)


def krr_fit(
    inputs: np.ndarray, labels: np.ndarray, kernel: GaussianKernel, ridge: float
) -> FittedModel:
    """Kernel ridge regression on labeled data: (K + n_l*ridge*I) c = y."""
    X, y = array("inputs", inputs, ndim=2), array("labels", labels, ndim=1)
    if y.size != X.shape[0]:
        raise InvalidArgumentError(f"labels must match the {X.shape[0]} inputs, got {y.size}")
    instance("kernel", kernel, GaussianKernel)
    ridge = real("ridge", ridge)
    n_l = X.shape[0]
    M = kernel.gram(X, X)
    M.flat[:: n_l + 1] += n_l * ridge
    coef, _ = _spd_solve(M, y, "the ridge system")
    return FittedModel(
        kernel=kernel,
        basis_coordinates=X,
        coefficients=coef,
        basis_kind=LANDMARK_KERNEL,
    )
