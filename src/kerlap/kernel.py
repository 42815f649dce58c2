"""Gaussian kernel with the first- and cross-derivative evaluations used by
the derivative feature maps.

``GaussianKernel`` is the only kernel: the estimators, the baselines and the
model JSON format all take it.  Every evaluation is over all pairs of rows
of two (rows, d) arrays: ``gram`` (kernel values), ``grad1_gram`` (gradients
in the first argument) and ``cross_hessian_gram`` (mixed second derivatives,
one per argument).  ``gram_with_sqdist`` also returns the squared distances
the kernel values are made from, for the landmark assembly of the
Dirichlet-energy matrix.  A single pair is a batch of one row each.

Squared distances are plain sums of squared coordinate differences for
every input dimension, rather than the Gram expansion ||x||^2 + ||z||^2 -
2<x, z>, which cancels badly for nearby points.  The terms are
non-negative, so the summation is well-conditioned and needs no
compensation (Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 4).  Every form holds the (n, m, d) coordinate-difference array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, real


def _differences(X, Z) -> np.ndarray:
    """X[i] - Z[j] for all pairs of rows, shape (n, m, d), from validated inputs."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim != 2 or Z.ndim != 2:
        raise InvalidArgumentError(
            f"kernel inputs must be 2-d (rows, d), got shapes {X.shape} and {Z.shape}"
        )
    if X.shape[1] != Z.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: X has d={X.shape[1]}, Z has d={Z.shape[1]}"
        )
    if not (np.isfinite(X).all() and np.isfinite(Z).all()):
        raise InvalidArgumentError("kernel inputs contain non-finite entries")
    return X[:, None, :] - Z[None, :, :]


def _sqdist(diff: np.ndarray) -> np.ndarray:
    return np.einsum("ijk,ijk->ij", diff, diff)


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).

    Closed-form derivatives:

        d k / dx_i          = -(x_i - y_i) / sigma^2 * k(x, y)
        d^2 k / dx_i dy_j   = -(x_i - y_i)(x_j - y_j) / sigma^4 * k(x, y)   (i != j)
        d^2 k / dx_i dy_i   = (1/sigma^2 - (x_i - y_i)^2 / sigma^4) * k(x, y)

    exp of large negative arguments underflows to 0.0 silently; this is
    harmless for positive semi-definiteness.  A squared distance that
    overflows to inf likewise gives a kernel value of 0.0.  Inputs that are
    not 2-d, disagree in d or hold a non-finite entry raise
    ``InvalidArgumentError``.
    """

    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", real("sigma", self.sigma))

    def _from_sqdist(self, sq: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.divide(sq, -2.0 * self.sigma**2, out=out)
        return np.exp(out, out=out)

    def gram(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """k(X[i], Z[j]) for all pairs, shape (n, m)."""
        return self._from_sqdist(_sqdist(_differences(X, Z)))

    def gram_with_sqdist(
        self, X: np.ndarray, Z: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``gram(X, Z)`` and the squared distances ||X[i] - Z[j]||^2 behind it.

        The kernel values are written into ``out`` when it is given.
        """
        sq = _sqdist(_differences(X, Z))
        return self._from_sqdist(sq, out=out), sq

    def grad1_gram(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """d/dX[l]_j k(X[l], Z[i]) for all pairs, shape (n, d, m)."""
        diff = _differences(X, Z)  # (n, m, d)
        K = self._from_sqdist(_sqdist(diff))
        out = -diff / self.sigma**2 * K[:, :, None]
        return np.ascontiguousarray(out.transpose(0, 2, 1))  # (n, d, m)

    def cross_hessian_gram(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """d^2 k / dX[l]_j dZ[i]_j' for all pairs, shape (n, d, m, d)."""
        s2 = self.sigma**2
        diff = _differences(X, Z)  # (n, m, d)
        K = self._from_sqdist(_sqdist(diff))
        out = -np.einsum("lmi,lmj,lm->limj", diff, diff, K) / s2**2
        d = diff.shape[2]
        idx = np.arange(d)
        # advanced indexing on axes 1 and 3 yields a (d, n, m) view target
        out[:, idx, :, idx] += (K / s2)[None, :, :]
        return out
