"""Gaussian kernel with the first- and cross-derivative evaluations used by
the derivative feature maps.

``GaussianKernel`` is the only kernel: the estimators, the baselines and the
model JSON format all take it.  It provides pointwise ``eval``, ``grad1``
(gradient in the first argument) and ``cross_hessian`` (mixed second
derivatives, one per argument), and their vectorized all-pairs forms
``gram``, ``grad1_gram`` and ``cross_hessian_gram``.  ``gram_with_sqdist``
also returns the squared distances the kernel values are made from, for the
landmark assembly of the Dirichlet-energy matrix.

Squared distances are plain sums of squared coordinate differences for
every input dimension.  The terms are non-negative, so the summation is
well-conditioned and needs no compensation (Higham, *Accuracy and Stability
of Numerical Algorithms*, ch. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


def _as_point(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidArgumentError(f"{name} must be a 1-d vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return x


def _sqnorm(diff: np.ndarray) -> float:
    # Overflow to inf is the intended limit (the kernel value is then 0.0).
    # vdot is the same BLAS dot as ``@`` but does not check the floating-point
    # status, so overflow stays silent; np.errstate would cost more than the
    # rest of a pointwise call.
    return float(np.vdot(diff, diff))


def _pair_diff(x, y) -> tuple[np.ndarray, float]:
    """x - y and its squared norm for two points, validated.

    Any non-finite input makes the squared norm non-finite, so the full
    per-point check (which raises on bad input) runs only when the shapes
    are not two equal-size vectors or the norm is not finite.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1 and x.size and x.shape == y.shape:
        diff = x - y
        sq = _sqnorm(diff)
        if math.isfinite(sq):
            return diff, sq
    x = _as_point(x, "x")
    y = _as_point(y, "y")
    if x.shape != y.shape:
        raise InvalidArgumentError(f"dimension mismatch: x has d={x.size}, y has d={y.size}")
    diff = x - y  # finite inputs whose squared distance overflows
    return diff, _sqnorm(diff)


def _sqdist_matrix(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """All-pairs squared distances, coordinate-wise, shape (n, m).

    Computed as sums of (x_j - z_j)^2 rather than via the Gram expansion
    ||x||^2 + ||z||^2 - 2<x, z>, which cancels badly for nearby points.
    Holds the (n, m, d) difference array, as ``grad1_gram`` does.
    """
    return _sqdist_from_diff(X[:, None, :] - Z[None, :, :])


def _sqdist_from_diff(diff: np.ndarray) -> np.ndarray:
    return np.einsum("ijk,ijk->ij", diff, diff)


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).

    Closed-form derivatives:

        d k / dx_i          = -(x_i - y_i) / sigma^2 * k(x, y)
        d^2 k / dx_i dy_j   = -(x_i - y_i)(x_j - y_j) / sigma^4 * k(x, y)   (i != j)
        d^2 k / dx_i dy_i   = (1/sigma^2 - (x_i - y_i)^2 / sigma^4) * k(x, y)

    exp of large negative arguments underflows to 0.0 silently; this is
    harmless for positive semi-definiteness.
    """

    sigma: float

    def __post_init__(self):
        s = self.sigma
        if not (isinstance(s, (int, float)) and math.isfinite(s) and s > 0):
            raise InvalidArgumentError(f"sigma must be a positive finite real, got {s!r}")
        object.__setattr__(self, "sigma", float(s))

    def eval(self, x, y) -> float:
        _, sq = _pair_diff(x, y)
        return math.exp(-sq / (2.0 * self.sigma**2))

    def grad1(self, x, y) -> np.ndarray:
        """Gradient of k(x, y) with respect to the coordinates of x."""
        diff, sq = _pair_diff(x, y)
        k = math.exp(-sq / (2.0 * self.sigma**2))
        return -diff / self.sigma**2 * k

    def cross_hessian(self, x, y) -> np.ndarray:
        """Matrix of mixed partials d^2 k / dx_i dy_j, shape (d, d)."""
        diff, sq = _pair_diff(x, y)
        s2 = self.sigma**2
        k = math.exp(-sq / (2.0 * s2))
        H = -np.outer(diff, diff) / s2**2 * k
        H.flat[:: diff.size + 1] += k / s2
        return H

    # Vectorized batch forms ------------------------------------------------

    def _from_sqdist(self, sq: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.divide(sq, -2.0 * self.sigma**2, out=out)
        return np.exp(out, out=out)

    def gram(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """k(X[i], Z[j]) for all pairs, shape (n, m)."""
        return self._from_sqdist(_sqdist_matrix(X, Z))

    def gram_with_sqdist(
        self, X: np.ndarray, Z: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``gram(X, Z)`` and the squared distances ||X[i] - Z[j]||^2 behind it.

        The kernel values are written into ``out`` when it is given.
        """
        sq = _sqdist_matrix(X, Z)
        return self._from_sqdist(sq, out=out), sq

    def grad1_gram(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """d/dX[l]_j k(X[l], Z[i]) for all pairs, shape (n, d, m)."""
        diff = X[:, None, :] - Z[None, :, :]  # (n, m, d)
        K = self._from_sqdist(_sqdist_from_diff(diff))
        out = -diff / self.sigma**2 * K[:, :, None]
        return np.ascontiguousarray(out.transpose(0, 2, 1))  # (n, d, m)

    def cross_hessian_gram(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """d^2 k / dX[l]_j dZ[i]_j' for all pairs, shape (n, d, m, d)."""
        s2 = self.sigma**2
        diff = X[:, None, :] - Z[None, :, :]  # (n, m, d)
        K = self._from_sqdist(_sqdist_from_diff(diff))
        out = -np.einsum("lmi,lmj,lm->limj", diff, diff, K) / s2**2
        d = X.shape[1]
        idx = np.arange(d)
        # advanced indexing on axes 1 and 3 yields a (d, n, m) view target
        out[:, idx, :, idx] += (K / s2)[None, :, :]
        return out
