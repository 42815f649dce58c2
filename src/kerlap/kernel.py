"""Gaussian kernel with the first- and cross-derivative evaluations used by
the derivative feature maps.

``GaussianKernel`` is the only kernel: the estimators, the baselines and the
model JSON format all take it.  Every evaluation is over all pairs of rows
of two (rows, d) arrays: ``gram`` (kernel values), ``grad1_gram`` (gradients
in the first argument) and ``cross_hessian_gram`` (mixed second derivatives,
one per argument).  A single pair is a batch of one row each.  Each
checks its arguments.  Two unchecked cores serve the library on arrays it
has already checked (see ``errors``): ``_gram``, and ``_blocks``, which
yields ``gram`` and the squared distances behind it chunk by chunk.  The
landmark assembly and prediction loop over ``_blocks``, and the pruning
Gram takes chunks of the same ``chunk_rows``.

Squared distances come from the expansion ||x||^2 + ||z||^2 - 2<x, z>, the
whole block as one BLAS matrix product of rows augmented by their squared
norms and a column of ones, so no (n, m, d) array is formed.  The
expansion cancels where two points are close to each other but far from
the origin: its rounding error is a few eps (||x||^2 + ||z||^2), not eps
||x - z||^2 (Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 3-4).  Two things keep it accurate.  Both sides are centred on the
mean of the second argument, which removes a common offset.  And a guard
sums the squared coordinate differences (non-negative terms, so a
well-conditioned sum) for every entry that is small against that rounding
bound, as within two clusters far apart; coincident points then get
exactly 0.  The guard tests only the entries under one scalar bound, the
largest squared norm on each side, so it costs one comparison pass over
the block.  Only the derivative forms, which need the differences
themselves, hold the (n, m, d) coordinate-difference array.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .errors import InvalidArgumentError, array, real

# entries in a chunk of ``_blocks``: 4 MB of distances and 4 MB of kernel values
_CHUNK_BUDGET = 1 << 19

# Rounding leaves an expanded squared distance off by c eps (|x|^2 + |z|^2),
# c a small multiple (at most about 2d + 3; below 6 on d = 2..10 data).  An
# entry at or below _GUARD (|x|^2 + |z|^2) is summed coordinate-wise
# instead, so every entry kept from the expansion is within 2^8 c eps
# (about 3e-13 for c = 5) of its coordinate-wise value, relatively.
_GUARD = 2.0**-8

# flagged entries are summed coordinate-wise in pieces of at most this many
# coordinate differences
_GUARD_PIECE = 1 << 18

# Kernel values below 2^-500 are flushed to exactly 0.  A product of two of
# them is subnormal, and BLAS runs on subnormal operands through microcode
# assists: a dsyrk of fig1's 2000 x 727 K (18.7% of its entries below
# 1e-154) took 0.107 s, and 0.021 s with those entries zeroed, which changed
# K^T K by 0.0 (2-core x86).  exp of the clamped exponent is exactly _FLUSH.
_FLUSH_EXPONENT = -500.0 * math.log(2.0)
_FLUSH = math.exp(_FLUSH_EXPONENT)


def _checked(X, Z) -> tuple[np.ndarray, np.ndarray]:
    """X and Z as 2-d float arrays by ``errors.array``, refused unless equal in d."""
    X, Z = array("X", X, ndim=2), array("Z", Z, ndim=2)
    if X.shape[1] != Z.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: X has d={X.shape[1]}, Z has d={Z.shape[1]}")
    return X, Z


def _differences(X, Z) -> np.ndarray:
    """X[i] - Z[j] for all pairs of rows, shape (n, m, d), from validated inputs."""
    X, Z = _checked(X, Z)
    return X[:, None, :] - Z[None, :, :]


def _sqdist_expanded(X: np.ndarray, Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """||X[i] - Z[j]||^2 for all pairs, shape (n, m), with no (n, m, d) array,
    from float arrays that ``_checked`` has passed (its callers check once,
    not once per chunk).

    Both sides are centred on the mean of Z, so a row's distances do not
    depend on the other rows of X it comes with.  One BLAS ``gemm`` of the
    augmented rows [Xc | xn | 1] and [-2 Zc | 1 | zn], xn and zn the squared
    norms of the centred rows, gives every xn_i + zn_j - 2 <xc_i, zc_j>.
    Every entry that is non-finite or at most ``_GUARD`` (xn_i + zn_j),
    negative ones included, is then summed coordinate-wise from X and Z, so
    the result is non-negative and exactly 0 for coincident rows.  Only the
    entries at most the scalar bound ``_GUARD`` (max xn + max zn) are
    candidates for that test, so no (n, m) array of bounds is formed.  The
    distances are written into ``out`` when it is given, a C-contiguous
    (n, m) array that ``_blocks`` reuses from one chunk to the next.
    """
    n, d = X.shape
    m = Z.shape[0]
    if n == 0 or m == 0:
        return np.zeros((n, m))
    # what Z.mean(axis=0) computes, without its dispatch
    centre = np.add.reduce(Z, 0) / m
    xa = np.empty((n, d + 2))
    za = np.empty((m, d + 2))
    xa[:, d + 1] = 1.0
    za[:, d] = 1.0
    Xc = np.subtract(X, centre, out=xa[:, :d])
    Zc = np.subtract(Z, centre, out=za[:, :d])
    xn = np.einsum("ij,ij->i", Xc, Xc, out=xa[:, d])
    zn = np.einsum("ij,ij->i", Zc, Zc, out=za[:, d + 1])
    Zc *= -2.0
    # einsum and gemm never warn; an overflow gives inf or NaN, which the
    # guard recomputes.  D.T is the Fortran-order (m, n) array gemm
    # overwrites without a copy
    c = None if out is None else out.T
    D = dgemm(1.0, za.T, xa.T, trans_a=1, c=c, overwrite_c=1).T
    # _GUARD is a power of two, so _GUARD xn + _GUARD zn is _GUARD (xn + zn),
    # exactly away from subnormals, and cannot overflow where that sum would
    bound = _GUARD * np.maximum.reduce(xn) + _GUARD * np.maximum.reduce(zn)
    # D is C-contiguous, so the guard reads and writes it through a flat
    # view, by flat index: the flat nonzero is several times faster than the
    # 2-d one at (400, 50).  Not greater, so that NaN is a candidate
    flat = D.reshape(-1)
    kept = np.greater(flat, bound)
    candidates = np.logical_not(kept, out=kept).nonzero()[0]
    del kept
    rows, cols = np.divmod(candidates, m)
    flagged = ~(flat[candidates] > _GUARD * xn[rows] + _GUARD * zn[cols])
    candidates, rows, cols = candidates[flagged], rows[flagged], cols[flagged]
    step = max(1, _GUARD_PIECE // d)
    for start in range(0, rows.size, step):
        piece = slice(start, start + step)
        diff = X[rows[piece]]
        diff -= Z[cols[piece]]
        flat[candidates[piece]] = np.einsum("ij,ij->i", diff, diff)
    return D


def chunk_rows(n: int, m: int) -> int:
    """Rows in a chunk of n rows evaluated against m columns, max(1, min(n,
    _CHUNK_BUDGET // m)): a chunk holds at most _CHUNK_BUDGET entries unless
    one row alone is wider."""
    return max(1, min(n, _CHUNK_BUDGET // max(m, 1)))


def bandwidth(name: str, value) -> float:
    """``value`` as a bandwidth: a real whose sigma^2 is a normal double and
    2 sigma^2 finite, else ``InvalidArgumentError`` naming ``name``."""
    sigma = real(name, value)
    s2 = sigma * sigma  # a float product overflows to inf, where ** raises
    if not (s2 >= sys.float_info.min and 2.0 * s2 <= sys.float_info.max):
        raise InvalidArgumentError(f"{name} must lie between about 1.5e-154 and 9.5e153, "
                                   f"so that sigma^2 is a normal double, got {value!r}")
    return sigma


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).

    Closed-form derivatives:

        d k / dx_i          = -(x_i - y_i) / sigma^2 * k(x, y)
        d^2 k / dx_i dy_j   = -(x_i - y_i)(x_j - y_j) / sigma^4 * k(x, y)   (i != j)
        d^2 k / dx_i dy_i   = (1/sigma^2 - (x_i - y_i)^2 / sigma^4) * k(x, y)

    Kernel values below 2^-500 (squared distances beyond about 693 sigma^2)
    are flushed to exactly 0.0, so no product of two of them is subnormal;
    this is harmless for positive semi-definiteness.  A squared distance
    that overflows to inf likewise gives a kernel value of 0.0.  Inputs
    that ``errors.array`` refuses as 2-d arrays, or that disagree in d,
    raise ``InvalidArgumentError``, as does a sigma that ``bandwidth`` refuses.
    """

    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", bandwidth("sigma", self.sigma))

    def _from_sqdist(self, sq: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        with np.errstate(over="ignore"):  # to -inf at a small sigma, then clamped
            out = np.divide(sq, -2.0 * self.sigma**2, out=out)
        # clamped, the exponent never takes exp into the subnormal range, and
        # every value at the floor is exactly _FLUSH; a masked store of -inf
        # before exp took ten times as long.  A block whose exponents all lie
        # a unit above the floor, as most blocks of a wide kernel do, has
        # every value at least e * _FLUSH, and needs neither the clamp nor
        # the zeroing pass; the minimum costs a fraction of either.
        if np.minimum.reduce(out, None, initial=0.0) < _FLUSH_EXPONENT + 1.0:
            np.maximum(out, _FLUSH_EXPONENT, out=out)
            np.exp(out, out=out)
            np.multiply(out, out > _FLUSH, out=out)
        else:
            np.exp(out, out=out)
        return out

    def gram(self, X: np.ndarray, Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """k(X[i], Z[j]) for all pairs, shape (n, m), written into ``out``
        when it is given, a C-contiguous (n, m) array."""
        return self._gram(*_checked(X, Z), out=out)

    def _gram(self, X: np.ndarray, Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``gram`` of float arrays that ``_checked`` would pass, unchecked."""
        sq = _sqdist_expanded(X, Z, out=out)
        return self._from_sqdist(sq, out=sq)

    def _blocks(self, X: np.ndarray, Z: np.ndarray):
        """Yield (start, stop, K, D) for chunks of ``chunk_rows(len(X),
        len(Z))`` rows of X: K = ``gram(X[start:stop], Z)`` and D the squared
        distances it is made from.  K and D are views of two C-contiguous
        buffers reused for every chunk, which saves page faults: a caller may
        overwrite them, and copies what it keeps.  X and Z are float arrays
        that ``_checked`` would pass, and are not checked again."""
        n, m = X.shape[0], Z.shape[0]
        chunk = chunk_rows(n, m)
        k_buf = np.empty((chunk, m))
        d_buf = np.empty((chunk, m))
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            D = _sqdist_expanded(X[start:stop], Z, out=d_buf[:stop - start])
            yield start, stop, self._from_sqdist(D, out=k_buf[:stop - start]), D

    def grad1_gram(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """d/dX[l]_j k(X[l], Z[i]) for all pairs, shape (n, d, m)."""
        diff = _differences(X, Z)  # (n, m, d)
        K = self._from_sqdist(np.einsum("ijk,ijk->ij", diff, diff))
        # K / sigma^2 first: where K > 0, |diff| < 27 sigma, so nothing overflows
        out = diff * (K / -self.sigma**2)[:, :, None]
        return np.ascontiguousarray(out.transpose(0, 2, 1))  # (n, d, m)

    def cross_hessian_gram(
        self, X: np.ndarray, Z: np.ndarray, out: np.ndarray | None = None, scale: float = 1.0
    ) -> np.ndarray:
        """scale * d^2 k / dX[l]_j dZ[i]_j' for all pairs, shape (n, d, m, d),
        written into ``out`` when it is given (an array or view of that
        shape, as ``operators._extended_gram`` passes a block of its Gram)."""
        diff = _differences(X, Z)  # (n, m, d)
        K = self._from_sqdist(np.einsum("ijk,ijk->ij", diff, diff))
        n, m, d = diff.shape
        # (diff_i / sigma) (diff_j / sigma) (scale K / sigma^2), as two
        # broadcast products: K / sigma^4 leaves the double range beyond
        # 1e77, and where K > 0, |diff| < 27 sigma, so no factor overflows.
        # Where a far pair's diff / sigma does, K = 0 and the entry is NaN,
        # which operators._extended_gram refuses
        w = K / self.sigma**2
        w *= scale
        with np.errstate(over="ignore", invalid="ignore"):
            diff /= self.sigma
            right = diff * -w[:, :, None]
            if out is None:
                out = np.empty((n, d, m, d))
            np.multiply(diff.transpose(0, 2, 1)[:, :, :, None], right[:, None], out=out)
        idx = np.arange(d)
        # advanced indexing on axes 1 and 3 yields a (d, n, m) view target
        out[:, idx, :, idx] += w
        return out
