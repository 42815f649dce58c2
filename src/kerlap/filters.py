"""Spectral filter functions applied to pencil eigenvalues.

Two filters are provided: the Tikhonov filter x -> 1/(x + lam) and the
eigenvalue cutoff x -> (1/x) * [x > lam] (strict inequality, so the value at
exactly x = lam is 0).  The enum is closed; adding a filter means extending
``apply``, ``filter_coefficients`` and ``FILTER_KINDS`` together (the CLI
takes its words from it).

Filtering b by Tikhonov is the closed form (A + lam*B)^-1 b (Cabannes et
al., arXiv 2009.04324), so ``filter_coefficients`` solves it from the
pencil's reduction to standard form with one Cholesky factorization,
O(p^3 / 3) work, and only the cutoff filter reads eigenpairs, O(p^3) work
for the eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemv

from .errors import InvalidArgumentError, array, instance, real
from .pencil import PencilDecomposition

TIKHONOV = "tikhonov"
CUTOFF = "cutoff"
FILTER_KINDS = (TIKHONOV, CUTOFF)


@dataclass(frozen=True)
class FilterSpec:
    kind: str
    lam: float

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise InvalidArgumentError(
                f"unknown filter kind {self.kind!r}; expected one of {FILTER_KINDS}"
            )
        object.__setattr__(self, "lam", real("lam", self.lam))


def apply(f: FilterSpec, x) -> np.ndarray | float:
    """Evaluate the filter at non-negative x (scalar or array)."""
    instance("f", f, FilterSpec)
    arr = array("x", x)
    if np.any(arr < 0):
        raise InvalidArgumentError("filter argument must be non-negative")
    if f.kind == TIKHONOV:
        out = 1.0 / (arr + f.lam)
    else:
        out = np.zeros_like(arr)
        mask = arr > f.lam
        np.divide(1.0, arr, out=out, where=mask)
    return out if arr.ndim else float(out)


def filter_coefficients(dec: PencilDecomposition, f: FilterSpec, b: np.ndarray) -> np.ndarray:
    """c = sum_i psi(lambda_i) v_i (v_i^T b) over the generalized eigenpairs of
    the pencil (A, B) that ``dec = gevd(A, B)`` decomposes, linear in b.

    For the Tikhonov filter c is (A + lam*B)^-1 b, which
    ``PencilDecomposition._solve`` returns without the eigenpairs; the cutoff
    filter reads them, which eigensolves the pencil on the first read, and
    applies them by two BLAS ``gemv`` on the Fortran-order eigenvectors.
    """
    instance("dec", dec, PencilDecomposition)
    instance("f", f, FilterSpec)
    b = array("b", b, ndim=1)
    p = dec.factor.shape[0]
    if b.shape != (p,):
        raise InvalidArgumentError(f"b has shape {b.shape}, expected ({p},)")
    if f.kind == TIKHONOV:
        # b is checked above and lam by FilterSpec
        return dec._solve(f.lam, b)
    weights = apply(f, dec.eigenvalues)
    V = dec.eigenvectors
    return dgemv(1.0, V, weights * dgemv(1.0, V, b, trans=1))
