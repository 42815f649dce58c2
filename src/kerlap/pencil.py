"""Symmetric-definite generalized eigenvalue decomposition.

Solves A v = lambda B v for A symmetric positive semi-definite and B
symmetric positive definite with the LAPACK sequence for the
symmetric-definite problem (Golub & Van Loan, section 8.7), each step a
direct call of scipy's LAPACK and BLAS wrappers: ``potrf`` factors
B = L L^T, ``sygst`` reduces to C = L^-1 A L^-T, ``syevd`` eigendecomposes
C, and one ``trsm`` back-transforms the eigenvectors by L^-T.  Calling them
directly skips the argument checks and workspace query of
``scipy.linalg.eigh`` and ``solve_triangular``, a fixed cost per call that
shows on many small pencils (p = 50 in the fig2 preset), and staying within
scipy's LAPACK keeps the whole solve on one BLAS thread pool.  The returned
basis is B-orthonormal and eigenvalues are sorted in non-increasing order.

``pencil_solve`` is the direct counterpart used as an oracle for Tikhonov
filtering: x = (A + lam*B)^-1 rhs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dnrm2, dsymv, dtrsm
from scipy.linalg.lapack import dpocon, dpotrf, dsyevd, dsygst

from .errors import (
    InvalidArgumentError, NumericalConsistencyError, SingularPencilError, array, lapack_info,
    real,
)

_JITTER_EPS = 1e-10

# column norms of A within which gevd may skip the clamp tolerance (see there)
_NORM_RANGE = (1e-150, 1e150)


def spectral_norm_estimate(M: np.ndarray) -> float:
    """Power-iteration estimate of ||M||_2 for symmetric M.

    The start is M's column of largest norm, which lies in M's range, so the
    estimate is positive for any nonzero M (a fixed start such as the ones
    vector gives 0 when M 1 = 0) and never exceeds ||M||_2.  It is at least
    that largest column norm, up to rounding: ||M v|| never decreases from
    one step to the next, by Cauchy-Schwarz, which ``gevd``'s clamp floor
    relies on.
    """
    norms = np.linalg.norm(M, axis=0)
    if not norms.any():
        return 0.0
    j = int(np.argmax(norms))
    v = M[:, j] / norms[j]
    # on scipy's BLAS, as gevd's LAPACK calls; M^T = M is Fortran-order for symv
    Mf = np.asfortranarray(M.T, dtype=float)
    est = 0.0
    for _ in range(12):
        w = dsymv(1.0, Mf, v)
        est = float(dnrm2(w))
        if est == 0.0:
            return 0.0
        v = w / est
    return est


@dataclass(frozen=True)
class PencilDecomposition:
    """Generalized eigenpairs of (A, B): eigenvalues non-increasing, column i of
    ``eigenvectors`` paired with ``eigenvalues[i]``, basis B-orthonormal.

    ``jitter`` records the diagonal shift added to B when its Cholesky
    factorization needed a retry (0.0 in the usual case).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    jitter: float = field(default=0.0)


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    """Validate a non-empty, square, nearly symmetric M that ``errors.array``
    passes as 2-d; return (M + M^T)/2 as a new array."""
    M = array(name, M, ndim=2)
    if M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise InvalidArgumentError(f"{name} must be square and non-empty, got shape {M.shape}")
    # on scipy's BLAS: numpy's pool would spin against the solvers' next
    scale = dnrm2(M.ravel())
    asym = dnrm2((M - M.T).ravel())
    if asym > 1e-8 * max(scale, np.finfo(float).tiny):
        raise InvalidArgumentError(
            f"{name} is asymmetric beyond tolerance: ||M-M^T||={asym:.3e}, ||M||={scale:.3e}"
        )
    return (M + M.T) / 2.0


def _cholesky_with_jitter(M: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of M, retrying once with a small diagonal shift.

    The shift is 1e-10 times the mean diagonal of M.  Returns (L, jitter),
    jitter being 0.0 when no retry was needed.  Raises SingularPencilError
    naming ``name`` and the failing pivot if M is not positive definite even
    after the jitter pass.
    """
    L, info = dpotrf(M, lower=1, clean=1, overwrite_a=0)
    if lapack_info("potrf", info) == 0:
        return L, 0.0
    p = M.shape[0]
    jitter = _JITTER_EPS * (np.trace(M) / p)
    if jitter <= 0:
        raise SingularPencilError(
            f"{name} is not positive definite: Cholesky failed at pivot {info} "
            "and the matrix has non-positive trace",
            pivot=int(info),
        )
    shifted = np.array(M, order="F")
    shifted.flat[:: p + 1] += jitter
    L, info2 = dpotrf(shifted, lower=1, clean=1, overwrite_a=1)
    if info2 != 0:
        raise SingularPencilError(
            f"{name} is not positive definite even after jitter {jitter:.3e}: "
            f"Cholesky failed at pivot {info2}",
            pivot=int(info2),
        )
    return L, float(jitter)


def _spd_solve(M: np.ndarray, rhs: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """(x, jitter): M x = rhs for SPD M, by ``_cholesky_with_jitter`` and two
    triangular solves."""
    L, jitter = _cholesky_with_jitter(M, name)
    return sla.cho_solve((L, True), rhs, check_finite=False), jitter


def _clamp_tolerance(A: np.ndarray, L: np.ndarray, norm_b: float) -> float:
    """How far below 0 an eigenvalue of the pencil (A, B) may be rounded to 0.

    The Cholesky reduction perturbs eigenvalues by about eps * cond(B) *
    ||A|| / ||B||, so the PSD check must widen with B's conditioning; the
    1e-8 * ||A|| / ||B|| floor applies for well-behaved B.  Eigenvalues carry
    the units of A / B, so the tolerance does too.  ||A|| is the power-
    iteration estimate on A symmetrized, and cond(B) LAPACK's 1-norm
    estimate from B's factor L; for symmetric B the 1-norm condition number
    is at least the 2-norm one.
    """
    norm_a = max(spectral_norm_estimate(_check_symmetric(A, "A")), np.finfo(float).tiny)
    rcond, _ = dpocon(L, norm_b, uplo="L")
    cond_b = 1.0 / rcond if rcond > 0 else np.inf
    return norm_a / norm_b * max(1e-8, 64.0 * np.finfo(float).eps * cond_b)


def gevd(A: np.ndarray, B: np.ndarray) -> PencilDecomposition:
    """Generalized eigendecomposition of the symmetric-definite pencil (A, B).

    A must be symmetric PSD (small negative eigenvalues are clamped to 0), B
    symmetric positive definite up to one jitter pass.  B is factored once
    (twice on the jitter retry); LAPACK ``sygst`` and ``syevd`` do the rest.
    The clamp tolerance is computed only when the smallest eigenvalue lies
    below a floor that the tolerance never falls under.
    """
    C = _check_symmetric(A, "A")
    B = _check_symmetric(B, "B")
    if C.shape != B.shape:
        raise InvalidArgumentError(f"shape mismatch: A {C.shape} vs B {B.shape}")

    norm_b = np.linalg.norm(B, 1)
    col_max = np.linalg.norm(C, axis=0).max()  # before sygst overwrites C
    L, jitter = _cholesky_with_jitter(B, "B")
    # C is the symmetrized copy made above, so sygst and syevd may work in
    # place; its transpose is the same matrix in the Fortran order they use
    C, info = dsygst(C.T, L, lower=1, overwrite_a=1)
    lapack_info("sygst", info)
    # the wrapper's default workspace is LAPACK's minimum: what syevd's
    # workspace query returns for p >= 14, and below that enough for the
    # unblocked reduction that p < 32 takes either way
    w, Q, info = dsyevd(C, compute_v=1, lower=1, overwrite_a=1)
    if lapack_info("syevd", info) > 0:
        raise NumericalConsistencyError(
            f"syevd failed to converge on the reduced pencil (info {info})"
        )

    # syevd returns ascending order; reverse for non-increasing eigenvalues.
    # trsm runs on the reversed columns, as solve_triangular's trtrs did:
    # reversing after the solve changes OpenBLAS's blocking and the result
    w = w[::-1].copy()
    V = dtrsm(1.0, L, np.asfortranarray(Q[:, ::-1]), lower=1, trans_a=1, overwrite_b=1)

    # The check fires only when w[-1] < -tol, and tol >= col_max * 1e-8 /
    # ||B||_1, since the norm estimate is at least col_max.  Above half that
    # floor no tolerance can fire, so the estimate and dpocon are skipped;
    # the range keeps the norms clear of underflow and overflow, where
    # rounding could undo the bound.
    floor = 0.5e-8 * col_max / norm_b
    if not (_NORM_RANGE[0] <= col_max <= _NORM_RANGE[1] and w[-1] >= -floor):
        tol = _clamp_tolerance(A, L, norm_b)
        if w[-1] < -tol:
            raise NumericalConsistencyError(
                f"pencil eigenvalue {w[-1]:.6e} is negative beyond tolerance {tol:.3e}; "
                "A is not positive semi-definite in the B-metric"
            )
    np.maximum(w, 0.0, out=w)
    return PencilDecomposition(eigenvalues=w, eigenvectors=np.ascontiguousarray(V), jitter=jitter)


def pencil_solve(A: np.ndarray, B: np.ndarray, lam: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + lam*B) x = rhs by Cholesky, with one iterative-refinement pass.

    This is the closed form of Tikhonov regularization over the pencil and is
    used as the independent oracle for spectral filtering with the
    1/(x + lam) filter.
    """
    lam = real("lam", lam)
    A = _check_symmetric(A, "A")
    B = _check_symmetric(B, "B")
    rhs = array("rhs", rhs, ndim=1)
    if A.shape != B.shape:
        raise InvalidArgumentError(f"shape mismatch: A {A.shape} vs B {B.shape}")
    if rhs.shape != (A.shape[0],):
        raise InvalidArgumentError(f"rhs has shape {rhs.shape}, expected ({A.shape[0]},)")
    M = A + lam * B
    L, info = dpotrf(M, lower=1, clean=1, overwrite_a=0)
    if lapack_info("potrf", info) != 0:
        raise SingularPencilError(
            f"A + lam*B is not positive definite: Cholesky failed at pivot {info}",
            pivot=int(info),
        )
    def solve(v):
        return sla.cho_solve((L, True), v, check_finite=False)

    # the residuals rhs - M x on scipy's BLAS, as the solves; M is exactly
    # symmetric, and its transpose is the Fortran-order array symv reads
    Mf = M.T
    x = solve(rhs)
    x = x + solve(dsymv(-1.0, Mf, x, beta=1.0, y=rhs))  # one refinement step
    resid = dnrm2(dsymv(-1.0, Mf, x, beta=1.0, y=rhs))
    bound = 1e-8 * dnrm2(rhs)
    if resid > bound and bound > 0:
        raise NumericalConsistencyError(
            f"pencil solve residual {resid:.3e} exceeds bound {bound:.3e}"
        )
    return x
