"""Symmetric-definite pencils: reduction to standard form, eigensolve, solve.

A v = lambda B v, for A symmetric positive semi-definite and B symmetric
positive definite, is handled by the LAPACK sequence for the
symmetric-definite problem (Golub & Van Loan, section 8.7), each step a
direct call of scipy's LAPACK and BLAS wrappers.  ``reduce_pencil`` factors
B = L L^T by ``potrf`` and reduces A to C = L^-1 A L^-T by ``sygst``; C has
the pencil's eigenvalues.  From there ``eigensolve`` eigendecomposes C by
``syevd`` and back-transforms the eigenvectors by L^-T with one ``trsm``
(``gevd`` is the two in turn), while ``ReducedPencil.solve`` returns
(A + lam*B)^-1 rhs = L^-T (C + lam I)^-1 L^-1 rhs with one Cholesky
factorization of C + lam I.  Calling the wrappers directly skips the
argument checks and workspace query of ``scipy.linalg.eigh`` and
``solve_triangular``, a fixed cost per call that shows on many small
pencils (p = 50 in the fig2 preset), and staying within scipy's LAPACK
keeps the whole solve on one BLAS thread pool.  The eigenvector basis is
B-orthonormal and eigenvalues are sorted in non-increasing order.

``pencil_solve`` is the direct counterpart used as an oracle for Tikhonov
filtering: x = (A + lam*B)^-1 rhs from a Cholesky factorization of
A + lam*B itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dnrm2, dsymv, dtrsm, dtrsv
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs, dsyevd, dsygst

from .errors import (
    InvalidArgumentError, NumericalConsistencyError, SingularPencilError, array, instance,
    lapack_info, real,
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
class ReducedPencil:
    """The pencil (A, B) in standard form: ``factor`` is the lower Cholesky
    factor L of B + jitter*I, and the lower triangle of ``reduced`` (Fortran
    order) holds C = L^-1 A L^-T, whose eigenvalues are the pencil's.

    ``jitter`` records the diagonal shift added to B when its Cholesky
    factorization needed a retry (0.0 in the usual case).  ``A`` (as given)
    and ``norm_b``, B's 1-norm, give the clamp tolerance: how far below 0 an
    eigenvalue may be rounded to 0 before A counts as indefinite in the
    B-metric.  No tolerance falls under ``floor``, so eigenvalues at or
    above -floor need none (``floor`` is None where the norms are too
    extreme for that bound to hold).
    """

    A: np.ndarray
    factor: np.ndarray
    reduced: np.ndarray
    jitter: float
    norm_b: float
    floor: float | None

    def tolerance(self) -> float:
        """The clamp tolerance (``_clamp_tolerance``)."""
        return _clamp_tolerance(self.A, self.factor, self.norm_b)

    def solve(self, lam: float, rhs: np.ndarray) -> np.ndarray:
        """x = (A + lam*B)^-1 rhs as L^-T (C + lam I)^-1 L^-1 rhs, for lam > 0.

        First a Cholesky factorization of C + floor*I, or of C + tol*I with
        tol the clamp tolerance when that one fails, checks what ``gevd``'s
        clamp checks: that A is positive semi-definite in the B-metric up to
        the tolerance.  Otherwise it raises ``NumericalConsistencyError``.
        """
        lam = real("lam", lam)
        rhs = array("rhs", rhs, ndim=1)
        p = self.factor.shape[0]
        if rhs.shape != (p,):
            raise InvalidArgumentError(f"rhs has shape {rhs.shape}, expected ({p},)")
        if self.floor is None or _shifted_cholesky(self.reduced, self.floor)[1] != 0:
            # positive, so that a semi-definite C passes even where tol underflows
            tol = max(self.tolerance(), np.finfo(float).tiny)
            info = _shifted_cholesky(self.reduced, tol)[1]
            if info != 0:
                raise NumericalConsistencyError(
                    f"C + {tol:.3e} I fails its Cholesky factorization at pivot {info}; "
                    "A is not positive semi-definite in the B-metric"
                )
        F, info = _shifted_cholesky(self.reduced, lam)
        if info != 0:
            raise SingularPencilError(
                f"C + lam*I is not positive definite: Cholesky failed at pivot {info}",
                pivot=int(info),
            )
        L = self.factor
        x, info = dpotrs(F, dtrsv(L, rhs, lower=1), lower=1, overwrite_b=1)
        lapack_info("potrs", info)
        return dtrsv(L, x, lower=1, trans=1, overwrite_x=1)


@dataclass(frozen=True)
class PencilDecomposition(ReducedPencil):
    """Generalized eigenpairs of (A, B), with the reduction they came from:
    eigenvalues non-increasing, column i of ``eigenvectors`` paired with
    ``eigenvalues[i]``, basis B-orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    """Validate a non-empty, square, nearly symmetric M that ``errors.array``
    passes as 2-d; return (M + M^T)/2 as a new array."""
    M = array(name, M, ndim=2)
    if M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise InvalidArgumentError(f"{name} must be square and non-empty, got shape {M.shape}")
    if (M == M.T).all():  # as every assembled pencil is: (M + M^T)/2 is M
        return M.copy()
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


def _shifted_cholesky(C: np.ndarray, shift: float) -> tuple[np.ndarray, int]:
    """LAPACK ``potrf`` of C + shift*I from C's lower triangle: (factor, info)."""
    M = np.array(C, order="F")
    M.flat[:: M.shape[0] + 1] += shift
    F, info = dpotrf(M, lower=1, clean=0, overwrite_a=1)
    return F, lapack_info("potrf", info)


def reduce_pencil(A: np.ndarray, B: np.ndarray) -> ReducedPencil:
    """The symmetric-definite pencil (A, B) reduced to standard form.

    A must be symmetric (positive semi-definite, which ``eigensolve`` and
    ``ReducedPencil.solve`` check), B symmetric positive definite up to one
    jitter pass.  B is factored once (twice on the jitter retry) and LAPACK
    ``sygst`` forms C: O(p^3 / 3) work each.
    """
    C = _check_symmetric(A, "A")
    B = _check_symmetric(B, "B")
    if C.shape != B.shape:
        raise InvalidArgumentError(f"shape mismatch: A {C.shape} vs B {B.shape}")

    norm_b = np.linalg.norm(B, 1)
    col_max = np.linalg.norm(C, axis=0).max()  # before sygst overwrites C
    # B and C are the symmetrized copies made above, so their transposes are
    # the same matrices in the Fortran order LAPACK uses, and sygst may work
    # in place on C
    L, jitter = _cholesky_with_jitter(B.T, "B")
    C, info = dsygst(C.T, L, lower=1, overwrite_a=1)
    lapack_info("sygst", info)
    # Every clamp tolerance is at least col_max * 1e-8 / ||B||_1, since the
    # norm estimate is at least col_max, so half that is a floor no tolerance
    # falls under.  The range keeps the norms clear of underflow and
    # overflow, where rounding could undo the bound.
    floor = 0.5e-8 * col_max / norm_b if _NORM_RANGE[0] <= col_max <= _NORM_RANGE[1] else None
    return ReducedPencil(A, L, C, jitter, norm_b, floor)


def eigensolve(pencil: ReducedPencil) -> PencilDecomposition:
    """The generalized eigenpairs of a reduced pencil, by LAPACK ``syevd`` on
    a copy of C and one ``trsm`` by L^-T: O(p^3) work.

    Eigenvalues below 0 are clamped to 0 when they lie within the clamp
    tolerance, and raise ``NumericalConsistencyError`` otherwise.  The
    tolerance is computed only when the smallest eigenvalue lies below the
    pencil's floor.  A ``PencilDecomposition`` is returned as it is.
    """
    if isinstance(instance("pencil", pencil, ReducedPencil), PencilDecomposition):
        return pencil
    L = pencil.factor
    # the wrapper's default workspace is LAPACK's minimum: what syevd's
    # workspace query returns for p >= 14, and below that enough for the
    # unblocked reduction that p < 32 takes either way
    w, Q, info = dsyevd(pencil.reduced, compute_v=1, lower=1, overwrite_a=0)
    if lapack_info("syevd", info) > 0:
        raise NumericalConsistencyError(
            f"syevd failed to converge on the reduced pencil (info {info})"
        )

    # syevd returns ascending order; reverse for non-increasing eigenvalues.
    # trsm runs on the reversed columns, as solve_triangular's trtrs did:
    # reversing after the solve changes OpenBLAS's blocking and the result
    w = w[::-1].copy()
    V = dtrsm(1.0, L, np.asfortranarray(Q[:, ::-1]), lower=1, trans_a=1, overwrite_b=1)

    if pencil.floor is None or w[-1] < -pencil.floor:
        tol = pencil.tolerance()
        if w[-1] < -tol:
            raise NumericalConsistencyError(
                f"pencil eigenvalue {w[-1]:.6e} is negative beyond tolerance {tol:.3e}; "
                "A is not positive semi-definite in the B-metric"
            )
    np.maximum(w, 0.0, out=w)
    return PencilDecomposition(
        **vars(pencil), eigenvalues=w, eigenvectors=np.ascontiguousarray(V)
    )


def gevd(A: np.ndarray, B: np.ndarray) -> PencilDecomposition:
    """Generalized eigendecomposition of the symmetric-definite pencil (A, B):
    ``eigensolve(reduce_pencil(A, B))``.

    A must be symmetric PSD (small negative eigenvalues are clamped to 0), B
    symmetric positive definite up to one jitter pass.
    """
    return eigensolve(reduce_pencil(A, B))


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
