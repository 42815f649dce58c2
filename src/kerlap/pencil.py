"""Symmetric-definite pencils: reduction to standard form, solve, eigenpairs.

A v = lambda B v, for A symmetric positive semi-definite and B symmetric
positive definite, is handled by the LAPACK sequence for the
symmetric-definite problem (Golub & Van Loan, section 8.7), each step a
direct call of scipy's LAPACK and BLAS wrappers.  ``gevd`` factors
B = L L^T by ``potrf``, reduces A to C = L^-1 A L^-T by ``sygst`` (C has the
pencil's eigenvalues) and checks once, by a Cholesky factorization of C
shifted by one tolerance, that A is positive semi-definite in the
B-metric: tol = ||A||_F / ||B||_1 * max(1e-8, 64 eps cond_1(B)), a
rounding bound for the reduction (``_clamp_tolerance``).  ||A||_F is at
least ||A||_2, so the check is never stricter than the same rule in the
2-norm.  The ``PencilDecomposition`` it returns solves
(A + lam*B)^-1 rhs = L^-T (C + lam I)^-1 L^-1 rhs with one Cholesky
factorization of C + lam I, and computes its eigenpairs only when first
read: ``syevd`` on C, and the eigenvectors back-transformed by L^-T with
one ``trsm``.  Calling the wrappers directly skips the argument checks and
workspace query of ``scipy.linalg.eigh`` and ``solve_triangular``, a fixed
cost per call that shows on many small pencils (p = 50 in the fig2 preset),
and staying within scipy's LAPACK keeps the whole solve on one BLAS thread
pool.  The eigenvector basis is B-orthonormal and eigenvalues are sorted in
non-increasing order.

Only this module knows how LAPACK stores its operands: ``_check_symmetric``
copies A and B into the Fortran order that ``potrf``, ``sygst`` and ``symv``
take as it stands, and every result stays as LAPACK leaves it.

``pencil_solve`` is the direct counterpart used as an oracle for Tikhonov
filtering: x = (A + lam*B)^-1 rhs from a Cholesky factorization of
A + lam*B itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dnrm2, dsymv, dtrsm, dtrsv
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs, dsyevd, dsygst

from .errors import (
    InvalidArgumentError, NumericalConsistencyError, SingularPencilError, array, lapack_info,
    real,
)

_JITTER_EPS = 1e-10


def _frobenius_norm(M: np.ndarray) -> float:
    """||M||_F by BLAS ``nrm2`` on M * 2^-e, 2^e the power of two just above
    max|M| (e = 0 for M = 0).

    The scaled entries lie in (-1, 1), so their squares neither overflow
    nor, for a nonzero M, all underflow, and scaling by a power of two is
    exact away from subnormal numbers.
    """
    e = int(np.frexp(max(M.max(), -M.min()))[1])
    return float(np.ldexp(dnrm2(np.ldexp(M, -e).ravel(order="K")), e))


@dataclass(frozen=True)
class PencilDecomposition:
    """The pencil (A, B) in standard form, every array in Fortran order:
    the lower triangle of ``factor`` holds a lower-triangular L with
    L L^T = B, and that of ``reduced`` holds C = L^-1 A L^-T, whose
    eigenvalues are the pencil's; neither strict upper triangle is read.
    ``gevd`` gives the Cholesky factor of B + jitter*I, ``jitter`` recording
    the diagonal shift added to B when its Cholesky factorization needed a
    retry (0.0 in the usual case), and returns a decomposition only when
    C + tol*I has a Cholesky factor, tol being the clamp tolerance
    (``_clamp_tolerance``).

    The eigenpairs are computed on first read of ``eigenvalues`` or
    ``eigenvectors``: eigenvalues non-increasing, column i of
    ``eigenvectors`` paired with ``eigenvalues[i]``, basis B-orthonormal.
    Eigenvalues below 0, at most tol below, are clamped to 0.  Both arrays
    are read-only.
    """

    factor: np.ndarray
    reduced: np.ndarray
    jitter: float

    def solve(self, lam: float, rhs: np.ndarray) -> np.ndarray:
        """x = (A + lam*B)^-1 rhs as L^-T (C + lam I)^-1 L^-1 rhs, for lam > 0,
        by one Cholesky factorization of C + lam I: O(p^3 / 3) work."""
        lam = real("lam", lam)
        rhs = array("rhs", rhs, ndim=1)
        p = self.factor.shape[0]
        if rhs.shape != (p,):
            raise InvalidArgumentError(f"rhs has shape {rhs.shape}, expected ({p},)")
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

    @cached_property
    def _eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors), by LAPACK ``syevd`` on a copy of C and
        one ``trsm`` by L^-T: O(p^3) work.  Eigenvalues below 0, which
        ``gevd``'s check keeps within the clamp tolerance, are clamped to 0."""
        # the wrapper's default workspace is LAPACK's minimum: what syevd's
        # workspace query returns for p >= 14, and below that enough for the
        # unblocked reduction that p < 32 takes either way
        w, Q, info = dsyevd(self.reduced, compute_v=1, lower=1, overwrite_a=0)
        if lapack_info("syevd", info) > 0:
            raise NumericalConsistencyError(
                f"syevd failed to converge on the reduced pencil (info {info})"
            )
        # syevd returns ascending order; reverse for non-increasing eigenvalues.
        # trsm runs on the reversed columns, as solve_triangular's trtrs did:
        # reversing after the solve changes OpenBLAS's blocking and the result
        V = dtrsm(1.0, self.factor, np.asfortranarray(Q[:, ::-1]), lower=1, trans_a=1,
                  overwrite_b=1)
        # read-only, as FittedModel's arrays: every later read shares them
        values = np.maximum(w[::-1], 0.0)
        values.setflags(write=False)
        V.setflags(write=False)
        return values, V

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenpairs[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenpairs[1]


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    """Validate a non-empty, square, nearly symmetric M that ``errors.array``
    passes as 2-d; return (M + M^T)/2 as a new Fortran-order array."""
    M = array(name, M, ndim=2)
    if M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise InvalidArgumentError(f"{name} must be square and non-empty, got shape {M.shape}")
    if (M == M.T).all():  # as every assembled pencil is: (M + M^T)/2 is M
        return np.array(M, order="F")
    # on scipy's BLAS: numpy's pool would spin against the solvers' next
    scale = dnrm2(M.ravel(order="K"))
    asym = dnrm2((M - M.T).ravel(order="K"))
    if asym > 1e-8 * max(scale, np.finfo(float).tiny):
        raise InvalidArgumentError(
            f"{name} is asymmetric beyond tolerance: ||M-M^T||={asym:.3e}, ||M||={scale:.3e}"
        )
    return np.divide(M + M.T, 2.0, order="F")


def _cholesky_with_jitter(M: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric M in Fortran order, factored in
    place, retrying once with a small diagonal shift.

    The shift is 1e-10 times the mean diagonal of M.  Returns (L, jitter),
    jitter being 0.0 when no retry was needed.  L is M: its lower triangle
    holds the factor and its strict upper triangle is still M's, from which
    a retry restores the lower one.  Raises SingularPencilError naming
    ``name`` and the failing pivot if M is not positive definite even after
    the jitter pass.
    """
    diagonal = M.diagonal().copy()
    L, info = dpotrf(M, lower=1, clean=0, overwrite_a=1)
    if lapack_info("potrf", info) == 0:
        return L, 0.0
    # potrf wrote the lower triangle only
    lower = np.tri(M.shape[0], k=-1, dtype=bool)
    M[lower] = M.T[lower]
    np.fill_diagonal(M, diagonal)
    jitter = _JITTER_EPS * (np.trace(M) / M.shape[0])
    if jitter <= 0:
        raise SingularPencilError(
            f"{name} is not positive definite: Cholesky failed at pivot {info} "
            "and the matrix has non-positive trace",
            pivot=int(info),
        )
    M.flat[:: M.shape[0] + 1] += jitter
    L, info = dpotrf(M, lower=1, clean=0, overwrite_a=1)
    if lapack_info("potrf", info) != 0:
        raise SingularPencilError(
            f"{name} is not positive definite even after jitter {jitter:.3e}: "
            f"Cholesky failed at pivot {info}",
            pivot=int(info),
        )
    return L, float(jitter)


def _spd_solve(M: np.ndarray, rhs: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """(x, jitter): M x = rhs for a symmetric positive definite M in C order,
    by ``_cholesky_with_jitter`` on M's transpose, which is M in Fortran
    order and is factored in place, and LAPACK ``potrs``."""
    L, jitter = _cholesky_with_jitter(M.T, name)
    x, info = dpotrs(L, rhs, lower=1)
    lapack_info("potrs", info)
    return x, jitter


def _clamp_tolerance(norm_a: float, L: np.ndarray, norm_b: float) -> float:
    """How far below 0 an eigenvalue of the pencil (A, B) may be rounded to 0:
    ||A||_F / ||B||_1 * max(1e-8, 64 eps cond_1(B)), for norm_a = ||A||_F,
    norm_b = ||B||_1 and L the Cholesky factor of B.

    The Cholesky reduction perturbs eigenvalues by about eps * cond(B) *
    ||A|| / ||B|| (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 10), so the PSD check must widen with B's conditioning; the
    1e-8 ||A|| / ||B|| floor applies for well-behaved B.  Eigenvalues carry
    the units of A / B, so the tolerance does too.  ||A||_F lies between
    ||A||_2 and sqrt(rank A) ||A||_2, so the tolerance is never narrower
    than the rule in the 2-norm, nor than one from any lower estimate of
    ||A||_2, and is at most sqrt(rank A) times wider.  cond_1(B) is
    LAPACK's estimate from L; for symmetric B the 1-norm condition number is
    at least the 2-norm one.
    """
    rcond, _ = dpocon(L, norm_b, uplo="L")
    cond_b = 1.0 / rcond if rcond > 0 else np.inf
    return norm_a / norm_b * max(1e-8, 64.0 * np.finfo(float).eps * cond_b)


def _shifted_cholesky(C: np.ndarray, shift: float) -> tuple[np.ndarray, int]:
    """LAPACK ``potrf`` of C + shift*I from C's lower triangle: (lower factor,
    info), the factor's upper triangle zeroed."""
    M = np.array(C, order="F")
    M.flat[:: M.shape[0] + 1] += shift
    F, info = dpotrf(M, lower=1, clean=1, overwrite_a=1)
    return F, lapack_info("potrf", info)


def gevd(A: np.ndarray, B: np.ndarray) -> PencilDecomposition:
    """The symmetric-definite pencil (A, B) reduced to standard form, with A
    checked positive semi-definite in the B-metric.

    A must be symmetric positive semi-definite, B symmetric positive
    definite up to one jitter pass.  B is factored once (twice on the jitter
    retry), LAPACK ``sygst`` forms C, and a Cholesky factorization of C
    shifted by the clamp tolerance's 1e-8 ||A||_F / ||B||_1 floor checks A:
    O(p^3 / 3) work each.  Only when that one fails is cond_1(B) estimated
    and C shifted by the whole clamp tolerance (``_clamp_tolerance``, how
    far below 0 an eigenvalue may be rounded to 0) factored instead; if that
    fails too, ``NumericalConsistencyError`` is raised.  So an A is accepted
    exactly when C + tol*I has a Cholesky factor, one rule whichever
    factorization decides.  The eigenpairs are left to the first read of
    the decomposition's ``eigenvalues`` or ``eigenvectors``, which clamps
    the eigenvalues below 0 that the check let pass.  The factor is
    ``potrf``'s: L below the diagonal, B's copy above it.
    """
    C = _check_symmetric(A, "A")
    B = _check_symmetric(B, "B")
    if C.shape != B.shape:
        raise InvalidArgumentError(f"shape mismatch: A {C.shape} vs B {B.shape}")

    # both norms before potrf factors B and sygst reduces C, in place
    norm_a, norm_b = _frobenius_norm(C), np.linalg.norm(B, 1)
    L, jitter = _cholesky_with_jitter(B, "B")
    C, info = dsygst(C, L, lower=1, overwrite_a=1)
    lapack_info("sygst", info)
    # the floor and the tolerance are positive, so that a semi-definite C
    # passes even where they underflow; the floor is the tolerance at
    # cond_1(B) <= 1e-8 / (64 eps) and never above it
    tiny = np.finfo(float).tiny
    if _shifted_cholesky(C, max(norm_a / norm_b * 1e-8, tiny))[1] != 0:
        tol = max(_clamp_tolerance(norm_a, L, norm_b), tiny)
        info = _shifted_cholesky(C, tol)[1]
        if info != 0:
            raise NumericalConsistencyError(
                f"C + {tol:.3e} I fails its Cholesky factorization at pivot {info}; "
                "A is not positive semi-definite in the B-metric"
            )
    return PencilDecomposition(L, C, jitter)


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
        x, info = dpotrs(L, v, lower=1)
        lapack_info("potrs", info)
        return x

    # the residuals rhs - M x on scipy's BLAS, as the solves
    x = solve(rhs)
    x = x + solve(dsymv(-1.0, M, x, beta=1.0, y=rhs))  # one refinement step
    resid = dnrm2(dsymv(-1.0, M, x, beta=1.0, y=rhs))
    bound = 1e-8 * dnrm2(rhs)
    if resid > bound and bound > 0:
        raise NumericalConsistencyError(
            f"pencil solve residual {resid:.3e} exceeds bound {bound:.3e}"
        )
    return x
