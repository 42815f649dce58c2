"""Assembly of the landmark-compressed empirical operator matrices.

Given n data points (the first n_labeled of which carry labels), a kernel k
and p landmarks M_i = X_{m_i}, the data rows at p distinct row indices m_i,
the training pencil is built from

    Knp[l, i] = k(X_l, M_i)                       (n x p)
    Znp[l*d + j, i] = d/dX_l_j k(X_l, M_i)        (n*d x p)

    A = Knp^T Knp / n            covariance compression
    B = Znp^T Znp / n + mu*Kpp   Dirichlet-energy compression + mu * landmark Gram
    b = Knp[:n_labeled]^T y / n_labeled

``assemble`` never builds Znp.  For the Gaussian kernel
d/dX_l k(X_l, M_i) = -(X_l - M_i) K_li / sigma^2, so

    (Znp^T Znp)[i, i'] = sigma^-4 sum_l K_li K_li' (X_l - M_i).(X_l - M_i'),

and the polarization identity u.v = (|u|^2 + |v|^2 - |u - v|^2) / 2 turns
the dot products into squared distances:

    Znp^T Znp = (P^T K + K^T P - (K^T K) o Q) / (2 sigma^4),

with D the (n x p) data-to-landmark squared distances that K = exp(-D /
2 sigma^2) is made from, P = K o D, and Q the landmark-to-landmark squared
distances (the rows of D at the landmark indices).  The kernel forms D by
one matrix product per row chunk and sums coordinate-wise the entries where
that product would cancel (see ``kernel``), so every distance is accurate
for data far from the origin.

``assemble`` streams: one loop over the kernel's row chunks of K and D
(``GaussianKernel.blocks``) accumulates K^T K (BLAS ``syrk``), P^T K, b,
the labeled rows' K_l^T K_l when A averages over them, and the landmark
rows of D and K (Q and Kpp).  K^T K is shared with A.  The work is O(n p d)
for D plus O(n p^2) for the products, all in BLAS, and the memory O(p^2)
plus one row chunk of distances and kernel values; the n x p K is never
held (the block-wise products of FALKON: Rudi, Carratino & Rosasco,
NeurIPS 2017).

Before assembly, ``prune_landmarks`` drops the drawn landmarks whose kernel
functions are numerically dependent on the others (a pivoted Cholesky of
Kpp).  When it drops any, or keeps them all but its last pivot is below
``WHITEN_PIVOT``, ``assemble`` is given the Cholesky factor L of the kept
ones' Kpp and whitens the pencil by it in the same loop, so that B is
well-conditioned however redundant the draw was.

``assemble_dense`` builds the same objects over the exact n*(d+1)-dimensional
representer basis {k_{X_i}} + {d_j k_{X_i}} instead of a landmark subset.
The dense oracle estimator solves the same problem from one block of that
basis' Gram, without the pencil, and ``assemble_dense`` is its reference.
Neither assembly symmetrizes its output: the ``pencil`` solvers check and
symmetrize every pencil they are given.

Every CSV file the library writes goes through ``write_csv`` and every one
it reads through ``read_csv``, which owns the checks on the rows.
``read_points`` reads a dataset CSV in file order, labels or not, as
``kerlap predict`` and ``eigvecs --grid`` read their query rows;
``load_dataset_csv`` moves its labeled rows to the front.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dgemv, dsyrk, dtrsm
from scipy.linalg.lapack import dpstrf, dsygst

from .errors import (
    InvalidArgumentError, NumericalConsistencyError, ResourceLimitError, array, instance, integer,
    lapack_info, real,
)
from .kernel import GaussianKernel

DEFAULT_DENSE_CAP = 2000

# side of the square tiles in which _mirror_upper mirrors a triangle
_TILE = 128

# the strict lower triangle of a diagonal tile, as a mask; the leading
# s x s block of it is that of a smaller tile
_BELOW = np.tri(_TILE, k=-1, dtype=bool)

# pivoted Cholesky stopping tolerance on the landmark Gram; the Gaussian Gram
# has a unit diagonal, so this is relative to its largest pivot
PRUNE_TOL = 1e-10

# a draw that keeps all its landmarks is still whitened when its last pivot
# is below this.  On the fig1 preset's data every full-rank draw measured
# below it gave cond_1(B) > 1e6 unwhitened (5e6 to 2e13); above it some
# still reached 8e7.  It is no higher because the smallest last pivots of
# the benchmark draws are 1.6e-2 (fig2) and 1.5e-4 (gauss2 at n = 8000,
# 200 seeds), and it fires on none of them
WHITEN_PIVOT = 1e-5


@dataclass(frozen=True)
class SemiDataset:
    """n input points with labels attached to the first n_labeled rows."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = array("inputs", self.inputs, ndim=2).copy()
        y = array("labels", self.labels, ndim=1).copy()
        if X.shape[1] < 1 or not 1 <= y.size <= X.shape[0]:
            raise InvalidArgumentError(
                f"inputs must be (n, d) with d >= 1 and labels 1 <= n_labeled <= n, "
                f"got {X.shape} and {y.size} labels"
            )
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_labeled(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class OperatorBundle:
    """Compressed empirical operators: pencil matrices (A, B) and moment vector b.

    For landmark assembly ``kpp`` is the landmark Gram block, and ``knp``
    and ``znp`` are None: neither the n x p kernel matrix nor the (n*d x p)
    derivative matrix is held (see the module docstring).  For dense
    assembly ``kpp`` is the extended basis Gram and ``knp`` / ``znp`` are its
    row blocks: the point evaluations of the basis and the gradient
    evaluations with the cross-derivative columns.  The ``knp`` and ``znp``
    slots stay so that both kinds of bundle share one type.
    """

    knp: np.ndarray | None
    znp: np.ndarray | None
    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    kpp: np.ndarray


def select_landmarks(ds: SemiDataset, p: int, seed: int) -> np.ndarray:
    """Draw p distinct row indices of ``ds`` uniformly without replacement (seeded)."""
    instance("ds", ds, SemiDataset)
    if integer("p", p) > ds.n:
        raise InvalidArgumentError(f"p must satisfy 1 <= p <= n={ds.n}, got {p}")
    rng = np.random.default_rng(integer("seed", seed, low=0))
    return rng.choice(ds.n, size=p, replace=False)


def _landmark_indices(landmarks, n: int) -> np.ndarray:
    """``landmarks`` as an array of distinct row indices in [0, n), else
    ``InvalidArgumentError``: not 1-d integers, empty, repeated or out of range."""
    try:
        idx = np.asarray(landmarks)
    except (TypeError, ValueError) as exc:  # a ragged nested list
        raise InvalidArgumentError(f"landmarks must be a vector of row indices: {exc}") from None
    if idx.ndim != 1 or idx.size < 1 or idx.dtype.kind not in "iu":
        raise InvalidArgumentError(
            f"landmarks must be a non-empty vector of row indices, got {idx.dtype} {idx.shape}"
        )
    ordered = np.sort(idx)
    if (ordered[1:] == ordered[:-1]).any():
        raise InvalidArgumentError("landmark indices must be distinct")
    if ordered[0] < 0 or ordered[-1] >= n:
        raise InvalidArgumentError(
            f"landmark indices must lie in [0, {n}), got {ordered[0]} .. {ordered[-1]}"
        )
    return idx


def _check_block_finite(block: np.ndarray, row_offset: int, what: str):
    if np.isfinite(block).all():
        return
    bad = np.argwhere(~np.isfinite(block))
    r, c = bad[0][0], bad[0][-1]
    raise NumericalConsistencyError(
        f"non-finite {what} value at data row {row_offset + int(r)}, landmark {int(c)}"
    )


def assemble(
    ds: SemiDataset,
    kernel: GaussianKernel,
    landmarks: np.ndarray,
    mu: float,
    sigma_over_labeled: bool = False,
    factor: np.ndarray | None = None,
) -> OperatorBundle:
    """Build the landmark-compressed operator bundle.

    ``landmarks`` holds distinct row indices of ``ds`` (``select_landmarks``
    draws them so): the landmark coordinates are ``ds.inputs[landmarks]``,
    and Kpp and the landmark distances Q are the rows of K and D at those
    indices.  Any other vector (not 1-d integers, empty, repeated or outside
    [0, n)) raises ``InvalidArgumentError``; a non-finite squared distance
    raises ``NumericalConsistencyError``.

    ``sigma_over_labeled`` switches the covariance compression A from the
    default average over all m = n points to an average over the m = n_labeled
    labeled points only (the exact empirical-risk-minimization normalization).

    ``factor`` is the lower Cholesky factor L of the landmarks' Gram, as
    ``prune_landmarks`` returns it.  When it is given, the bundle's A and B
    are the whitened pencil: A~ = Phi Phi^T / m with Phi = L^-1 K^T, summed
    chunk by chunk, and B~ = L^-1 B L^-T by LAPACK ``sygst``; b and Kpp are
    not whitened.  A~ is PSD by construction, whereas L^-1 A L^-T would be
    left indefinite by rounding.  Since L L^T = Kpp, B~ is L^-1 (Znp^T Znp /
    n) L^-T + mu I, so B~ >= mu I up to rounding (its smallest eigenvalue is
    0.993-0.998 mu on the fig1 preset) and cond(B~) stays near
    1 + ||L^-1 Znp^T Znp L^-T|| / (n mu) however close Kpp is to singular
    (the whitening of FALKON).  If V~ are generalized eigenvectors of
    (A~, B~), V = L^-T V~ are those of (A, B) with the same eigenvalues, so
    ``filter_coefficients`` applies to V and b unchanged.  Whitening adds
    O(m p^2 + p^3) work.

    The whitening stays because the kept landmarks' Kpp is still near
    singular: pruning only stops at pivots of 1e-10.  Without it, cond_1(B)
    as LAPACK ``pocon`` estimates it on the B that ``fit`` gives ``gevd``
    went from 3.0e2-3.5e2 to 4.1e13-9.8e13 on the fig1 geometry at
    n = p = 400 (five draws), and from 1.5e3 to 6e14 on the fig1 preset
    (two draws).
    """
    instance("ds", ds, SemiDataset)
    instance("kernel", kernel, GaussianKernel)
    mu = real("mu", mu)
    X, y = ds.inputs, ds.labels
    n, n_l = X.shape[0], ds.n_labeled
    idx = _landmark_indices(landmarks, n)
    p = idx.size
    if factor is not None:
        # trsm and sygst take L^T (upper) in Fortran order, which is L in C
        # order, as prune_landmarks returns it, without a copy
        upper = np.ascontiguousarray(array("factor", factor, ndim=2)).T
        if upper.shape != (p, p):
            raise InvalidArgumentError(f"factor must be ({p}, {p}), got {upper.shape}")
    coords = X[idx]
    m = n_l if sigma_over_labeled else n  # the rows A averages

    # the syrk accumulators hold upper triangles only
    ktk = np.zeros((p, p), order="F")  # K^T K
    pk = np.zeros((p, p), order="F")  # P^T K
    # the Gram A averages, when it is not K^T K: K_l^T K_l or Phi Phi^T
    shared = m == n and factor is None
    gm = None if shared else np.zeros((p, p), order="F")
    q = np.empty((p, p))
    kpp = np.empty((p, p))
    b = np.zeros(p)
    for start, stop, kb, db in kernel.blocks(X, coords):
        _check_block_finite(kb, start, "kernel")
        # an infinite distance has k = 0 and would make P = inf * 0 = NaN
        _check_block_finite(db, start, "kernel derivative")
        here = (idx >= start) & (idx < stop)
        chunk_rows = idx[here] - start
        kpp[here] = kb[chunk_rows]
        q[here] = db[chunk_rows]
        if start < n_l:
            labeled = kb[:n_l - start]
            b = dgemv(1.0, labeled.T, y[start:stop], beta=1.0, y=b, overwrite_y=1)
        ktk = dsyrk(1.0, kb.T, beta=1.0, c=ktk, overwrite_c=1)
        db *= kb
        pk = dgemm(1.0, db.T, kb.T, beta=1.0, c=pk, trans_b=1, overwrite_c=1)
        if not shared and start < m:
            rows = kb[:m - start].T
            if factor is not None:
                # Phi = (L^T)^-T rows, over the chunk's kernel values, which
                # are not read again
                rows = dtrsm(1.0, upper, rows, trans_a=1, overwrite_b=1)
            gm = dsyrk(1.0, rows, beta=1.0, c=gm, overwrite_c=1)
    del kb, db

    _mirror_upper(ktk)
    # Znp^T Znp / n by the polarization identity; Q holds each product it
    # subtracts in turn, so no other p x p array is made
    s2 = kernel.sigma**2
    B = pk
    B += pk.T
    B -= np.multiply(ktk, q, out=q)
    B /= 2.0 * n * s2
    B /= s2
    B += np.multiply(kpp, mu, out=q)
    del q
    b /= n_l
    if shared:
        A = ktk
    else:
        del ktk
        A = _mirror_upper(gm)
    A /= m
    if factor is not None:
        # sygst overwrites the upper triangle of B with that of
        # (L^T)^-T B (L^T)^-1 = L^-1 B L^-T
        C, info = dsygst(B, upper, itype=1, lower=0, overwrite_a=1)
        lapack_info("sygst", info)
        B = _mirror_upper(C)
    return OperatorBundle(knp=None, znp=None, A=A, B=B, b=b, kpp=kpp)


def _mirror_upper(c: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of the square ``c`` over its lower one; returns c.

    It goes tile by tile: a transposed pass over the whole array strides
    through memory, and took three times as long at p = 1100 (2-core x86).
    """
    m = c.shape[0]
    for i in range(0, m, _TILE):
        diagonal = c[i:i + _TILE, i:i + _TILE]
        size = diagonal.shape[0]
        # copyto reads the overlapping diagonal.T from a copy
        np.copyto(diagonal, diagonal.T, where=_BELOW[:size, :size])
        for j in range(i + _TILE, m, _TILE):
            c[j:j + _TILE, i:i + _TILE] = c[i:i + _TILE, j:j + _TILE].T
    return c


def _gram_of_rows(a: np.ndarray) -> np.ndarray:
    """a a^T by BLAS ``syrk``.

    numpy and scipy each load their own OpenBLAS, and a pool's threads spin
    for a while after each call; a numpy product right after scipy's
    ``pstrf`` (or before ``gevd``) competes with them for the cores.  So the
    fit's level-3 products use scipy's BLAS, as its LAPACK calls do.
    """
    m = a.shape[0]
    return _mirror_upper(dsyrk(1.0, a, c=np.zeros((m, m), order="F"), overwrite_c=1))


def prune_landmarks(
    ds: SemiDataset, kernel: GaussianKernel, landmarks: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """The landmarks a pivoted Cholesky of their Gram keeps, and its factor.

    LAPACK ``pstrf`` factors Kpp with complete pivoting and stops at the
    first pivot at or below ``PRUNE_TOL``, after r steps.  When r = p and
    the last pivot is at least ``WHITEN_PIVOT`` this returns
    ``(landmarks, None)``: the draw, unchanged and in its order.  Otherwise
    it returns the r pivot rows ``landmarks[piv[:r]]`` and the lower factor
    L (r x r) with L L^T = their Gram, which ``assemble`` whitens their
    pencil by.  The remaining pivots are the squared RKHS
    distances of the dropped landmarks' kernel functions from the span of
    the kept ones, all at most ``PRUNE_TOL`` (Harbrecht, Peters & Schneider,
    Appl. Numer. Math. 2012), so what is dropped is the pencil's numerical
    null space.  Work is O(p^2 d) for the Gram plus O(p^2 r).  ``landmarks``
    is checked as ``assemble`` checks it.
    """
    instance("ds", ds, SemiDataset)
    instance("kernel", kernel, GaussianKernel)
    idx = _landmark_indices(landmarks, ds.n)
    coords = ds.inputs[idx]
    p = coords.shape[0]
    kpp = np.empty((p, p))
    for start, stop, block, _ in kernel.blocks(coords, coords):
        kpp[start:stop] = block
    del block, _
    # Kpp is symmetric, so its transpose is the Fortran-order array pstrf
    # overwrites without a copy
    c, piv, r, info = dpstrf(kpp.T, tol=PRUNE_TOL, lower=1, overwrite_a=1)
    lapack_info("pstrf", info)
    if r == p and c[p - 1, p - 1] ** 2 >= WHITEN_PIVOT:
        return landmarks, None
    return idx[piv[:r] - 1], np.tril(c[:r, :r])


def assemble_dense(
    ds: SemiDataset,
    kernel: GaussianKernel,
    mu: float,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> OperatorBundle:
    """Build the exact operator bundle over the full n*(d+1) representer basis.

    Basis layout: entries 0..n-1 are the kernel features k_{X_i}; entry
    n + l*d + j is the derivative feature d_j k_{X_l}.  The bundle's ``kpp``
    holds the extended basis Gram (m x m), and ``knp`` and ``znp`` are views
    of its row blocks: the point evaluations of the basis (n x m) and the
    gradient evaluations (n*d x m).  A averages over the labeled points (the
    exact empirical-risk-minimization normalization).  mu must be > 0, as for
    ``assemble``: psi^T psi / n has rank at most n*d < m, so B needs mu * Kpp.
    """
    mu = real("mu", mu)
    n = ds.n
    gram = _extended_gram(ds, kernel, n, dense_cap)
    phi = gram[:n]  # <k_{X_i}, basis_a>, rows over points
    psi = gram[n:]  # <d_j k_{X_l}, basis_a>, rows over (l, j)

    # the products run on scipy's BLAS, which pencil_solve and gevd use next
    n_l = ds.n_labeled
    A = _gram_of_rows(phi[:n_l].T) / n_l
    B = _gram_of_rows(psi.T) / n + mu * gram
    b = dgemv(1.0 / n_l, phi[:n_l].T, ds.labels)
    return OperatorBundle(knp=phi, znp=psi, A=A, B=B, b=b, kpp=gram)


def _extended_gram(
    ds: SemiDataset, kernel: GaussianKernel, n_points: int, dense_cap: int
) -> np.ndarray:
    """Gram of the kernel features k_{X_i}, i < n_points, followed by every
    derivative feature d_j k_{X_l} (point-major, coordinate-minor).

    Refuses a dense basis whose full size n*(d+1) exceeds ``dense_cap``,
    whatever ``n_points`` is.
    """
    X = ds.inputs
    n, d = X.shape
    m = n * (d + 1)
    if m > integer("dense_cap", dense_cap):
        raise ResourceLimitError(
            f"dense basis size n*(d+1) = {m} exceeds the cap {dense_cap}; "
            "use the landmark assembly instead"
        )
    points = X[:n_points]
    K = kernel.gram(points, points)
    Z = kernel.grad1_gram(X, points).reshape(n * d, n_points)
    H = kernel.cross_hessian_gram(X, X).reshape(n * d, n * d)
    _check_block_finite(K, 0, "kernel")
    _check_block_finite(Z, 0, "kernel derivative")
    _check_block_finite(H, 0, "kernel cross derivative")
    return np.block([[K, Z.T], [Z, H]])


# Dataset CSV format (shared repo-wide): header x0,...,x{d-1},y with the y
# cell left empty on unlabeled rows.

def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path``, each line ending in \\r\\n;
    ``csv`` writes a Python float as its round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, check_header, convert) -> tuple[list, list]:
    """The header of ``path``, which ``check_header`` may refuse by raising,
    and ``convert(row)`` of each non-blank row after it.  An empty file, a
    row not as wide as the header and a row that ``convert`` refuses with
    ``ValueError`` raise ``InvalidArgumentError`` naming ``<path>:<line>``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InvalidArgumentError(f"{path}: empty file")
        check_header(header)
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise InvalidArgumentError(
                    f"{path}:{reader.line_num}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                rows.append(convert(row))
            except ValueError as exc:
                raise InvalidArgumentError(f"{path}:{reader.line_num}: {exc}") from None
    return header, rows


def _finite(cell: str) -> float:
    if math.isfinite(value := float(cell)):
        return value
    raise ValueError(f"non-finite value {cell!r}")


def save_dataset_csv(ds: SemiDataset, path) -> None:
    labels = ds.labels.tolist() + [""] * (ds.n - ds.n_labeled)
    write_csv(path, [f"x{j}" for j in range(ds.d)] + ["y"],
              (x + [y] for x, y in zip(ds.inputs.tolist(), labels)))


def read_points(path) -> tuple[np.ndarray, list]:
    """The (n, d) inputs of a dataset CSV in file order and each row's label,
    or None; every cell must be a finite number, and no row need be labeled."""
    def check_header(header):
        if len(header) < 2 or header != [f"x{j}" for j in range(len(header) - 1)] + ["y"]:
            raise InvalidArgumentError(
                f"{path}: malformed header {header!r}; expected x0,...,x{{d-1}},y"
            )

    def convert(row):
        return [_finite(v) for v in row[:-1]], (_finite(row[-1]) if row[-1].strip() else None)

    header, rows = read_csv(path, check_header, convert)
    return np.array([x for x, _ in rows]).reshape(len(rows), len(header) - 1), [y for _, y in rows]


def load_dataset_csv(path) -> SemiDataset:
    """Read the dataset CSV format, stably partitioning labeled rows to the front."""
    inputs, labels = read_points(path)
    unlabeled = np.array([y is None for y in labels], dtype=bool)
    if unlabeled.all():
        raise InvalidArgumentError(f"{path}: no labeled rows")
    return SemiDataset(inputs=inputs[np.argsort(unlabeled, kind="stable")],
                       labels=np.array([y for y in labels if y is not None]))
