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
(``GaussianKernel._blocks``) accumulates K^T K (BLAS ``syrk``), P^T K, b,
the labeled rows' K_l^T K_l when A averages over them, and the landmark
rows of D and K (Q and Kpp).  K^T K is shared with A.  The work is O(n p d)
for D plus O(n p^2) for the products, all in BLAS, and the memory O(p^2)
plus one row chunk of distances and kernel values; the n x p K is never
held (the block-wise products of FALKON: Rudi, Carratino & Rosasco,
NeurIPS 2017).

Before assembly, ``prune_landmarks`` drops the drawn landmarks whose kernel
functions are numerically dependent on the others (a pivoted Cholesky of
one triangle of Kpp).  When it drops any, or keeps them all but its last
pivot is below ``WHITEN_PIVOT``, ``assemble`` is given the partial factor:
its first rows are the Cholesky factor L of the kept ones' Kpp, and each
of its rows is a drawn landmark's whitened feature vector.  ``assemble``
whitens the pencil by L in the same loop, so that B is well-conditioned
however redundant the draw was, and takes the landmark rows' share of A~
from the factor instead of solving for it.

``assemble_dense`` builds the same objects over the exact n*(d+1)-dimensional
representer basis {k_{X_i}} + {d_j k_{X_i}} instead of a landmark subset.
The dense oracle estimator solves the same problem from one block of that
basis' Gram, without the pencil, and ``assemble_dense`` is its reference.
``assemble`` returns an exactly symmetric A and B; ``assemble_dense``'s B is
symmetric up to rounding, and the ``pencil`` solvers symmetrize it.

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
from .kernel import GaussianKernel, chunk_rows

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

    ``factor`` is the partial pivoted Cholesky factor F of the landmarks'
    Gram, as ``prune_landmarks`` returns it with the landmarks in pivot
    order: p x r, p the number of landmarks.  Its first r rows are the lower
    factor L of the first r landmarks' Gram, and the pencil is then over
    those r only.  Row i of F is the whitened feature vector phi(x) = L^-1
    k(M, x) of landmark i, M the first r landmarks.  The bundle's A and B
    are then the whitened pencil: A~ = sum phi(x) phi(x)^T / m over the m
    rows A averages, and B~ = L^-1 B L^-T by LAPACK ``sygst``; b and Kpp are
    not whitened.  The rows that are landmarks take phi from F, with one
    ``syrk``; only the others are solved for, chunk by chunk, as
    Phi = L^-1 K^T (none when every row is a landmark).  A~ is PSD by
    construction, whereas L^-1 A L^-T would be left indefinite by rounding.
    Since L L^T = Kpp, B~ is L^-1 (Znp^T Znp / n) L^-T + mu I, so
    B~ >= mu I up to rounding (its smallest eigenvalue is 0.993-0.998 mu on
    the fig1 preset) and cond(B~) stays near 1 + ||L^-1 Znp^T Znp L^-T|| /
    (n mu) however close Kpp is to singular (the whitening of FALKON).  If
    L~ L~^T = B~, then (L L~)(L L~)^T = B and both pencils reduce to the
    same C = L~^-1 A~ L~^-T, so a decomposition of (A~, B~) with L L~ for
    its factor is one of (A, B), which the fit filters b over.  Whitening adds
    O(p r^2 + r^3) work, plus O(r^2) for each row A averages that is not a
    landmark.

    The whitening stays because the kept landmarks' Kpp is still near
    singular: pruning only stops at pivots of 1e-10.  Without it, cond_1(B)
    as LAPACK ``pocon`` estimates it on the B that ``fit`` reduces
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
    m = n_l if sigma_over_labeled else n  # the rows A averages
    # the rows A averages whose share is summed from their kernel values:
    # all of them, less the landmarks when the factor holds their Phi
    fresh = np.ones(m, dtype=bool)
    if factor is not None:
        factor = array("factor", factor, ndim=2)
        r = factor.shape[1]
        if factor.shape[0] != idx.size or not 1 <= r <= idx.size:
            raise InvalidArgumentError(
                f"factor must be ({idx.size}, r) with 1 <= r <= {idx.size}, got {factor.shape}"
            )
        averaged = idx < m
        fresh[idx[averaged]] = False
        idx = idx[:r]
    p = idx.size
    coords = X[idx]

    # the syrk accumulators hold upper triangles only
    ktk = np.zeros((p, p), order="F")  # K^T K
    pk = np.zeros((p, p), order="F")  # P^T K
    # the Gram A averages, when it is not K^T K: K_l^T K_l or Phi Phi^T
    shared = m == n and factor is None
    gm = None if shared or not fresh.any() else np.zeros((p, p), order="F")
    # trsm and sygst take L^T (upper) in Fortran order, which is L in C
    # order; it is copied out of F before the loop only if the loop solves
    # with it, since at p = n the copy would add to the fit's peak memory
    whiten_rows = factor is not None and gm is not None
    upper = np.ascontiguousarray(factor[:p]).T if whiten_rows else None
    q = np.empty((p, p))
    kpp = np.empty((p, p))
    b = np.zeros(p)
    # X is the dataset's, checked when it was built
    for start, stop, kb, db in kernel._blocks(X, coords):
        # every distance is in [0, inf], whose kernel values are finite; an
        # infinite one has k = 0 and would make P = inf * 0 = NaN
        _check_block_finite(db, start, "kernel derivative")
        here = (idx >= start) & (idx < stop)
        at = idx[here] - start
        kpp[here] = kb[at]
        q[here] = db[at]
        if start < n_l:
            labeled = kb[:n_l - start]
            b = dgemv(1.0, labeled.T, y[start:stop], beta=1.0, y=b, overwrite_y=1)
        ktk = dsyrk(1.0, kb.T, beta=1.0, c=ktk, overwrite_c=1)
        db *= kb
        pk = dgemm(1.0, db.T, kb.T, beta=1.0, c=pk, trans_b=1, overwrite_c=1)
        if gm is not None and start < m:
            rows = kb[:m - start].T
            if whiten_rows:
                # Phi = (L^T)^-T K^T over the chunk's rows that are not landmarks
                rows = dtrsm(1.0, upper, rows[:, fresh[start:stop]], trans_a=1, overwrite_b=1)
            gm = dsyrk(1.0, rows, beta=1.0, c=gm, overwrite_c=1)
    del kb, db

    _mirror_upper(ktk)
    # Znp^T Znp / n by the polarization identity, in the C order of Q and
    # Kpp: the symmetric K^T K is read as its C-order transpose, and only
    # P^T K + K^T P mixes orders.  Q holds each product it subtracts in
    # turn, so no other p x p array is made
    s2 = kernel.sigma**2
    B = np.add(pk.T, pk)
    del pk
    B -= np.multiply(ktk.T, q, out=q)
    B /= 2.0 * n * s2
    B /= s2
    B += np.multiply(kpp, mu, out=q)
    if factor is None:
        # Q and Kpp hold two GEMM entries per landmark pair, which sum the
        # same terms in different orders; sygst below reads B's upper triangle
        B = np.add(B, B.T, out=q)
        B /= 2.0
    del q
    b /= n_l
    if shared:
        A = ktk
    else:
        del ktk
        if factor is not None:
            # the landmarks' Phi Phi^T from their rows of F; at p = n these
            # are all the rows A averages
            phi = factor if averaged.all() else factor[averaged]
            gm = dsyrk(1.0, phi, trans=1, beta=1.0, c=gm, overwrite_c=1)
        A = _mirror_upper(gm)
    A /= m
    if factor is not None:
        if upper is None:
            upper = np.ascontiguousarray(factor[:p]).T
        # sygst overwrites the upper triangle of a Fortran-order B with that
        # of (L^T)^-T B (L^T)^-1 = L^-1 B L^-T
        C, info = dsygst(np.asfortranarray(B), upper, itype=1, lower=0, overwrite_a=1)
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
    ``pstrf`` (or before the pencil's reduction) competes with them for the cores.  So the
    fit's level-3 products use scipy's BLAS, as its LAPACK calls do.
    """
    m = a.shape[0]
    return _mirror_upper(dsyrk(1.0, a, c=np.zeros((m, m), order="F"), overwrite_c=1))


def prune_landmarks(
    ds: SemiDataset, kernel: GaussianKernel, landmarks: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """The landmarks in the order a pivoted Cholesky of their Gram keeps
    them, and its partial factor.

    LAPACK ``pstrf`` factors Kpp with complete pivoting and stops at the
    first pivot at or below ``PRUNE_TOL``, after r steps.  When r = p and
    the last pivot is at least ``WHITEN_PIVOT`` this returns
    ``(landmarks, None)``: the draw, unchanged and in its order.  Otherwise
    it returns the draw in pivot order, ``landmarks[piv]``, and the p x r
    partial factor F (Fortran order), rows in that order: the first r
    landmarks are kept, and F's first r rows are the lower factor L with
    L L^T = their Gram, which ``assemble`` whitens their pencil by.  Row i
    of F is L^-1 k(M, x_i), M the kept landmarks: the whitened feature
    vector of landmark i, which ``assemble`` sums A~ from.  The remaining
    pivots are the squared RKHS distances of the dropped landmarks' kernel
    functions from the span of the kept ones, all at most ``PRUNE_TOL``
    (Harbrecht, Peters & Schneider, Appl. Numer. Math. 2012), so what is
    dropped is the pencil's numerical null space.  ``pstrf`` reads one
    triangle of Kpp, and only that one is evaluated.  Work is O(p^2 d / 2)
    for the Gram plus O(p^2 r).  ``landmarks`` is checked as ``assemble``
    checks it.
    """
    instance("ds", ds, SemiDataset)
    instance("kernel", kernel, GaussianKernel)
    idx = _landmark_indices(landmarks, ds.n)
    coords = ds.inputs[idx]
    p = coords.shape[0]
    # each row chunk against the columns from its first row onward, in one
    # reused buffer: the upper triangle of Kpp in C order, which is the
    # lower one of the Fortran-order Kpp^T that pstrf reads and overwrites
    # without a copy
    kpp = np.empty((p, p))
    step = chunk_rows(p, p)
    buf = np.empty(step * p)
    for start in range(0, p, step):
        stop = min(p, start + step)
        block = buf[:(stop - start) * (p - start)].reshape(stop - start, p - start)
        kpp[start:stop, start:] = kernel._gram(coords[start:stop], coords[start:], out=block)
    del buf, block
    c, piv, r, info = dpstrf(kpp.T, tol=PRUNE_TOL, lower=1, overwrite_a=1)
    lapack_info("pstrf", info)
    if r == p and c[p - 1, p - 1] ** 2 >= WHITEN_PIVOT:
        return landmarks, None
    del c
    # F is the first r columns of Kpp^T, so the first r rows of Kpp: keep
    # them and give back the rest in place, since a copy would be made
    # while all of Kpp is held.  No view of Kpp is left to dangle
    kpp.resize((r, p), refcheck=False)
    factor = kpp.T
    factor[:r][~np.tri(r, dtype=bool)] = 0.0  # pstrf writes no entry above L's diagonal
    return idx[piv - 1], factor


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
    ds: SemiDataset,
    kernel: GaussianKernel,
    n_points: int,
    dense_cap: int,
    point_scale: float = 1.0,
    grad_scale: float = 1.0,
) -> np.ndarray:
    """s G s, with G the Gram of the kernel features k_{X_i}, i < n_points,
    followed by every derivative feature d_j k_{X_l} (point-major,
    coordinate-minor), and s ``point_scale`` on the kernel features and
    ``grad_scale`` on the derivative ones.

    It is built in place in one C-order array: s is constant within each of
    the blocks K, Z and H of G, so each is scaled as it is stored, the
    cross-derivative block H straight into its slice, and the upper
    right block is the transpose of the lower left one.  Refuses a dense
    basis whose full size n*(d+1) exceeds ``dense_cap``, whatever
    ``n_points`` is; a non-finite entry of a derivative block raises
    ``NumericalConsistencyError``.  K needs no check: kernel values lie in
    [0, 1] and the scale is finite.
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
    G = np.empty((n_points + n * d,) * 2)
    np.multiply(kernel.gram(points, points), point_scale * point_scale,
                out=G[:n_points, :n_points])
    Z = np.multiply(kernel.grad1_gram(X, points).reshape(n * d, n_points),
                    point_scale * grad_scale, out=G[n_points:, :n_points])
    G[:n_points, n_points:] = Z.T
    H = G[n_points:, n_points:]
    # splitting each axis of the slice in two gives a view, not a copy
    kernel.cross_hessian_gram(X, X, out=H.reshape(n, d, n, d), scale=grad_scale * grad_scale)
    _check_block_finite(Z, 0, "kernel derivative")
    _check_block_finite(H, 0, "kernel cross derivative")
    return G


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
