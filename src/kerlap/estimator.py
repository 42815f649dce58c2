"""End-to-end estimators: the landmark-compressed spectral-filtering fit, the
exact dense-basis oracle, prediction, binary sign decoding, and the
theoretical hyperparameter schedule.

The landmark fit runs:  select landmarks -> prune them by a pivoted
Cholesky of their Gram Kpp -> assemble (A, B, b) over the kept ones ->
generalized eigendecomposition of (A, B) -> spectral filtering of b,
producing coefficients c that define g(x) = sum_i c_i k(x, M_i).  When the
pruning drops landmarks, the pencil is assembled whitened by the Cholesky
factor of the kept Kpp, which keeps it well-conditioned however redundant
the draw was.

The dense oracle minimizes the regularized empirical risk over the full
n*(d+1) representer basis and is the quality/correctness reference for the
landmark path.  Its minimizer has no weight on the unlabeled points' kernel
features, and the weights on the others solve one symmetric positive
definite system of size n_labeled + n*d (``fit_exact`` derives it).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemm, dgemv

from .errors import InvalidArgumentError, array, instance, integer, real
from .filters import FilterSpec, filter_coefficients
from .kernel import GaussianKernel
from .operators import (
    DEFAULT_DENSE_CAP, SemiDataset, _extended_gram, assemble, prune_landmarks, select_landmarks,
)
from .pencil import PencilDecomposition, _spd_solve, gevd

LANDMARK_KERNEL = "landmark_kernel"
DENSE_REPRESENTER = "dense_representer"


@dataclass(frozen=True)
class FittedModel:
    """Prediction rule g(x) defined by basis coordinates and coefficients.

    ``landmark_kernel`` models predict g(x) = sum_i c_i k(x, M_i) with one
    coefficient per basis point.  ``dense_representer`` models carry
    n*(d+1) coefficients: the first n multiply kernel features k_{X_i}, the
    remaining n*d (point-major, coordinate-minor) multiply derivative
    features d_j k_{X_i}.  Predictions are clipped to [-clip_bound,
    clip_bound] when a bound is set.
    """

    kernel: GaussianKernel
    basis_coordinates: np.ndarray
    coefficients: np.ndarray
    basis_kind: str
    clip_bound: float | None = None

    def __post_init__(self):
        instance("kernel", self.kernel, GaussianKernel)
        coords = array("basis_coordinates", self.basis_coordinates, ndim=2).copy()
        coef = array("coefficients", self.coefficients, ndim=1).copy()
        m, d = coords.shape
        if self.basis_kind == LANDMARK_KERNEL:
            expected = m
        elif self.basis_kind == DENSE_REPRESENTER:
            expected = m * (d + 1)
        else:
            raise InvalidArgumentError(f"unknown basis kind {self.basis_kind!r}")
        if coef.size != expected:
            raise InvalidArgumentError(f"coefficients number {coef.size}, expected {expected}")
        if self.clip_bound is not None:
            object.__setattr__(self, "clip_bound", real("clip_bound", self.clip_bound, closed=True))
        coords.setflags(write=False)
        coef.setflags(write=False)
        object.__setattr__(self, "basis_coordinates", coords)
        object.__setattr__(self, "coefficients", coef)


@dataclass(frozen=True)
class ScheduleParams:
    """Constants of the theoretical regularization schedule.

    ``decay`` is the eigenvalue-decay exponent in (0, 1] that sets the
    subsampling exponent s = max(1/2, 1/(4*decay)).
    """

    lambda0: float = 1.0
    mu0: float = 1.0
    p0: float = 1.0
    decay: float = 1.0

    def __post_init__(self):
        for name in ("lambda0", "mu0", "p0"):
            object.__setattr__(self, name, real(name, getattr(self, name)))
        object.__setattr__(self, "decay", real("decay", self.decay, high=1.0))


def schedule(n: int, sp: ScheduleParams = ScheduleParams()) -> tuple[float, float, int]:
    """(lam, mu, p) for sample size n: lam = lambda0 * n^(-1/4),
    mu = mu0 * n^(-1/4), p = min(n, ceil(p0 * n^s * ln n)) with
    s = max(1/2, 1/(4*decay)).  Natural logarithm throughout."""
    n = integer("n", n, low=2)
    lam = sp.lambda0 * n ** (-0.25)
    mu = sp.mu0 * n ** (-0.25)
    s = max(0.5, 1.0 / (4.0 * sp.decay))
    p = min(n, math.ceil(sp.p0 * n**s * math.log(n)))
    return lam, mu, p


def clip_bound(labels: np.ndarray, clip: bool) -> float | None:
    """The prediction bound ``clip`` asks for: the largest label magnitude."""
    return float(np.abs(labels).max()) if clip else None


def fit(
    ds: SemiDataset,
    kernel: GaussianKernel,
    p: int,
    mu: float,
    filter_spec: FilterSpec,
    seed: int,
    sigma_over_labeled: bool = False,
    clip: bool = False,
) -> FittedModel:
    """Landmark-compressed spectral-filtering fit.

    Work is O(p^2 d) for the landmark Gram, O(p^2 r) for its pivoted
    Cholesky, O(n r d + n r^2) for the assembly over the r <= p landmarks it
    keeps and O(r^3) for the eigensolve; memory is O(p^2) plus one row
    chunk of ``GaussianKernel.blocks``.  The model stores one coefficient
    per kept landmark.
    """
    instance("ds", ds, SemiDataset)
    instance("kernel", kernel, GaussianKernel)
    instance("filter_spec", filter_spec, FilterSpec)
    kept, dec, b = _landmark_decomposition(ds, kernel, p, mu, seed, sigma_over_labeled)
    coef = filter_coefficients(dec, filter_spec, b)
    return FittedModel(
        kernel=kernel,
        basis_coordinates=ds.inputs[kept],
        coefficients=coef,
        basis_kind=LANDMARK_KERNEL,
        clip_bound=clip_bound(ds.labels, clip),
    )


def _landmark_decomposition(
    ds: SemiDataset,
    kernel: GaussianKernel,
    p: int,
    mu: float,
    seed: int,
    sigma_over_labeled: bool = False,
) -> tuple[np.ndarray, PencilDecomposition, np.ndarray]:
    """The kept landmark indices, the generalized eigenpairs of their pencil
    and its moment vector b.

    ``assemble`` builds the pencil over the kept landmarks.  When the drawn
    landmarks' Gram has full numerical rank and is not near singular (its
    last pivot is at least ``operators.WHITEN_PIVOT``), the kept ones are the
    draw as it stands and ``gevd`` runs on that pencil.  Otherwise
    ``assemble`` whitens it by the kept Gram's Cholesky factor L, and the
    eigenvectors are mapped back by L^-T, so they are generalized
    eigenvectors of the kept landmarks' pencil either way.
    """
    landmarks = select_landmarks(ds, p, seed)
    kept, factor = prune_landmarks(ds, kernel, landmarks)
    bundle = assemble(ds, kernel, kept, mu, sigma_over_labeled=sigma_over_labeled, factor=factor)
    A, B, b = bundle.A, bundle.B, bundle.b
    del bundle  # Kpp is freed before the eigensolve
    dec = gevd(A, B)
    if factor is None:
        return kept, dec, b
    V = solve_triangular(factor, dec.eigenvectors, lower=True, trans="T", check_finite=False)
    return kept, PencilDecomposition(dec.eigenvalues, V, dec.jitter), b


def fit_exact(
    ds: SemiDataset,
    kernel: GaussianKernel,
    lam: float,
    mu: float,
    dense_cap: int = DEFAULT_DENSE_CAP,
    clip: bool = False,
) -> FittedModel:
    """Exact empirical risk minimizer over the full n*(d+1) representer basis.

    The data-fit term averages over the labeled points (the exact ERM
    normalization), so this is the reference the landmark fit approximates.
    With G the extended basis Gram, ``assemble_dense``'s pencil gives
    (A + lam*B) c = b as G (D G + lam*mu I) c = G e, where D is 1/n_l on the
    labeled kernel rows, 0 on the unlabeled ones and lam/n on the derivative
    rows, and e is y/n_l on the labeled rows and 0 elsewhere.  So every
    solution of (D G + lam*mu I) c = e gives the minimizing function: its
    coefficients on the unlabeled kernel features are 0, and on the n_l +
    n*d others, S, c_S = s u with s = D_S^1/2 and

        (s G_SS s + lam*mu I) u = e_S / s,

    a symmetric positive definite system whose eigenvalues are all at least
    lam*mu.  Only G_SS is built, and one Cholesky factorization solves it.
    Work is O((n_l + n d)^3) and memory O((n_l + n d)^2).
    """
    instance("ds", ds, SemiDataset)
    instance("kernel", kernel, GaussianKernel)
    lam = real("lam", lam)
    mu = real("mu", mu)
    n, n_l = ds.n, ds.n_labeled
    M = _extended_gram(ds, kernel, n_l, dense_cap)  # G_SS
    s = np.full(M.shape[0], math.sqrt(lam / n))
    s[:n_l] = 1.0 / math.sqrt(n_l)
    M *= s[:, None]
    M *= s
    M.flat[:: M.shape[0] + 1] += lam * mu
    rhs = np.zeros(M.shape[0])
    rhs[:n_l] = ds.labels / math.sqrt(n_l)
    # M is symmetric: its transpose is the same matrix, in the Fortran order potrf takes
    c = s * _spd_solve(M.T, rhs, "the dense representer system")[0]
    coef = np.concatenate([c[:n_l], np.zeros(n - n_l), c[n_l:]])
    return FittedModel(
        kernel=kernel,
        basis_coordinates=ds.inputs,
        coefficients=coef,
        basis_kind=DENSE_REPRESENTER,
        clip_bound=clip_bound(ds.labels, clip),
    )


def predict(model: FittedModel, queries: np.ndarray) -> np.ndarray:
    """Evaluate the fitted function at query rows, clipping if configured.

    A dense model's g(x) = sum_l k(x, X_l) [c0_l + C1_l.(x - X_l)], C1 = c1 /
    sigma^2 as (m, d), is E[:, 0] + rowdot(E[:, 1:], x - x0) with E = k(x, X) W,
    W = [c0 - rowdot(C1, X - x0) | C1] and x0 the basis mean: one expansion.
    """
    instance("model", model, FittedModel)
    Q = array("queries", queries, ndim=2)
    coords = model.basis_coordinates
    m, d = coords.shape
    if Q.shape[1] != d:
        raise InvalidArgumentError(f"queries must have the model's d={d} columns, got {Q.shape[1]}")
    if model.basis_kind == LANDMARK_KERNEL:
        out = _kernel_expansion(model.kernel, Q, coords, model.coefficients)
    else:
        centre = coords.mean(axis=0)
        W = np.empty((m, d + 1), order="F")
        W[:, 1:] = model.coefficients[m:].reshape(m, d) / model.kernel.sigma**2
        W[:, 0] = model.coefficients[:m] - np.einsum("ij,ij->i", W[:, 1:], coords - centre)
        E = _kernel_expansion(model.kernel, Q, coords, W)
        out = E[:, 0] + np.einsum("ij,ij->i", E[:, 1:], Q - centre)
    if model.clip_bound is not None:
        np.clip(out, -model.clip_bound, model.clip_bound, out=out)
    return out


def _kernel_expansion(
    kernel: GaussianKernel, queries: np.ndarray, coords: np.ndarray, coef: np.ndarray
) -> np.ndarray:
    """k(queries, coords) @ coef, over the kernel's row chunks, so that no
    more than one (chunk, m) block of kernel values is held.

    The products run on scipy's BLAS, as the fit's do (see
    ``operators._gram_of_rows``), and take each C-order block as its
    Fortran-order transpose, which f2py passes without a copy.
    """
    out = np.empty((queries.shape[0],) + coef.shape[1:])
    for start, stop, kb, _ in kernel.blocks(queries, coords):
        if coef.ndim == 1:
            out[start:stop] = dgemv(1.0, kb.T, coef, trans=1)
        else:
            out[start:stop] = dgemm(1.0, kb.T, coef, trans_a=1)
    return out


def decode_sign(values) -> np.ndarray:
    """Binary decoding of real scores: +1 where the value is >= 0, else -1."""
    v = array("values", values)
    return np.where(v >= 0, 1, -1).astype(np.int64)


# Model serialization: one JSON document, value-exact for finite doubles
# (repr round-trips IEEE doubles through decimal exactly).

def model_to_json(model: FittedModel) -> str:
    instance("model", model, FittedModel)
    doc = {
        "kernel_sigma": model.kernel.sigma,
        "basis_kind": model.basis_kind,
        "clip_bound": model.clip_bound,
        "coordinates": [[float(v) for v in row] for row in model.basis_coordinates],
        "coefficients": [float(v) for v in model.coefficients],
    }
    return json.dumps(doc)


def model_from_json(text: str) -> FittedModel:
    try:
        doc = json.loads(text)
        return FittedModel(
            kernel=GaussianKernel(sigma=doc["kernel_sigma"]),
            basis_coordinates=doc["coordinates"],
            coefficients=doc["coefficients"],
            basis_kind=doc["basis_kind"],
            clip_bound=doc["clip_bound"],
        )
    except KeyError as exc:
        raise InvalidArgumentError(f"model JSON missing field {exc}") from None
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InvalidArgumentError(f"malformed model JSON: {exc}") from None
