"""Property-based invariants of the landmark fit.

The Gaussian kernel depends on the inputs only through their pairwise
distances, so translating or rotating the data and the queries together
leaves the fitted predictions unchanged; and the fit is a linear map of the
labels (Cabannes, Pillaud-Vivien, Bach & Rudi, arXiv 2009.04324).  The
unlabeled rows are an unordered sample, so permuting them, with the drawn
landmark indices following their rows, changes nothing either.  And
Tikhonov filtering of the pencil's eigenpairs is its direct solve
(A + lam*B)^-1 b wherever that system is positive definite.  All hold
to rounding while the pencil is well-conditioned: the drawn problems keep
d >= 2 and p <= 10, where cond(B) stayed below 2e5 over 1000 scratch draws.
With many landmarks on 1-d data, Kpp is numerically singular and rounding in
the coordinates moves the predictions far beyond 1e-10 (see CHANGES.md).
"""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from kerlap import estimator, kernel as kernel_module
from kerlap.errors import SingularPencilError
from kerlap.estimator import fit, predict
from kerlap.filters import FilterSpec, filter_coefficients
from kerlap.kernel import GaussianKernel
from kerlap.operators import SemiDataset, assemble, select_landmarks
from kerlap.pencil import gevd, pencil_solve

RTOL = 1e-10

problems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(10, 40),
    "d": st.integers(2, 4),
    "p": st.integers(1, 10),
    "sigma": st.floats(0.3, 1.0),
    "lam": st.floats(0.1, 1.0),
    "mu": st.floats(0.1, 1.0),
})

invariant_settings = settings(max_examples=25, deadline=None, derandomize=True)


def _draw(prob):
    rng = np.random.default_rng(prob["seed"])
    n, d = prob["n"], prob["d"]
    n_labeled = int(rng.integers(1, n + 1))
    return rng, rng.standard_normal((n, d)), rng.standard_normal(n_labeled), rng.standard_normal((7, d))


def _fit_predict(prob, X, y, Q):
    model = fit(
        SemiDataset(X, y), GaussianKernel(prob["sigma"]), prob["p"], prob["mu"],
        FilterSpec("tikhonov", prob["lam"]), seed=prob["seed"],
    )
    return predict(model, Q)


def _rel(a, b) -> float:
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@invariant_settings
@given(problems)
def test_translation_invariance(prob):
    rng, X, y, Q = _draw(prob)
    t = rng.uniform(-10.0, 10.0, prob["d"])
    base = _fit_predict(prob, X, y, Q)
    assert _rel(_fit_predict(prob, X + t, y, Q + t), base) <= RTOL


@invariant_settings
@given(problems)
def test_rotation_invariance(prob):
    rng, X, y, Q = _draw(prob)
    R, _ = np.linalg.qr(rng.standard_normal((prob["d"], prob["d"])))
    base = _fit_predict(prob, X, y, Q)
    assert _rel(_fit_predict(prob, X @ R.T, y, Q @ R.T), base) <= RTOL


@invariant_settings
@given(problems, st.floats(-2.0, 2.0))
def test_label_linearity(prob, a):
    rng, X, y, Q = _draw(prob)
    y2 = rng.standard_normal(y.size)
    expected = _fit_predict(prob, X, y, Q) + a * _fit_predict(prob, X, y2, Q)
    assert _rel(_fit_predict(prob, X, y + a * y2, Q), expected) <= RTOL


@invariant_settings
@given(problems, st.integers(1, 40))
def test_unlabeled_permutation_invariance(prob, chunk_rows):
    # the permuted fit runs in chunk_rows-row chunks, so rows change chunks too
    rng, X, y, Q = _draw(prob)
    n, n_l = X.shape[0], y.size
    order = np.concatenate([np.arange(n_l), n_l + rng.permutation(n - n_l)])
    position = np.argsort(order)  # row i of X is row position[i] of X[order]
    drawn = select_landmarks(SemiDataset(X, y), prob["p"], prob["seed"])
    base = _fit_predict(prob, X, y, Q)
    with mock.patch.object(estimator, "select_landmarks", lambda ds, p, seed: position[drawn]), \
            mock.patch.object(kernel_module, "_CHUNK_BUDGET", chunk_rows * prob["p"]):
        permuted = _fit_predict(prob, X[order], y, Q)
    assert _rel(permuted, base) <= RTOL


@invariant_settings
@given(problems)
def test_tikhonov_filtering_is_the_direct_solve(prob):
    _, X, y, _ = _draw(prob)
    ds = SemiDataset(X, y)
    bundle = assemble(ds, GaussianKernel(prob["sigma"]),
                      select_landmarks(ds, prob["p"], prob["seed"]), prob["mu"])
    try:
        direct = pencil_solve(bundle.A, bundle.B, prob["lam"], bundle.b)
    except SingularPencilError:
        assume(False)  # A + lam*B is not positive definite
    filtered = filter_coefficients(
        gevd(bundle.A, bundle.B), FilterSpec("tikhonov", prob["lam"]), bundle.b)
    assert _rel(filtered, direct) <= RTOL
