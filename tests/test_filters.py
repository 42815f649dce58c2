import numpy as np
import pytest

from kerlap.bench import generate_instance, preset, trial_seed
from kerlap.errors import InvalidArgumentError
from kerlap.filters import FilterSpec, apply, filter_coefficients
from kerlap.kernel import GaussianKernel
from kerlap.operators import assemble, select_landmarks
from kerlap.pencil import gevd, pencil_solve


def random_tikhonov_problems():
    """(A, B, b, lam) of test_tikhonov_solve_equivalence's 100 random pencils."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = int(rng.integers(2, 101))
        G = rng.standard_normal((p, p))
        H = rng.standard_normal((p, p))
        A = G.T @ G / p
        B = H.T @ H / p + 0.1 * np.eye(p)
        b = rng.standard_normal(p)
        yield A, B, b, float(rng.uniform(0.05, 2.0))


def fig2_tikhonov_problems():
    """(A, B, b, lam) of fig2-preset draws, two trials per grid size."""
    cfg = preset("fig2")
    kernel = GaussianKernel(cfg.kernel_sigma)
    for n in cfg.n_grid:
        for trial in range(2):
            seed = trial_seed(cfg.seed, n, trial)
            ds, _ = generate_instance(cfg, n, seed)
            bundle = assemble(ds, kernel, select_landmarks(ds, cfg.resolve_p(n), seed),
                              cfg.resolve_mu(n))
            yield bundle.A, bundle.B, bundle.b, cfg.lam


class TestApply:
    def test_tikhonov_values(self):
        f = FilterSpec("tikhonov", 0.5)
        assert apply(f, 0.5) == 1.0
        assert apply(FilterSpec("tikhonov", 1.0), 0.0) == 1.0

    def test_cutoff_values(self):
        f = FilterSpec("cutoff", 1.0)
        assert apply(f, 2.0) == 0.5
        assert apply(f, 0.5) == 0.0

    def test_cutoff_strict_at_threshold(self):
        assert apply(FilterSpec("cutoff", 1.0), 1.0) == 0.0

    def test_negative_argument(self):
        with pytest.raises(InvalidArgumentError):
            apply(FilterSpec("tikhonov", 1.0), -0.1)

    def test_vectorized(self):
        out = apply(FilterSpec("cutoff", 1.0), np.array([0.5, 1.0, 2.0, 4.0]))
        assert np.allclose(out, [0.0, 0.0, 0.5, 0.25])

    def test_bad_spec(self):
        with pytest.raises(InvalidArgumentError):
            FilterSpec("landweber", 1.0)
        with pytest.raises(InvalidArgumentError):
            FilterSpec("tikhonov", 0.0)

    def test_monotone_shrinkage(self):
        # x * psi(x) lies in [0, 1) and is non-decreasing for Tikhonov
        f = FilterSpec("tikhonov", 0.3)
        xs = np.linspace(0.0, 50.0, 400)
        vals = xs * apply(f, xs)
        assert np.all(vals >= 0) and np.all(vals < 1)
        assert np.all(np.diff(vals) >= 0)


class TestFilterCoefficients:
    def test_identity_pencil_halves(self):
        dec = gevd(np.eye(3), np.eye(3))
        b = np.array([2.0, -4.0, 6.0])
        c = filter_coefficients(dec, FilterSpec("tikhonov", 1.0), b)
        assert np.allclose(c, b / 2, atol=1e-12)

    def test_cutoff_zeroes_small_eigenvalue(self):
        dec = gevd(np.diag([2.0, 0.1]), np.eye(2))
        c = filter_coefficients(dec, FilterSpec("cutoff", 0.5), np.array([3.0, 5.0]))
        # second eigenvector (e2) contributes exactly zero
        assert c[1] == 0.0
        assert c[0] == pytest.approx(1.5, abs=1e-12)

    def test_tikhonov_solve_equivalence(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = int(rng.integers(2, 101))
            G = rng.standard_normal((p, p))
            H = rng.standard_normal((p, p))
            A = G.T @ G / p
            B = H.T @ H / p + 0.1 * np.eye(p)
            b = rng.standard_normal(p)
            lam = float(rng.uniform(0.05, 2.0))
            c = filter_coefficients(gevd(A, B), FilterSpec("tikhonov", lam), b)
            x = pencil_solve(A, B, lam, b)
            assert np.linalg.norm(c - x) <= 1e-6 * np.linalg.norm(x)

    @pytest.mark.parametrize("problems", [random_tikhonov_problems, fig2_tikhonov_problems],
                             ids=["random", "fig2"])
    def test_tikhonov_is_the_eigenpair_expansion(self, problems):
        # filter_coefficients solves Tikhonov without eigenpairs; gevd's
        # eigenpairs must still give the same c = sum_i v_i v_i^T b / (t_i + lam)
        for A, B, b, lam in problems():
            dec = gevd(A, B)
            V = dec.eigenvectors
            expansion = V @ ((V.T @ b) / (dec.eigenvalues + lam))
            c = filter_coefficients(dec, FilterSpec("tikhonov", lam), b)
            x = pencil_solve(A, B, lam, b)
            assert np.linalg.norm(expansion - c) <= 1e-6 * np.linalg.norm(c)
            assert np.linalg.norm(expansion - x) <= 1e-6 * np.linalg.norm(x)

    def test_reduced_pencil_filters_as_its_decomposition(self):
        # both filters give the same coefficients from a decomposition whose
        # eigenpairs are not yet computed as from one whose eigenpairs are
        rng = np.random.default_rng(5)
        G, H = rng.standard_normal((2, 12, 12))
        A, B, b = G.T @ G, H.T @ H / 12 + 0.1 * np.eye(12), rng.standard_normal(12)
        dec = gevd(A, B)
        dec.eigenvectors
        for f in (FilterSpec("tikhonov", 0.4), FilterSpec("cutoff", 0.4)):
            assert np.array_equal(filter_coefficients(gevd(A, B), f, b),
                                  filter_coefficients(dec, f, b))

    def test_label_linearity_power_of_two(self):
        rng = np.random.default_rng(1)
        A = np.eye(4) * 2
        B = np.eye(4)
        dec = gevd(A, B)
        f = FilterSpec("tikhonov", 0.7)
        b = rng.standard_normal(4)
        assert np.array_equal(
            filter_coefficients(dec, f, 2.0 * b), 2.0 * filter_coefficients(dec, f, b)
        )

    def test_dimension_mismatch(self):
        dec = gevd(np.eye(3), np.eye(3))
        with pytest.raises(InvalidArgumentError):
            filter_coefficients(dec, FilterSpec("tikhonov", 1.0), np.ones(4))
