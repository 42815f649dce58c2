import numpy as np
import pytest
import scipy.linalg as sla

from kerlap import pencil as pencil_module
from kerlap.errors import InvalidArgumentError, NumericalConsistencyError, SingularPencilError
from kerlap.filters import FilterSpec, filter_coefficients
from kerlap.pencil import (
    PencilDecomposition,
    _cholesky_with_jitter,
    gevd,
    pencil_solve,
    spectral_norm_estimate,
)
from scipy.linalg.lapack import dpotrf, dsyevd


def random_pencil(rng, p, rank=None):
    """A = G^T G (PSD, possibly rank-deficient), B = H^T H + 0.1 I (SPD)."""
    r = rank if rank is not None else p
    G = rng.standard_normal((r, p))
    H = rng.standard_normal((p, p))
    return G.T @ G, H.T @ H / p + 0.1 * np.eye(p)


def check_invariants(A, B, dec: PencilDecomposition):
    p = A.shape[0]
    assert np.all(dec.eigenvalues >= 0)
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12 * max(dec.eigenvalues.max(), 1))
    scale = spectral_norm_estimate(A) + spectral_norm_estimate(B)
    resid = np.linalg.norm(A @ dec.eigenvectors - (B @ dec.eigenvectors) * dec.eigenvalues, axis=0)
    assert resid.max() <= 1e-8 * scale
    gram = dec.eigenvectors.T @ B @ dec.eigenvectors
    assert np.linalg.norm(gram - np.eye(p)) <= 1e-6 * p


class TestGevd:
    def test_identity_pencil(self):
        dec = gevd(np.eye(2), np.eye(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])
        check_invariants(np.eye(2), np.eye(2), dec)

    def test_diagonal_pencil(self):
        dec = gevd(np.diag([2.0, 1.0]), np.eye(2))
        assert np.allclose(dec.eigenvalues, [2.0, 1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-12)

    def test_hand_solved_2x2(self):
        # A = diag(1, 0), B = diag(1, 2): eigenvalues (1, 0), second vector
        # must have unit B-norm, i.e. e2 / sqrt(2)
        dec = gevd(np.diag([1.0, 0.0]), np.diag([1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 0.0], atol=1e-14)
        assert np.allclose(np.abs(dec.eigenvectors[:, 0]), [1.0, 0.0], atol=1e-12)
        assert np.allclose(np.abs(dec.eigenvectors[:, 1]), [0.0, 1 / np.sqrt(2)], atol=1e-12)

    def test_random_pencils_satisfy_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            p = int(rng.integers(2, 60))
            rank = int(rng.integers(1, p + 1))
            A, B = random_pencil(rng, p, rank)
            check_invariants(A, B, gevd(A, B))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        A, B = random_pencil(rng, 20)
        d1, d2 = gevd(A, B), gevd(A, B)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidArgumentError, match="asymmetric"):
            gevd(A, np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gevd(np.array([[np.nan, 0], [0, 1.0]]), np.eye(2))

    def test_empty_pencil_rejected(self):
        # a 0x0 pencil is invalid input to both solvers (exit code 2)
        empty = np.zeros((0, 0))
        with pytest.raises(InvalidArgumentError, match="non-empty"):
            gevd(empty, empty)
        with pytest.raises(InvalidArgumentError, match="non-empty"):
            pencil_solve(empty, empty, 1.0, np.zeros(0))

    def test_jitter_handles_singular_b(self):
        # rank-deficient B (as caused by duplicated landmark points)
        rng = np.random.default_rng(2)
        M = rng.standard_normal((8, 4))
        B = M @ M.T
        dec = gevd(np.eye(8), B)
        assert dec.jitter > 0
        assert np.all(np.isfinite(dec.eigenvalues))

    def test_negative_definite_b_raises_with_pivot(self):
        with pytest.raises(SingularPencilError) as info:
            gevd(np.eye(3), -np.eye(3))
        assert info.value.pivot == 1
        assert "pivot 1" in str(info.value)

    def test_eigenvalue_clamp(self):
        # tiny negative eigenvalue within tolerance is clamped to zero
        A = np.diag([1.0, -1e-12])
        dec = gevd(A, np.eye(2))
        assert dec.eigenvalues[-1] == 0.0

    def test_indefinite_a_raises(self):
        with pytest.raises(NumericalConsistencyError, match="negative beyond tolerance"):
            gevd(np.diag([1.0, -1.0]), np.eye(2))

    def test_clamp_tolerance_widens_with_cond_b(self):
        # cond(B) = 1e10 scales the reduced eigenvalue of -1e-16 to -1e-6:
        # beyond the 1e-8 floor, inside the 64 eps cond(B) band, so clamped
        B = np.diag([1.0, 1e-10])
        dec = gevd(np.diag([1.0, -1e-16]), B)
        assert np.array_equal(dec.eigenvalues, [1.0, 0.0])
        # -1e-13 scales to -1e-3, beyond the widened band as well
        with pytest.raises(NumericalConsistencyError):
            gevd(np.diag([1.0, -1e-13]), B)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_clamp_decision_independent_of_b_scale(self, c):
        # eigenvalues carry the units of A / B, so scaling B by c must not
        # move the decision: -1e-9 relative to ||A|| clamps, -1e-6 raises
        dec = gevd(np.diag([1.0, -1e-9]), c * np.eye(2))
        assert dec.eigenvalues[0] == pytest.approx(1.0 / c, rel=1e-14)
        assert dec.eigenvalues[1] == 0.0
        with pytest.raises(NumericalConsistencyError):
            gevd(np.diag([1.0, -1e-6]), c * np.eye(2))

    def test_centred_gram_is_psd(self):
        # G has centred rows, so A = G^T G has A 1 = 0: a norm estimate that
        # starts from the ones vector reads 0, and the clamp tolerance with
        # it, so a rounding-level negative eigenvalue (-2.4e-16 in one of
        # these draws) must still be clamped
        rng = np.random.default_rng(0)
        for _ in range(200):
            G = rng.standard_normal((3, 6))
            G -= G.mean(axis=1, keepdims=True)
            dec = gevd(G.T @ G, np.eye(6))
            assert np.all(dec.eigenvalues >= 0)

    def test_asymmetric_input_symmetrized(self):
        # an asymmetry within tolerance is averaged away before any work
        rng = np.random.default_rng(6)
        A, B = random_pencil(rng, 12)
        A_asym = A + 1e-12 * np.abs(A).max() * np.triu(rng.standard_normal((12, 12)), 1)
        B_asym = B + 1e-12 * np.abs(B).max() * np.triu(rng.standard_normal((12, 12)), 1)
        got = gevd(A_asym, B_asym)
        want = gevd((A_asym + A_asym.T) / 2, (B_asym + B_asym.T) / 2)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)
        rhs = rng.standard_normal(12)
        assert np.array_equal(
            pencil_solve(A_asym, B_asym, 0.5, rhs),
            pencil_solve((A_asym + A_asym.T) / 2, (B_asym + B_asym.T) / 2, 0.5, rhs),
        )

    @pytest.mark.parametrize("p", [1, 2, 129, 300])
    def test_eigenvalues_match_scipy_eigh(self, p):
        rng = np.random.default_rng(40 + p)
        A, B = random_pencil(rng, p)
        want = sla.eigh(A, B, eigvals_only=True)[::-1]
        got = gevd(A, B).eigenvalues
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_clamp_decision_same_with_and_without_the_floor(self, monkeypatch):
        # gevd computes the clamp tolerance only below a floor it cannot
        # exceed; with that shortcut disabled every decision and every
        # output stays the same, while the shortcut spares most of these
        # rank-deficient pencils the norm estimate
        rng = np.random.default_rng(11)
        estimates = []

        def counting_estimate(M):
            estimates.append(1)
            return spectral_norm_estimate(M)

        monkeypatch.setattr(pencil_module, "spectral_norm_estimate", counting_estimate)
        cases = []
        for shift in [0.0, 1e-14, 1e-10, 3e-9, 1e-8, 3e-8, 1e-6, 1e-3]:
            for _ in range(5):
                p = int(rng.integers(2, 30))
                A, B = random_pencil(rng, p, rank=int(rng.integers(1, p + 1)))
                cases.append((A - shift * np.abs(A).max() * B, B * rng.uniform(0.1, 10.0)))

        def outcomes():
            out = []
            for A, B in cases:
                try:
                    dec = gevd(A, B)
                    out.append((dec.eigenvalues, dec.eigenvectors))
                except NumericalConsistencyError as exc:
                    out.append(str(exc))
            return out

        fast = outcomes()
        fast_estimates = len(estimates)
        monkeypatch.setattr(pencil_module, "_NORM_RANGE", (np.inf, np.inf))
        full = outcomes()
        assert len(estimates) - fast_estimates == len(cases) and fast_estimates < 0.75 * len(cases)
        assert any(isinstance(f, str) for f in full) and not all(isinstance(f, str) for f in full)
        for f, g in zip(fast, full):
            if isinstance(g, str):
                assert f == g
            else:
                assert np.array_equal(f[0], g[0]) and np.array_equal(f[1], g[1])

    @pytest.mark.parametrize("info, error", [
        (-3, InvalidArgumentError), (7, NumericalConsistencyError)])
    def test_syevd_failure_raises(self, info, error, monkeypatch):
        # syevd's info is checked: an illegal argument or a failure to converge
        def failing_dsyevd(c, **kwargs):
            w, q, _ = dsyevd(c, **kwargs)
            return w, q, info

        monkeypatch.setattr(pencil_module, "dsyevd", failing_dsyevd)
        A, B = random_pencil(np.random.default_rng(9), 6)
        with pytest.raises(error, match="syevd"):
            gevd(A, B)


class TestSpectralNormEstimate:
    def test_positive_when_ones_is_in_the_null_space(self):
        # I - 11^T/4 is a projector with ||M||_2 = 1 and M 1 = 0
        M = np.eye(4) - np.ones((4, 4)) / 4
        assert spectral_norm_estimate(M) == pytest.approx(1.0, rel=1e-12)

    def test_at_least_the_largest_column_norm(self):
        # gevd's clamp floor rests on this: from the largest column, each
        # power step's estimate is at least the last one's
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = int(rng.integers(1, 40))
            G = rng.standard_normal((p, int(rng.integers(1, p + 1))))
            M = G * rng.choice([-1.0, 1.0], G.shape[1]) @ G.T  # PSD or indefinite
            M = (M + M.T) / 2
            assert spectral_norm_estimate(M) >= np.linalg.norm(M, axis=0).max() * (1 - 1e-12)

    def test_bounded_by_the_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            G = rng.standard_normal((8, 8))
            M = G + G.T
            est = spectral_norm_estimate(M)
            assert 0 < est <= np.linalg.norm(M, 2) * (1 + 1e-12)
        assert spectral_norm_estimate(np.zeros((3, 3))) == 0.0
        assert spectral_norm_estimate(np.zeros((0, 0))) == 0.0


class TestCholeskyWithJitter:
    def test_retry_matches_shifted_factor(self):
        # singular PSD input: the retry factors M + jitter * I and leaves M alone
        rng = np.random.default_rng(5)
        G = rng.standard_normal((30, 4))
        M = G @ G.T
        M[-1, :] = M[:, -1] = 0.0
        before = M.copy()
        L, jitter = _cholesky_with_jitter(M, "M")
        assert jitter == 1e-10 * (np.trace(M) / 30)
        expected, info = dpotrf(M + jitter * np.eye(30), lower=1, clean=1)
        assert info == 0 and np.array_equal(L, expected)
        assert np.array_equal(M, before)


class TestPencilSolve:
    def test_identity(self):
        x = pencil_solve(np.eye(2), np.eye(2), 1.0, np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-12)

    def test_diagonal(self):
        x = pencil_solve(np.diag([3.0, 0.0]), np.eye(2), 1.0, np.array([4.0, 2.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-12)

    def test_matches_filter_reconstruction(self):
        rng = np.random.default_rng(3)
        A, B = random_pencil(rng, 10)
        rhs = rng.standard_normal(10)
        lam = 0.7
        x = pencil_solve(A, B, lam, rhs)
        dec = gevd(A, B)
        x_filter = filter_coefficients(dec, FilterSpec("tikhonov", lam), rhs)
        assert np.linalg.norm(x - x_filter) <= 1e-6 * np.linalg.norm(x)

    def test_residual_contract(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            A, B = random_pencil(rng, 30)
            rhs = rng.standard_normal(30)
            x = pencil_solve(A, B, 0.3, rhs)
            resid = np.linalg.norm((A + 0.3 * B) @ x - rhs)
            assert resid <= 1e-8 * np.linalg.norm(rhs)

    def test_indefinite_raises(self):
        with pytest.raises(SingularPencilError):
            pencil_solve(-np.eye(2), np.zeros((2, 2)), 1.0, np.array([1.0, 1.0]))

    def test_bad_lambda(self):
        with pytest.raises(InvalidArgumentError):
            pencil_solve(np.eye(2), np.eye(2), -1.0, np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            pencil_solve(np.eye(2), np.eye(2), 1.0, np.array([1.0, 1.0, 1.0]))
