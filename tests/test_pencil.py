import numpy as np
import pytest
import scipy.linalg as sla

from kerlap import pencil as pencil_module
from kerlap.errors import InvalidArgumentError, NumericalConsistencyError, SingularPencilError
from kerlap.filters import FilterSpec, filter_coefficients
from kerlap.pencil import (
    PencilDecomposition,
    _check_symmetric,
    _cholesky_with_jitter,
    _clamp_tolerance,
    _frobenius_norm,
    _spd_solve,
    gevd,
    pencil_solve,
)
from scipy.linalg.lapack import dpotrf, dsyevd, dsygst


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
    # the largest column norms: at most ||A||_2 + ||B||_2
    scale = np.linalg.norm(A, axis=0).max() + np.linalg.norm(B, axis=0).max()
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

    @pytest.mark.parametrize("name", ["A", "B"])
    def test_asymmetry_tolerance(self, name):
        # ||M - M^T||_F above 1e-8 ||M||_F is refused, by gevd and
        # pencil_solve alike: a relative asymmetry of 2e-8 is, 5e-9 is not.
        # S symmetric and K antisymmetric are orthogonal, so that
        # ||S + t K||_F = ||S||_F up to t^2 and the asymmetry is 2 t ||K||_F
        rng = np.random.default_rng(8)
        A, B = random_pencil(rng, 8)
        S = A if name == "A" else B
        K = np.triu(rng.standard_normal((8, 8)), 1)
        K = (K - K.T) / np.linalg.norm(K - K.T)
        rhs = rng.standard_normal(8)
        for rel, refused in ((2e-8, True), (5e-9, False)):
            M = S + rel / 2 * np.linalg.norm(S) * K
            assert np.linalg.norm(M - M.T) / np.linalg.norm(M) == pytest.approx(rel, rel=1e-6)
            pencil = {"A": A, "B": B, name: M}
            if refused:
                with pytest.raises(InvalidArgumentError, match=f"^{name} is asymmetric beyond"):
                    gevd(pencil["A"], pencil["B"])
                with pytest.raises(InvalidArgumentError, match=f"^{name} is asymmetric beyond"):
                    pencil_solve(pencil["A"], pencil["B"], 0.5, rhs)
            else:
                # accepted, and solved as the symmetric part
                sym = {key: (value + value.T) / 2 for key, value in pencil.items()}
                check_invariants(sym["A"], sym["B"], gevd(pencil["A"], pencil["B"]))
                assert np.array_equal(pencil_solve(pencil["A"], pencil["B"], 0.5, rhs),
                                      pencil_solve(sym["A"], sym["B"], 0.5, rhs))

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
        # B's copy is factored in place, with or without the retry: the
        # factor's lower triangle is potrf's
        for B, dec in ((B, dec), (B + np.eye(8), gevd(np.eye(8), B + np.eye(8)))):
            want, info = dpotrf(B + dec.jitter * np.eye(8), lower=1, clean=1)
            assert info == 0 and np.array_equal(np.tril(dec.factor), want)

    def test_negative_definite_b_raises_with_pivot(self):
        with pytest.raises(SingularPencilError) as info:
            gevd(np.eye(3), -np.eye(3))
        assert info.value.pivot == 1
        assert "pivot 1" in str(info.value)

    def test_indefinite_b_raises_after_the_jitter(self):
        # the jitter, 1e-10 of B's mean diagonal, cannot lift -0.5
        with pytest.raises(SingularPencilError, match=(
                r"^B is not positive definite even after jitter 2\.500e-11: "
                r"Cholesky failed at pivot 2$")) as info:
            gevd(np.eye(2), np.diag([1.0, -0.5]))
        assert info.value.pivot == 2

    def test_eigenvalue_clamp(self):
        # tiny negative eigenvalue within tolerance is clamped to zero
        A = np.diag([1.0, -1e-12])
        dec = gevd(A, np.eye(2))
        assert dec.eigenvalues[-1] == 0.0

    def test_indefinite_a_raises(self):
        with pytest.raises(NumericalConsistencyError,
                           match="not positive semi-definite in the B-metric"):
            gevd(np.diag([1.0, -1.0]), np.eye(2))

    @pytest.mark.parametrize("s", [1e-300, 1e160, 1e200])
    def test_extreme_scale_of_a(self, s):
        # the norms behind the clamp tolerance are taken of A scaled by a
        # power of two, so they neither overflow nor underflow to 0: a PSD
        # s*A clamps as A does, and an indefinite one still raises
        G = np.random.default_rng(0).standard_normal((6, 3))
        A = G @ G.T
        want = gevd(A, np.eye(6)).eigenvalues
        got = gevd(s * A, np.eye(6)).eigenvalues
        assert np.all(got >= 0)
        assert np.abs(got - s * want).max() <= 1e-12 * s * want[0]
        with pytest.raises(NumericalConsistencyError):
            gevd(s * np.diag([1.0, -1.0]), np.eye(2))

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

    def test_two_step_check_decides_as_the_eigenvalue_clamp(self, monkeypatch):
        # gevd factors C + floor I and, only where that fails, C + tol I: on
        # graded pencils it accepts exactly those whose smallest eigenvalue
        # is at least -tol, and most of these rank-deficient pencils pass at
        # the floor, with no condition estimate of B
        rng = np.random.default_rng(11)
        widened = []

        def counting_tolerance(*args):
            widened.append(1)
            return _clamp_tolerance(*args)

        monkeypatch.setattr(pencil_module, "_clamp_tolerance", counting_tolerance)
        decisions = []
        for shift in [0.0, 1e-14, 1e-10, 3e-9, 1e-8, 3e-8, 1e-6, 1e-3]:
            for _ in range(5):
                p = int(rng.integers(2, 30))
                A, B = random_pencil(rng, p, rank=int(rng.integers(1, p + 1)))
                A, B = A - shift * np.abs(A).max() * B, B * rng.uniform(0.1, 10.0)
                L, info = dpotrf(B, lower=1, clean=1)
                assert info == 0
                smallest = dsyevd(dsygst(A, L, lower=1)[0], lower=1)[0][0]
                tol = _clamp_tolerance(_frobenius_norm(A), L, np.linalg.norm(B, 1))
                try:
                    gevd(A, B)
                    accepted = True
                except NumericalConsistencyError:
                    accepted = False
                assert accepted == (smallest >= -tol)
                decisions.append(accepted)
        assert any(decisions) and not all(decisions)
        assert len(widened) < 0.75 * len(decisions)

    def test_tolerance_is_in_the_frobenius_norm(self):
        # ||A||_F = 10 here against ||A||_2 = 1, so the floor is 1e-7: an
        # eigenvalue of -5e-8 clamps, where a 2-norm rule would raise, and
        # -2e-7 still raises
        ones = np.ones(100)
        dec = gevd(np.diag(np.append(ones, -5e-8)), np.eye(101))
        assert dec.eigenvalues[-1] == 0.0
        with pytest.raises(NumericalConsistencyError):
            gevd(np.diag(np.append(ones, -2e-7)), np.eye(101))

    @pytest.mark.parametrize("info, error", [
        (-3, InvalidArgumentError), (7, NumericalConsistencyError)])
    def test_syevd_failure_raises(self, info, error, monkeypatch):
        # syevd's info is checked: an illegal argument or a failure to converge
        def failing_dsyevd(c, **kwargs):
            w, q, _ = dsyevd(c, **kwargs)
            return w, q, info

        monkeypatch.setattr(pencil_module, "dsyevd", failing_dsyevd)
        A, B = random_pencil(np.random.default_rng(9), 6)
        dec = gevd(A, B)
        with pytest.raises(error, match="syevd"):
            dec.eigenvalues


TIK = FilterSpec("tikhonov", 1.0)


class TestReducedPencil:
    def test_indefinite_a_raises_through_the_tikhonov_filter(self):
        # the check runs once, in gevd, before any filter reads the pencil
        with pytest.raises(NumericalConsistencyError,
                           match="not positive semi-definite in the B-metric"):
            filter_coefficients(gevd(np.diag([1.0, -1.0]), np.eye(2)), TIK, np.ones(2))

    def test_negative_definite_b_raises_with_pivot(self):
        with pytest.raises(SingularPencilError) as info:
            gevd(np.eye(3), -np.eye(3))
        assert info.value.pivot == 1

    @pytest.mark.parametrize("A, B", [
        (np.diag([1.0, -1e-16]), np.diag([1.0, 1e-10])),
        (np.diag([1.0, -1e-13]), np.diag([1.0, 1e-10])),
        *[(np.diag([1.0, -e]), c * np.eye(2)) for e in (1e-9, 1e-6) for c in (1e-3, 1.0, 1e3)],
        (np.diag([1.0, -1e-12]), np.eye(2)),
        (np.zeros((2, 2)), 1e10 * np.eye(2)),
    ])
    def test_tikhonov_check_decides_as_the_eigenvalue_clamp(self, A, B):
        # gevd's Cholesky check of C + floor I, then of C + tol I, raises
        # exactly where a clamp of the smallest eigenvalue of C at -tol raises
        L, info = dpotrf(B, lower=1, clean=1)
        assert info == 0
        C, info = dsygst(A, L, lower=1)
        assert info == 0
        smallest = dsyevd(C, compute_v=1, lower=1)[0][0]
        clamped = smallest >= -_clamp_tolerance(_frobenius_norm(A), L, np.linalg.norm(B, 1))
        if clamped:
            dec = gevd(A, B)
            assert np.all(np.isfinite(filter_coefficients(dec, TIK, np.ones(2))))
            assert dec.eigenvalues[-1] == max(smallest, 0.0)
        else:
            with pytest.raises(NumericalConsistencyError):
                gevd(A, B)

    def test_no_argument_is_overwritten(self):
        rng = np.random.default_rng(8)
        A, B = random_pencil(rng, 20, rank=5)
        copies = A.copy(), B.copy()
        dec = gevd(A, B)
        C = dec.reduced.copy()
        filter_coefficients(dec, FilterSpec("tikhonov", 0.5), np.ones(20))
        assert dec.eigenvectors is dec.eigenvectors  # eigensolved once, when first read
        assert np.array_equal(dec.reduced, C)
        assert np.array_equal(A, copies[0]) and np.array_equal(B, copies[1])

    def test_cached_eigenpairs_are_read_only(self):
        # every read shares the cached arrays, so none may be written into
        dec = gevd(np.diag([2.0, 1.0]), np.eye(2))
        for values in (dec.eigenvalues, dec.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
        cutoff = FilterSpec("cutoff", 0.5)
        assert np.array_equal(filter_coefficients(dec, cutoff, np.ones(2)), [0.5, 1.0])

    def test_solve_below_a_clamped_eigenvalue_raises(self):
        # -1e-9 passes the check, but C + 1e-12 I is still indefinite
        dec = gevd(np.diag([1.0, -1e-9]), np.eye(2))
        with pytest.raises(SingularPencilError, match=(
                r"^C \+ lam\*I is not positive definite: Cholesky failed at pivot 2$")) as info:
            filter_coefficients(dec, FilterSpec("tikhonov", 1e-12), np.ones(2))
        assert info.value.pivot == 2

    def test_solve_reads_no_upper_triangle(self):
        # the factor and C are read through their lower triangles only, and
        # the shifted Cholesky factor by potrs with lower=1: NaN above every
        # diagonal changes no entry of x
        rng = np.random.default_rng(9)
        A, B = random_pencil(rng, 40, rank=10)
        dec = gevd(A, B)
        rhs = rng.standard_normal(40)
        upper = np.triu(np.ones((40, 40), dtype=bool), 1)
        factor, reduced = dec.factor.copy(order="F"), dec.reduced.copy(order="F")
        factor[upper] = reduced[upper] = np.nan
        x = PencilDecomposition(factor, reduced, dec.jitter)._solve(0.5, rhs)
        assert np.array_equal(x, dec._solve(0.5, rhs))

    def test_symmetric_input_is_copied_as_it_stands(self):
        # an exactly symmetric M skips (M + M^T) / 2, which is M itself, and
        # so keeps entries whose doubling overflows
        M = np.array([[1e308, 2.0], [2.0, 3.0]])
        out = _check_symmetric(M, "M")
        assert np.array_equal(out, M) and out is not M


class TestCholeskyWithJitter:
    def test_retry_matches_shifted_factor(self):
        # singular PSD input: the retry factors M + jitter * I, in M
        rng = np.random.default_rng(5)
        G = rng.standard_normal((30, 4))
        M = G @ G.T
        M[-1, :] = M[:, -1] = 0.0
        work = np.asfortranarray(M)
        L, jitter = _cholesky_with_jitter(work, "M")
        assert jitter == 1e-10 * (np.trace(M) / 30)
        expected, info = dpotrf(M + jitter * np.eye(30), lower=1, clean=1)
        assert info == 0 and np.array_equal(np.tril(L), expected)
        assert np.shares_memory(L, work)

    def test_in_place_retry_matches_the_copying_one(self):
        # potrf factors a Fortran-order M in place, over its lower triangle;
        # the retry restores that from the upper one and shifts it, and
        # equals potrf of a shifted copy.  At 300 potrf is blocked, and its
        # failure leaves the trailing block updated
        rng = np.random.default_rng(5)
        G = rng.standard_normal((300, 4))
        M = G @ G.T
        work = np.asfortranarray(M)
        L, jitter = _cholesky_with_jitter(work, "M")
        assert jitter == 1e-10 * (np.trace(M) / 300) > 0.0
        assert np.shares_memory(L, work)
        assert np.array_equal(np.tril(L), dpotrf(M + jitter * np.eye(300), lower=1, clean=1)[0])
        assert np.array_equal(np.triu(L, 1), np.triu(M, 1))
        P = np.asfortranarray(M + np.eye(300))
        factor, jitter = _cholesky_with_jitter(P, "P")
        assert jitter == 0.0 and np.shares_memory(factor, P)
        assert np.array_equal(np.tril(factor), dpotrf(M + np.eye(300), lower=1, clean=1)[0])

    def test_spd_solve(self):
        rng = np.random.default_rng(6)
        G = rng.standard_normal((12, 12))
        M, rhs = G @ G.T + np.eye(12), rng.standard_normal(12)
        x, jitter = _spd_solve(np.asfortranarray(M), rhs, "M")
        assert jitter == 0.0
        assert np.linalg.norm(M @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
        with pytest.raises(SingularPencilError, match="^M is not positive definite"):
            _spd_solve(np.asfortranarray(-M), rhs, "M")


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

    def test_residual_bound(self):
        # A's eigenvalues run down to 1e-15 and lam = 1e-300 adds nothing,
        # so A + lam*B factors but the refined solve misses rhs by ~1e-2
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        A = Q @ np.diag(np.logspace(0, -15, 40)) @ Q.T
        rhs = rng.standard_normal(40)
        bound = 1e-8 * np.linalg.norm(rhs)
        with pytest.raises(NumericalConsistencyError,
                           match=r"^pencil solve residual \S+ exceeds bound \S+$") as info:
            pencil_solve(A, np.eye(40), 1e-300, rhs)
        resid, got_bound = (float(v) for v in str(info.value).split()[3::3])
        assert got_bound == pytest.approx(bound, rel=1e-3) and resid > 1e3 * bound

    def test_bad_lambda(self):
        with pytest.raises(InvalidArgumentError):
            pencil_solve(np.eye(2), np.eye(2), -1.0, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("solve", [
        lambda: pencil_solve(np.eye(2), np.eye(2), 1.0, np.array([1.0, 1.0])),
        lambda: gevd(np.eye(2), np.eye(2))], ids=["pencil_solve", "gevd"])
    def test_illegal_potrf_argument_is_no_singular_pencil(self, solve, monkeypatch):
        # a negative info names an illegal argument, not a failed pivot
        monkeypatch.setattr(pencil_module, "dpotrf", lambda m, **kwargs: (m, -2))
        with pytest.raises(InvalidArgumentError, match="illegal value in potrf argument 2"):
            solve()

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            pencil_solve(np.eye(2), np.eye(2), 1.0, np.array([1.0, 1.0, 1.0]))
        with pytest.raises(InvalidArgumentError, match="shape mismatch"):
            pencil_solve(np.eye(2), np.eye(3), 1.0, np.array([1.0, 1.0]))
        with pytest.raises(InvalidArgumentError,
                           match=r"^shape mismatch: A \(2, 2\) vs B \(3, 3\)$"):
            gevd(np.eye(2), np.eye(3))


class TestLayout:
    """The pencil module takes C- and Fortran-order inputs alike and leaves its
    results in the Fortran order LAPACK writes."""

    def test_c_and_fortran_inputs_give_identical_results(self):
        rng = np.random.default_rng(12)
        A, B = random_pencil(rng, 30, rank=10)
        # an asymmetry within tolerance takes the symmetrizing branch
        B = B + 1e-12 * np.triu(rng.standard_normal((30, 30)), 1)
        G = rng.standard_normal((30, 4))
        singular = G @ G.T  # needs the jitter retry
        rhs = rng.standard_normal(30)
        results = []
        for order in "CF":
            a, b = np.array(A, order=order), np.array(B, order=order)
            dec = gevd(a, b)
            for out in (dec.factor, dec.reduced, dec.eigenvectors):
                assert out.flags.f_contiguous
            spd = [_spd_solve(np.array(M, order=order), rhs, "M")
                   for M in (A + np.eye(30), singular)]
            assert spd[0][1] == 0.0 and spd[1][1] > 0.0
            tikhonov = filter_coefficients(dec, FilterSpec("tikhonov", 0.5), rhs)
            assert np.array_equal(tikhonov, dec._solve(0.5, rhs))
            results.append([dec.factor, dec.reduced, dec.eigenvalues, dec.eigenvectors,
                            tikhonov, pencil_solve(a, b, 0.5, rhs),
                            *(x for x, _ in spd)])
        for c_order, f_order in zip(*results):
            assert np.array_equal(c_order, f_order)
