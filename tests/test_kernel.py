import math
import warnings

import numpy as np
import pytest

from kerlap import kernel as kernel_module
from kerlap.errors import InvalidArgumentError
from kerlap.kernel import GaussianKernel


def _row(x) -> np.ndarray:
    return np.asarray(x, dtype=float)[None]


def kval(k, x, y) -> float:
    """k(x, y) for one pair, as the 1x1 batch of gram."""
    return k.gram(_row(x), _row(y))[0, 0]


def kgrad(k, x, y) -> np.ndarray:
    """Gradient in x for one pair, as the 1x1 batch of grad1_gram."""
    return k.grad1_gram(_row(x), _row(y))[0, :, 0]


def khess(k, x, y) -> np.ndarray:
    """Mixed partials for one pair, as the 1x1 batch of cross_hessian_gram."""
    return k.cross_hessian_gram(_row(x), _row(y))[0, :, 0, :]


def fd_gradient(k, x, y, h):
    """Central-difference gradient in the first argument (independent oracle)."""
    E = h * np.eye(x.size)
    v = k.gram(np.vstack([x + E, x - E]), y[None])[:, 0]
    return (v[: x.size] - v[x.size:]) / (2 * h)


def fd_cross_hessian(k, x, y, h):
    """Four-point central difference for d^2 k / dx_i dy_j."""
    d = x.size
    E = h * np.eye(d)
    v = k.gram(np.vstack([x + E, x - E]), np.vstack([y + E, y - E]))
    return (v[:d, :d] - v[:d, d:] - v[d:, :d] + v[d:, d:]) / (4 * h * h)


def random_pair(rng, d, sigma):
    x = rng.standard_normal(d)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    t = rng.uniform(0.05, 2.5)
    return x, x + sigma * t * u


BATCH_FORMS = ("gram", "grad1_gram", "cross_hessian_gram")


class TestEval:
    def test_identity_case(self):
        k = GaussianKernel(1.0)
        assert kval(k, np.zeros(2), np.zeros(2)) == 1.0

    def test_unit_distance(self):
        k = GaussianKernel(1.0)
        assert kval(k, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_scale_symmetry(self):
        k = GaussianKernel(2.0)
        assert kval(k, [2.0, 0.0], [0.0, 0.0]) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        k = GaussianKernel(0.7)
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert kval(k, x, y) == kval(k, y, x)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        k = GaussianKernel(1.3)
        for _ in range(50):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            v = kval(k, x, y)
            assert 0 < v < 1
        x = rng.standard_normal(4)
        assert kval(k, x, x) == 1.0

    def test_dimension_mismatch(self):
        k = GaussianKernel(1.0)
        for form in BATCH_FORMS:
            with pytest.raises(InvalidArgumentError, match="dimension mismatch"):
                getattr(k, form)([[1.0, 2.0]], [[1.0]])
            with pytest.raises(InvalidArgumentError, match="dimension mismatch"):
                getattr(k, form)(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_non_2d_input(self):
        k = GaussianKernel(1.0)
        for form in BATCH_FORMS:
            with pytest.raises(InvalidArgumentError, match="2-d"):
                getattr(k, form)([1.0, 2.0], [[1.0, 2.0]])
            with pytest.raises(InvalidArgumentError, match="2-d"):
                getattr(k, form)([[1.0, 2.0]], np.zeros((1, 1, 2)))

    def test_non_finite_input(self):
        k = GaussianKernel(1.0)
        for form in BATCH_FORMS:
            with pytest.raises(InvalidArgumentError, match="non-finite"):
                getattr(k, form)([[np.nan, 0.0]], [[0.0, 0.0]])
            with pytest.raises(InvalidArgumentError, match="non-finite"):
                getattr(k, form)([[0.0]], [[np.inf]])

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_bad_sigma(self, sigma):
        with pytest.raises(InvalidArgumentError):
            GaussianKernel(sigma)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-155, 1.2e154, 1e155, 1e300, 1.7e308])
    def test_sigma_outside_double_range(self, sigma):
        # sigma^2 would underflow (NaN on coincident points) or overflow (an
        # untyped OverflowError), or 2 sigma^2 would (k = 1 for every pair):
        # refused with the typed error, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="sigma must lie between"):
                GaussianKernel(sigma)

    @pytest.mark.parametrize("sigma", [1.5e-154, 1e-100, 1e100, 9.4e153])
    def test_sigma_at_the_ends_of_its_range(self, sigma):
        # every form stays finite and silent and coincident points have
        # k = 1; against sigma, near pairs have k = 1 and far ones k = 0
        k = GaussianKernel(sigma)
        X = np.array([[0.0, 0.0], [1.0, -2.0], [1e100, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G, G1, H = (getattr(k, form)(X, X) for form in BATCH_FORMS)
            blocks = list(k._blocks(X, X))
        assert np.all(np.diag(G) == 1.0) and np.array_equal(blocks[0][2], G)
        assert np.all(np.isfinite(G1)) and np.all(np.isfinite(H))
        if sigma < 1.0:
            assert np.array_equal(G, np.eye(3))
        else:
            assert G[0, 1] == 1.0


class TestDerivatives:
    def test_grad_vanishes_at_coincidence(self):
        k = GaussianKernel(1.0)
        assert np.array_equal(kgrad(k, np.zeros(2), np.zeros(2)), np.zeros(2))

    def test_grad_hand_value(self):
        k = GaussianKernel(1.0)
        g = kgrad(k, [1.0, 0.0], [0.0, 0.0])
        assert g == pytest.approx([-math.exp(-0.5), 0.0], abs=1e-12)

    def test_hessian_at_coincidence(self):
        k = GaussianKernel(1.0)
        assert np.allclose(khess(k, np.zeros(2), np.zeros(2)), np.eye(2), atol=1e-15)
        k2 = GaussianKernel(2.0)
        assert np.allclose(khess(k2, np.zeros(3), np.zeros(3)), np.eye(3) / 4.0, atol=1e-15)

    def test_hessian_diag_hand_value(self):
        k = GaussianKernel(1.0)
        h = khess(k, [1.0, 0.0], [0.0, 0.0])
        assert h[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_hessian_offdiag_hand_value(self):
        k = GaussianKernel(1.0)
        h = khess(k, [1.0, 1.0], [0.0, 0.0])
        assert h[0, 1] == pytest.approx(-math.exp(-1.0), abs=1e-7)

    def test_grad_antisymmetry(self):
        rng = np.random.default_rng(2)
        k = GaussianKernel(0.9)
        for _ in range(30):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert np.all(np.abs(kgrad(k, x, y) + kgrad(k, y, x)) <= 1e-12)

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_finite_difference_consistency(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(100):
            sigma = rng.uniform(0.5, 2.0)
            k = GaussianKernel(sigma)
            x, y = random_pair(rng, d, sigma)
            h = 1e-5 * sigma
            g = kgrad(k, x, y)
            g_fd = fd_gradient(k, x, y, h)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * np.linalg.norm(g)
            H = khess(k, x, y)
            H_fd = fd_cross_hessian(k, x, y, h)
            assert np.linalg.norm(H - H_fd) <= 1e-4 * np.linalg.norm(H)

    @pytest.mark.parametrize("sigma", [1.5e-154, 1e-100, 0.6, 3.0, 1e100, 9.4e153])
    def test_cross_hessian_is_the_three_operand_formula(self, sigma):
        # the broadcast products against diff_i diff_j K / -sigma^2 / sigma^2
        # + delta_ij K / sigma^2, summed by einsum; at the ends of sigma's
        # range on the points of test_sigma_at_the_ends_of_its_range
        k = GaussianKernel(sigma)
        if sigma < 1e-50 or sigma > 1e50:
            X = Z = np.array([[0.0, 0.0], [1.0, -2.0], [1e100, 0.0]])
        else:
            rng = np.random.default_rng(11)
            X, Z = sigma * rng.standard_normal((7, 4)), sigma * rng.standard_normal((5, 4))
        diff = X[:, None, :] - Z[None, :, :]
        K = k.gram(X, Z)
        s2 = sigma**2
        expected = np.einsum("lmi,lmj,lm->limj", diff, diff, K) / -s2 / s2
        idx = np.arange(X.shape[1])
        expected[:, idx, :, idx] += (K / s2)[None, :, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = k.cross_hessian_gram(X, Z)
        assert np.all(np.isfinite(H))
        assert np.abs(H - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_cross_hessian_into_a_block_of_a_larger_array(self):
        # written scaled into the view it is given, and nowhere else
        rng = np.random.default_rng(12)
        k = GaussianKernel(0.8)
        X, Z = rng.standard_normal((6, 3)), rng.standard_normal((4, 3))
        G = np.full((20, 14), 7.0)
        block = G[2:, 2:].reshape(6, 3, 4, 3)
        assert k.cross_hessian_gram(X, Z, out=block, scale=0.25) is block
        expected = 0.25 * k.cross_hessian_gram(X, Z)
        assert np.abs(block - expected).max() <= 1e-15 * np.abs(expected).max()
        assert np.all(G[:2] == 7.0) and np.all(G[:, :2] == 7.0)


class TestGram:
    def test_empty_block(self):
        # no rows on either side: an empty Gram of the right shape
        k = GaussianKernel(1.0)
        assert k.gram(np.zeros((0, 2)), np.ones((3, 2))).shape == (0, 3)
        assert k.gram(np.ones((3, 2)), np.zeros((0, 2))).shape == (3, 0)

    def test_psd(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n = rng.integers(5, 51)
            X = rng.standard_normal((n, 3))
            G = GaussianKernel(0.8).gram(X, X)
            w = np.linalg.eigvalsh(G)
            assert w.min() >= -1e-8 * w.max()

    def test_batch_layout_matches_single_pairs(self):
        # each entry of the (n, m), (n, d, m) and (n, d, m, d) batches is the
        # 1x1 batch of its pair
        rng = np.random.default_rng(4)
        k = GaussianKernel(1.1)
        X, Z = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
        G = k.gram(X, Z)
        G1 = k.grad1_gram(X, Z)
        H = k.cross_hessian_gram(X, Z)
        for i in range(6):
            for j in range(5):
                assert G[i, j] == pytest.approx(kval(k, X[i], Z[j]), abs=1e-15)
                assert np.allclose(G1[i, :, j], kgrad(k, X[i], Z[j]), atol=1e-15)
                assert np.allclose(H[i, :, j, :], khess(k, X[i], Z[j]), atol=1e-15)

    def test_blocks(self, monkeypatch):
        # the row chunks tile X in order, each with gram's values of its rows
        # and the distances they come from, in two buffers reused throughout
        rng = np.random.default_rng(6)
        k = GaussianKernel(0.7)
        X, Z = rng.standard_normal((6, 3)), rng.standard_normal((4, 3))
        monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", 4 * 4)
        chunks = list(k._blocks(X, Z))
        assert [(start, stop) for start, stop, _, _ in chunks] == [(0, 4), (4, 6)]
        K0, D0 = chunks[0][2], chunks[0][3]
        for start, stop, K, D in chunks:
            assert np.shares_memory(K, K0) and np.shares_memory(D, D0)
            assert not np.shares_memory(K, D)
        for start, stop, K, D in k._blocks(X, Z):
            assert np.array_equal(K, k.gram(X[start:stop], Z))
            exact = ((X[start:stop, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
            assert np.allclose(D, exact, rtol=1e-15, atol=0)
            assert np.array_equal(K, np.exp(-D / (2.0 * 0.7**2)))
        # a budget below one row of Z still gives one-row chunks; no rows, none
        monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", 3)
        assert [stop - start for start, stop, _, _ in k._blocks(X[:3], Z)] == [1, 1, 1]
        assert list(k._blocks(np.zeros((0, 3)), Z)) == []

    @pytest.mark.parametrize("case", ["duplicates", "offset 1e8", "two clusters 1e6"])
    def test_blocks_on_hostile_inputs(self, case):
        # the distances come from an expansion in the norms and X Z^T; where
        # that cancels, the kernel's guard sums them coordinate-wise, so
        # coincident pairs give D = 0 and k = 1 exactly and every other entry
        # is within 1e-12 of the coordinate-wise sum, relatively (the guard
        # keeps expanded entries within about 3e-13)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 3))
        if case == "duplicates":
            X = np.repeat(X[:10], 4, axis=0)
        elif case == "offset 1e8":
            X += 1e8
        else:
            X[:20] += 1e6
            X[20:] -= 1e6
        Z = X[rng.permutation(40)[:15]]
        k = GaussianKernel(0.9)
        [(_, _, K, D)] = k._blocks(X, Z)
        exact = ((X[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
        coincident = (X[:, None, :] == Z[None, :, :]).all(axis=2)
        assert coincident.sum() >= 15
        assert np.all(D[coincident] == 0.0) and np.all(K[coincident] == 1.0)
        far = ~coincident
        assert np.all(np.abs(D[far] - exact[far]) <= 1e-12 * exact[far])
        assert np.array_equal(K, np.exp(-D / (2.0 * 0.9**2)))

    def test_guard_candidates_kept_by_the_exact_bound(self):
        # a wide cluster near the centre and a tight one far from it: many
        # entries lie under the scalar bound _GUARD (max xn + max zn) but over
        # their own _GUARD (xn_i + zn_j).  Those keep the expanded value,
        # within the guard's rounding bound of the coordinate-wise sum; the
        # entries under their own bound are that sum exactly
        rng = np.random.default_rng(8)
        Z = np.vstack([100.0 * rng.standard_normal((30, 3)), 1e4 + rng.standard_normal((5, 3))])
        X = Z[rng.permutation(35)]
        centre = Z.mean(axis=0)
        xn, zn = ((X - centre) ** 2).sum(axis=1), ((Z - centre) ** 2).sum(axis=1)
        diff = X[:, None, :] - Z[None, :, :]
        exact = np.einsum("ijk,ijk->ij", diff, diff)
        own = kernel_module._GUARD * (xn[:, None] + zn[None, :])
        scalar = kernel_module._GUARD * (xn.max() + zn.max())
        flagged = exact <= own
        kept = (exact > own) & (exact <= scalar)
        assert flagged.sum() >= 35 and kept.sum() >= 100
        [(_, _, K, D)] = GaussianKernel(50.0)._blocks(X, Z)
        assert np.array_equal(D[flagged], exact[flagged])
        assert np.all(np.abs(D[kept] - exact[kept]) <= 1e-12 * exact[kept])
        assert np.all(np.abs(D - exact) <= 1e-12 * exact)

    def test_compensated_high_dimension(self):
        # at d = 100 the kernel values must agree with those of an fsum distance
        rng = np.random.default_rng(5)
        k = GaussianKernel(3.0)
        X, Z = rng.standard_normal((4, 100)), rng.standard_normal((3, 100))
        G = k.gram(X, Z)
        for i in range(4):
            for j in range(3):
                sq = math.fsum((a - b) ** 2 for a, b in zip(X[i], Z[j]))
                assert G[i, j] == pytest.approx(math.exp(-sq / 18.0), rel=1e-14)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_flush_floor(self, sigma):
        # kernel values below 2^-500, squared distances beyond about
        # 693.1 sigma^2, are flushed to 0: 692 sigma^2 keeps exp(-346), and
        # 694 sigma^2 gives exactly 0, in gram and in _blocks
        k = GaussianKernel(sigma)
        x = np.zeros((1, 1))
        kept, flushed = np.sqrt([[692.0]]) * sigma, np.sqrt([[694.0]]) * sigma
        assert k.gram(x, kept)[0, 0] == pytest.approx(math.exp(-346.0), rel=1e-12)
        assert k.gram(x, flushed)[0, 0] == 0.0
        [(_, _, K, _)] = k._blocks(np.vstack([x, x]), kept)
        assert np.all(K > 0.0)
        [(_, _, K, _)] = k._blocks(np.vstack([x, x]), flushed)
        assert np.all(K == 0.0)

    def test_overflowing_distance_gives_zero_kernel(self):
        # finite coordinates whose squared distance overflows: the kernel
        # tends to 0, and no batch form may raise or warn on the way
        k = GaussianKernel(1.0)
        x, y = np.full((1, 100), 1e154), np.zeros((1, 100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(k.gram(x, y), [[0.0]])
            assert np.array_equal(k.grad1_gram(x, y), np.zeros((1, 100, 1)))
            assert np.array_equal(k.cross_hessian_gram(x, y), np.zeros((1, 100, 1, 100)))
