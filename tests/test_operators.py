import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dpstrf

from kerlap.errors import (
    InvalidArgumentError,
    NumericalConsistencyError,
    ResourceLimitError,
)
from kerlap import kernel as kernel_module, operators
from kerlap.kernel import GaussianKernel
from kerlap.operators import (
    SemiDataset,
    assemble,
    assemble_dense,
    load_dataset_csv,
    prune_landmarks,
    read_points,
    save_dataset_csv,
    select_landmarks,
)
from kerlap.synthdata import CirclesSpec, gen_circles


# Single-pair kernel entries for the brute-force oracles, each the 1x1 batch
# of its pair; the kernel values themselves are checked in test_kernel.py.

def kval(k, x, y) -> float:
    return k.gram(x[None], y[None])[0, 0]


def kgrad(k, x, y) -> np.ndarray:
    return k.grad1_gram(x[None], y[None])[0, :, 0]


def khess(k, x, y) -> np.ndarray:
    return k.cross_hessian_gram(x[None], y[None])[0, :, 0, :]


# landmark vectors that are not distinct row indices of a 3-point dataset
BAD_LANDMARKS = pytest.mark.parametrize("landmarks", [
    [0.0, 1.0], [True, False], [[0], [1]], [], [-1, 0], [0, 3], [1, 1], [[0], [1, 2]]],
    ids=["float", "bool", "2-d", "empty", "negative", "beyond n", "duplicate", "ragged"])


class TestSemiDataset:
    def test_basic(self):
        ds = SemiDataset(inputs=[[0.0, 1.0], [2.0, 3.0]], labels=[1.0])
        assert (ds.n, ds.d, ds.n_labeled) == (2, 2, 1)

    def test_immutable(self):
        ds = SemiDataset(inputs=[[0.0]], labels=[1.0])
        with pytest.raises(ValueError):
            ds.inputs[0, 0] = 5.0

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SemiDataset(inputs=[[np.inf]], labels=[1.0])
        with pytest.raises(InvalidArgumentError):
            SemiDataset(inputs=[[0.0]], labels=[1.0, 2.0])
        with pytest.raises(InvalidArgumentError):
            SemiDataset(inputs=[[0.0]], labels=[])


class TestSelectLandmarks:
    def test_full_draw_is_permutation(self):
        ds = SemiDataset(inputs=np.arange(10.0).reshape(10, 1), labels=[1.0])
        lm = select_landmarks(ds, 10, seed=0)
        assert sorted(lm) == list(range(10))

    def test_single_point(self):
        ds = SemiDataset(inputs=[[0.0]], labels=[1.0])
        assert select_landmarks(ds, 1, seed=5).tolist() == [0]

    def test_deterministic(self):
        ds = SemiDataset(inputs=np.arange(10.0).reshape(10, 1), labels=[1.0])
        a = select_landmarks(ds, 3, seed=42)
        b = select_landmarks(ds, 3, seed=42)
        assert np.array_equal(a, b)

    def test_p_out_of_range(self):
        ds = SemiDataset(inputs=[[0.0]], labels=[1.0])
        with pytest.raises(InvalidArgumentError):
            select_landmarks(ds, 2, seed=0)
        with pytest.raises(InvalidArgumentError):
            select_landmarks(ds, 0, seed=0)


class TestAssemble:
    def test_single_point_hand_values(self):
        # one point at the origin: K = [[1]], Z = [[0]], A = [[1]],
        # B = [[mu]], b = (label)
        ds = SemiDataset(inputs=[[0.0]], labels=[2.0])
        lm = select_landmarks(ds, 1, seed=0)
        k = GaussianKernel(1.0)
        bun = assemble(ds, k, lm, mu=0.5)
        assert np.allclose(k.gram(ds.inputs, ds.inputs[lm]), [[1.0]], atol=1e-14)
        # landmark bundles hold neither K nor Znp
        assert bun.knp is None and bun.znp is None
        assert np.array_equal(bun.kpp, [[1.0]])
        assert np.allclose(bun.A, [[1.0]], atol=1e-14)
        assert np.allclose(bun.B, [[0.5]], atol=1e-14)
        assert np.allclose(bun.b, [2.0], atol=1e-14)

    def test_duplicated_point(self):
        n = 7
        ds = SemiDataset(inputs=np.zeros((n, 2)), labels=[1.0])
        bun = assemble(ds, GaussianKernel(1.0), [0], mu=0.3)
        assert np.allclose(bun.A, [[1.0]], atol=1e-14)
        # every gradient vanishes exactly, so B is exactly mu * Kpp
        assert np.array_equal(bun.B, [[0.3]])

    def test_brute_force_oracle(self):
        # entrywise re-evaluation with single-pair kernel calls and explicit loops
        rng = np.random.default_rng(0)
        n, d, p = 20, 3, 5
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(8)
        ds = SemiDataset(inputs=X, labels=y)
        k = GaussianKernel(0.9)
        lm = select_landmarks(ds, p, seed=1)
        mu = 0.2
        bun = assemble(ds, k, lm, mu)

        M = X[lm]
        K = np.array([[kval(k, X[i], M[j]) for j in range(p)] for i in range(n)])
        A = np.zeros((p, p))
        for i in range(n):
            A += np.outer(K[i], K[i])
        A /= n
        assert np.max(np.abs(bun.A - A)) < 1e-12

        B = np.zeros((p, p))
        for l in range(n):
            for q in range(p):
                for r in range(p):
                    gq = kgrad(k, X[l], M[q])
                    gr = kgrad(k, X[l], M[r])
                    B[q, r] += gq @ gr
        B /= n
        Kpp = np.array([[kval(k, M[i], M[j]) for j in range(p)] for i in range(p)])
        B += mu * Kpp
        assert np.max(np.abs(bun.B - B)) < 1e-12

        b = np.zeros(p)
        for i in range(8):
            b += y[i] * K[i]
        b /= 8
        assert np.max(np.abs(bun.b - b)) < 1e-12

    def test_kpp_is_subblock_of_knp(self):
        rng = np.random.default_rng(1)
        ds = SemiDataset(inputs=rng.standard_normal((12, 2)), labels=[1.0, -1.0])
        lm = select_landmarks(ds, 4, seed=2)
        k = GaussianKernel(1.0)
        bun = assemble(ds, k, lm, mu=0.1)
        # a row's kernel values do not depend on the rows it is computed with
        assert np.array_equal(bun.kpp, k.gram(ds.inputs, ds.inputs[lm])[lm, :])

    def test_streamed_b_matches_explicit_product(self, monkeypatch):
        # B is accumulated over row chunks; compare it with the explicit
        # Znp^T Znp product, in one chunk and in 4-row chunks (4, 4, 4, 3)
        rng = np.random.default_rng(2)
        n, d, p, mu = 15, 2, 6, 0.4
        ds = SemiDataset(inputs=rng.standard_normal((n, d)), labels=rng.standard_normal(5))
        lm = select_landmarks(ds, p, seed=3)
        k = GaussianKernel(0.8)
        znp = k.grad1_gram(ds.inputs, ds.inputs[lm]).reshape(n * d, p)
        kpp = k.gram(ds.inputs[lm], ds.inputs[lm])
        expected = znp.T @ znp / n + mu * kpp
        single = assemble(ds, k, lm, mu)
        monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", 4 * p)
        chunked = assemble(ds, k, lm, mu)
        for bun in (single, chunked):
            assert bun.znp is None
            assert np.max(np.abs(bun.B - expected)) <= 1e-12
        assert np.allclose(chunked.A, single.A, rtol=0.0, atol=1e-15)
        assert np.allclose(chunked.b, single.b, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize(
        "case", ["offset 1e6", "two clusters 1e6", "duplicates", "d 100", "sigma 1e-3",
                 "sigma 1e3", "sigma over labeled", "4-row chunks"])
    def test_b_matches_explicit_product_on_hostile_inputs(self, case, monkeypatch):
        # B is built from K and squared distances (polarization identity);
        # compare it with Znp^T Znp / n + mu Kpp from grad1_gram, and the
        # Dirichlet part alone (mu = 1e-300) so a dominant mu Kpp hides nothing
        rng = np.random.default_rng(11)
        n, d, p, sigma = 40, 3, 12, 0.9
        X = rng.standard_normal((n, d))
        if case == "offset 1e6":
            X += 1e6
        elif case == "two clusters 1e6":
            # centring on the landmark mean leaves both clusters ~1e6 away,
            # so the kernel's distance expansion cancels within each
            X[: n // 2] += 1e6
            X[n // 2:] -= 1e6
        elif case == "duplicates":
            X = np.repeat(X[:10], 4, axis=0)
        elif case == "d 100":
            X, sigma = rng.standard_normal((n, 100)), 8.0
        elif case == "sigma 1e-3":
            X, sigma = 1e-3 * X, 1e-3
        elif case == "sigma 1e3":
            sigma = 1e3
        elif case == "4-row chunks":
            monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", 4 * p)
        ds = SemiDataset(inputs=X, labels=rng.standard_normal(6))
        lm = select_landmarks(ds, p, seed=12)
        k = GaussianKernel(sigma)
        znp = k.grad1_gram(ds.inputs, ds.inputs[lm]).reshape(-1, p)
        kpp = k.gram(ds.inputs[lm], ds.inputs[lm])
        over_labeled = case == "sigma over labeled"
        for mu in (0.1, 1e-300):
            bun = assemble(ds, k, lm, mu, sigma_over_labeled=over_labeled)
            expected = znp.T @ znp / n + mu * kpp
            assert np.abs(expected).max() > 0
            assert np.abs(bun.B - expected).max() <= 1e-12 * np.abs(expected).max()
        if over_labeled:
            K_l = k.gram(ds.inputs[:6], ds.inputs[lm])
            assert np.allclose(bun.A, K_l.T @ K_l / 6, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("over_labeled", [False, True])
    def test_four_row_chunks_match_one_chunk(self, over_labeled, monkeypatch):
        # 28 rows in 4-row chunks with 7 labeled, so the labeled rows end
        # inside a chunk; the streamed sums (b, A, and the whitened A~ and
        # B~) match those of one chunk, and Kpp is gathered whole
        grid = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)
        rng = np.random.default_rng(26)
        X = np.vstack([np.repeat(grid, 2, axis=0), rng.uniform(0, 2, (10, 2))])
        ds = SemiDataset(inputs=X, labels=rng.standard_normal(7))
        k, mu = GaussianKernel(0.6), 0.3
        drawn, F = prune_landmarks(ds, k, np.arange(18))
        assert F is not None
        r = F.shape[1]

        def both():
            return [assemble(ds, k, drawn[:r], mu, over_labeled),
                    assemble(ds, k, drawn, mu, over_labeled, F)]

        single = both()
        monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", 4 * r)
        chunked = both()
        for one, four in zip(single, chunked):
            for name in ("A", "b", "kpp"):
                assert np.abs(getattr(four, name) - getattr(one, name)).max() <= 1e-15, name
        assert np.abs(chunked[1].B - single[1].B).max() <= 1e-15

    def test_small_sigma_circles_have_no_subnormal_entry(self):
        # fig1's geometry and sigma: without the kernel's flush, many K
        # entries lie below 2^-500 and their products in A and B are
        # subnormal, which slows every BLAS call on them
        ds = gen_circles(CirclesSpec(n=400, n_labeled=4, angles="equispaced", seed=0))
        k = GaussianKernel(0.2)
        lm = select_landmarks(ds, 150, seed=1)
        K = k.gram(ds.inputs, ds.inputs[lm])
        D = np.sum((ds.inputs[:, None, :] - ds.inputs[lm][None, :, :]) ** 2, axis=2)
        raw = np.exp(-D / (2.0 * 0.2**2))
        assert np.count_nonzero((raw > 0) & (raw < 2.0**-500)) > 0.05 * raw.size
        bun = assemble(ds, k, lm, mu=1.0 / 400)
        tiny = np.finfo(float).tiny
        for name, M in (("K", K), ("A", bun.A), ("B", bun.B), ("Kpp", bun.kpp)):
            assert not np.any((M != 0) & (np.abs(M) < tiny)), name

    def test_overflowing_distance_raises(self):
        # d = 100 at +-1e154: the squared distance overflows, k is 0 and the
        # identity's K o D would be inf * 0; the assembly names the row
        X = np.full((3, 100), 1e154)
        X[2] = -1e154
        ds = SemiDataset(inputs=X, labels=[1.0])
        with np.errstate(over="ignore"), pytest.raises(
            NumericalConsistencyError, match="kernel derivative value at data row 2, landmark 0"
        ):
            assemble(ds, GaussianKernel(1.0), [1], mu=0.1)

    def test_sigma_over_labeled(self):
        rng = np.random.default_rng(3)
        n_l = 4
        ds = SemiDataset(inputs=rng.standard_normal((10, 2)), labels=rng.standard_normal(n_l))
        lm = select_landmarks(ds, 5, seed=4)
        k = GaussianKernel(1.0)
        bun = assemble(ds, k, lm, mu=0.1, sigma_over_labeled=True)
        K_l = k.gram(ds.inputs[:n_l], ds.inputs[lm])
        assert np.allclose(bun.A, K_l.T @ K_l / n_l, atol=1e-12)

    def test_permutation_invariance(self):
        # permuting unlabeled rows (and remapping landmark indices) leaves
        # A, B, b unchanged
        rng = np.random.default_rng(4)
        n, n_l = 14, 3
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n_l)
        perm = np.concatenate([np.arange(n_l), n_l + rng.permutation(n - n_l)])
        ds1 = SemiDataset(inputs=X, labels=y)
        ds2 = SemiDataset(inputs=X[perm], labels=y)
        idx = np.array([0, 4, 9, 13])
        inv = np.argsort(perm)
        k = GaussianKernel(0.7)
        b1 = assemble(ds1, k, idx, mu=0.2)
        b2 = assemble(ds2, k, inv[idx], mu=0.2)
        assert np.linalg.norm(b1.A - b2.A) <= 1e-10
        assert np.linalg.norm(b1.B - b2.B) <= 1e-10
        assert np.linalg.norm(b1.b - b2.b) <= 1e-10

    def test_dirichlet_quadratic_form(self):
        # c^T (Z^T Z / n) c equals the mean squared gradient norm of
        # g_c = sum_i c_i k(., M_i) over the data points
        rng = np.random.default_rng(5)
        n, d, p = 12, 2, 5
        X = rng.standard_normal((n, d))
        ds = SemiDataset(inputs=X, labels=[1.0])
        k = GaussianKernel(0.8)
        lm = select_landmarks(ds, p, seed=6)
        mu = 0.3
        bun = assemble(ds, k, lm, mu)
        c = rng.standard_normal(p)
        quad = c @ (bun.B - mu * bun.kpp) @ c
        total = 0.0
        for l in range(n):
            grad = np.zeros(d)
            for i in range(p):
                grad += c[i] * kgrad(k, X[l], X[lm[i]])
            total += grad @ grad
        total /= n
        assert abs(quad - total) <= 1e-8 * abs(total)

    def test_b_linear_in_labels(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(3)
        k = GaussianKernel(1.0)
        lm = np.array([1, 5])
        b1 = assemble(SemiDataset(X, y), k, lm, mu=0.1).b
        b2 = assemble(SemiDataset(X, 2.0 * y), k, lm, mu=0.1).b
        assert np.array_equal(b2, 2.0 * b1)

    def test_mu_validation(self):
        ds = SemiDataset(inputs=[[0.0]], labels=[1.0])
        lm = select_landmarks(ds, 1, seed=0)
        with pytest.raises(InvalidArgumentError):
            assemble(ds, GaussianKernel(1.0), lm, mu=0.0)

    @BAD_LANDMARKS
    def test_bad_indices_rejected(self, landmarks):
        # a landmark set is a vector of distinct row indices in [0, n)
        ds = SemiDataset(inputs=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], labels=[1.0])
        with pytest.raises(InvalidArgumentError, match="landmark"):
            assemble(ds, GaussianKernel(1.0), landmarks, mu=0.1)

    def test_non_finite_kernel_output(self):
        # finite inputs whose difference overflows: k underflows to 0 and the
        # gradient -inf * 0 is NaN at row 1
        ds = SemiDataset(inputs=[[-1e308], [1e308]], labels=[1.0])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalConsistencyError, match="row 1, landmark 0"
        ):
            assemble(ds, GaussianKernel(1.0), [0], mu=0.1)


class TestMirrorUpper:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("m", [1, 127, 128, 129, 300])
    def test_copies_upper_triangle_over_lower(self, m, order):
        # tiles of 128: one partial, one full, a full and a partial, three
        c = np.asarray(np.random.default_rng(m).standard_normal((m, m)), order=order)
        want = np.triu(c) + np.triu(c, 1).T
        got = operators._mirror_upper(c)
        assert got is c and np.array_equal(got, want)


class TestPruneAndWhiten:
    @BAD_LANDMARKS
    def test_bad_indices_rejected(self, landmarks):
        # checked as assemble checks them, before any kernel value
        ds = SemiDataset(inputs=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], labels=[1.0])
        with pytest.raises(InvalidArgumentError, match="landmark"):
            prune_landmarks(ds, GaussianKernel(1.0), landmarks)

    def test_full_rank_draw_kept_as_drawn(self):
        rng = np.random.default_rng(20)
        ds = SemiDataset(inputs=rng.standard_normal((30, 3)), labels=[1.0, -1.0])
        lm = select_landmarks(ds, 10, seed=21)
        kept, factor = prune_landmarks(ds, GaussianKernel(1.0), lm)
        assert kept is lm and factor is None

    @pytest.mark.parametrize("budget", [None, 7 * 60])
    def test_factor_of_kept_gram(self, budget, monkeypatch):
        # 60 points on a 1-d interval at sigma = 0.5: Kpp of all of them has
        # numerical rank below 60.  The draw comes back in pivot order with
        # the 60 x r partial factor F: the first r are kept and their Gram is
        # L L^T, L the first r rows of F, in one chunk and in 7-row chunks.
        # F F^T is the whole draw's Gram up to the dropped pivots
        if budget:
            monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", budget)
        rng = np.random.default_rng(22)
        ds = SemiDataset(inputs=rng.uniform(-2, 2, (60, 1)), labels=[1.0])
        k = GaussianKernel(0.5)
        lm = select_landmarks(ds, 60, seed=23)
        drawn, F = prune_landmarks(ds, k, lm)
        r = F.shape[1]
        assert r < 60 and np.array_equal(np.sort(drawn), np.sort(lm))
        L = F[:r]
        assert F.shape == (60, r) and np.array_equal(L, np.tril(L))
        M = ds.inputs[drawn[:r]]
        assert np.abs(L @ L.T - k.gram(M, M)).max() <= 1e-12
        G = k.gram(ds.inputs[drawn], ds.inputs[drawn])
        assert np.abs(F @ F.T - G).max() <= operators.PRUNE_TOL + 1e-12

    def test_one_chunk_triangle_matches_the_full_gram(self, monkeypatch):
        # p <= 724 is one chunk: the triangle pstrf reads is bit for bit
        # that of the whole Gram the kernel gives
        rng = np.random.default_rng(28)
        X = rng.standard_normal((40, 3)) + 1e3
        inputs = []

        def recording_dpstrf(a, **kwargs):
            inputs.append(np.tril(a))
            return dpstrf(a, **kwargs)

        monkeypatch.setattr(operators, "dpstrf", recording_dpstrf)
        ds = SemiDataset(inputs=X, labels=[1.0])
        k = GaussianKernel(0.7)
        lm = select_landmarks(ds, 30, seed=29)
        prune_landmarks(ds, k, lm)
        M = ds.inputs[lm]
        assert len(inputs) == 1 and np.array_equal(inputs[0], np.tril(k.gram(M, M).T))

    @pytest.mark.parametrize("case", ["gaussian", "offset 1e8", "two clusters 1e6", "duplicates"])
    def test_gram_diagonal_is_exactly_one_into_pstrf(self, case, monkeypatch):
        # PRUNE_TOL is relative to a unit diagonal, so the kernel's distance
        # expansion must give exactly 0 on every landmark's own pair
        rng = np.random.default_rng(25)
        X = rng.standard_normal((30, 3))
        if case == "offset 1e8":
            X += 1e8
        elif case == "two clusters 1e6":
            X[:15] += 1e6
            X[15:] -= 1e6
        elif case == "duplicates":
            X = np.repeat(X[:10], 3, axis=0)
        diagonals = []

        def recording_dpstrf(a, **kwargs):
            diagonals.append(np.diag(a).copy())
            return dpstrf(a, **kwargs)

        monkeypatch.setattr(operators, "dpstrf", recording_dpstrf)
        ds = SemiDataset(inputs=X, labels=[1.0])
        prune_landmarks(ds, GaussianKernel(0.7), np.arange(30))
        assert len(diagonals) == 1 and np.array_equal(diagonals[0], np.ones(30))

    @pytest.mark.parametrize("over_labeled", [False, True])
    def test_whitened_pencil_is_congruent_to_assembled(self, over_labeled):
        # duplicated rows make the drawn Gram singular, while the kept one is
        # well-conditioned: then L A~ L^T = A and L B~ L^T = B, and A~ is
        # Phi Phi^T / m with Phi = L^-1 K^T over the rows A averages.  The
        # p < n draw leaves labeled and unlabeled rows out, whose Phi is
        # solved for; at p = n every row's Phi is a row of the factor
        grid = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)
        rng = np.random.default_rng(24)
        X = np.vstack([np.repeat(grid, 2, axis=0), rng.uniform(0, 2, (10, 2))])
        ds = SemiDataset(inputs=X, labels=rng.standard_normal(5))
        k, mu = GaussianKernel(0.6), 0.3
        for draw in (np.arange(2, 20), np.arange(28)):
            drawn, F = prune_landmarks(ds, k, draw)
            r = F.shape[1]
            assert r < drawn.size
            kept, L = drawn[:r], F[:r]
            bun = assemble(ds, k, kept, mu, sigma_over_labeled=over_labeled)
            white = assemble(ds, k, drawn, mu, sigma_over_labeled=over_labeled, factor=F)
            A, B = white.A, white.B
            assert np.abs(L @ A @ L.T - bun.A).max() <= 1e-12 * np.abs(bun.A).max()
            assert np.abs(L @ B @ L.T - bun.B).max() <= 1e-12 * np.abs(bun.B).max()
            rows = ds.inputs[: ds.n_labeled] if over_labeled else ds.inputs
            phi = np.linalg.solve(L, k.gram(rows, ds.inputs[kept]).T)
            assert np.abs(A - phi @ phi.T / rows.shape[0]).max() <= 1e-12 * np.abs(A).max()
            assert np.array_equal(white.b, bun.b) and np.array_equal(white.kpp, bun.kpp)
            assert np.array_equal(A, A.T) and np.array_equal(B, B.T)
            assert np.linalg.eigvalsh(B).min() >= mu * (1 - 1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (3, 0)])
    def test_factor_shape_must_follow_the_landmarks(self, shape):
        # one row per landmark and at most as many columns
        ds = SemiDataset(inputs=[[0.0], [1.0], [2.0]], labels=[1.0])
        with pytest.raises(InvalidArgumentError, match=r"factor must be \(3, r\)"):
            assemble(ds, GaussianKernel(1.0), [0, 1, 2], 0.1, factor=np.ones(shape))

    @pytest.mark.parametrize("pruned", [False, True])
    def test_assembly_memory_does_not_grow_with_n(self, pruned, monkeypatch):
        # the assembly streams row chunks into p x p sums: its tracemalloc
        # peak at n = 16000 is that at n = 4000, where an n x p K alone
        # would grow by 9.6 MB at p = 100
        monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", 1000 * 100)
        rng = np.random.default_rng(27)
        X = rng.standard_normal((16000, 3))
        if pruned:
            X[50:100] = X[:50]  # 50 of the 100 landmarks repeat the others
        k = GaussianKernel(1.0)
        peaks = []
        for n in (4000, 16000):
            ds = SemiDataset(inputs=X[:n], labels=rng.standard_normal(n // 10))
            kept, factor = prune_landmarks(ds, k, np.arange(100))
            assert (factor is not None) == pruned
            tracemalloc.start()
            try:
                assemble(ds, k, kept, 0.1, factor=factor)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.02 * peaks[0]


class TestAssembleDense:
    def test_single_point_gram(self):
        # basis {k_x, d k_x}: Gram = [[1, 0], [0, 1/sigma^2]]
        ds = SemiDataset(inputs=[[0.0]], labels=[1.0])
        bun = assemble_dense(ds, GaussianKernel(2.0), mu=0.1)
        assert np.allclose(bun.kpp, [[1.0, 0.0], [0.0, 0.25]], atol=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        ds = SemiDataset(inputs=rng.standard_normal((6, 2)), labels=rng.standard_normal(2))
        k = GaussianKernel(0.9)
        dense = assemble_dense(ds, k, mu=0.2)
        landmark = assemble(ds, k, select_landmarks(ds, 4, seed=7), mu=0.2)
        for bun in (dense, landmark):
            for M in (bun.A, bun.B, bun.kpp):
                assert np.linalg.norm(M - M.T) <= 1e-10

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        n, d = 3, 1
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(2)
        ds = SemiDataset(inputs=X, labels=y)
        k = GaussianKernel(1.1)
        mu = 0.15
        bun = assemble_dense(ds, k, mu)
        m = n * (d + 1)

        # basis functionals evaluated pairwise against k_{X_i}: phi[i, a]
        def phi_entry(i, a):
            if a < n:
                return kval(k, X[i], X[a])
            l, j = divmod(a - n, d)
            return kgrad(k, X[l], X[i])[j]

        phi = np.array([[phi_entry(i, a) for a in range(m)] for i in range(n)])
        # the covariance averages over the labeled points only
        A = np.zeros((m, m))
        for i in range(ds.n_labeled):
            A += np.outer(phi[i], phi[i])
        A /= ds.n_labeled
        assert np.max(np.abs(bun.A - A)) < 1e-12

        def psi_entry(l, j, a):
            if a < n:
                return kgrad(k, X[l], X[a])[j]
            q, r = divmod(a - n, d)
            return khess(k, X[l], X[q])[j, r]

        L = np.zeros((m, m))
        for l in range(n):
            for j in range(d):
                row = np.array([psi_entry(l, j, a) for a in range(m)])
                L += np.outer(row, row)
        L /= n
        gram = np.zeros((m, m))
        for a in range(m):
            for c in range(m):
                if a < n and c < n:
                    gram[a, c] = kval(k, X[a], X[c])
                elif a < n <= c:
                    l, j = divmod(c - n, d)
                    gram[a, c] = kgrad(k, X[l], X[a])[j]
                elif c < n <= a:
                    l, j = divmod(a - n, d)
                    gram[a, c] = kgrad(k, X[l], X[c])[j]
                else:
                    l1, j1 = divmod(a - n, d)
                    l2, j2 = divmod(c - n, d)
                    gram[a, c] = khess(k, X[l1], X[l2])[j1, j2]
        assert np.max(np.abs(bun.kpp - gram)) < 1e-12
        assert np.max(np.abs(bun.B - (L + mu * gram))) < 1e-12

    def test_cap(self):
        ds = SemiDataset(inputs=np.zeros((5, 3)), labels=[1.0])
        with pytest.raises(ResourceLimitError, match="landmark"):
            assemble_dense(ds, GaussianKernel(1.0), mu=0.1, dense_cap=10)

    def test_mu_zero_refused(self):
        # at mu = 0 the dense B = psi^T psi / n has rank <= n d < n (d + 1),
        # so no pencil it gives is definite
        ds = SemiDataset(inputs=[[0.0], [1.0]], labels=[1.0])
        with pytest.raises(InvalidArgumentError, match="mu"):
            assemble_dense(ds, GaussianKernel(1.0), mu=0.0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        ds = SemiDataset(inputs=rng.standard_normal((7, 3)), labels=rng.standard_normal(2))
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.labels, ds.labels)

    def test_stable_partition(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("x0,y\n0.5,\n1.0,2.0\n1.5,\n2.0,-1.0\n")
        ds = load_dataset_csv(path)
        # labeled rows pulled to the front in file order, unlabeled after
        assert ds.n_labeled == 2
        assert ds.inputs[:, 0].tolist() == [1.0, 2.0, 0.5, 1.5]
        assert ds.labels.tolist() == [2.0, -1.0]

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidArgumentError, match="header"):
            load_dataset_csv(path)

    def test_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("x0,y\n0.5,1.0\nfoo,\n")
        with pytest.raises(InvalidArgumentError, match=":3"):
            load_dataset_csv(path)

    def test_no_labels(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("x0,y\n0.5,\n")
        with pytest.raises(InvalidArgumentError, match="no labeled rows"):
            load_dataset_csv(path)

    def test_points_in_file_order(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("x0,x1,y\n0.0,0.0,\n1.0,1.0,2.0\n\n-1.5,2.5,\n")
        inputs, labels = read_points(path)
        assert inputs.tolist() == [[0.0, 0.0], [1.0, 1.0], [-1.5, 2.5]]
        assert labels == [None, 2.0, None]

    def test_points_need_no_labels(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("x0,y\n0.5,\n")
        inputs, labels = read_points(path)
        assert inputs.tolist() == [[0.5]] and labels == [None]
        path.write_text("x0,x1,x2,y\n")
        inputs, labels = read_points(path)
        assert inputs.shape == (0, 3) and labels == []

    @pytest.mark.parametrize("row", ["nan,1.0", "0.5,inf", "-Infinity,", "1e999,1.0"])
    def test_non_finite_cell_reports_line(self, tmp_path, row):
        path = tmp_path / "nan.csv"
        path.write_text(f"x0,y\n0.5,1.0\n{row}\n")
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}:3: non-finite")):
            load_dataset_csv(path)

    @pytest.mark.parametrize("text, match", [
        ("", "empty file"), ("x0,y\n0.5,1.0,2.0\n", ":2: expected 2 cells, got 3")],
        ids=["empty", "wide"])
    def test_empty_file_and_wrong_width(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError, match=match):
            read_points(path)

    def test_bytes_of_one_dataset(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset_csv(SemiDataset(inputs=[[0.1, -2.0], [1e-05, 3.0]], labels=[1.0]), path)
        assert path.read_bytes() == b"x0,x1,y\r\n0.1,-2.0,1.0\r\n1e-05,3.0,\r\n"
