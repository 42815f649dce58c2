import math

import numpy as np
import pytest

from kerlap.baselines import GraphConfig, graph_bandwidth, harmonic_propagate, krr_fit
from kerlap.errors import InvalidArgumentError
from kerlap.estimator import predict
from kerlap.kernel import GaussianKernel
from kerlap.operators import SemiDataset


class TestGraphBandwidth:
    def test_formula_n7_d1(self):
        expected = 7.0 ** (-0.2) * math.log(7.0)
        assert graph_bandwidth(7, 1) == pytest.approx(expected, rel=1e-15)
        assert graph_bandwidth(7, 1) == pytest.approx(1.31861, abs=1e-4)

    def test_formula_n2_d1(self):
        assert graph_bandwidth(2, 1) == pytest.approx(2.0 ** (-0.2) * math.log(2.0), rel=1e-15)
        assert graph_bandwidth(2, 1) == pytest.approx(0.6035, abs=1e-4)

    def test_large_d_limit(self):
        # exponent -> 0, so the value increases towards ln(n) from below
        n = 50
        vals = [graph_bandwidth(n, d) for d in (1, 5, 20, 100, 1000)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < math.log(n)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            graph_bandwidth(1, 1)
        with pytest.raises(InvalidArgumentError):
            graph_bandwidth(10, 0)


class TestHarmonicPropagate:
    def test_symmetric_midpoint(self):
        # labels -1 and +1 at the ends of a symmetric 3-point line: the
        # middle point gets exactly 0
        ds = SemiDataset(inputs=[[-1.0], [1.0], [0.0]], labels=[-1.0, 1.0])
        res = harmonic_propagate(ds, GraphConfig(0.8))
        assert res.values[0] == pytest.approx(0.0, abs=1e-12)
        assert not res.jittered

    def test_constant_labels(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 2))
        ds = SemiDataset(inputs=X, labels=np.full(4, 2.5))
        res = harmonic_propagate(ds, GraphConfig(1.0))
        assert np.max(np.abs(res.values - 2.5)) <= 1e-8

    def test_chain_hand_solve(self):
        # one unlabeled node connected to two labeled ones:
        # f_u = (w1 y1 + w2 y2) / (w1 + w2)
        pts = np.array([[0.0], [3.0], [1.0]])
        y = np.array([1.0, -2.0])
        sigma = 1.1
        ds = SemiDataset(inputs=pts, labels=y)
        res = harmonic_propagate(ds, GraphConfig(sigma))
        w1 = math.exp(-1.0 / (2 * sigma**2))
        w2 = math.exp(-4.0 / (2 * sigma**2))
        assert res.values[0] == pytest.approx((w1 * y[0] + w2 * y[1]) / (w1 + w2), rel=1e-10)

    def test_maximum_principle(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 3))
        y = rng.uniform(-2.0, 3.0, 8)
        ds = SemiDataset(inputs=X, labels=y)
        res = harmonic_propagate(ds, GraphConfig(0.9))
        assert res.values.min() >= y.min() - 1e-8
        assert res.values.max() <= y.max() + 1e-8

    def test_solves_defining_system(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((25, 2))
        y = rng.standard_normal(6)
        sigma = 0.7
        ds = SemiDataset(inputs=X, labels=y)
        res = harmonic_propagate(ds, GraphConfig(sigma))
        sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
        W = np.exp(-sq / (2 * sigma**2))
        np.fill_diagonal(W, 0.0)
        D = np.diag(W.sum(axis=1))
        L = D - W
        rhs = W[6:, :6] @ y
        resid = np.linalg.norm(L[6:, 6:] @ res.values - rhs)
        assert resid <= 1e-8 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_textbook_laplacian_solve(self, seed):
        # the unlabeled block built in place against np.diag(D) - W over the
        # full Gram, solved densely; one draw in two has a single unlabeled
        # point (n_l = n - 1)
        rng = np.random.default_rng(40 + seed)
        n, d = int(rng.integers(3, 61)), int(rng.integers(1, 6))
        n_l = n - 1 if seed % 2 else int(rng.integers(1, n))
        X, y = rng.standard_normal((n, d)), rng.standard_normal(n_l)
        sigma = float(rng.uniform(0.5, 2.0))
        res = harmonic_propagate(SemiDataset(inputs=X, labels=y), GraphConfig(sigma))
        W = GaussianKernel(sigma).gram(X, X)
        np.fill_diagonal(W, 0.0)
        L = np.diag(W.sum(axis=1)) - W
        expected = np.linalg.solve(L[n_l:, n_l:], W[n_l:, :n_l] @ y)
        assert not res.jittered
        assert np.linalg.norm(res.values - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_disconnected_jitter_flag(self):
        # an unlabeled pair connected to each other but not (numerically) to
        # any labeled point: the unlabeled block is singular and the
        # regularized fallback is flagged
        ds = SemiDataset(inputs=[[0.0], [1e6], [1e6 + 0.1]], labels=[1.0])
        res = harmonic_propagate(ds, GraphConfig(1.0))
        assert res.jittered
        assert np.all(np.isfinite(res.values))

    def test_needs_unlabeled(self):
        ds = SemiDataset(inputs=[[0.0]], labels=[1.0])
        with pytest.raises(InvalidArgumentError):
            harmonic_propagate(ds, GraphConfig(1.0))

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            GraphConfig(0.0)


class TestKrr:
    def test_interpolates_single_point(self):
        m = krr_fit(np.array([[0.5]]), np.array([2.0]), GaussianKernel(1.0), ridge=1e-12)
        assert predict(m, np.array([[0.5]]))[0] == pytest.approx(2.0, abs=1e-8)

    def test_large_ridge_shrinks(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        m = krr_fit(X, y, GaussianKernel(1.0), ridge=1e9)
        assert np.max(np.abs(m.coefficients)) <= 1e-8

    def test_antisymmetric_midpoint(self):
        m = krr_fit(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]),
                    GaussianKernel(0.8), ridge=0.1)
        assert predict(m, np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_label_linearity(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 2))
        y = rng.standard_normal(5)
        k = GaussianKernel(1.0)
        m1 = krr_fit(X, y, k, ridge=0.2)
        m2 = krr_fit(X, 4.0 * y, k, ridge=0.2)
        q = rng.standard_normal((3, 2))
        assert np.allclose(predict(m2, q), 4.0 * predict(m1, q), rtol=1e-12)

    def test_label_count_must_match_inputs(self):
        with pytest.raises(InvalidArgumentError, match=r"^labels must match the 3 inputs, got 2$"):
            krr_fit(np.zeros((3, 2)), np.ones(2), GaussianKernel(1.0), ridge=0.1)

    def test_ridge_validation(self):
        with pytest.raises(InvalidArgumentError):
            krr_fit(np.array([[0.0]]), np.array([1.0]), GaussianKernel(1.0), ridge=0.0)
