import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dpocon, dpotrf

from kerlap import estimator, kernel as kernel_module, operators, pencil
from kerlap.baselines import GraphConfig, harmonic_propagate, krr_fit
from kerlap.bench import generate_instance, preset, trial_seed
from kerlap.errors import InvalidArgumentError, SingularPencilError
from kerlap.estimator import (
    DENSE_REPRESENTER,
    LANDMARK_KERNEL,
    FittedModel,
    ScheduleParams,
    _landmark_decomposition,
    decode_sign,
    fit,
    fit_exact,
    model_from_json,
    model_to_json,
    predict,
    schedule,
)
from kerlap.filters import FilterSpec, filter_coefficients
from kerlap.kernel import GaussianKernel
from kerlap.operators import SemiDataset, assemble, assemble_dense, select_landmarks
from kerlap.pencil import gevd, pencil_solve
from kerlap.synthdata import CirclesSpec, gen_circles

TIK = FilterSpec("tikhonov", 1.0)


class TestFit:
    def test_one_point_hand_trace(self):
        # A=1, B=0.5, b=2; eigenpair (2, sqrt(2)); c = (1/3)*sqrt(2)*(sqrt(2)*2) = 4/3
        ds = SemiDataset(inputs=[[0.0]], labels=[2.0])
        model = fit(ds, GaussianKernel(1.0), p=1, mu=0.5, filter_spec=TIK, seed=0)
        assert model.coefficients == pytest.approx([4.0 / 3.0], abs=1e-12)
        assert predict(model, np.array([[0.0]]))[0] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_zero_labels_zero_model(self):
        rng = np.random.default_rng(0)
        ds = SemiDataset(inputs=rng.standard_normal((10, 2)), labels=np.zeros(4))
        model = fit(ds, GaussianKernel(1.0), p=5, mu=0.1, filter_spec=TIK, seed=1)
        assert np.all(model.coefficients == 0.0)
        assert np.all(predict(model, ds.inputs) == 0.0)

    def test_matches_direct_solve_oracle(self):
        # eigen-filter path against the direct (A + lam*B) solve; instances
        # where the dense kernel system is numerically singular (the direct
        # route refuses) are skipped, most must be comparable
        rng = np.random.default_rng(1)
        compared = 0
        for trial in range(6):
            n = int(rng.integers(10, 61))
            d = int(rng.integers(1, 3))
            n_l = int(rng.integers(2, n // 2 + 2))
            X = rng.uniform(-3, 3, (n, d))
            y = rng.standard_normal(n_l)
            ds = SemiDataset(inputs=X, labels=y)
            k = GaussianKernel(0.45)
            lam, mu, seed = 0.5, 0.1, 100 + trial
            model = fit(ds, k, p=n, mu=mu, filter_spec=FilterSpec("tikhonov", lam), seed=seed)
            lm = select_landmarks(ds, n, seed)
            bun = assemble(ds, k, lm, mu)
            try:
                c = pencil_solve(bun.A, bun.B, lam, bun.b)
            except SingularPencilError:
                continue
            ref = FittedModel(k, X[lm], c, LANDMARK_KERNEL)
            a = predict(model, X)
            b = predict(ref, X)
            assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(b)
            compared += 1
        assert compared >= 4

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_full_rank_draw_is_the_unpruned_pipeline(self, seed):
        # fig2 geometry: Kpp of the p = 50 drawn landmarks has full numerical
        # rank, so fit keeps the draw and its steps are exactly these
        cfg, n = preset("fig2"), 100
        ds, _ = generate_instance(cfg, n, seed)
        k, spec = GaussianKernel(cfg.kernel_sigma), FilterSpec(cfg.filter_kind, cfg.lam)
        p, mu = cfg.resolve_p(n), cfg.resolve_mu(n)
        landmarks = select_landmarks(ds, p, seed)
        bundle = assemble(ds, k, landmarks, mu)
        coef = filter_coefficients(gevd(bundle.A, bundle.B), spec, bundle.b)
        model = fit(ds, k, p, mu, spec, seed)
        assert np.array_equal(model.coefficients, coef)
        assert np.array_equal(model.basis_coordinates, ds.inputs[landmarks])

    def test_pruned_fit_matches_unpruned_pencil(self):
        # p = n = 400 on four circles at sigma = 0.2: Kpp has numerical rank
        # below p, and the pruned, whitened fit predicts what the full
        # (jittered) pencil does
        n, seed = 400, 0
        ds = gen_circles(CirclesSpec(n=n, n_labeled=4, angles="equispaced", seed=seed))
        k, mu = GaussianKernel(0.2), 1.0 / n
        model = fit(ds, k, n, mu, TIK, seed)
        assert model.coefficients.size < n
        landmarks = select_landmarks(ds, n, seed)
        bundle = assemble(ds, k, landmarks, mu)
        coef = filter_coefficients(gevd(bundle.A, bundle.B), TIK, bundle.b)
        ref = predict(FittedModel(k, ds.inputs[landmarks], coef, LANDMARK_KERNEL), ds.inputs)
        assert np.linalg.norm(predict(model, ds.inputs) - ref) <= 1e-6 * np.linalg.norm(ref)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pruned_fit_eigensolves_a_well_conditioned_pencil(self, seed, monkeypatch):
        # the whitening is what keeps B well-conditioned: on these circles
        # cond_1(B) given to gevd is ~3e2 whitened and 4e13-1e14 without it
        pencils = []

        def spy(A, B):
            pencils.append(B)
            return gevd(A, B)

        monkeypatch.setattr(estimator, "gevd", spy)
        n = 400
        ds = gen_circles(CirclesSpec(n=n, n_labeled=4, angles="equispaced", seed=seed))
        model = fit(ds, GaussianKernel(0.2), n, 1.0 / n, TIK, seed)
        assert model.coefficients.size < n and len(pencils) == 1
        B = pencils[0]
        L, info = dpotrf(B, lower=1)
        assert info == 0
        rcond, info = dpocon(L, np.linalg.norm(B, 1), uplo="L")
        assert info == 0 and 1.0 / rcond <= 1e6

    def test_near_singular_full_rank_draw_is_whitened(self, monkeypatch):
        # fig1-preset data, p = 200, landmark seed 0: pstrf keeps all 200
        # landmarks with a last pivot of 3e-10, and the unwhitened B reads
        # cond_1 2.2e13; whitened by the full factor it reads 1.7e3
        pencils = []

        def spy(A, B):
            pencils.append(B)
            return gevd(A, B)

        monkeypatch.setattr(estimator, "gevd", spy)
        cfg = preset("fig1")
        ds, _ = generate_instance(cfg, 2000, trial_seed(0, 2000, 0))
        model = fit(ds, GaussianKernel(cfg.kernel_sigma), 200, 1.0 / 2000, TIK, 0)
        landmarks = select_landmarks(ds, 200, 0)
        assert model.coefficients.size == 200
        assert np.array_equal(np.sort(model.basis_coordinates, axis=0),
                              np.sort(ds.inputs[landmarks], axis=0))
        L, info = dpotrf(pencils[0], lower=1)
        assert info == 0
        rcond, info = dpocon(L, np.linalg.norm(pencils[0], 1), uplo="L")
        assert info == 0 and 1.0 / rcond <= 1e6

    def test_duplicate_rows_keep_one_landmark_each(self):
        # 12 points 1.5 apart, each repeated three times: p = n keeps one
        # landmark per distinct point, and the whitened pencil needs no jitter
        grid = np.array([[i, j] for i in range(4) for j in range(3)], dtype=float) * 1.5
        X = np.repeat(grid, 3, axis=0)
        ds = SemiDataset(X, np.linspace(-1.0, 1.0, 6))
        kept, dec, _ = _landmark_decomposition(ds, GaussianKernel(0.7), X.shape[0], 0.1, 0)
        assert kept.size == len(grid) == np.unique(X[kept], axis=0).shape[0]
        assert dec.jitter == 0.0
        assert dec.eigenvectors.shape == (len(grid), len(grid))

    def test_traced_pruned_fit_assembles_inside_the_fit(self, monkeypatch):
        # the benchmark's tracer (perfbench/spans.py, loaded read-only) sees
        # one operators.assemble span, with its bundle size, inside a fit
        # whose draw is pruned
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        module_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(module_spec)
        monkeypatch.setitem(sys.modules, "perfbench_spans", spans)
        module_spec.loader.exec_module(spans)
        grid = np.array([[i, j] for i in range(4) for j in range(3)], dtype=float) * 1.5
        X = np.repeat(grid, 3, axis=0)
        ds = SemiDataset(X, np.linspace(-1.0, 1.0, 6))
        with spans.Tracer() as tracer:
            model = estimator.fit(ds, GaussianKernel(0.7), X.shape[0], 0.1, TIK, 0)
        assert model.coefficients.size == len(grid)
        assembled = [s for s in tracer.spans if s.name == "operators.assemble"]
        assert len(assembled) == 1
        assert tracer.spans[assembled[0].parent].name == "estimator.fit"
        assert assembled[0].attrs["bundle_mb"] > 0

    def test_label_linearity(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 2))
        y = rng.standard_normal(6)
        k = GaussianKernel(1.0)
        m1 = fit(SemiDataset(X, y), k, p=8, mu=0.1, filter_spec=TIK, seed=3)
        m2 = fit(SemiDataset(X, 3.0 * y), k, p=8, mu=0.1, filter_spec=TIK, seed=3)
        q = rng.standard_normal((5, 2))
        p1, p2 = predict(m1, q), predict(m2, q)
        assert np.linalg.norm(p2 - 3.0 * p1) <= 1e-10 * max(np.linalg.norm(p2), 1e-30)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        ds = SemiDataset(inputs=rng.standard_normal((30, 2)), labels=rng.standard_normal(5))
        k = GaussianKernel(0.8)
        m1 = fit(ds, k, p=10, mu=0.2, filter_spec=TIK, seed=7)
        m2 = fit(ds, k, p=10, mu=0.2, filter_spec=TIK, seed=7)
        assert np.array_equal(m1.coefficients, m2.coefficients)
        assert np.array_equal(m1.basis_coordinates, m2.basis_coordinates)

    def test_p_validation(self):
        ds = SemiDataset(inputs=[[0.0]], labels=[1.0])
        with pytest.raises(InvalidArgumentError):
            fit(ds, GaussianKernel(1.0), p=2, mu=0.1, filter_spec=TIK, seed=0)

    def test_clip_bound_recorded(self):
        ds = SemiDataset(inputs=[[0.0], [5.0]], labels=[-3.0, 1.0])
        m = fit(ds, GaussianKernel(1.0), p=2, mu=0.5, filter_spec=TIK, seed=0, clip=True)
        assert m.clip_bound == 3.0


class TestFitExact:
    def test_single_point_interpolation(self):
        # lam, mu -> 0+ recovers the label at the labeled point
        ds = SemiDataset(inputs=[[0.3, -0.2]], labels=[1.7])
        m = fit_exact(ds, GaussianKernel(1.0), lam=1e-9, mu=1e-9)
        assert predict(m, np.array([[0.3, -0.2]]))[0] == pytest.approx(1.7, abs=1e-6)

    def test_label_scaling(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, 1))
        y = rng.standard_normal(3)
        k = GaussianKernel(1.0)
        m1 = fit_exact(SemiDataset(X, y), k, lam=0.1, mu=0.01)
        m2 = fit_exact(SemiDataset(X, 2.0 * y), k, lam=0.1, mu=0.01)
        q = rng.standard_normal((4, 1))
        assert np.allclose(predict(m2, q), 2.0 * predict(m1, q), rtol=1e-10)

    def test_landmark_fit_close_to_exact_rmse(self):
        # smooth 1-d regression: landmark fit with p = n stays within 1.5x
        # of the exact dense minimizer's test RMSE
        rng = np.random.default_rng(5)
        n, n_l = 50, 25
        X = rng.uniform(-2, 2, (n, 1))
        f = lambda t: np.sin(2.0 * t)
        y = f(X[:n_l, 0]) + 0.05 * rng.standard_normal(n_l)
        ds = SemiDataset(inputs=X, labels=y)
        k = GaussianKernel(0.5)
        lam, mu = 1e-2, 1e-2
        m_fit = fit(ds, k, p=n, mu=mu, filter_spec=FilterSpec("tikhonov", lam), seed=0,
                    sigma_over_labeled=True)
        m_exact = fit_exact(ds, k, lam=lam, mu=mu)
        Xt = np.linspace(-2, 2, 200)[:, None]
        rmse_fit = np.sqrt(np.mean((predict(m_fit, Xt) - f(Xt[:, 0])) ** 2))
        rmse_exact = np.sqrt(np.mean((predict(m_exact, Xt) - f(Xt[:, 0])) ** 2))
        assert rmse_fit <= 1.5 * rmse_exact

    def test_lambda_validation(self):
        ds = SemiDataset(inputs=[[0.0]], labels=[1.0])
        with pytest.raises(InvalidArgumentError):
            fit_exact(ds, GaussianKernel(1.0), lam=0.0, mu=0.1)

    def test_matches_dense_pencil_solve(self):
        # the reduced system against the direct solve of the full dense
        # pencil, on the draws where A + lam*B is positive definite
        rng = np.random.default_rng(12)
        compared = 0
        for _ in range(20):
            n = int(rng.integers(3, 31))
            X = rng.standard_normal((n, 2))
            ds = SemiDataset(X, rng.standard_normal(int(rng.integers(1, n + 1))))
            k = GaussianKernel(float(rng.uniform(0.3, 1.5)))
            lam, mu = float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.01, 1.0))
            bundle = assemble_dense(ds, k, mu)
            try:
                c = pencil_solve(bundle.A, bundle.B, lam, bundle.b)
            except SingularPencilError:
                continue
            Q = np.vstack([X, rng.standard_normal((5, 2))])
            ref = predict(FittedModel(k, X, c, DENSE_REPRESENTER), Q)
            got = predict(fit_exact(ds, k, lam, mu), Q)
            assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)
            compared += 1
        assert compared >= 15

    def test_unlabeled_kernel_coefficients_are_zero(self):
        rng = np.random.default_rng(13)
        n, n_l, d = 12, 5, 2
        ds = SemiDataset(rng.standard_normal((n, d)), rng.standard_normal(n_l))
        coef = fit_exact(ds, GaussianKernel(0.8), lam=0.3, mu=0.1).coefficients
        assert coef.shape == (n * (d + 1),)
        assert np.all(coef[n_l:n] == 0.0)
        assert np.all(coef[:n_l] != 0.0)

    def test_no_pencil_route(self, monkeypatch):
        # one Cholesky of the reduced system: no pencil is assembled,
        # decomposed or solved
        calls = []
        for module in (estimator, operators, pencil):
            for name in ("assemble_dense", "gevd", "pencil_solve"):
                monkeypatch.setattr(module, name, lambda *a, _n=name, **kw: calls.append(_n),
                                    raising=False)
        rng = np.random.default_rng(14)
        ds = SemiDataset(rng.standard_normal((10, 2)), rng.standard_normal(4))
        fit_exact(ds, GaussianKernel(1.0), lam=0.1, mu=0.01)
        assert calls == []

    @pytest.mark.parametrize("geometry", ["label_scaling", "landmark_rmse"])
    def test_redundant_1d_basis_needs_no_jitter(self, geometry, monkeypatch):
        # the geometries of test_label_scaling and
        # test_landmark_fit_close_to_exact_rmse, with their queries: the full
        # dense pencil is singular there (pencil_solve refuses it) and gevd
        # needs jitter, while the reduced system is factored as it stands
        if geometry == "label_scaling":
            rng = np.random.default_rng(4)
            X, y = rng.standard_normal((8, 1)), rng.standard_normal(3)
            Q = rng.standard_normal((4, 1))
            k, lam, mu = GaussianKernel(1.0), 0.1, 0.01
        else:
            rng = np.random.default_rng(5)
            X = rng.uniform(-2, 2, (50, 1))
            y = np.sin(2.0 * X[:25, 0]) + 0.05 * rng.standard_normal(25)
            Q = np.linspace(-2, 2, 200)[:, None]
            k, lam, mu = GaussianKernel(0.5), 1e-2, 1e-2
        ds = SemiDataset(X, y)
        bundle = assemble_dense(ds, k, mu)
        with pytest.raises(SingularPencilError):
            pencil_solve(bundle.A, bundle.B, lam, bundle.b)
        dec = gevd(bundle.A, bundle.B)
        assert dec.jitter > 0.0
        old = filter_coefficients(dec, FilterSpec("tikhonov", lam), bundle.b)
        ref = predict(FittedModel(k, X, old, DENSE_REPRESENTER), Q)

        jitters = []
        solve = estimator._spd_solve
        def spy(*args):
            x, jitter = solve(*args)
            jitters.append(jitter)
            return x, jitter
        monkeypatch.setattr(estimator, "_spd_solve", spy)
        got = predict(fit_exact(ds, k, lam, mu), Q)
        assert jitters == [0.0]
        assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref)


class TestPredict:
    def test_zero_coefficients(self):
        m = FittedModel(GaussianKernel(1.0), [[0.0], [1.0]], [0.0, 0.0], LANDMARK_KERNEL)
        assert np.all(predict(m, np.array([[0.5], [2.0]])) == 0.0)

    def test_landmark_self_evaluation(self):
        # c = e1: prediction at the first landmark is k(M1, M1) = 1 exactly
        m = FittedModel(GaussianKernel(1.0), [[0.0, 0.0], [3.0, 0.0]], [1.0, 0.0],
                        LANDMARK_KERNEL)
        assert predict(m, np.array([[0.0, 0.0]]))[0] == 1.0

    def test_batch_equals_loop(self):
        rng = np.random.default_rng(6)
        coords = rng.standard_normal((7, 3))
        coef = rng.standard_normal(7)
        m = FittedModel(GaussianKernel(0.9), coords, coef, LANDMARK_KERNEL)
        Q = rng.standard_normal((9, 3))
        batch = predict(m, Q)
        single = np.array([predict(m, q[None, :])[0] for q in Q])
        assert np.max(np.abs(batch - single)) <= 1e-12

    def test_dense_batch_equals_loop(self):
        rng = np.random.default_rng(7)
        ds = SemiDataset(inputs=rng.standard_normal((5, 2)), labels=rng.standard_normal(3))
        m = fit_exact(ds, GaussianKernel(1.0), lam=0.1, mu=0.01)
        Q = rng.standard_normal((6, 2))
        batch = predict(m, Q)
        single = np.array([predict(m, q[None, :])[0] for q in Q])
        assert np.max(np.abs(batch - single)) <= 1e-12

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e8])
    def test_dense_matches_derivative_feature_formula(self, offset, monkeypatch):
        # the reference sums the kernel features from gram and the derivative
        # features from grad1_gram at the basis points, query by query
        def reference(model, Q):
            coords = model.basis_coordinates
            m, d = coords.shape
            k, c = model.kernel, model.coefficients
            Zq = k.grad1_gram(coords, Q).reshape(m * d, len(Q))
            return k.gram(Q, coords) @ c[:m] + Zq.T @ c[m:]

        rng = np.random.default_rng(12)
        X = rng.standard_normal((40, 3)) + offset
        model = fit_exact(SemiDataset(X, rng.standard_normal(10)), GaussianKernel(0.8), 0.1, 0.01)
        near = X[rng.integers(0, 40, 60)] + 0.5 * rng.standard_normal((60, 3))
        far = offset + 1e3 + rng.standard_normal((5, 3))
        Q = np.vstack([near, far])
        ref = reference(model, Q)
        # 7-row query chunks over the 40 basis points
        monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", 7 * 40)
        got = predict(model, Q)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.all(got[60:] == 0.0) and np.all(ref[60:] == 0.0)

    def test_dense_predict_takes_no_derivative_gram(self, monkeypatch):
        rng = np.random.default_rng(13)
        model = fit_exact(SemiDataset(rng.standard_normal((20, 2)), rng.standard_normal(5)),
                          GaussianKernel(1.0), 0.1, 0.01)

        def refuse(self, X, Z):
            raise AssertionError("grad1_gram called")

        monkeypatch.setattr(GaussianKernel, "grad1_gram", refuse)
        assert np.all(np.isfinite(predict(model, rng.standard_normal((30, 2)))))

    def test_dimension_mismatch(self):
        m = FittedModel(GaussianKernel(1.0), [[0.0, 0.0]], [1.0], LANDMARK_KERNEL)
        with pytest.raises(InvalidArgumentError):
            predict(m, np.zeros((2, 3)))

    @pytest.mark.parametrize("kind", [LANDMARK_KERNEL, DENSE_REPRESENTER])
    def test_query_width_names_both_values(self, kind):
        coef = [1.0] if kind == LANDMARK_KERNEL else [1.0, 0.0, 0.0]
        m = FittedModel(GaussianKernel(1.0), [[0.0, 0.0]], coef, kind)
        with pytest.raises(InvalidArgumentError,
                           match=r"^queries must have the model's d=2 columns, got 3$"):
            predict(m, np.zeros((2, 3)))

    def test_clipping(self):
        m = FittedModel(GaussianKernel(1.0), [[0.0]], [5.0], LANDMARK_KERNEL, clip_bound=2.0)
        assert predict(m, np.array([[0.0]]))[0] == 2.0
        m2 = FittedModel(GaussianKernel(1.0), [[0.0]], [-5.0], LANDMARK_KERNEL, clip_bound=2.0)
        assert predict(m2, np.array([[0.0]]))[0] == -2.0


class TestDistanceExpansionPath:
    def test_no_coordinate_difference_array(self, monkeypatch):
        # a fit (of a full-rank and of a pruned draw), a landmark model's
        # predictions and both baselines take every kernel value from the
        # kernel's distance expansion; only the dense oracle's derivative
        # forms build the (rows, m, d) coordinate-difference array
        def refuse(X, Z):
            raise AssertionError("coordinate-difference array built")

        monkeypatch.setattr(kernel_module, "_differences", refuse)
        rng = np.random.default_rng(30)
        X = rng.standard_normal((60, 3))
        k = GaussianKernel(0.8)
        with pytest.raises(AssertionError, match="difference array"):
            k.grad1_gram(X, X)
        ds = SemiDataset(X, rng.standard_normal(10))
        model = fit(ds, k, 20, 0.1, TIK, seed=1)
        assert model.coefficients.size == 20
        # 30 points twice each: a draw of 40 holds duplicates, which are pruned
        twice = SemiDataset(np.repeat(X[:30], 2, axis=0), rng.standard_normal(10))
        assert fit(twice, k, 40, 0.1, TIK, seed=2).coefficients.size < 40
        Q = rng.standard_normal((25, 3))
        assert np.all(np.isfinite(predict(model, Q)))
        ridge = krr_fit(X[:10], ds.labels, k, 0.1)
        assert np.all(np.isfinite(predict(ridge, Q)))
        assert np.all(np.isfinite(harmonic_propagate(ds, GraphConfig(0.8)).values))

    def test_pruned_fit_evaluates_each_kernel_value_once(self, monkeypatch):
        # the landmark Gram of the draw for the pruning, then the n x r data
        # to kept-landmark values once, whitened in the same pass
        counted = []
        expand = kernel_module._sqdist_expanded

        def counting(X, Z, out=None):
            counted.append(len(X) * len(Z))
            return expand(X, Z, out=out)

        monkeypatch.setattr(kernel_module, "_sqdist_expanded", counting)
        monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", 7 * 40)
        rng = np.random.default_rng(31)
        ds = SemiDataset(np.repeat(rng.standard_normal((30, 3)), 2, axis=0),
                         rng.standard_normal(10))
        r = fit(ds, GaussianKernel(0.8), 40, 0.1, TIK, seed=2).coefficients.size
        assert r < 40 and sum(counted) == 40 * 40 + ds.n * r


class TestDecodeSign:
    def test_examples(self):
        assert decode_sign([0.3, -0.2]).tolist() == [1, -1]
        assert decode_sign([0.0]).tolist() == [1]

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(50)
        for alpha in (0.001, 1.0, 7.3, 1e9):
            assert np.array_equal(decode_sign(alpha * v), decode_sign(v))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            decode_sign([np.nan])


class TestSchedule:
    def test_n16_hand_values(self):
        lam, mu, p = schedule(16, ScheduleParams(1.0, 1.0, 1.0, 1.0))
        assert (lam, mu, p) == (0.5, 0.5, 12)

    def test_decay_one_gives_half_exponent(self):
        # s = max(1/2, 1/4) = 1/2 for decay 1
        _, _, p = schedule(100, ScheduleParams(1.0, 1.0, 1.0, 1.0))
        assert p == min(100, math.ceil(math.sqrt(100) * math.log(100)))

    def test_small_decay_raises_exponent(self):
        _, _, p = schedule(50, ScheduleParams(1.0, 1.0, 1.0, 0.25))
        assert p == min(50, math.ceil(50 ** 1.0 * math.log(50)))

    def test_p_capped_at_n(self):
        _, _, p = schedule(10, ScheduleParams(1.0, 1.0, 100.0, 1.0))
        assert p == 10

    def test_n_validation(self):
        with pytest.raises(InvalidArgumentError):
            schedule(1)

    def test_param_validation(self):
        with pytest.raises(InvalidArgumentError):
            ScheduleParams(lambda0=0.0)
        with pytest.raises(InvalidArgumentError):
            ScheduleParams(decay=1.5)


class TestSerialization:
    def test_round_trip_value_exact(self):
        rng = np.random.default_rng(9)
        coords = rng.standard_normal((6, 2))
        coords[0, 0] = 0.1
        coords[1, 0] = 1.0 / 3.0
        coords[2, 0] = 1e-300
        coef = rng.standard_normal(6)
        coef[0] = -1e300
        m = FittedModel(GaussianKernel(0.7), coords, coef, LANDMARK_KERNEL, clip_bound=1.5)
        back = model_from_json(model_to_json(m))
        assert back.kernel.sigma == m.kernel.sigma
        assert back.basis_kind == m.basis_kind
        assert back.clip_bound == m.clip_bound
        assert np.array_equal(back.basis_coordinates, m.basis_coordinates)
        assert np.array_equal(back.coefficients, m.coefficients)

    def test_dense_round_trip(self):
        rng = np.random.default_rng(10)
        ds = SemiDataset(inputs=rng.standard_normal((4, 2)), labels=rng.standard_normal(2))
        m = fit_exact(ds, GaussianKernel(1.0), lam=0.1, mu=0.01)
        back = model_from_json(model_to_json(m))
        assert back.basis_kind == DENSE_REPRESENTER
        q = rng.standard_normal((3, 2))
        assert np.array_equal(predict(back, q), predict(m, q))

    def test_schema_fields(self):
        m = FittedModel(GaussianKernel(1.0), [[0.0]], [1.0], LANDMARK_KERNEL)
        doc = json.loads(model_to_json(m))
        assert set(doc) == {"kernel_sigma", "basis_kind", "clip_bound",
                            "coordinates", "coefficients"}

    def test_malformed_json(self):
        with pytest.raises(InvalidArgumentError):
            model_from_json("{not json")
        with pytest.raises(InvalidArgumentError):
            model_from_json("{}")

    def test_non_numeric_coordinates(self):
        m = FittedModel(GaussianKernel(1.0), [[0.0]], [1.0], LANDMARK_KERNEL)
        doc = json.loads(model_to_json(m))
        doc["coordinates"] = "abc"
        with pytest.raises(InvalidArgumentError, match="malformed model JSON"):
            model_from_json(json.dumps(doc))

    def test_document_not_an_object(self):
        with pytest.raises(InvalidArgumentError, match="malformed model JSON"):
            model_from_json("[]")
