"""Acceptance suite: one test per shipped claim, each printing a PASS/FAIL
line with its measured margin (run with ``pytest tests/test_acceptance.py -s``
to see the lines).  Tolerances and runtime budgets are fixed here, not
calibrated elsewhere.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kerlap.baselines import GraphConfig, graph_bandwidth, harmonic_propagate
from kerlap.bench import ExperimentConfig, preset, run_error_curve, trial_seed
from kerlap.estimator import (
    FittedModel,
    LANDMARK_KERNEL,
    ScheduleParams,
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
from kerlap.operators import SemiDataset, assemble
from kerlap.pencil import gevd, pencil_solve
from kerlap.synthdata import CirclesSpec, GaussianMixSpec, gen_circles_with_truth, \
    gen_gaussian_mix_with_truth


def report(number: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_01_derivative_correctness():
    # grad1_gram and cross_hessian_gram on single pairs against central
    # differences of gram: one call for the 2d gradient stencil points, one
    # for the 4d^2 Hessian stencil points
    t0 = time.perf_counter()
    worst_g, worst_h = 0.0, 0.0
    for d in (1, 3, 10):
        rng = np.random.default_rng(100 + d)
        for _ in range(100):
            sigma = rng.uniform(0.5, 2.0)
            k = GaussianKernel(sigma)
            x = rng.standard_normal(d)
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            y = x + sigma * rng.uniform(0.05, 2.5) * u
            h = 1e-5 * sigma
            E = h * np.eye(d)
            xs = np.vstack([x + E, x - E])
            ys = np.vstack([y + E, y - E])
            g = k.grad1_gram(x[None], y[None])[0, :, 0]
            kx = k.gram(xs, y[None])[:, 0]
            g_fd = (kx[:d] - kx[d:]) / (2 * h)
            worst_g = max(worst_g, np.linalg.norm(g - g_fd) / np.linalg.norm(g))
            H = k.cross_hessian_gram(x[None], y[None])[0, :, 0, :]
            kxy = k.gram(xs, ys)
            H_fd = (kxy[:d, :d] - kxy[:d, d:] - kxy[d:, :d] + kxy[d:, d:]) / (4 * h * h)
            worst_h = max(worst_h, np.linalg.norm(H - H_fd) / np.linalg.norm(H))
    elapsed = time.perf_counter() - t0
    ok = worst_g <= 1e-5 and worst_h <= 1e-4 and elapsed < 1.0
    report(1, "derivative correctness", ok,
           f"grad rel {worst_g:.2e} <= 1e-5, hess rel {worst_h:.2e} <= 1e-4, {elapsed:.2f}s < 1s")


def test_02_pencil_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_resid, worst_orth = 0.0, 0.0
    for _ in range(200):
        p = int(rng.integers(2, 201))
        r = int(rng.integers(1, p + 1))
        G = rng.standard_normal((r, p))
        H = rng.standard_normal((p, p))
        A = G.T @ G
        B = H.T @ H / p + 0.1 * np.eye(p)
        dec = gevd(A, B)
        # the largest column norms: at most ||A||_2 + ||B||_2
        scale = np.linalg.norm(A, axis=0).max() + np.linalg.norm(B, axis=0).max()
        resid = np.linalg.norm(
            A @ dec.eigenvectors - (B @ dec.eigenvectors) * dec.eigenvalues, axis=0
        ).max()
        orth = np.linalg.norm(dec.eigenvectors.T @ B @ dec.eigenvectors - np.eye(p))
        worst_resid = max(worst_resid, resid / scale)
        worst_orth = max(worst_orth, orth / p)
        assert np.all(dec.eigenvalues >= 0)
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-8 and worst_orth <= 1e-6 and elapsed < 30.0
    report(2, "pencil correctness", ok,
           f"resid {worst_resid:.2e} <= 1e-8, B-orth {worst_orth:.2e} <= 1e-6, {elapsed:.1f}s < 30s")


def test_03_filter_solve_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
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
        worst = max(worst, np.linalg.norm(c - x) / np.linalg.norm(x))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(3, "filter/solve equivalence", ok,
           f"rel {worst:.2e} <= 1e-6, {elapsed:.1f}s < 10s")


def test_04_circles_reconstruction():
    t0 = time.perf_counter()
    cfg = replace(preset("fig1"), trials=10, seed=41)
    records = run_error_curve(cfg)
    accs = np.array([1.0 - r.error for r in records])
    krr_records = run_error_curve(replace(cfg, method="krr", ridge=1e-6))
    krr_accs = np.array([1.0 - r.error for r in krr_records])
    elapsed = time.perf_counter() - t0
    ok = accs.mean() >= 0.99 and krr_accs.mean() < 0.80 and elapsed < 120.0
    report(4, "concentric-circles reconstruction", ok,
           f"mean acc {accs.mean():.4f} >= 0.99 (min {accs.min():.4f}), "
           f"krr acc {krr_accs.mean():.4f} < 0.80, {elapsed:.0f}s < 120s")


def test_05_eigenvector_structure():
    # geometry documented in the README: four equispaced-angle circles of
    # radii 2..5 with bandwidth 0.1 * inner radius and mu = 1/n
    t0 = time.perf_counter()
    spec = CirclesSpec(n=2000, n_labeled=4, num_circles=4, inner_radius=2.0,
                       radius_step=1.0, angles="equispaced", seed=5)
    ds, _ = gen_circles_with_truth(spec)
    kernel = GaussianKernel(0.2)
    from kerlap.bench import export_eigenvectors

    values = export_eigenvectors(ds, kernel, p=ds.n, mu=1.0 / ds.n, count=4,
                                 grid=ds.inputs, seed=5)
    circle = np.rint(np.linalg.norm(ds.inputs, axis=1)).astype(int)
    worst_ratio = 0.0
    for j in range(4):
        means = [values[circle == r, j].mean() for r in (2, 3, 4, 5)]
        stds = [values[circle == r, j].std() for r in (2, 3, 4, 5)]
        spread = max(means) - min(means)
        worst_ratio = max(worst_ratio, max(stds) / spread)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 0.1 and elapsed < 60.0
    report(5, "circle-constant eigenvectors", ok,
           f"worst within/between ratio {worst_ratio:.4f} <= 0.1, {elapsed:.0f}s < 60s")


def test_06_gauss2_separation():
    t0 = time.perf_counter()
    cfg = replace(preset("fig2"), n_grid=[100], trials=50, seed=6)
    kernel_err = np.mean([r.error for r in run_error_curve(cfg)])
    graph_err = np.mean([r.error for r in run_error_curve(replace(cfg, method="graph"))])
    elapsed = time.perf_counter() - t0
    ok = kernel_err <= 0.20 and graph_err - kernel_err >= 0.10 and elapsed < 300.0
    report(6, "mixture error separation", ok,
           f"kernel {kernel_err:.4f} <= 0.20, graph-kernel gap "
           f"{graph_err - kernel_err:.4f} >= 0.10, {elapsed:.0f}s < 300s")


def test_07_low_rank_fidelity():
    t0 = time.perf_counter()
    kernel = GaussianKernel(3.0)
    lam = 1.0
    trials = 8
    errs_fit, errs_exact, errs_500 = [], [], []
    for t in range(trials):
        seed = trial_seed(7, 200, t)
        spec = GaussianMixSpec(n=200, n_labeled=20, d=10, separation=3.0, seed=seed)
        ds, truth = gen_gaussian_mix_with_truth(spec)
        p = math.ceil(math.sqrt(200) * math.log(200))
        m1 = fit(ds, kernel, p=p, mu=1 / 200, filter_spec=FilterSpec("tikhonov", lam),
                 seed=seed, sigma_over_labeled=True)
        errs_fit.append((decode_sign(predict(m1, ds.inputs[20:])) != truth[20:]).mean())
        m2 = fit_exact(ds, kernel, lam=lam, mu=1 / 200, dense_cap=2500)
        errs_exact.append((decode_sign(predict(m2, ds.inputs[20:])) != truth[20:]).mean())

        seed5 = trial_seed(7, 500, t)
        spec5 = GaussianMixSpec(n=500, n_labeled=50, d=10, separation=3.0, seed=seed5)
        ds5, truth5 = gen_gaussian_mix_with_truth(spec5)
        p5 = math.ceil(math.sqrt(500) * math.log(500))
        m3 = fit(ds5, kernel, p=p5, mu=1 / 500, filter_spec=FilterSpec("tikhonov", lam),
                 seed=seed5, sigma_over_labeled=True)
        errs_500.append((decode_sign(predict(m3, ds5.inputs[50:])) != truth5[50:]).mean())
    gap = abs(np.mean(errs_fit) - np.mean(errs_exact))
    headline = np.mean(errs_500) - np.mean(errs_exact)
    elapsed = time.perf_counter() - t0
    ok = gap <= 0.05 and headline <= 0.05 and elapsed < 180.0
    report(7, "low-rank matches exact oracle", ok,
           f"|fit - exact| {gap:.4f} <= 0.05 at n=200 (p=75), "
           f"fit(n=500, p=139) - exact {headline:+.4f} <= 0.05, {elapsed:.0f}s < 180s")


def test_08_complexity_evidence():
    t0 = time.perf_counter()
    ns = [500, 1000, 2000, 4000]
    times = []
    for n in ns:
        seed = trial_seed(8, n, 0)
        spec = GaussianMixSpec(n=n, n_labeled=max(1, n // 10), d=10,
                               separation=3.0, seed=seed)
        ds, _ = gen_gaussian_mix_with_truth(spec)

        def one_fit():
            fit(ds, GaussianKernel(3.0), p=50, mu=1.0 / n,
                filter_spec=FilterSpec("tikhonov", 1.0), seed=seed)

        # millisecond-scale single fits are dominated by allocator and BLAS
        # pool state; time batches of ~150ms (timeit-style) and keep the best
        one_fit()
        t1 = time.perf_counter()
        one_fit()
        reps = max(1, math.ceil(0.15 / max(time.perf_counter() - t1, 1e-4)))
        best = math.inf
        for _ in range(3):
            t1 = time.perf_counter()
            for _ in range(reps):
                one_fit()
            best = min(best, (time.perf_counter() - t1) / reps)
        times.append(best)
    slope = np.polyfit(np.log(ns), np.log(times), 1)[0]
    t_1000 = times[1]
    elapsed = time.perf_counter() - t0
    ok = slope <= 1.4 and t_1000 <= 2.0 and elapsed < 180.0
    report(8, "sub-quadratic fit scaling", ok,
           f"log-log slope {slope:.3f} <= 1.4, fit(n=1000) {t_1000 * 1e3:.0f}ms <= 2s, "
           f"{elapsed:.0f}s < 180s")


def test_09_schedule_arithmetic():
    lam, mu, p = schedule(16, ScheduleParams(lambda0=1.0, mu0=1.0, p0=1.0, decay=1.0))
    ok = (lam, mu, p) == (0.5, 0.5, 12)
    report(9, "schedule arithmetic", ok, f"schedule(16) = ({lam}, {mu}, {p}) == (0.5, 0.5, 12)")


def test_10_invariant_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    checks = []

    # label linearity of the fitted predictor
    X = rng.standard_normal((25, 2))
    y = rng.standard_normal(8)
    k = GaussianKernel(1.0)
    f = FilterSpec("tikhonov", 0.5)
    m1 = fit(SemiDataset(X, y), k, p=10, mu=0.1, filter_spec=f, seed=1)
    m2 = fit(SemiDataset(X, 5.0 * y), k, p=10, mu=0.1, filter_spec=f, seed=1)
    q = rng.standard_normal((6, 2))
    p1, p2 = predict(m1, q), predict(m2, q)
    checks.append(("label linearity",
                   np.linalg.norm(p2 - 5.0 * p1) <= 1e-10 * np.linalg.norm(p2)))

    # permutation invariance of assembled operators
    n, n_l = 16, 4
    Xp = rng.standard_normal((n, 2))
    yp = rng.standard_normal(n_l)
    perm = np.concatenate([np.arange(n_l), n_l + rng.permutation(n - n_l)])
    inv = np.argsort(perm)
    idx = np.array([0, 5, 11])
    b1 = assemble(SemiDataset(Xp, yp), k, idx, mu=0.2)
    b2 = assemble(SemiDataset(Xp[perm], yp), k, inv[idx], mu=0.2)
    checks.append(("permutation invariance",
                   max(np.linalg.norm(b1.A - b2.A), np.linalg.norm(b1.B - b2.B),
                       np.linalg.norm(b1.b - b2.b)) <= 1e-10))

    # harmonic maximum principle
    Xg = rng.standard_normal((50, 3))
    yg = rng.uniform(-1.0, 2.0, 10)
    res = harmonic_propagate(SemiDataset(Xg, yg), GraphConfig(graph_bandwidth(50, 3)))
    checks.append(("harmonic maximum principle",
                   res.values.min() >= yg.min() - 1e-8 and res.values.max() <= yg.max() + 1e-8))

    # sign decoding positive-scale invariance
    v = rng.standard_normal(100)
    checks.append(("decode scale invariance", all(
        np.array_equal(decode_sign(alpha * v), decode_sign(v))
        for alpha in (1e-6, 0.5, 3.0, 1e8)
    )))

    # serialization round trip is value-exact
    model = FittedModel(GaussianKernel(0.37), rng.standard_normal((5, 2)),
                        rng.standard_normal(5), LANDMARK_KERNEL, clip_bound=2.25)
    back = model_from_json(model_to_json(model))
    checks.append(("serialization round-trip",
                   np.array_equal(back.basis_coordinates, model.basis_coordinates)
                   and np.array_equal(back.coefficients, model.coefficients)
                   and back.kernel.sigma == model.kernel.sigma
                   and back.clip_bound == model.clip_bound))

    elapsed = time.perf_counter() - t0
    failed = [name for name, ok in checks if not ok]
    ok = not failed and elapsed < 60.0
    report(10, "invariant suite", ok,
           f"{len(checks) - len(failed)}/{len(checks)} invariants hold"
           + (f", failed: {failed}" if failed else "") + f", {elapsed:.1f}s < 60s")
