"""The benchmark's four workloads, each built from the workload seed.

A workload has a ``setup`` (data generation outside the timed section and a
small warm-up fit), a ``unit`` (one timed repetition of its work, on the same
inputs every time) and a ``check`` of the outputs of the last unit.  Every
trial seed comes from ``kerlap.bench.trial_seed``.

Why each workload exists, and which layer each one stresses, is written down
in README.md beside this file.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

import kerlap
from kerlap import (
    FilterSpec,
    GaussianKernel,
    GraphConfig,
    KerlapError,
    SingularPencilError,
    bayes_error,
    decode_sign,
)
from kerlap.bench import ExperimentConfig, generate_instance, preset, trial_seed

# Tikhonov filtering must reproduce the direct solve to this relative error
# (the tolerance of the repository's filter/solve equivalence test)
TIKHONOV_RTOL = 1e-6
# fig2 fits per grid size whose pipeline is replayed and checked
CHECKED_PER_N = 2
# trials per grid size of the exact oracle; at 50 it alone would take 18 s
EXACT_TRIALS = 4
# gauss2 scale point: Znp is n*d*p*8 B = 514 MB, about five times a 105 MB L3
SCALE_N = 8000


@dataclass
class Unit:
    """One timed repetition and the non-time facts it produced.

    ``fit_times`` holds one entry per fit, in the same order in every unit.
    """

    wall_s: float
    fit_times: list[float]
    predict_rows: int
    failed: int
    error_rate: float
    outputs: object = field(default=None, repr=False)

    @property
    def fits(self) -> int:
        return len(self.fit_times)

    def facts(self) -> tuple:
        """Fields that must repeat exactly from unit to unit."""
        return (self.predict_rows, self.fits, self.failed, self.error_rate)


def _error_rate(pred: np.ndarray, truth: np.ndarray) -> float:
    return float((decode_sign(pred) != truth).mean())


def replay(cfg: ExperimentConfig, n: int, trial: int):
    """Re-run one sweep trial through the public calls, letting errors raise.

    Returns (dataset, predictions on the unlabeled rows, their true labels).
    """
    seed = trial_seed(cfg.seed, n, trial)
    ds, truth = generate_instance(cfg, n, seed)
    n_l = ds.n_labeled
    kernel = GaussianKernel(cfg.kernel_sigma)
    if cfg.method == "graph":
        result = kerlap.harmonic_propagate(ds, GraphConfig(cfg.resolve_graph_sigma(n, ds.d)))
        return ds, result.values, truth[n_l:]
    if cfg.method == "kernel_laplacian":
        model = kerlap.fit(ds, kernel, cfg.resolve_p(n), cfg.resolve_mu(n),
                           FilterSpec(cfg.filter_kind, cfg.lam), seed,
                           sigma_over_labeled=cfg.sigma_over_labeled, clip=cfg.clip)
    elif cfg.method == "krr":
        model = kerlap.krr_fit(ds.inputs[:n_l], ds.labels, kernel, cfg.ridge)
    else:
        model = kerlap.fit_exact(ds, kernel, cfg.lam, cfg.resolve_mu(n),
                                 dense_cap=cfg.dense_cap, clip=cfg.clip)
    return ds, kerlap.predict(model, ds.inputs[n_l:]), truth[n_l:]


class Sweeps:
    """Workloads whose unit is one or more ``run_error_curve`` sweeps."""

    configs: list[ExperimentConfig]
    warmup: list[ExperimentConfig]

    def setup(self) -> None:
        for cfg in self.warmup:
            kerlap.bench.run_error_curve(cfg)

    def unit(self) -> Unit:
        t0 = time.perf_counter()
        sweeps = [(cfg, kerlap.bench.run_error_curve(cfg)) for cfg in self.configs]
        wall = time.perf_counter() - t0
        records = [r for _, rs in sweeps for r in rs]
        scored = [r for r in records if not math.isnan(r.error)]
        predicted = [r for r in scored if r.method != "graph"]
        return Unit(
            wall_s=wall,
            fit_times=[r.fit_seconds for r in records],
            predict_rows=sum(r.n - r.n_labeled for r in predicted),
            failed=len(records) - len(scored),
            error_rate=sum(r.error for r in scored) / max(1, len(scored)),
            outputs=sweeps,
        )

    def failures(self, unit: Unit) -> list[dict]:
        """Replay each failed trial to record its error class and message."""
        out = []
        for cfg, records in unit.outputs:
            for r in records:
                if not math.isnan(r.error):
                    continue
                entry = {"method": r.method, "n": r.n, "trial": r.trial}
                try:
                    replay(cfg, r.n, r.trial)
                    entry["error"] = "not reproduced on replay"
                except KerlapError as exc:
                    entry["error"] = f"{type(exc).__name__}: {exc}"
                out.append(entry)
        return out

    def check(self, unit: Unit) -> list[str]:
        problems = []
        for cfg, records in unit.outputs:
            expected = len(cfg.n_grid) * cfg.trials
            if len(records) != expected:
                problems.append(f"{cfg.method}: {len(records)} records, expected {expected}")
            rng = np.random.default_rng(cfg.seed)
            for n in cfg.n_grid:
                for trial in rng.choice(cfg.trials, size=min(CHECKED_PER_N, cfg.trials),
                                        replace=False):
                    record = next(r for r in records if (r.n, r.trial) == (n, trial))
                    if not math.isnan(record.error):
                        problems += self.check_trial(cfg, n, int(trial), record.error)
        return problems

    def check_trial(self, cfg, n, trial, error) -> list[str]:
        where = f"{cfg.method} n={n} trial={trial}"
        ds, pred, truth = replay(cfg, n, trial)
        if not np.all(np.isfinite(pred)):
            return [f"{where}: non-finite predictions"]
        problems = []
        if _error_rate(pred, truth) != error:
            problems.append(f"{where}: replayed error differs from the sweep record")
        if cfg.method == "graph":
            lo, hi = ds.labels.min(), ds.labels.max()
            if pred.min() < lo - 1e-9 or pred.max() > hi + 1e-9:
                problems.append(f"{where}: harmonic values leave the label range")
        return problems


class Fig2Sweep(Sweeps):
    """The fig2 preset: 250 landmark fits at n in 25..400, d = 10, p = 50."""

    def __init__(self, seed: int):
        cfg = replace(preset("fig2"), seed=seed)
        self.configs = [cfg]
        self.warmup = [replace(cfg, trials=2)]

    def check_trial(self, cfg, n, trial, error) -> list[str]:
        problems = super().check_trial(cfg, n, trial, error)
        where = f"n={n} trial={trial}"
        seed = trial_seed(cfg.seed, n, trial)
        ds, _ = generate_instance(cfg, n, seed)
        kernel = GaussianKernel(cfg.kernel_sigma)
        spec = FilterSpec(cfg.filter_kind, cfg.lam)
        p, mu = cfg.resolve_p(n), cfg.resolve_mu(n)
        bundle = kerlap.assemble(ds, kernel, kerlap.select_landmarks(ds, p, seed), mu,
                                 sigma_over_labeled=cfg.sigma_over_labeled)
        coef = kerlap.filter_coefficients(kerlap.gevd(bundle.A, bundle.B), spec, bundle.b)
        model = kerlap.fit(ds, kernel, p, mu, spec, seed,
                           sigma_over_labeled=cfg.sigma_over_labeled)
        if not np.allclose(model.coefficients, coef, rtol=1e-12, atol=0.0):
            problems.append(f"{where}: fit differs from its own pipeline steps")
        try:
            direct = kerlap.pencil_solve(bundle.A, bundle.B, cfg.lam, bundle.b)
        except SingularPencilError:
            return problems  # A + lam*B is not positive definite: no oracle
        rel = np.linalg.norm(coef - direct) / np.linalg.norm(direct)
        if not rel <= TIKHONOV_RTOL:
            problems.append(f"{where}: Tikhonov coefficients differ from pencil_solve by {rel:.2e}")
        return problems


class Fig2Baselines(Sweeps):
    """The fig2 grid through the graph and KRR baselines and the exact oracle."""

    def __init__(self, seed: int):
        cfg = replace(preset("fig2"), seed=seed)
        self.configs = [
            replace(cfg, method="graph"),
            replace(cfg, method="krr"),
            # n * (d + 1) <= 1100 stays within the default dense cap
            replace(cfg, method="exact", n_grid=[25, 50, 100], trials=EXACT_TRIALS),
        ]
        self.warmup = [replace(c, n_grid=c.n_grid[:2], trials=2) for c in self.configs]


class SingleFit:
    """Workloads whose unit is one ``fit`` and one ``predict`` of a large instance."""

    cfg: ExperimentConfig
    n: int

    def setup(self) -> None:
        self.seed = trial_seed(self.cfg.seed, self.n, 0)
        self.ds, self.truth = generate_instance(self.cfg, self.n, self.seed)
        small = self.n // 4
        ds, _ = generate_instance(self.cfg, small, trial_seed(self.cfg.seed, small, 0))
        self.fit(ds, small)

    def fit(self, ds, n):
        cfg = self.cfg
        return kerlap.fit(ds, GaussianKernel(cfg.kernel_sigma), cfg.resolve_p(n),
                          cfg.resolve_mu(n), FilterSpec(cfg.filter_kind, cfg.lam), self.seed,
                          sigma_over_labeled=cfg.sigma_over_labeled)

    def unit(self) -> Unit:
        n_l = self.ds.n_labeled
        queries = self.ds.inputs[n_l:]
        t0 = time.perf_counter()
        try:
            model = self.fit(self.ds, self.n)
        except KerlapError as exc:
            wall = time.perf_counter() - t0
            return Unit(wall, [wall], 0, 1, math.nan, outputs=exc)
        t1 = time.perf_counter()
        pred = kerlap.predict(model, queries)
        error = _error_rate(pred, self.truth[n_l:]) if np.all(np.isfinite(pred)) else math.nan
        return Unit(time.perf_counter() - t0, [t1 - t0], len(queries), 0, error, outputs=pred)

    def failures(self, unit: Unit) -> list[dict]:
        if isinstance(unit.outputs, KerlapError):
            exc = unit.outputs
            return [{"method": self.cfg.method, "n": self.n, "trial": 0,
                     "error": f"{type(exc).__name__}: {exc}"}]
        return []

    def check(self, unit: Unit) -> list[str]:
        if unit.failed:
            return []
        if not np.all(np.isfinite(unit.outputs)):
            return ["non-finite predictions"]
        return self.check_error(unit.error_rate)


class Fig1Circles(SingleFit):
    """The fig1 preset: four circles, n = p = 2000, d = 2, four labels."""

    def __init__(self, seed: int):
        self.cfg = replace(preset("fig1"), seed=seed)
        self.n = self.cfg.n_grid[0]

    def check_error(self, error_rate: float) -> list[str]:
        return [] if error_rate == 0 else [f"circles error rate {error_rate} is not 0"]


class ScaleGauss2(SingleFit):
    """gauss2 at d = 10, sigma = 3 with p = ceil(sqrt(n) ln n) landmarks."""

    def __init__(self, seed: int):
        self.n = SCALE_N
        self.cfg = ExperimentConfig(
            family="gauss2", n_grid=[SCALE_N], label_ratio=0.1, d=10, separation=3.0,
            kernel_sigma=3.0, lam=1.0, mu="1/n", p="sqrt-log", seed=seed,
        )

    def check_error(self, error_rate: float) -> list[str]:
        limit = bayes_error(self.cfg.separation) + 0.05
        if error_rate <= limit:
            return []
        return [f"gauss2 error rate {error_rate:.4f} exceeds {limit:.4f}"]


WORKLOADS = {
    "fig2-sweep": Fig2Sweep,
    "fig1-circles": Fig1Circles,
    "scale-gauss2": ScaleGauss2,
    "fig2-baselines": Fig2Baselines,
}
