"""Benchmark harness: seeded error-vs-n sweeps, fit-time measurements and
generalized-eigenvector exports, with CSV record output.

Reproducibility contract: a configuration plus its master seed determine
every record's error field exactly.  The per-trial seed is
``master_seed XOR splitmix64((n & 0xFFFFFFFF) << 32 | (trial & 0xFFFFFFFF))``
with the splitmix64 finalizer given below; this derivation is part of the
stable interface.  Trials use independent RNG streams, so execution order
cannot change results.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .baselines import GraphConfig, graph_bandwidth, harmonic_propagate, krr_fit
from .errors import InvalidArgumentError, KerlapError, array, instance, integer, real
from .estimator import (
    FittedModel, _kernel_expansion, _landmark_decomposition, clip_bound, decode_sign, fit,
    fit_exact, predict, schedule,
)
from .filters import FILTER_KINDS, FilterSpec
from .kernel import GaussianKernel, bandwidth
from .operators import DEFAULT_DENSE_CAP, SemiDataset, read_csv, write_csv
from .synthdata import (
    ALLOCATIONS,
    ANGLES,
    CirclesSpec,
    GaussianMixSpec,
    gen_circles_with_truth,
    gen_gaussian_mix_with_truth,
)

METHODS = ("kernel_laplacian", "graph", "krr", "exact")

# each dataset family's spec and its generator; the lambdas look the
# generator up when called, so a rebinding of the module's name (a tracer's
# wrapper) is seen.  ExperimentConfig has a field for each spec parameter.
DATASETS = {
    "circles": (CirclesSpec, lambda spec: gen_circles_with_truth(spec)),
    "gauss2": (GaussianMixSpec, lambda spec: gen_gaussian_mix_with_truth(spec)),
}
FAMILIES = tuple(DATASETS)

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """SplitMix64 finalizer (public-domain constants)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(master_seed: int, n: int, trial: int) -> int:
    """Deterministic per-trial seed; stable across versions."""
    packed = ((n & 0xFFFFFFFF) << 32) | (trial & 0xFFFFFFFF)
    return (master_seed ^ splitmix64(packed)) & _MASK64


@dataclass(frozen=True)
class BenchRecord:
    method: str
    n: int
    n_labeled: int
    trial: int
    error: float          # classification error in [0,1] or RMSE; NaN marks a failed fit
    fit_seconds: float
    predict_seconds: float
    seed: int


_RECORD_TYPES = get_type_hints(BenchRecord)  # the records CSV columns, in field order
RECORD_HEADER = list(_RECORD_TYPES)


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the type that a config field's annotation names."""
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_conforms(v, int) for v in value)
    if get_args(hint):
        return any(_conforms(value, h) for h in get_args(hint))
    kind = {int: numbers.Integral, float: numbers.Real}.get(hint, hint)
    return isinstance(value, kind) and isinstance(value, bool) == (hint is bool)


# the words a str field accepts; mu, p and graph_sigma take them in place of a number
_WORDS = {
    "family": FAMILIES, "method": METHODS, "metric": ("classification", "rmse"),
    "angles": ANGLES, "allocation": ALLOCATIONS, "filter_kind": FILTER_KINDS,
    "mu": ("1/n",), "p": ("n", "sqrt-log"), "graph_sigma": ("auto",),
}


@dataclass
class ExperimentConfig:
    """One benchmark run: dataset family and method plus hyperparameters.

    ``mu`` is a float or the string "1/n"; ``p`` is an int, "n", or
    "sqrt-log" (ceil(sqrt(n) * ln n)); ``graph_sigma`` is a float or "auto"
    (the n^(-1/(d+4)) * ln n rule).  Construction checks every value the fit
    reads, so a bad one raises ``InvalidArgumentError`` before any trial.
    """

    family: str = "gauss2"
    method: str = "kernel_laplacian"
    n_grid: list[int] = field(default_factory=lambda: [100])
    trials: int = 1
    label_ratio: float | None = 0.1
    n_labeled: int | None = None
    d: int = GaussianMixSpec.d
    separation: float = GaussianMixSpec.separation
    num_circles: int = CirclesSpec.num_circles
    inner_radius: float = CirclesSpec.inner_radius
    radius_step: float | None = CirclesSpec.radius_step
    angles: str = CirclesSpec.angles
    allocation: str = CirclesSpec.allocation
    kernel_sigma: float = 1.0
    lam: float = 1.0
    mu: float | str = "1/n"
    p: int | str = 50
    filter_kind: str = "tikhonov"
    sigma_over_labeled: bool = False
    graph_sigma: float | str = "auto"
    ridge: float = 1e-3
    dense_cap: int = DEFAULT_DENSE_CAP
    metric: str = "classification"
    inductive_test: int = 0
    clip: bool = False
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, FIELD_TYPES[f.name]):
                raise InvalidArgumentError(f"{f.name} must be {f.type}, got {value!r}")
            if isinstance(value, str) and f.name in _WORDS and value not in _WORDS[f.name]:
                raise InvalidArgumentError(f"{f.name} {value!r} is not one of {_WORDS[f.name]}")
        if not self.n_grid or self.n_grid[0] <= 0 or sorted(self.n_grid) != self.n_grid:
            raise InvalidArgumentError("n_grid must be a non-empty ascending list of counts")
        integer("trials", self.trials)
        if self.n_labeled is None:
            real("label_ratio", self.label_ratio, high=1.0)
        if integer("inductive_test", self.inductive_test, low=0) and self.method == "graph":
            raise InvalidArgumentError("inductive_test must be 0 for the graph baseline, "
                                       "which has no out-of-sample extension")
        # the fit's values, by the library's rule under the config's names
        n = self.n_grid[0]
        bandwidth("kernel_sigma", self.kernel_sigma)
        real("lam", self.lam)
        real("mu", self.resolve_mu(n))
        integer("p", self.resolve_p(n))
        real("ridge", self.ridge)
        integer("dense_cap", self.dense_cap)
        if self.method == "graph":
            bandwidth("graph_sigma", self.resolve_graph_sigma(n, self.d))

    def resolve_n_labeled(self, n: int) -> int:
        if self.n_labeled is not None:
            return self.n_labeled
        return max(1, round(self.label_ratio * n))

    def resolve_mu(self, n: int) -> float:
        return 1.0 / n if self.mu == "1/n" else float(self.mu)

    def resolve_p(self, n: int) -> int:
        if self.p == "n":
            return n
        if self.p == "sqrt-log":
            return schedule(n)[2]
        return min(self.p, n)

    def resolve_graph_sigma(self, n: int, d: int) -> float:
        return graph_bandwidth(n, d) if self.graph_sigma == "auto" else float(self.graph_sigma)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"malformed config JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise InvalidArgumentError("config JSON must be an object")
        extra = set(doc) - set(cls.__dataclass_fields__)
        if extra:
            raise InvalidArgumentError(f"unknown config fields: {sorted(extra)}")
        return cls(**doc)


FIELD_TYPES = get_type_hints(ExperimentConfig)  # each field's annotation, evaluated

# Named presets for the benchmark figures.  The circle geometry, the
# equispaced angular grid and the gauss2 kernel bandwidth are documented
# assumptions: the originals are not published.
PRESETS = {
    "fig1": ExperimentConfig(
        family="circles",
        method="kernel_laplacian",
        n_grid=[2000],
        trials=1,
        n_labeled=4,
        label_ratio=None,
        num_circles=4,
        inner_radius=1.0,
        angles="equispaced",
        allocation="equal",
        kernel_sigma=0.2,      # 0.2 * inner radius
        lam=1.0,
        mu="1/n",
        p="n",
        filter_kind="tikhonov",
    ),
    "fig2": ExperimentConfig(
        family="gauss2",
        method="kernel_laplacian",
        n_grid=[25, 50, 100, 200, 400],
        trials=50,
        label_ratio=0.1,
        d=10,
        separation=3.0,
        kernel_sigma=3.0,      # of the order of the class separation
        lam=1.0,
        mu="1/n",
        p=50,
        filter_kind="tikhonov",
        sigma_over_labeled=True,
        graph_sigma="auto",
    ),
}


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise InvalidArgumentError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return replace(PRESETS[name])


def generate_instance(cfg: ExperimentConfig, n: int, seed: int) -> tuple[SemiDataset, np.ndarray]:
    spec, generate = DATASETS[cfg.family]
    draw = {"n": n, "n_labeled": cfg.resolve_n_labeled(n), "seed": seed}
    params = {f.name: getattr(cfg, f.name) for f in fields(spec) if f.name not in draw}
    return generate(spec(**draw, **params))


def _score(cfg, predictions: np.ndarray, truth: np.ndarray) -> float:
    if cfg.metric == "rmse":
        return float(np.sqrt(np.mean((predictions - truth) ** 2)))
    return float((decode_sign(predictions) != truth).mean())


def fit_model(cfg: ExperimentConfig, ds: SemiDataset, seed: int) -> FittedModel:
    """The one map from a method to its estimator; ``seed`` draws the landmarks."""
    kernel = GaussianKernel(cfg.kernel_sigma)
    if cfg.method == "kernel_laplacian":
        return fit(
            ds, kernel, cfg.resolve_p(ds.n), cfg.resolve_mu(ds.n),
            FilterSpec(cfg.filter_kind, cfg.lam), seed,
            sigma_over_labeled=cfg.sigma_over_labeled, clip=cfg.clip,
        )
    if cfg.method == "krr":
        model = krr_fit(ds.inputs[: ds.n_labeled], ds.labels, kernel, cfg.ridge)
        return replace(model, clip_bound=clip_bound(ds.labels, cfg.clip))
    if cfg.method == "exact":
        return fit_exact(ds, kernel, cfg.lam, cfg.resolve_mu(ds.n),
                         dense_cap=cfg.dense_cap, clip=cfg.clip)
    raise InvalidArgumentError(f"the {cfg.method} baseline is transductive and fits no model")


def _run_one(cfg: ExperimentConfig, n: int, trial: int) -> BenchRecord:
    seed = trial_seed(cfg.seed, n, trial)
    ds, truth = generate_instance(cfg, n, seed)
    n_l = ds.n_labeled
    queries, target = ds.inputs[n_l:], truth[n_l:]
    if cfg.inductive_test:
        test_ds, target = generate_instance(cfg, cfg.inductive_test, splitmix64(seed ^ 0xDEADBEEF))
        queries = test_ds.inputs

    t0 = time.perf_counter()
    try:
        if cfg.method == "graph":
            scores = harmonic_propagate(ds, GraphConfig(cfg.resolve_graph_sigma(n, ds.d))).values
            t1 = t2 = time.perf_counter()
        else:
            model = fit_model(cfg, ds, seed)
            t1 = time.perf_counter()
            scores = predict(model, queries)
            t2 = time.perf_counter()
        error = _score(cfg, scores, target)
    except KerlapError:
        t1 = t2 = time.perf_counter()
        error = float("nan")
    return BenchRecord(cfg.method, n, n_l, trial, error, t1 - t0, t2 - t1, seed)


def run_error_curve(cfg: ExperimentConfig) -> list[BenchRecord]:
    """Fit and score the configured method for each (n, trial) pair.

    A fit or prediction that raises ``KerlapError`` becomes a record with a
    NaN error and the sweep continues.  Bad config values raise earlier: at
    construction, or for dataset values when the first trial draws its data.
    Records are sorted by (method, n, trial) regardless of execution order.
    """
    records = [
        _run_one(cfg, n, trial)
        for n in cfg.n_grid
        for trial in range(cfg.trials)
    ]
    records.sort(key=lambda r: (r.method, r.n, r.trial))
    return records


def write_records_csv(records: list[BenchRecord], path) -> None:
    write_csv(path, RECORD_HEADER, map(astuple, records))


def _record(row: list[str]) -> BenchRecord:
    """One records CSV row; a value no sweep writes raises ``ValueError``."""
    r = BenchRecord(*(t(cell) for t, cell in zip(_RECORD_TYPES.values(), row)))
    for ok, problem in (
        (r.n >= 1, f"n must be >= 1, got {r.n}"),
        (1 <= r.n_labeled <= r.n, f"n_labeled must be in [1, n={r.n}], got {r.n_labeled}"),
        (r.trial >= 0, f"trial must be >= 0, got {r.trial}"),
        # NaN marks a failed trial
        (math.isnan(r.error) or 0 <= r.error < math.inf,
         f"error must be NaN or a finite value >= 0, got {r.error}"),
        (0 <= r.fit_seconds < math.inf,
         f"fit_seconds must be finite and >= 0, got {r.fit_seconds}"),
        (0 <= r.predict_seconds < math.inf,
         f"predict_seconds must be finite and >= 0, got {r.predict_seconds}"),
    ):
        if not ok:
            raise ValueError(problem)
    return r


def load_records_csv(path) -> list[BenchRecord]:
    def check_header(header):
        if header != RECORD_HEADER:
            raise InvalidArgumentError(
                f"{path}:1: bad header {header!r}, expected {RECORD_HEADER!r}"
            )

    return read_csv(path, check_header, _record)[1]


def export_eigenvectors(
    ds: SemiDataset,
    kernel: GaussianKernel,
    p: int,
    mu: float,
    count: int,
    grid: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """Evaluate the top generalized eigenvectors at grid points.

    Returns a (q, count) array; column j is the j-th eigenfunction
    x -> sum_i v_ji k(x, M_i) over the landmarks M_i that ``fit`` keeps of
    the p it draws, sign-normalized so its first entry larger than 1e-12 *
    max|column| is positive.  A count above the number kept raises
    ``InvalidArgumentError``.
    """
    instance("ds", ds, SemiDataset)
    instance("kernel", kernel, GaussianKernel)
    grid = array("grid", grid, ndim=2)
    if grid.shape[1] != ds.d:
        raise InvalidArgumentError(f"grid must be (q, {ds.d}), got {grid.shape}")
    if integer("count", count, low=0) > integer("p", p):
        raise InvalidArgumentError(f"count must satisfy 0 <= count <= p, got {count}")

    kept, dec, _ = _landmark_decomposition(ds, kernel, p, mu, seed)
    if count > kept.size:
        raise InvalidArgumentError(
            f"count {count} exceeds the {kept.size} landmarks kept from the {p} drawn"
        )
    values = _kernel_expansion(kernel, grid, ds.inputs[kept], dec.eigenvectors[:, :count])
    for j in range(count):
        col = values[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max(initial=1e-300))
        if nz.size and col[nz[0]] < 0:
            values[:, j] = -col
    return values
