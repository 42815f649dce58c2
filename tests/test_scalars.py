"""Every scalar parameter of the public API refuses a bad number with
``InvalidArgumentError``, and every ``float``- or ``int``-annotated parameter
or field of a callable in ``kerlap.__all__`` or ``SCANNED`` is in the table
below, so a new parameter without the check fails here."""

import inspect
import math
import typing

import numpy as np

import kerlap
from kerlap import (
    LANDMARK_KERNEL,
    CirclesSpec,
    FilterSpec,
    FittedModel,
    GaussianKernel,
    GaussianMixSpec,
    GraphConfig,
    InvalidArgumentError,
    ScheduleParams,
    SemiDataset,
    assemble,
    assemble_dense,
    bayes_error,
    fit,
    fit_exact,
    graph_bandwidth,
    krr_fit,
    pencil_solve,
    schedule,
    select_landmarks,
)
from kerlap.bench import export_eigenvectors

DS = SemiDataset(np.random.default_rng(0).standard_normal((6, 2)), [1.0, -1.0])
K = GaussianKernel(1.0)
TIK = FilterSpec("tikhonov", 1.0)

# (callable, parameter) -> a call with that parameter set to v and every other one valid
CALLS = {
    ("CirclesSpec", "n"): lambda v: CirclesSpec(n=v, n_labeled=4),
    ("CirclesSpec", "n_labeled"): lambda v: CirclesSpec(n=8, n_labeled=v),
    ("CirclesSpec", "num_circles"): lambda v: CirclesSpec(n=8, n_labeled=4, num_circles=v),
    ("CirclesSpec", "inner_radius"): lambda v: CirclesSpec(n=8, n_labeled=4, inner_radius=v),
    ("CirclesSpec", "radius_step"): lambda v: CirclesSpec(n=8, n_labeled=4, radius_step=v),
    ("CirclesSpec", "seed"): lambda v: CirclesSpec(n=8, n_labeled=4, seed=v),
    ("GaussianMixSpec", "n"): lambda v: GaussianMixSpec(n=v, n_labeled=2),
    ("GaussianMixSpec", "n_labeled"): lambda v: GaussianMixSpec(n=8, n_labeled=v),
    ("GaussianMixSpec", "d"): lambda v: GaussianMixSpec(n=8, n_labeled=2, d=v),
    ("GaussianMixSpec", "separation"): lambda v: GaussianMixSpec(n=8, n_labeled=2, separation=v),
    ("GaussianMixSpec", "seed"): lambda v: GaussianMixSpec(n=8, n_labeled=2, seed=v),
    ("FilterSpec", "lam"): lambda v: FilterSpec("tikhonov", v),
    ("FittedModel", "clip_bound"):
        lambda v: FittedModel(K, np.zeros((1, 2)), np.zeros(1), LANDMARK_KERNEL, clip_bound=v),
    ("GaussianKernel", "sigma"): lambda v: GaussianKernel(v),
    ("GraphConfig", "sigma"): lambda v: GraphConfig(v),
    ("ScheduleParams", "lambda0"): lambda v: ScheduleParams(lambda0=v),
    ("ScheduleParams", "mu0"): lambda v: ScheduleParams(mu0=v),
    ("ScheduleParams", "p0"): lambda v: ScheduleParams(p0=v),
    ("ScheduleParams", "decay"): lambda v: ScheduleParams(decay=v),
    ("assemble", "mu"): lambda v: assemble(DS, K, select_landmarks(DS, 2, 0), v),
    ("assemble_dense", "mu"): lambda v: assemble_dense(DS, K, v),
    ("assemble_dense", "dense_cap"): lambda v: assemble_dense(DS, K, 0.1, dense_cap=v),
    ("bayes_error", "separation"): lambda v: bayes_error(v),
    ("fit", "p"): lambda v: fit(DS, K, v, 0.1, TIK, 0),
    ("fit", "mu"): lambda v: fit(DS, K, 2, v, TIK, 0),
    ("fit", "seed"): lambda v: fit(DS, K, 2, 0.1, TIK, v),
    ("fit_exact", "lam"): lambda v: fit_exact(DS, K, v, 0.1),
    ("fit_exact", "mu"): lambda v: fit_exact(DS, K, 1.0, v),
    ("fit_exact", "dense_cap"): lambda v: fit_exact(DS, K, 1.0, 0.1, dense_cap=v),
    ("graph_bandwidth", "n"): lambda v: graph_bandwidth(v, 2),
    ("graph_bandwidth", "d"): lambda v: graph_bandwidth(10, v),
    ("krr_fit", "ridge"): lambda v: krr_fit(DS.inputs[:2], DS.labels, K, v),
    ("pencil_solve", "lam"): lambda v: pencil_solve(np.eye(2), np.eye(2), v, np.ones(2)),
    ("schedule", "n"): lambda v: schedule(v),
    ("select_landmarks", "p"): lambda v: select_landmarks(DS, v, 0),
    ("select_landmarks", "seed"): lambda v: select_landmarks(DS, 2, v),
    ("export_eigenvectors", "p"): lambda v: export_eigenvectors(DS, K, v, 0.1, 1, DS.inputs),
    ("export_eigenvectors", "mu"): lambda v: export_eigenvectors(DS, K, 2, v, 1, DS.inputs),
    ("export_eigenvectors", "count"): lambda v: export_eigenvectors(DS, K, 2, 0.1, v, DS.inputs),
    ("export_eigenvectors", "seed"):
        lambda v: export_eigenvectors(DS, K, 2, 0.1, 1, DS.inputs, seed=v),
}

# public callables outside ``kerlap.__all__``
SCANNED = {"export_eigenvectors": export_eigenvectors}

# numbers the library reports rather than takes from a caller
RESULTS = {("PencilDecomposition", "jitter")}

BAD = ["1", None, True, math.nan, math.inf, -1, np.array([1.0, 2.0])]


def scalar_parameters() -> dict[tuple[str, str], bool]:
    """(callable, parameter) -> whether None is allowed, for every parameter of a
    callable in ``kerlap.__all__`` or ``SCANNED`` annotated as an int or a float
    (bools excluded)."""
    found = {}
    public = {name: getattr(kerlap, name) for name in kerlap.__all__} | SCANNED
    for name, obj in public.items():
        if not callable(obj) or inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        hints = typing.get_type_hints(obj)
        for param in inspect.signature(obj).parameters:
            args = typing.get_args(hints.get(param)) or (hints.get(param),)
            if {a for a in args if a is not type(None)} in ({int}, {float}):
                found[name, param] = type(None) in args
    return found


def test_table_covers_every_scalar_parameter():
    assert set(scalar_parameters()) - RESULTS == set(CALLS)


def test_every_bad_scalar_raises_invalid_argument():
    missed = []
    for key, optional in scalar_parameters().items():
        if key in RESULTS:
            continue
        if optional:
            CALLS[key](None)  # the annotation says None is allowed
        for value in BAD:
            if value is None and optional:
                continue
            try:
                CALLS[key](value)
                missed.append(f"{key} accepted {value!r}")
            except InvalidArgumentError as exc:
                if key[1] not in str(exc):
                    missed.append(f"{key} with {value!r}: message does not name it: {exc}")
            except Exception as exc:
                missed.append(f"{key} with {value!r}: {type(exc).__name__}: {exc}")
    assert not missed, "\n".join(missed)
