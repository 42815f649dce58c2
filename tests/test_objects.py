"""Every object argument of the public API goes through ``errors.instance``: a
value of the wrong class (a string, a number, None, a bare array) raises
``InvalidArgumentError`` whose message starts with the argument's name,
before the call reaches for any of its attributes."""

import numpy as np
import pytest

from kerlap import (
    LANDMARK_KERNEL,
    CirclesSpec,
    FilterSpec,
    FittedModel,
    GaussianKernel,
    GraphConfig,
    InvalidArgumentError,
    SemiDataset,
    apply_filter,
    assemble,
    filter_coefficients,
    fit,
    fit_exact,
    gevd,
    harmonic_propagate,
    krr_fit,
    model_to_json,
    predict,
    select_landmarks,
)
from kerlap.bench import export_eigenvectors
from kerlap.operators import prune_landmarks

DS = SemiDataset(np.random.default_rng(0).standard_normal((6, 2)), [1.0, -1.0])
K = GaussianKernel(1.0)
TIK = FilterSpec("tikhonov", 1.0)
ROW = np.zeros((1, 2))
I2 = np.eye(2)
MODEL = FittedModel(K, ROW, [1.0], LANDMARK_KERNEL)

# (callable, argument) -> a call with that argument set to v and every other one valid
CALLS = {
    ("fit", "ds"): lambda v: fit(v, K, 2, 0.1, TIK, 0),
    ("fit", "kernel"): lambda v: fit(DS, v, 2, 0.1, TIK, 0),
    ("fit", "filter_spec"): lambda v: fit(DS, K, 2, 0.1, v, 0),
    ("fit_exact", "ds"): lambda v: fit_exact(v, K, 1.0, 0.1),
    ("fit_exact", "kernel"): lambda v: fit_exact(DS, v, 1.0, 0.1),
    ("select_landmarks", "ds"): lambda v: select_landmarks(v, 2, 0),
    ("prune_landmarks", "ds"): lambda v: prune_landmarks(v, K, [0, 1]),
    ("prune_landmarks", "kernel"): lambda v: prune_landmarks(DS, v, [0, 1]),
    ("assemble", "ds"): lambda v: assemble(v, K, [0, 1], 0.1),
    ("assemble", "kernel"): lambda v: assemble(DS, v, [0, 1], 0.1),
    ("krr_fit", "kernel"): lambda v: krr_fit(ROW, [1.0], v, 0.1),
    ("harmonic_propagate", "ds"): lambda v: harmonic_propagate(v, GraphConfig(1.0)),
    ("harmonic_propagate", "config"): lambda v: harmonic_propagate(DS, v),
    ("predict", "model"): lambda v: predict(v, ROW),
    ("model_to_json", "model"): model_to_json,
    ("filter_coefficients", "dec"): lambda v: filter_coefficients(v, TIK, np.ones(2)),
    ("filter_coefficients", "f"): lambda v: filter_coefficients(gevd(I2, I2), v, np.ones(2)),
    ("apply_filter", "f"): lambda v: apply_filter(v, 1.0),
    ("export_eigenvectors", "ds"): lambda v: export_eigenvectors(v, K, 2, 0.1, 1, ROW),
    ("export_eigenvectors", "kernel"): lambda v: export_eigenvectors(DS, v, 2, 0.1, 1, ROW),
    ("FittedModel", "kernel"): lambda v: FittedModel(v, ROW, [1.0], LANDMARK_KERNEL),
}

# a string naming the object, a number, None, an array (a dataset's inputs)
# and another of the library's objects
WRONG = {"string": "tikhonov", "number": 1.0, "none": None, "array": DS.inputs,
         "other": CirclesSpec(n=4, n_labeled=4)}


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{owner}-{name}-{case}")
    for (owner, name), call in CALLS.items()
    for case, value in WRONG.items()
])
def test_wrong_object_raises_invalid_argument_naming_it(call, name, value):
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be a "):
        call(value)


def test_right_objects_keep_their_results():
    assert predict(MODEL, ROW).tolist() == [1.0]
    assert model_to_json(MODEL).startswith('{"kernel_sigma": 1.0')
    assert harmonic_propagate(DS, GraphConfig(1.0)).values.shape == (4,)
