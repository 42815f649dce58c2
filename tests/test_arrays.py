"""Every array argument of the public API goes through ``errors.array``: a value
that is not an array of numbers (a ragged nested list, strings, bools), has
the wrong number of dimensions or holds a non-finite entry raises
``InvalidArgumentError`` whose message starts with the argument's name."""

import math

import numpy as np
import pytest

from kerlap import (
    LANDMARK_KERNEL,
    FilterSpec,
    FittedModel,
    GaussianKernel,
    InvalidArgumentError,
    SemiDataset,
    apply_filter,
    assemble,
    decode_sign,
    filter_coefficients,
    gevd,
    krr_fit,
    pencil_solve,
    predict,
)
from kerlap.bench import export_eigenvectors

DS = SemiDataset(np.random.default_rng(0).standard_normal((6, 2)), [1.0, -1.0])
K = GaussianKernel(1.0)
TIK = FilterSpec("tikhonov", 1.0)
ROW = np.zeros((1, 2))
I2 = np.eye(2)
B2 = np.array([[2.0, 1.0], [1.0, 2.0]])
MODEL = FittedModel(K, ROW, [1.0], LANDMARK_KERNEL)


def kernel_call(method, side):
    """GaussianKernel.<method> with argument ``side`` (0: X, 1: Z) set to v."""
    def call(v):
        args = [ROW, ROW]
        args[side] = v
        out = getattr(K, method)(*args)
        return list(out) if method == "blocks" else out
    return call


# (callable, argument) -> (its number of dimensions, None for any; a call
# with that argument set to v and every other one valid)
CALLS = {
    ("SemiDataset", "inputs"): (2, lambda v: SemiDataset(v, [1.0])),
    ("SemiDataset", "labels"): (1, lambda v: SemiDataset(DS.inputs, v)),
    **{(f"GaussianKernel.{method}", arg): (2, kernel_call(method, side))
       for method in ("gram", "blocks", "grad1_gram", "cross_hessian_gram")
       for side, arg in enumerate("XZ")},
    ("FittedModel", "basis_coordinates"): (2, lambda v: FittedModel(K, v, [0.0], LANDMARK_KERNEL)),
    ("FittedModel", "coefficients"): (1, lambda v: FittedModel(K, ROW, v, LANDMARK_KERNEL)),
    ("predict", "queries"): (2, lambda v: predict(MODEL, v)),
    ("decode_sign", "values"): (None, decode_sign),
    ("krr_fit", "inputs"): (2, lambda v: krr_fit(v, [1.0], K, 0.1)),
    ("krr_fit", "labels"): (1, lambda v: krr_fit(ROW, v, K, 0.1)),
    ("export_eigenvectors", "grid"): (2, lambda v: export_eigenvectors(DS, K, 2, 0.1, 1, v)),
    ("apply_filter", "x"): (None, lambda v: apply_filter(TIK, v)),
    ("filter_coefficients", "b"): (1, lambda v: filter_coefficients(gevd(I2, I2), TIK, v)),
    ("gevd", "A"): (2, lambda v: gevd(v, I2)),
    ("gevd", "B"): (2, lambda v: gevd(I2, v)),
    # gevd's reduction to standard form, labelled reduce_pencil, on a pencil
    # whose B factor and sygst are not the identity's: A and B are checked
    # before either is used
    ("reduce_pencil", "A"): (2, lambda v: gevd(v, B2)),
    ("reduce_pencil", "B"): (2, lambda v: gevd(B2, v)),
    ("PencilDecomposition.solve", "rhs"): (1, lambda v: gevd(I2, I2).solve(1.0, v)),
    ("pencil_solve", "A"): (2, lambda v: pencil_solve(v, I2, 1.0, np.ones(2))),
    ("pencil_solve", "B"): (2, lambda v: pencil_solve(I2, v, 1.0, np.ones(2))),
    ("pencil_solve", "rhs"): (1, lambda v: pencil_solve(I2, I2, 1.0, v)),
    ("assemble", "factor"): (2, lambda v: assemble(DS, K, [0, 1], 0.1, factor=v)),
}


def bad_values(ndim):
    """(case, value) pairs the rule refuses for an argument of ``ndim``
    dimensions; each is well-shaped but for its one defect."""
    def shaped(row):
        return [row] if ndim == 2 else row
    cases = [
        ("nan", shaped([math.nan, 0.0])),
        ("inf", shaped([0.0, math.inf])),
        ("ragged", [[0.0, 1.0], [0.0]]),
        ("strings", shaped(["1.0", "2.0"])),
        ("bools", shaped([True, False])),
    ]
    if ndim is not None:
        cases.append(("ndim", [0.0, 1.0] if ndim == 2 else [[0.0, 1.0]]))
    return cases


CASES = [pytest.param(call, name, value, id=f"{owner}-{name}-{case}")
         for (owner, name), (ndim, call) in CALLS.items()
         for case, value in bad_values(ndim)]


@pytest.mark.parametrize("call, name, value", CASES)
def test_bad_array_raises_invalid_argument_naming_it(call, name, value):
    with pytest.raises(InvalidArgumentError, match=f"^{name} "):
        call(value)


def test_model_kernel_must_be_gaussian():
    with pytest.raises(InvalidArgumentError, match="^kernel "):
        FittedModel("gaussian", ROW, [1.0], LANDMARK_KERNEL)


def test_valid_arrays_keep_their_results():
    # zero query rows are a valid array: an empty prediction
    assert predict(MODEL, np.zeros((0, 2))).shape == (0,)
    # integer arrays are numbers; a scalar filter argument stays a float
    assert decode_sign(np.array([3, -2])).tolist() == [1, -1]
    assert apply_filter(TIK, 1) == 0.5
