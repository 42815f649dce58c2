"""Exception types shared across the library, mapped to CLI exit codes, and
the one check of every parameter a caller passes in: ``real`` / ``integer``
for scalars, ``array`` for arrays, ``instance`` for the library's objects.
A scalar of the wrong type (a bool is no number), non-finite or out of
range, an array that is not numbers (a ragged nested list, strings, bools),
has the wrong number of dimensions or holds a non-finite entry, and an
object of the wrong class raise ``InvalidArgumentError`` naming the
parameter, which exits with code 2.  Checks that compare one argument with
another (matching lengths or dimensions) stay with the call that needs them.
``lapack_info`` is the one check of a LAPACK call's illegal-argument code.

Each array is checked once, where it enters the library: every public
entry checks its arguments, and ``fit`` calls its five steps through their
public entries.  Below that layer, the private cores
``GaussianKernel._gram``, ``GaussianKernel._blocks`` and
``PencilDecomposition._solve`` check nothing, and only ``_gram`` has a
checked twin, ``gram``.  They are given only arrays that a ``SemiDataset``,
a ``FittedModel`` or the entry that calls them has checked."""

import math
import numbers
import sys

import numpy as np

EXIT_OK = 0
EXIT_INVALID_ARGUMENT = 2
EXIT_NUMERICAL = 3
EXIT_RESOURCE = 4


class KerlapError(Exception):
    """Base class for all library errors."""

    exit_code = EXIT_NUMERICAL


class InvalidArgumentError(KerlapError, ValueError):
    """Caller passed inputs that violate a documented precondition."""

    exit_code = EXIT_INVALID_ARGUMENT


class SingularPencilError(KerlapError):
    """The second pencil matrix is not positive definite (even after jitter)."""

    exit_code = EXIT_NUMERICAL

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class NumericalConsistencyError(KerlapError):
    """A computed quantity failed a consistency check it is contracted to meet."""

    exit_code = EXIT_NUMERICAL


class ResourceLimitError(KerlapError):
    """A configured resource cap (e.g. the dense basis cap) was exceeded."""

    exit_code = EXIT_RESOURCE


def real(name: str, value, low=0.0, high=math.inf, closed=False) -> float:
    """``value`` as a float: a finite real above ``low`` (or at it when ``closed``), <= ``high``."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (value >= low if closed else value > low) and value <= high):
        return float(value)
    bound = f"{'>=' if closed else '>'} {low:g}" + (f" and <= {high:g}" if high < math.inf else "")
    raise InvalidArgumentError(f"{name} must be a finite real {bound}, got {value!r}")


def integer(name: str, value, low=1) -> int:
    """``value`` as an int: an integer (not a bool) of at least ``low``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low:
        return int(value)
    raise InvalidArgumentError(f"{name} must be an integer >= {low}, got {value!r}")


def array(name: str, value, ndim: int | None = None) -> np.ndarray:
    """``value`` as a float ndarray: integers or reals (not bools or strings),
    of ``ndim`` dimensions when given, every entry finite."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:  # a ragged nested list
        raise InvalidArgumentError(f"{name} must be an array of numbers: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise InvalidArgumentError(f"{name} must be an array of numbers, got dtype {arr.dtype}")
    if ndim is not None and arr.ndim != ndim:
        raise InvalidArgumentError(f"{name} must be {ndim}-d, got shape {arr.shape}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return arr


def lapack_info(routine: str, info: int) -> int:
    """``info`` as the LAPACK ``routine`` returned it; a negative one, an
    illegal value in argument -info, raises ``InvalidArgumentError``."""
    if info < 0:
        raise InvalidArgumentError(f"illegal value in {routine} argument {-info}")
    return info


def instance(name: str, value, cls):
    """``value`` itself, when it is a ``cls``."""
    if isinstance(value, cls):
        return value
    raise InvalidArgumentError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
