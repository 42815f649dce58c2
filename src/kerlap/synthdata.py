"""Seeded generators for the two benchmark families: concentric circles and a
two-Gaussian mixture.

Both generators return a dataset whose labeled points occupy the leading rows
(the library-wide convention) and the ground-truth labels of every generated
point, in the dataset's row order, for transductive scoring.

Randomness comes from ``numpy.random.default_rng`` (PCG64); normal samples
use numpy's standard-normal transform.  A fixed seed fully determines the
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, integer, real
from .operators import SemiDataset

_BALANCE_RETRIES = 100


# the words CirclesSpec's ``angles`` and ``allocation`` take
ANGLES = ("uniform", "equispaced")
ALLOCATIONS = ("equal", "proportional")


@dataclass(frozen=True)
class CirclesSpec:
    """Concentric circles with alternating labels (+1 on the innermost).

    Points lie on ``num_circles`` circles of radii r, r + step, r + 2*step,
    ... (step defaults to r) with no radial noise.  Angles are drawn
    uniformly at random by default; ``angles="equispaced"`` places them on a
    regular grid with a random global rotation, which removes angular
    density fluctuations (the benchmark presets use this).  ``allocation``
    splits points equally per circle or proportionally to circumference.
    Exactly ``n_labeled`` labeled points are chosen round-robin over the
    circles, one random point per visit, so each circle is covered when
    n_labeled >= num_circles.
    """

    n: int
    n_labeled: int
    num_circles: int = 4
    inner_radius: float = 1.0
    radius_step: float | None = None
    angles: str = "uniform"
    allocation: str = "equal"
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n", 1), ("n_labeled", 1), ("num_circles", 1), ("seed", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), low))
        if self.n < self.num_circles:
            raise InvalidArgumentError("need at least one point per circle")
        if not self.num_circles <= self.n_labeled <= self.n:
            raise InvalidArgumentError(
                "n_labeled must satisfy num_circles <= n_labeled <= n "
                f"(got {self.n_labeled} with num_circles={self.num_circles}, n={self.n})"
            )
        radius = real("inner_radius", self.inner_radius)
        step = radius if self.radius_step is None else real("radius_step", self.radius_step)
        if self.angles not in ANGLES:
            raise InvalidArgumentError(f"unknown angles mode {self.angles!r}")
        if self.allocation not in ALLOCATIONS:
            raise InvalidArgumentError(f"unknown allocation mode {self.allocation!r}")
        object.__setattr__(self, "inner_radius", radius)
        object.__setattr__(self, "radius_step", step)


@dataclass(frozen=True)
class GaussianMixSpec:
    """Two spherical unit-variance Gaussians in dimension d.

    Class -1 is centered at the origin, class +1 at (separation, 0, ..., 0);
    each point picks its class with probability 1/2.  The labeled subset is a
    uniformly random subset, redrawn (up to a retry cap) until it contains
    both classes whenever n_labeled >= 2.
    """

    n: int
    n_labeled: int
    d: int = 10
    separation: float = 3.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n", 1), ("n_labeled", 1), ("d", 1), ("seed", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), low))
        object.__setattr__(self, "separation", real("separation", self.separation, closed=True))
        if self.n_labeled > self.n:
            raise InvalidArgumentError("n_labeled must satisfy 1 <= n_labeled <= n")


def bayes_error(separation: float) -> float:
    """Optimal classification error of the balanced two-Gaussian mixture.

    Projecting onto the center axis reduces the problem to two unit-variance
    Gaussians at distance ``separation``: the optimal rule errs with
    probability Phi(-separation/2).
    """
    separation = real("separation", separation, closed=True)
    return 0.5 * (1.0 + math.erf(-separation / (2.0 * math.sqrt(2.0))))


def _complement(n: int, chosen: np.ndarray) -> np.ndarray:
    """The indices in [0, n) not in ``chosen``, ascending."""
    free = np.ones(n, dtype=bool)
    free[chosen] = False
    return np.flatnonzero(free)


def gen_circles_with_truth(spec: CirclesSpec) -> tuple[SemiDataset, np.ndarray]:
    rng = np.random.default_rng(spec.seed)
    c = spec.num_circles
    radii = spec.inner_radius + spec.radius_step * np.arange(c)
    if spec.allocation == "proportional":
        sizes = np.floor(spec.n * radii / radii.sum()).astype(int)
        sizes = np.maximum(sizes, 1)
        order_fix = np.argsort(sizes)  # pad the smallest circles first
        for i in range(spec.n - sizes.sum()):
            sizes[order_fix[i % c]] += 1
        while sizes.sum() > spec.n:
            sizes[np.argmax(sizes)] -= 1
    else:
        sizes = np.full(c, spec.n // c)
        sizes[: spec.n % c] += 1

    points = np.empty((spec.n, 2))
    truth = np.empty(spec.n, dtype=np.int64)
    circle_of = np.empty(spec.n, dtype=np.int64)
    pos = 0
    for ci in range(c):
        radius = radii[ci]
        if spec.angles == "equispaced":
            angles = 2.0 * math.pi * (np.arange(sizes[ci]) + rng.uniform()) / sizes[ci]
        else:
            angles = rng.uniform(0.0, 2.0 * math.pi, sizes[ci])
        block = slice(pos, pos + sizes[ci])
        points[block, 0] = radius * np.cos(angles)
        points[block, 1] = radius * np.sin(angles)
        truth[block] = 1 if ci % 2 == 0 else -1
        circle_of[block] = ci
        pos += sizes[ci]

    # round-robin over circles, one random unused point per visit
    available = [list(np.flatnonzero(circle_of == ci)) for ci in range(c)]
    labeled_idx = []
    ci = 0
    while len(labeled_idx) < spec.n_labeled:
        pool = available[ci % c]
        if pool:
            pick = int(rng.integers(len(pool)))
            labeled_idx.append(pool.pop(pick))
        ci += 1
    labeled_idx = np.array(labeled_idx, dtype=np.int64)
    rng.shuffle(labeled_idx)
    rest = _complement(spec.n, labeled_idx)
    rng.shuffle(rest)
    order = np.concatenate([labeled_idx, rest])
    ds = SemiDataset(inputs=points[order], labels=truth[labeled_idx].astype(float))
    return ds, truth[order]


def gen_gaussian_mix_with_truth(spec: GaussianMixSpec) -> tuple[SemiDataset, np.ndarray]:
    rng = np.random.default_rng(spec.seed)
    classes = rng.integers(0, 2, spec.n) * 2 - 1
    points = rng.standard_normal((spec.n, spec.d))
    points[classes == 1, 0] += spec.separation

    chosen = None
    for _ in range(_BALANCE_RETRIES):
        candidate = rng.choice(spec.n, size=spec.n_labeled, replace=False)
        picked = classes[candidate]
        if spec.n_labeled < 2 or picked.min() != picked.max():
            chosen = candidate
            break
        if classes.min() == classes.max():
            break  # a single-class sample can never balance
    if chosen is None:
        raise InvalidArgumentError(
            "could not draw a labeled subset containing both classes "
            f"after {_BALANCE_RETRIES} attempts"
        )
    rest = _complement(spec.n, chosen)
    order = np.concatenate([chosen, rest])
    ds = SemiDataset(inputs=points[order], labels=classes[chosen].astype(float))
    return ds, classes[order].astype(np.int64)
