import hashlib
import math

import numpy as np
import pytest

from kerlap.errors import InvalidArgumentError
from kerlap.synthdata import (
    CirclesSpec,
    GaussianMixSpec,
    bayes_error,
    gen_circles_with_truth,
    gen_gaussian_mix_with_truth,
)


class TestCircles:
    def test_points_lie_on_circles(self):
        spec = CirclesSpec(n=200, n_labeled=4, seed=0)
        ds = gen_circles_with_truth(spec)[0]
        norms = np.linalg.norm(ds.inputs, axis=1)
        radii = np.array([1.0, 2.0, 3.0, 4.0])
        dist_to_circle = np.abs(norms[:, None] - radii[None, :]).min(axis=1)
        assert dist_to_circle.max() <= 1e-12

    def test_one_label_per_circle(self):
        spec = CirclesSpec(n=100, n_labeled=4, num_circles=4, seed=1)
        ds = gen_circles_with_truth(spec)[0]
        labeled_radii = np.linalg.norm(ds.inputs[:4], axis=1)
        assert sorted(np.round(labeled_radii).astype(int)) == [1, 2, 3, 4]

    def test_round_robin_extra_labels(self):
        spec = CirclesSpec(n=100, n_labeled=6, num_circles=4, seed=2)
        ds = gen_circles_with_truth(spec)[0]
        labeled_radii = np.round(np.linalg.norm(ds.inputs[:6], axis=1)).astype(int)
        counts = {r: (labeled_radii == r).sum() for r in (1, 2, 3, 4)}
        assert counts[1] == 2 and counts[2] == 2 and counts[3] == 1 and counts[4] == 1

    def test_alternating_labels(self):
        spec = CirclesSpec(n=80, n_labeled=4, seed=3)
        ds, truth = gen_circles_with_truth(spec)
        norms = np.round(np.linalg.norm(ds.inputs, axis=1)).astype(int)
        for r, expected in ((1, 1), (2, -1), (3, 1), (4, -1)):
            assert np.all(truth[norms == r] == expected)
        assert np.array_equal(ds.labels, truth[:4].astype(float))

    def test_deterministic(self):
        spec = CirclesSpec(n=60, n_labeled=4, seed=42)
        a, ta = gen_circles_with_truth(spec)
        b, tb = gen_circles_with_truth(spec)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(ta, tb)

    def test_equispaced_angles(self):
        spec = CirclesSpec(n=40, n_labeled=4, angles="equispaced", seed=4)
        ds = gen_circles_with_truth(spec)[0]
        norms = np.round(np.linalg.norm(ds.inputs, axis=1)).astype(int)
        inner = ds.inputs[norms == 1]
        angles = np.sort(np.arctan2(inner[:, 1], inner[:, 0]))
        gaps = np.diff(angles)
        assert np.allclose(gaps, gaps[0], atol=1e-9)

    def test_proportional_allocation(self):
        spec = CirclesSpec(n=1000, n_labeled=4, allocation="proportional", seed=5)
        ds = gen_circles_with_truth(spec)[0]
        norms = np.round(np.linalg.norm(ds.inputs, axis=1)).astype(int)
        counts = np.array([(norms == r).sum() for r in (1, 2, 3, 4)])
        assert counts.sum() == 1000
        assert np.allclose(counts / 1000, np.array([1, 2, 3, 4]) / 10.0, atol=0.01)

    def test_custom_radii(self):
        spec = CirclesSpec(n=40, n_labeled=4, inner_radius=2.0, radius_step=0.5, seed=6)
        ds = gen_circles_with_truth(spec)[0]
        norms = np.linalg.norm(ds.inputs, axis=1)
        assert set(np.round(norms, 6)) <= {2.0, 2.5, 3.0, 3.5}

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            CirclesSpec(n=10, n_labeled=2, num_circles=4)  # below per-circle coverage
        with pytest.raises(InvalidArgumentError):
            CirclesSpec(n=3, n_labeled=4, num_circles=4)
        with pytest.raises(InvalidArgumentError):
            CirclesSpec(n=10, n_labeled=4, inner_radius=-1.0)
        with pytest.raises(InvalidArgumentError):
            CirclesSpec(n=10, n_labeled=4, angles="spiral")


class TestGaussianMix:
    def test_per_class_mean(self):
        # law of large numbers: class means match the centers within 0.05
        spec = GaussianMixSpec(n=100_000, n_labeled=100_000, d=4, separation=3.0, seed=0)
        ds, truth = gen_gaussian_mix_with_truth(spec)
        pos = ds.inputs[truth == 1]
        neg = ds.inputs[truth == -1]
        assert np.max(np.abs(pos.mean(axis=0) - np.array([3.0, 0, 0, 0]))) < 0.05
        assert np.max(np.abs(neg.mean(axis=0))) < 0.05

    def test_labeled_prefix_and_balance(self):
        for seed in range(10):
            spec = GaussianMixSpec(n=50, n_labeled=5, d=3, separation=2.0, seed=seed)
            ds, truth = gen_gaussian_mix_with_truth(spec)
            assert ds.n_labeled == 5
            assert np.array_equal(ds.labels, truth[:5].astype(float))
            assert {-1, 1} <= set(ds.labels.astype(int))

    def test_balance_failure_raises(self):
        # two points of the same class can never produce a balanced labeled pair
        seed = next(
            s for s in range(100)
            if np.unique(np.random.default_rng(s).integers(0, 2, 2)).size == 1
        )
        with pytest.raises(InvalidArgumentError, match="both classes"):
            gen_gaussian_mix_with_truth(GaussianMixSpec(n=2, n_labeled=2, d=1, separation=1.0,
                                                        seed=seed))

    def test_deterministic(self):
        spec = GaussianMixSpec(n=200, n_labeled=20, d=5, seed=11)
        a = gen_gaussian_mix_with_truth(spec)[0]
        b = gen_gaussian_mix_with_truth(spec)[0]
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_separation_allowed(self):
        ds, _ = gen_gaussian_mix_with_truth(GaussianMixSpec(n=30, n_labeled=4, d=2, separation=0.0,
                                                            seed=1))
        assert ds.n == 30

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            GaussianMixSpec(n=10, n_labeled=0)
        with pytest.raises(InvalidArgumentError):
            GaussianMixSpec(n=10, n_labeled=11)
        with pytest.raises(InvalidArgumentError):
            GaussianMixSpec(n=10, n_labeled=2, separation=-1.0)


# The first 16 hex digits of the SHA-256 of each draw's inputs, labels and
# truth labels (dtype tag, then bytes): any change to a value, an order or
# the rng call sequence shows.  Gaussian seed 3 redraws its labeled pair
# five times; n_labeled = 1 skips the class balance.
PINNED = [
    (CirclesSpec(n=200, n_labeled=4, seed=0), "cf460993b3318689"),
    (CirclesSpec(n=2000, n_labeled=4, angles="equispaced", seed=3), "0da746fa6861606a"),
    (CirclesSpec(n=101, n_labeled=6, num_circles=3, allocation="proportional", seed=5),
     "107c5f76dbe71f7c"),
    (GaussianMixSpec(n=25, n_labeled=2, seed=1), "f8efd5acd2375a1e"),
    (GaussianMixSpec(n=25, n_labeled=2, seed=3), "47c8ea73e93491f1"),
    (GaussianMixSpec(n=400, n_labeled=40, seed=2), "e9658d96cb70ff8d"),
    (GaussianMixSpec(n=50, n_labeled=1, d=2, seed=3), "5728ef33eabca5d8"),
]


@pytest.mark.parametrize("spec, digest", PINNED)
def test_draws_are_pinned(spec, digest):
    gen = gen_circles_with_truth if isinstance(spec, CirclesSpec) else gen_gaussian_mix_with_truth
    ds, truth = gen(spec)
    h = hashlib.sha256()
    for a in (ds.inputs, ds.labels, truth):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    assert h.hexdigest()[:16] == digest


class TestBayesError:
    def test_delta_three(self):
        # Phi(-1.5) via the closed-form normal CDF
        assert bayes_error(3.0) == pytest.approx(0.0668072, abs=1e-6)

    def test_delta_zero_is_chance(self):
        assert bayes_error(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_matches_erf_formula(self):
        for delta in (0.5, 1.0, 2.0, 4.0):
            expected = 0.5 * (1 + math.erf(-delta / (2 * math.sqrt(2))))
            assert bayes_error(delta) == pytest.approx(expected, rel=1e-15)
