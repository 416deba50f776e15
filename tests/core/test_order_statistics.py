"""Tests for order-statistics MAX/MIN result distributions."""

import numpy as np
import pytest

from repro.core import max_distribution, min_distribution
from repro.distributions import DistributionError, Gaussian, Uniform


class TestMaxDistribution:
    def test_single_input_returns_same_distribution(self):
        g = Gaussian(2.0, 1.0)
        result = max_distribution([g])
        assert result.mean() == pytest.approx(2.0, abs=0.02)
        assert result.variance() == pytest.approx(1.0, rel=0.05)

    def test_max_of_iid_uniforms_matches_theory(self):
        # Max of two U(0,1) has mean 2/3 and cdf x^2.
        result = max_distribution([Uniform(0, 1), Uniform(0, 1)], n_points=4096)
        assert result.mean() == pytest.approx(2.0 / 3.0, abs=0.01)
        assert result.cdf(0.5) == pytest.approx(0.25, abs=0.02)

    def test_max_of_separated_gaussians_tracks_larger(self):
        result = max_distribution([Gaussian(0.0, 1.0), Gaussian(20.0, 1.0)])
        assert result.mean() == pytest.approx(20.0, abs=0.1)

    def test_max_of_iid_gaussians_exceeds_common_mean(self, rng):
        dists = [Gaussian(0.0, 1.0) for _ in range(5)]
        result = max_distribution(dists)
        samples = rng.normal(0.0, 1.0, size=(50_000, 5)).max(axis=1)
        assert result.mean() == pytest.approx(samples.mean(), abs=0.05)

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            max_distribution([])


class TestMinDistribution:
    def test_min_of_iid_uniforms_matches_theory(self):
        result = min_distribution([Uniform(0, 1), Uniform(0, 1)], n_points=4096)
        assert result.mean() == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_min_of_separated_gaussians_tracks_smaller(self):
        result = min_distribution([Gaussian(0.0, 1.0), Gaussian(20.0, 1.0)])
        assert result.mean() == pytest.approx(0.0, abs=0.1)

    def test_min_max_symmetry_for_symmetric_inputs(self):
        dists = [Gaussian(0.0, 1.0) for _ in range(3)]
        mx = max_distribution(dists)
        mn = min_distribution(dists)
        assert mx.mean() == pytest.approx(-mn.mean(), abs=0.05)

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            min_distribution([])


# Inputs narrower than a bin next to wide ones: sampling the density at
# the bins' left edges aliased the narrow inputs (the first case's MAX
# mean came out 2.1 below the truth at 512 points).
NARROW_AND_WIDE = [
    [(-149.0, 24.0), (-195.0, 0.125), (-358.0, 6.625)],
    [(0.0, 50.0), (10.0, 0.1)],
    [(5.0, 0.2), (5.3, 0.05), (-100.0, 30.0)],
    [(-3.0, 0.01), (40.0, 12.0), (-60.0, 0.3), (7.0, 2.0)],
]


@pytest.mark.parametrize("params", NARROW_AND_WIDE)
@pytest.mark.parametrize("order", ["max", "min"])
def test_order_statistic_mean_matches_monte_carlo_within_half_a_bin(params, order):
    function, reduce = {"max": (max_distribution, np.max), "min": (min_distribution, np.min)}[order]
    result = function([Gaussian(mu, sigma) for mu, sigma in params], n_points=512)
    rng = np.random.default_rng(17)
    samples = reduce([rng.normal(mu, sigma, 400_000) for mu, sigma in params], axis=0)
    standard_error = samples.std() / np.sqrt(samples.size)
    half_bin = (result.edges[1] - result.edges[0]) / 2
    assert abs(result.mean() - samples.mean()) <= half_bin + 4 * standard_error
