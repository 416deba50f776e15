"""Tests for particle (weighted sample) and histogram distributions."""

import math

import numpy as np
import pytest

from repro.distributions import (
    DistributionError,
    Gaussian,
    GaussianMixture,
    HistogramDistribution,
    ParticleDistribution,
    normalize_weights,
    weighted_mean_and_variance,
)


class TestParticleDistribution:
    def test_uniform_weights_by_default(self):
        p = ParticleDistribution([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(p.weights, 0.25)

    def test_weighted_mean_and_variance(self):
        p = ParticleDistribution([0.0, 10.0], [0.25, 0.75])
        assert p.mean() == pytest.approx(7.5)
        assert p.variance() == pytest.approx(0.25 * 7.5**2 + 0.75 * 2.5**2)

    def test_cdf_steps_at_atoms(self):
        p = ParticleDistribution([1.0, 2.0, 3.0])
        assert p.cdf(0.5) == 0.0
        assert p.cdf(1.5) == pytest.approx(1 / 3)
        assert p.cdf(3.5) == pytest.approx(1.0)

    def test_quantile_from_weighted_atoms(self):
        p = ParticleDistribution([5.0, 1.0, 3.0], [0.2, 0.5, 0.3])
        assert p.quantile(0.4) == pytest.approx(1.0)
        assert p.quantile(0.95) == pytest.approx(5.0)

    def test_effective_sample_size(self):
        uniform = ParticleDistribution([1.0, 2.0, 3.0, 4.0])
        assert uniform.effective_sample_size() == pytest.approx(4.0)
        degenerate = ParticleDistribution([1.0, 2.0], [1.0, 1e-12])
        assert degenerate.effective_sample_size() == pytest.approx(1.0, rel=1e-6)

    def test_resample_preserves_mean(self, rng):
        values = rng.normal(5.0, 2.0, size=400)
        weights = rng.random(400)
        p = ParticleDistribution(values, weights)
        resampled = p.resample(rng=rng)
        assert np.allclose(resampled.weights, 1.0 / 400)
        assert resampled.mean() == pytest.approx(p.mean(), abs=0.4)

    def test_compress_reduces_particle_count(self, rng):
        p = ParticleDistribution(rng.normal(size=500))
        small = p.compress(50, rng=rng)
        assert small.n_particles == 50
        assert p.compress(1000, rng=rng) is p

    def test_sampling_draws_existing_atoms(self, rng):
        p = ParticleDistribution([1.0, 2.0, 3.0])
        samples = p.sample(100, rng=rng)
        assert set(np.unique(samples)).issubset({1.0, 2.0, 3.0})

    def test_pdf_is_positive_near_atoms(self):
        p = ParticleDistribution([0.0, 1.0, 2.0])
        assert p.pdf(1.0) > 0.0

    def test_lazy_bandwidth_pdf_is_bit_identical_to_eager(self, rng):
        values = rng.normal(3.0, 2.0, size=60)
        weights = rng.random(60)
        p = ParticleDistribution(values, weights)
        assert p._bandwidth is None  # nothing computed until the KDE is used
        # The bandwidth exactly as the constructor used to compute it, eagerly.
        w = normalize_weights(weights)
        _, var = weighted_mean_and_variance(values, w)
        n_eff = float(1.0 / np.sum(w**2))
        bandwidth = 1.06 * math.sqrt(max(var, 1e-24)) * max(n_eff, 1.0) ** (-1.0 / 5.0) + 1e-12
        xs = np.linspace(-5.0, 11.0, 41)
        z = (xs[:, None] - values) / bandwidth
        expected = (np.exp(-0.5 * z * z) / (bandwidth * math.sqrt(2.0 * math.pi))) @ w
        np.testing.assert_array_equal(p.pdf(xs), expected)
        np.testing.assert_array_equal(p.pdf(xs), expected)  # cached
        assert p.support() == (values.min() - 4.0 * bandwidth, values.max() + 4.0 * bandwidth)

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(DistributionError):
            ParticleDistribution([])
        with pytest.raises(DistributionError):
            ParticleDistribution([1.0, 2.0], [1.0])


class TestHistogramDistribution:
    def test_pdf_normalised(self):
        h = HistogramDistribution([0.0, 1.0, 2.0], [3.0, 1.0])
        xs = np.linspace(0, 2, 2001)
        assert np.trapezoid(h.pdf(xs), xs) == pytest.approx(1.0, abs=1e-3)

    def test_pdf_zero_outside_support(self):
        h = HistogramDistribution([0.0, 1.0], [1.0])
        assert h.pdf(-0.1) == 0.0
        assert h.pdf(1.5) == 0.0

    def test_cdf_piecewise_linear(self):
        h = HistogramDistribution([0.0, 1.0, 2.0], [1.0, 1.0])
        assert h.cdf(0.5) == pytest.approx(0.25)
        assert h.cdf(1.0) == pytest.approx(0.5)
        assert h.cdf(2.0) == pytest.approx(1.0)

    def test_mean_and_variance_of_uniform_histogram(self):
        h = HistogramDistribution([0.0, 1.0], [1.0])
        assert h.mean() == pytest.approx(0.5)
        assert h.variance() == pytest.approx(1.0 / 12.0, rel=1e-6)

    def test_from_samples_recovers_gaussian_moments(self, rng):
        samples = rng.normal(3.0, 1.5, size=20_000)
        h = HistogramDistribution.from_samples(samples, n_bins=100)
        assert h.mean() == pytest.approx(3.0, abs=0.05)
        assert np.sqrt(h.variance()) == pytest.approx(1.5, abs=0.05)

    def test_from_distribution_close_to_source(self):
        g = Gaussian(0.0, 1.0)
        h = HistogramDistribution.from_distribution(g, n_bins=400)
        assert h.mean() == pytest.approx(0.0, abs=1e-2)
        assert h.variance() == pytest.approx(1.0, abs=2e-2)
        assert h.cdf(0.0) == pytest.approx(0.5, abs=1e-2)

    def test_sampling_within_support(self, rng):
        h = HistogramDistribution([0.0, 1.0, 2.0], [1.0, 3.0])
        samples = h.sample(2000, rng=rng)
        assert samples.min() >= 0.0
        assert samples.max() <= 2.0
        # Second bin has three times the density of the first.
        assert np.mean(samples > 1.0) == pytest.approx(0.75, abs=0.05)

    def test_bin_probabilities_sum_to_one(self):
        h = HistogramDistribution([0.0, 0.5, 1.5, 2.0], [0.5, 1.0, 2.0])
        assert h.bin_probabilities().sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GaussianMixture([math.nan, 1.0], [0.0, 1.0], [1.0, 1.0]),
            lambda: ParticleDistribution([1.0, 2.0], [math.nan, 1.0]),
            lambda: ParticleDistribution([1.0, 2.0], [math.inf, 1.0]),
            lambda: HistogramDistribution([0.0, math.nan, 2.0], [1.0, 1.0]),
            lambda: HistogramDistribution([0.0, 1.0, math.inf], [1.0, 1.0]),
        ],
        ids=["mixture-nan-weight", "particle-nan-weight", "particle-inf-weight",
             "histogram-nan-edge", "histogram-inf-edge"],
    )
    def test_rejects_non_finite_weights_and_edges(self, build):
        with pytest.raises(DistributionError, match="finite"):
            build()

    def test_rejects_bad_edges_and_densities(self):
        with pytest.raises(DistributionError):
            HistogramDistribution([0.0], [])
        with pytest.raises(DistributionError):
            HistogramDistribution([0.0, 0.0, 1.0], [1.0, 1.0])
        with pytest.raises(DistributionError):
            HistogramDistribution([0.0, 1.0], [-1.0])
        with pytest.raises(DistributionError):
            HistogramDistribution([0.0, 1.0], [0.0])
