"""Tests for Gaussian mixtures, EM fitting, and AIC/BIC model selection."""

import math

import numpy as np
import pytest
from scipy.special import erf

from repro.distributions import (
    DistributionError,
    Gaussian,
    GaussianMixture,
    fit_gmm_em,
    select_components,
)


def old_mixture_cdf(mix, xs):
    comp = 0.5 * (1.0 + erf((xs[:, None] - mix.means) / (mix.sigmas * math.sqrt(2.0))))
    return comp @ mix.weights


class TestGaussianMixture:
    def test_weights_are_normalised(self):
        mix = GaussianMixture([2.0, 2.0], [0.0, 10.0], [1.0, 1.0])
        assert np.allclose(mix.weights, [0.5, 0.5])

    def test_pdf_is_weighted_sum_of_components(self):
        mix = GaussianMixture([0.3, 0.7], [0.0, 5.0], [1.0, 2.0])
        x = 1.7
        expected = 0.3 * Gaussian(0.0, 1.0).pdf(x) + 0.7 * Gaussian(5.0, 2.0).pdf(x)
        assert mix.pdf(x) == pytest.approx(expected)

    def test_pdf_integrates_to_one(self):
        mix = GaussianMixture([0.5, 0.5], [-3.0, 3.0], [1.0, 0.5])
        xs = np.linspace(-20, 20, 40001)
        assert np.trapezoid(mix.pdf(xs), xs) == pytest.approx(1.0, abs=1e-6)

    def test_mean_and_variance_formulas(self):
        mix = GaussianMixture([0.4, 0.6], [0.0, 10.0], [1.0, 2.0])
        assert mix.mean() == pytest.approx(6.0)
        expected_var = 0.4 * (1.0 + 0.0) + 0.6 * (4.0 + 100.0) - 36.0
        assert mix.variance() == pytest.approx(expected_var)

    def test_cdf_monotone(self):
        mix = GaussianMixture([0.5, 0.5], [0.0, 8.0], [1.0, 1.0])
        xs = np.linspace(-5, 13, 200)
        cdf = mix.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_cdf_bit_identical_to_inline_erf_formula(self, rng):
        # The mixture CDF is gaussian_cdf per component; it must equal the
        # erf expression it replaced bit for bit, scalar and array inputs.
        for _ in range(50):
            k = int(rng.integers(1, 9))
            mix = GaussianMixture(
                rng.uniform(0.05, 1.0, k), rng.normal(0.0, 50.0, k), rng.uniform(0.01, 20.0, k)
            )
            xs = rng.normal(0.0, 80.0, 64)
            assert np.array_equal(mix.cdf(xs), old_mixture_cdf(mix, xs))
            assert mix.cdf(float(xs[0])) == float(old_mixture_cdf(mix, xs[:1])[0])

    def test_characteristic_function_at_zero(self):
        mix = GaussianMixture([0.5, 0.5], [1.0, -1.0], [2.0, 0.3])
        assert mix.characteristic_function(0.0) == pytest.approx(1.0)

    def test_sampling_matches_mean(self, rng):
        mix = GaussianMixture([0.25, 0.75], [0.0, 4.0], [1.0, 1.0])
        samples = mix.sample(50_000, rng=rng)
        assert samples.mean() == pytest.approx(3.0, abs=0.05)

    def test_single_component_wraps_gaussian(self):
        g = Gaussian(2.0, 0.5)
        mix = GaussianMixture.single(g)
        assert mix.n_components == 1
        assert mix.mean() == pytest.approx(2.0)
        assert mix.pdf(2.3) == pytest.approx(g.pdf(2.3))

    def test_from_components(self):
        mix = GaussianMixture.from_components([(0.2, Gaussian(0, 1)), (0.8, Gaussian(5, 2))])
        assert mix.n_components == 2
        assert mix.mean() == pytest.approx(4.0)

    def test_convolve_gaussian(self):
        mix = GaussianMixture([0.5, 0.5], [0.0, 10.0], [1.0, 2.0])
        shifted = mix.convolve_gaussian(Gaussian(3.0, 4.0))
        assert shifted.mean() == pytest.approx(mix.mean() + 3.0)
        assert shifted.variance() == pytest.approx(mix.variance() + 16.0)

    def test_convolve_mixtures_component_count(self):
        a = GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, 1.0])
        b = GaussianMixture([0.3, 0.3, 0.4], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        c = a.convolve(b)
        assert c.n_components == 6
        assert c.mean() == pytest.approx(a.mean() + b.mean())
        assert c.variance() == pytest.approx(a.variance() + b.variance(), rel=1e-9)

    def test_shift_scale(self):
        mix = GaussianMixture([0.5, 0.5], [0.0, 2.0], [1.0, 1.0])
        assert mix.shift(5.0).mean() == pytest.approx(6.0)
        assert mix.scale(2.0).variance() == pytest.approx(4.0 * mix.variance())

    def test_invalid_construction(self):
        with pytest.raises(DistributionError):
            GaussianMixture([], [], [])
        with pytest.raises(DistributionError):
            GaussianMixture([1.0], [0.0], [0.0])
        with pytest.raises(DistributionError):
            GaussianMixture([1.0, 1.0], [0.0], [1.0])


class TestEMFitting:
    def test_single_component_fit_matches_moments(self, rng):
        data = rng.normal(3.0, 2.0, size=2000)
        mix = fit_gmm_em(data, 1)
        assert mix.mean() == pytest.approx(data.mean(), abs=1e-9)
        assert mix.variance() == pytest.approx(data.var(), rel=1e-6)

    def test_recovers_two_well_separated_modes(self, rng):
        data = np.concatenate([rng.normal(-10.0, 1.0, 1500), rng.normal(10.0, 1.0, 500)])
        mix = fit_gmm_em(data, 2, rng=rng)
        means = np.sort(mix.means)
        assert means[0] == pytest.approx(-10.0, abs=0.3)
        assert means[1] == pytest.approx(10.0, abs=0.5)
        weights = mix.weights[np.argsort(mix.means)]
        assert weights[0] == pytest.approx(0.75, abs=0.05)

    def test_weighted_fit_respects_weights(self, rng):
        # Two atoms; weights heavily favour the first.
        data = np.concatenate([rng.normal(0.0, 0.5, 500), rng.normal(20.0, 0.5, 500)])
        weights = np.concatenate([np.full(500, 9.0), np.full(500, 1.0)])
        mix = fit_gmm_em(data, 1, weights=weights)
        assert mix.mean() == pytest.approx(2.0, abs=0.3)

    def test_em_increases_likelihood_over_initial(self, rng):
        data = np.concatenate([rng.normal(-4, 1, 300), rng.normal(4, 1, 300)])
        fitted = fit_gmm_em(data, 2, rng=rng)
        naive = GaussianMixture([0.5, 0.5], [data.mean(), data.mean()], [data.std(), data.std()])
        assert fitted.log_likelihood(data) >= naive.log_likelihood(data)

    def test_rejects_empty_data(self):
        with pytest.raises(DistributionError):
            fit_gmm_em([], 2)


class TestModelSelection:
    def test_selects_one_component_for_unimodal_data(self, rng):
        data = rng.normal(0.0, 1.0, size=800)
        mix = select_components(data, max_components=3, rng=rng)
        assert mix.n_components == 1

    def test_selects_two_components_for_bimodal_data(self, rng):
        data = np.concatenate([rng.normal(-8, 1, 400), rng.normal(8, 1, 400)])
        mix = select_components(data, max_components=3, rng=rng)
        assert mix.n_components >= 2

    def test_aic_and_bic_prefer_true_model(self, rng):
        data = np.concatenate([rng.normal(-8, 1, 400), rng.normal(8, 1, 400)])
        one = fit_gmm_em(data, 1, rng=rng)
        two = fit_gmm_em(data, 2, rng=rng)
        assert two.bic(data) < one.bic(data)
        assert two.aic(data) < one.aic(data)

    def test_invalid_criterion_rejected(self):
        with pytest.raises(ValueError):
            select_components([1.0, 2.0, 3.0], criterion="dic")
