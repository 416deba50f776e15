"""Tests for MA time-series modelling (autocovariances, order identification, fitting)."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.radar import (
    MAModel,
    fit_ma_innovations,
    identify_ma_order,
    ljung_box,
    sample_autocorrelation,
    sample_autocovariance,
)


class TestSampleAutocovariance:
    def test_lag_zero_is_variance(self, rng):
        x = rng.normal(0, 2, size=5000)
        gammas = sample_autocovariance(x, 3)
        assert gammas[0] == pytest.approx(x.var(), rel=1e-9)

    def test_white_noise_has_small_higher_lags(self, rng):
        x = rng.normal(0, 1, size=20_000)
        gammas = sample_autocovariance(x, 5)
        assert np.all(np.abs(gammas[1:]) < 0.05)

    def test_autocorrelation_normalised(self, rng):
        x = rng.normal(0, 3, size=1000)
        rho = sample_autocorrelation(x, 4)
        assert rho[0] == pytest.approx(1.0)
        assert np.all(np.abs(rho) <= 1.0 + 1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_autocovariance([1.0], 0)
        with pytest.raises(ValueError):
            sample_autocovariance([1.0, 2.0, 3.0], 5)
        with pytest.raises(ValueError):
            sample_autocorrelation([2.0, 2.0, 2.0], 1)


class TestMAModel:
    def test_theoretical_autocovariances(self):
        model = MAModel(mean=0.0, coefficients=(0.5,), noise_std=2.0)
        # gamma_0 = sigma^2 (1 + b^2), gamma_1 = sigma^2 b, gamma_2 = 0.
        assert model.autocovariance(0) == pytest.approx(4.0 * 1.25)
        assert model.autocovariance(1) == pytest.approx(4.0 * 0.5)
        assert model.autocovariance(2) == 0.0
        assert model.order == 1

    def test_simulation_matches_theory(self, rng):
        model = MAModel(mean=5.0, coefficients=(0.6, 0.3), noise_std=1.0)
        series = model.simulate(60_000, rng=rng)
        assert series.mean() == pytest.approx(5.0, abs=0.05)
        gammas = sample_autocovariance(series, 3)
        assert gammas[0] == pytest.approx(model.autocovariance(0), rel=0.05)
        assert gammas[1] == pytest.approx(model.autocovariance(1), rel=0.1)
        assert abs(gammas[3]) < 0.05

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            MAModel(mean=0.0, coefficients=(), noise_std=0.0)


class TestOrderIdentification:
    def test_white_noise_identified_as_order_zero(self, rng):
        x = rng.normal(0, 1, size=5000)
        assert identify_ma_order(x, max_order=6) == 0

    def test_ma1_identified(self, rng):
        series = MAModel(0.0, (0.8,), 1.0).simulate(20_000, rng=rng)
        assert identify_ma_order(series, max_order=6) == 1

    def test_ma2_identified(self, rng):
        series = MAModel(0.0, (0.7, 0.5), 1.0).simulate(40_000, rng=rng)
        assert identify_ma_order(series, max_order=6) == 2

    def test_short_series_returns_zero(self):
        assert identify_ma_order([1.0, 2.0, 1.5], max_order=5) == 0


class TestInnovationsFit:
    def test_recovers_ma1_coefficient(self, rng):
        series = MAModel(2.0, (0.6,), 1.5).simulate(40_000, rng=rng)
        fitted = fit_ma_innovations(series, order=1)
        assert fitted.mean == pytest.approx(2.0, abs=0.05)
        assert fitted.coefficients[0] == pytest.approx(0.6, abs=0.1)
        assert fitted.noise_std == pytest.approx(1.5, rel=0.1)

    def test_fitted_model_reproduces_autocovariance(self, rng):
        series = MAModel(0.0, (0.5, 0.3), 1.0).simulate(40_000, rng=rng)
        fitted = fit_ma_innovations(series, order=2)
        empirical = sample_autocovariance(series, 2)
        assert fitted.autocovariance(1) == pytest.approx(empirical[1], abs=0.08)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            fit_ma_innovations([1.0, 2.0, 3.0], order=0)
        with pytest.raises(ValueError):
            fit_ma_innovations([1.0, 2.0, 3.0], order=5)


class TestLjungBox:
    def test_white_noise_not_rejected(self, rng):
        x = rng.normal(0, 1, size=5000)
        _, p = ljung_box(x, lags=10)
        assert p > 0.01

    def test_correlated_series_rejected(self, rng):
        series = MAModel(0.0, (0.9,), 1.0).simulate(5000, rng=rng)
        _, p = ljung_box(series, lags=10)
        assert p < 1e-6


class TestAgainstScipyStats:
    """The scipy.special replacements equal ``norm.ppf`` and ``chi2.sf``."""

    def test_identification_band_is_the_normal_quantile(self, rng):
        # Put the band z / sqrt(n) a relative 1e-9 either side of each
        # sample autocorrelation: the identified order flips exactly there
        # only if z is norm.ppf(1 - significance / 2).
        n, max_order = 400, 6
        for _ in range(5):
            series = MAModel(0.0, (0.3,), 1.0).simulate(n, rng=rng)
            rho = np.abs(sample_autocorrelation(series, max_order)[1:]) * math.sqrt(n)
            for c in rho:
                for z in (c * (1.0 - 1e-9), c * (1.0 + 1e-9)):
                    significance = 2.0 * stats.norm.sf(z)
                    band = stats.norm.ppf(1.0 - significance / 2.0)
                    above = np.nonzero(rho > band)[0]
                    expected = int(above[-1]) + 1 if above.size else 0
                    assert identify_ma_order(series, max_order, significance) == expected

    @pytest.mark.parametrize("lags", (1, 2, 5, 10, 30))
    def test_ljung_box_p_value_is_the_chi2_tail(self, lags, rng):
        for coefficient in (0.0, 0.3, 0.9):
            series = MAModel(0.0, (coefficient,), 1.0).simulate(2000, rng=rng)
            statistic, p = ljung_box(series, lags=lags)
            assert p == pytest.approx(stats.chi2.sf(statistic, df=lags), rel=1e-12, abs=1e-300)
