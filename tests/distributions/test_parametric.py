"""Tests for the uniform, exponential, and gamma distributions."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from repro.distributions import (
    DistributionError,
    Exponential,
    GammaDistribution,
    Gaussian,
    Uniform,
)


class TestUniform:
    def test_pdf_constant_inside_support(self):
        u = Uniform(2.0, 6.0)
        assert u.pdf(3.0) == pytest.approx(0.25)
        assert u.pdf(1.9) == 0.0
        assert u.pdf(6.1) == 0.0

    def test_cdf_linear(self):
        u = Uniform(0.0, 10.0)
        assert u.cdf(2.5) == pytest.approx(0.25)
        assert u.cdf(-1.0) == 0.0
        assert u.cdf(11.0) == 1.0

    def test_moments(self):
        u = Uniform(-1.0, 3.0)
        assert u.mean() == pytest.approx(1.0)
        assert u.variance() == pytest.approx(16.0 / 12.0)

    def test_quantile(self):
        u = Uniform(0.0, 8.0)
        assert u.quantile(0.5) == pytest.approx(4.0)
        assert u.quantile(0.125) == pytest.approx(1.0)

    def test_characteristic_function_at_zero(self):
        assert Uniform(0.0, 1.0).characteristic_function(0.0) == pytest.approx(1.0)

    def test_characteristic_function_matches_numeric(self):
        u = Uniform(-2.0, 5.0)
        t = 0.7
        xs = np.linspace(-2.0, 5.0, 40001)
        numeric = np.trapezoid(u.pdf(xs) * np.exp(1j * t * xs), xs)
        assert u.characteristic_function(t) == pytest.approx(numeric, abs=1e-6)

    def test_sampling_within_bounds(self, rng):
        u = Uniform(10.0, 12.0)
        samples = u.sample(1000, rng=rng)
        assert samples.min() >= 10.0
        assert samples.max() <= 12.0

    def test_shift_scale(self):
        u = Uniform(0.0, 2.0)
        assert u.shift(1.0).support() == (1.0, 3.0)
        assert u.scale(-1.0).support() == (-2.0, 0.0)

    def test_invalid_bounds(self):
        with pytest.raises(DistributionError):
            Uniform(3.0, 3.0)
        with pytest.raises(DistributionError):
            Uniform(5.0, 1.0)


class TestExponential:
    def test_moments(self):
        e = Exponential(0.5)
        assert e.mean() == pytest.approx(2.0)
        assert e.variance() == pytest.approx(4.0)

    def test_cdf_and_quantile_roundtrip(self):
        e = Exponential(1.5)
        for q in (0.1, 0.5, 0.95):
            assert e.cdf(e.quantile(q)) == pytest.approx(q)

    def test_pdf_zero_for_negative(self):
        assert Exponential(1.0).pdf(-0.5) == 0.0

    def test_characteristic_function_matches_numeric(self):
        e = Exponential(2.0)
        t = 1.3
        xs = np.linspace(0, 20, 200001)
        numeric = np.trapezoid(e.pdf(xs) * np.exp(1j * t * xs), xs)
        assert e.characteristic_function(t) == pytest.approx(numeric, abs=1e-4)

    def test_sampling_mean(self, rng):
        e = Exponential(0.25)
        assert e.sample(50_000, rng=rng).mean() == pytest.approx(4.0, rel=0.05)

    def test_invalid_rate(self):
        with pytest.raises(DistributionError):
            Exponential(0.0)
        with pytest.raises(DistributionError):
            Exponential(-1.0)


class TestGamma:
    def test_moments(self):
        g = GammaDistribution(3.0, 2.0)
        assert g.mean() == pytest.approx(6.0)
        assert g.variance() == pytest.approx(12.0)

    def test_pdf_integrates_to_one(self):
        g = GammaDistribution(2.5, 1.5)
        xs = np.linspace(0, 60, 60001)
        assert np.trapezoid(g.pdf(xs), xs) == pytest.approx(1.0, abs=1e-4)

    def test_mode(self):
        assert GammaDistribution(3.0, 2.0).mode() == pytest.approx(4.0)
        assert GammaDistribution(0.5, 1.0).mode() == 0.0

    def test_skewness_decreases_with_shape(self):
        assert GammaDistribution(1.0, 1.0).skewness() > GammaDistribution(10.0, 1.0).skewness()

    def test_characteristic_function_matches_numeric(self):
        g = GammaDistribution(4.0, 0.5)
        t = 0.9
        xs = np.linspace(0, 30, 100001)
        numeric = np.trapezoid(g.pdf(xs) * np.exp(1j * t * xs), xs)
        assert g.characteristic_function(t) == pytest.approx(numeric, abs=1e-5)

    def test_quantile_cdf_roundtrip(self):
        g = GammaDistribution(2.0, 3.0)
        for q in (0.05, 0.5, 0.99):
            assert g.cdf(g.quantile(q)) == pytest.approx(q, abs=1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(DistributionError):
            GammaDistribution(0.0, 1.0)
        with pytest.raises(DistributionError):
            GammaDistribution(1.0, -2.0)


# Shape below, at and above one: the density is infinite, finite and zero at x = 0.
GAMMA_SHAPES = (0.3, 1.0, 2.5, 40.0)
GAMMA_SCALES = (0.2, 1.0, 3.7)
GAMMA_GRID = np.concatenate(
    [np.linspace(-2.0, 60.0, 1000), [-np.inf, -1e-300, 0.0, 1e-300, 1e300, np.inf, np.nan]]
)


def assert_matches_reference(mine, ref, rtol=1e-12):
    """``mine`` equals ``ref`` to ``rtol`` (relative where large), NaNs and infinities exactly."""
    mine, ref = np.asarray(mine), np.asarray(ref)
    assert np.array_equal(np.isnan(mine), np.isnan(ref))
    finite = np.isfinite(ref)
    assert np.array_equal(mine[~finite], ref[~finite], equal_nan=True)
    err = np.abs(mine[finite] - ref[finite]) / np.maximum(1.0, np.abs(ref[finite]))
    assert err.max(initial=0.0) <= rtol


def with_limit_at_inf(ref, limit):
    """``ref`` over ``GAMMA_GRID`` with the x = +inf point set to the density's limit.

    ``scipy.stats.gamma`` returns NaN there for shape > 1 (inf - inf in
    its log-density); the limit is 0 (log: -inf) for every shape.
    """
    out = np.array(ref, dtype=float)
    out[GAMMA_GRID == np.inf] = limit
    return out


class TestGammaAgainstScipyStats:
    """The scipy.special formulas reproduce ``scipy.stats.gamma`` on a grid."""

    @pytest.fixture(params=[(k, theta) for k in GAMMA_SHAPES for theta in GAMMA_SCALES])
    def pair(self, request):
        k, theta = request.param
        return GammaDistribution(k, theta), stats.gamma(a=k, scale=theta)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_pdf(self, pair):
        mine, ref = pair
        assert_matches_reference(mine.pdf(GAMMA_GRID), with_limit_at_inf(ref.pdf(GAMMA_GRID), 0.0))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_log_pdf(self, pair):
        mine, ref = pair
        assert_matches_reference(
            mine.log_pdf(GAMMA_GRID), with_limit_at_inf(ref.logpdf(GAMMA_GRID), -np.inf)
        )

    def test_cdf(self, pair):
        mine, ref = pair
        assert_matches_reference(mine.cdf(GAMMA_GRID), ref.cdf(GAMMA_GRID))

    def test_quantile(self, pair):
        mine, ref = pair
        levels = np.linspace(1e-6, 1.0 - 1e-6, 1000)
        assert_matches_reference([mine.quantile(q) for q in levels], ref.ppf(levels))

    def test_support(self, pair):
        mine, ref = pair
        lo, hi = mine.support()
        assert lo == 0.0 == ref.support()[0]
        assert_matches_reference(hi, ref.ppf(1.0 - 1e-12))

    def test_scalar_in_scalar_out(self, pair):
        mine, ref = pair
        pairs = ((mine.pdf, ref.pdf), (mine.cdf, ref.cdf), (mine.log_pdf, ref.logpdf))
        for method, reference in pairs:
            out = method(1.5)
            assert isinstance(out, float)
            assert_matches_reference(out, reference(1.5))

    def test_own_evaluation_is_warning_free(self, pair):
        mine, _ = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mine.pdf(GAMMA_GRID)
            mine.log_pdf(GAMMA_GRID)
            mine.cdf(GAMMA_GRID)


class TestScalarParameterChecks:
    """The constructors' finiteness checks on Python floats, numpy scalars and 0-d arrays."""

    BAD = (float("nan"), float("inf"), -float("inf"))

    @pytest.mark.parametrize("bad", BAD)
    def test_non_finite_parameters_raise(self, bad):
        for build in (
            lambda: Gaussian(bad, 1.0),
            lambda: Gaussian(0.0, bad),
            lambda: Exponential(bad),
            lambda: Uniform(bad, 1.0),
            lambda: Uniform(0.0, bad),
            lambda: GammaDistribution(bad, 1.0),
            lambda: GammaDistribution(1.0, bad),
        ):
            with pytest.raises(DistributionError):
                build()

    @pytest.mark.parametrize("sigma", (0.0, -1.0))
    def test_non_positive_scale_raises_with_the_same_message(self, sigma):
        with pytest.raises(DistributionError, match="Gaussian sigma must be positive and finite"):
            Gaussian(0.0, sigma)
        with pytest.raises(DistributionError, match="exponential rate must be positive and finite"):
            Exponential(sigma)
        with pytest.raises(DistributionError, match="gamma shape must be positive and finite"):
            GammaDistribution(sigma, 1.0)
        with pytest.raises(DistributionError, match="gamma scale must be positive and finite"):
            GammaDistribution(1.0, sigma)

    def test_messages_for_non_finite_location_and_bounds(self):
        with pytest.raises(DistributionError, match="Gaussian mean must be finite"):
            Gaussian(math.nan, 1.0)
        with pytest.raises(DistributionError, match="uniform bounds must be finite"):
            Uniform(0.0, math.inf)

    @pytest.mark.parametrize("wrap", (np.float64, np.float32, np.int64, np.array))
    def test_numpy_scalars_and_zero_d_arrays_accepted(self, wrap):
        g = Gaussian(wrap(2.0), wrap(3.0))
        assert (g.mu, g.sigma) == (2.0, 3.0)
        assert type(g.mu) is float and type(g.sigma) is float
        assert Exponential(wrap(2.0)).lam == 2.0
        assert Uniform(wrap(1.0), wrap(4.0)).support() == (1.0, 4.0)
        gamma = GammaDistribution(wrap(2.0), wrap(3.0))
        assert (gamma.shape, gamma.scale_param) == (2.0, 3.0)
