"""Result-distribution strategies for SUM aggregation over uncertain tuples.

Section 5.1 of the paper compares several ways of characterising the
distribution of ``S = X_1 + ... + X_N`` when the ``X_i`` are
independent continuous random variables carried by stream tuples:

* **CF inversion** -- exact: the CF of the sum is the product of the
  summand CFs; a single (numerical) inversion integral recovers the
  result density.
* **CF approximation** -- fit a Gaussian or Gaussian mixture to the
  closed-form product CF; no inversion integral at all.  The paper's
  Table 2 shows this achieves the best speed/accuracy balance.
* **Histogram-based sampling** -- the Ge & Zdonik baseline: discretise
  each input distribution and sample from the discretised versions.
* **Pairwise convolution** -- the Cheng et al. baseline using ``N - 1``
  numerical convolution integrals.
* **Central Limit Theorem** -- a zero-cost Gaussian approximation using
  only the summand means and variances.
* **Monte Carlo** -- direct sampling from the continuous inputs.

All strategies implement :class:`SumStrategy`, so operators and
benchmarks can swap them freely.
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np

from repro.distributions import (
    Distribution,
    DistributionError,
    Gaussian,
    HistogramDistribution,
    SumCharacteristicFunction,
    as_rng,
    convolve_sequence,
    fit_gaussian_to_cf,
    fit_mixture_to_cf,
    invert_cf_to_histogram,
)
from repro.streams.operators.base import OperatorError

__all__ = [
    "SumStrategy",
    "CFInversionSum",
    "CFApproximationSum",
    "HistogramSamplingSum",
    "MonteCarloSum",
    "CLTSum",
    "ConvolutionSum",
    "TimeSeriesCLTSum",
    "strategy_by_name",
]


class SumStrategy(abc.ABC):
    """Strategy interface: characterise the distribution of a sum."""

    #: Human-readable name used in benchmark tables.
    name: str = "abstract"

    @abc.abstractmethod
    def result_distribution(self, summands: Sequence[Distribution]) -> Distribution:
        """Return the distribution of the sum of independent ``summands``."""

    @property
    def supports_moments(self) -> bool:
        """True when the result depends only on the summand means/variances.

        Strategies with this property expose
        :meth:`result_from_moments`, which returns
        ``Gaussian(mean, sqrt(variance))``; this lets batch-mode
        aggregation reduce every window's moments as numpy column sums
        instead of walking the summand objects per tuple.
        """
        return False

    def result_from_moments(self, mean: float, variance: float) -> Distribution:
        """Return the sum distribution from precomputed total moments."""
        raise NotImplementedError(f"{type(self).__name__} cannot work from moments alone")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"


def _check_summands(
    summands: Sequence[Distribution], attribute: str = "summand"
) -> Sequence[Distribution]:
    """Refuse an empty window and any summand that is not one-dimensional."""
    summands = list(summands)
    if not summands:
        raise DistributionError("cannot aggregate an empty window")
    for dist in summands:
        if dist.ndim != 1:
            raise OperatorError(
                f"cannot sum attribute {attribute!r}: {type(dist).__name__} is "
                f"{dist.ndim}-dimensional, and SUM/AVG take scalar summands"
            )
    return summands


class CFInversionSum(SumStrategy):
    """Exact result distribution via characteristic-function inversion.

    The product of the summand CFs is inverted numerically on a grid
    (one quadrature per window), yielding the exact result density up
    to discretisation.  This is the "CF (inversion)" row of Table 2:
    exact but comparatively slow.
    """

    name = "cf_inversion"

    def __init__(self, n_bins: int = 256, n_frequencies: int = 2048):
        self.n_bins = n_bins
        self.n_frequencies = n_frequencies

    def result_distribution(self, summands: Sequence[Distribution]) -> Distribution:
        summands = _check_summands(summands)
        cf = SumCharacteristicFunction(summands)
        return invert_cf_to_histogram(
            cf, n_bins=self.n_bins, n_frequencies=self.n_frequencies
        )


class CFApproximationSum(SumStrategy):
    """Approximate the product CF with a Gaussian or Gaussian mixture.

    With ``n_components == 1`` the fit reduces to matching the first two
    cumulants of the sum (closed form, no optimisation), which is the
    configuration used for Table 2.  With more components, a small
    least-squares fit against the product CF captures skewed or
    multi-modal sums.
    """

    name = "cf_approx"

    def __init__(self, n_components: int = 1, n_frequencies: int = 64):
        if n_components < 1:
            raise ValueError("n_components must be at least 1")
        self.n_components = n_components
        self.n_frequencies = n_frequencies

    def result_distribution(self, summands: Sequence[Distribution]) -> Distribution:
        summands = _check_summands(summands)
        cf = SumCharacteristicFunction(summands)
        if self.n_components == 1:
            return fit_gaussian_to_cf(cf)
        return fit_mixture_to_cf(
            cf, n_components=self.n_components, n_frequencies=self.n_frequencies
        )

    @property
    def supports_moments(self) -> bool:
        # The single-component fit matches the first two cumulants of
        # the sum, which are exactly the summed means and variances;
        # multi-component fits need the full product CF.
        return self.n_components == 1

    def result_from_moments(self, mean: float, variance: float) -> Distribution:
        if self.n_components != 1:
            raise NotImplementedError("multi-component CF fits need the full summand CFs")
        if not np.isfinite(mean) or not np.isfinite(variance) or variance <= 0:
            raise DistributionError("cannot fit a Gaussian to non-finite or non-positive moments")
        return Gaussian(mean, math.sqrt(variance))


class HistogramSamplingSum(SumStrategy):
    """Histogram-based sampling baseline (Ge & Zdonik style).

    Each input distribution is discretised into an equal-width
    histogram; the sum distribution is then estimated by drawing joint
    samples from the discretised inputs and histogramming the sampled
    sums.  Accuracy is limited both by the per-input discretisation and
    by the sampling noise, which is what Table 2 reflects.
    """

    name = "histogram"

    def __init__(
        self,
        bins_per_input: int = 32,
        n_samples: int = 512,
        result_bins: int = 128,
        rng: np.random.Generator | int | None = None,
    ):
        if bins_per_input < 2:
            raise ValueError("bins_per_input must be at least 2")
        if n_samples < 16:
            raise ValueError("n_samples must be at least 16")
        self.bins_per_input = bins_per_input
        self.n_samples = n_samples
        self.result_bins = result_bins
        self._rng = as_rng(rng)

    def result_distribution(self, summands: Sequence[Distribution]) -> Distribution:
        summands = _check_summands(summands)
        totals = np.zeros(self.n_samples)
        for dist in summands:
            hist = (
                dist
                if isinstance(dist, HistogramDistribution)
                else HistogramDistribution.from_distribution(dist, n_bins=self.bins_per_input)
            )
            totals += hist.sample(self.n_samples, rng=self._rng)
        return HistogramDistribution.from_samples(totals, n_bins=self.result_bins)


class MonteCarloSum(SumStrategy):
    """Direct Monte-Carlo estimate of the sum distribution.

    Samples each summand from its continuous distribution (no
    discretisation) and histogram the sums.  Used as a sanity baseline
    and in property tests.
    """

    name = "monte_carlo"

    def __init__(
        self,
        n_samples: int = 2048,
        result_bins: int = 128,
        rng: np.random.Generator | int | None = None,
    ):
        if n_samples < 16:
            raise ValueError("n_samples must be at least 16")
        self.n_samples = n_samples
        self.result_bins = result_bins
        self._rng = as_rng(rng)

    def result_distribution(self, summands: Sequence[Distribution]) -> Distribution:
        summands = _check_summands(summands)
        totals = np.zeros(self.n_samples)
        for dist in summands:
            totals += np.asarray(dist.sample(self.n_samples, rng=self._rng), dtype=float)
        return HistogramDistribution.from_samples(totals, n_bins=self.result_bins)


class CLTSum(SumStrategy):
    """Central Limit Theorem approximation for independent summands.

    When the number of effective summands is large, the sum converges
    to a Gaussian regardless of the summand shapes; the only work is
    adding up means and variances, so "the computation cost for the
    result distribution is almost zero" (Section 5.1).
    """

    name = "clt"

    def result_distribution(self, summands: Sequence[Distribution]) -> Distribution:
        summands = _check_summands(summands)
        mean = float(sum(float(np.asarray(d.mean()).ravel()[0]) for d in summands))
        variance = float(sum(float(np.asarray(d.variance()).ravel()[0]) for d in summands))
        return self.result_from_moments(mean, variance)

    @property
    def supports_moments(self) -> bool:
        return True

    def result_from_moments(self, mean: float, variance: float) -> Distribution:
        if variance <= 0:
            raise DistributionError("CLT approximation requires positive total variance")
        return Gaussian(mean, math.sqrt(variance))


class ConvolutionSum(SumStrategy):
    """Pairwise numerical convolution baseline (``N - 1`` integrals).

    This is the integral-based approach of Cheng et al. that the paper
    deems infeasible for stream processing; it is provided as a
    correctness oracle for small windows and for the ablation
    benchmarks.
    """

    name = "convolution"

    def __init__(self, n_points: int = 256, max_bins: int = 2048):
        self.n_points = n_points
        self.max_bins = max_bins

    def result_distribution(self, summands: Sequence[Distribution]) -> Distribution:
        summands = _check_summands(summands)
        return convolve_sequence(summands, n_points=self.n_points, max_bins=self.max_bins)


class TimeSeriesCLTSum(SumStrategy):
    """CLT for sums of *correlated* summands forming an MA-type series.

    For a (weakly stationary) moving-average series, the sum of ``n``
    consecutive values is asymptotically Gaussian with

    ``mean = n * mu`` and
    ``variance = n * (gamma_0 + 2 * sum_k (1 - k/n) * gamma_k)``

    where ``gamma_k`` is the lag-``k`` autocovariance (Section 5.1,
    "Correlated variables").  Autocovariances can be supplied from a
    fitted model or estimated from the realised series by
    :mod:`repro.radar.timeseries`.
    """

    name = "timeseries_clt"

    def __init__(self, autocovariances: Sequence[float]):
        gammas = np.asarray(autocovariances, dtype=float)
        if gammas.size == 0:
            raise ValueError("at least the lag-0 autocovariance is required")
        if gammas[0] <= 0:
            raise ValueError("lag-0 autocovariance (variance) must be positive")
        self.autocovariances = gammas

    def result_distribution(self, summands: Sequence[Distribution]) -> Distribution:
        summands = _check_summands(summands)
        n = len(summands)
        mean = float(sum(float(np.asarray(d.mean()).ravel()[0]) for d in summands))
        gamma0 = float(self.autocovariances[0])
        variance = n * gamma0
        max_lag = min(len(self.autocovariances) - 1, n - 1)
        for lag in range(1, max_lag + 1):
            variance += 2.0 * (n - lag) * float(self.autocovariances[lag])
        variance = max(variance, 1e-12)
        return Gaussian(mean, math.sqrt(variance))


_STRATEGIES = {
    CFInversionSum.name: CFInversionSum,
    CFApproximationSum.name: CFApproximationSum,
    HistogramSamplingSum.name: HistogramSamplingSum,
    MonteCarloSum.name: MonteCarloSum,
    CLTSum.name: CLTSum,
    ConvolutionSum.name: ConvolutionSum,
}


def strategy_by_name(name: str, **kwargs) -> SumStrategy:
    """Instantiate a strategy from its benchmark-table name."""
    try:
        cls = _STRATEGIES[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown aggregation strategy {name!r}; choose from {sorted(_STRATEGIES)}"
        ) from exc
    return cls(**kwargs)
