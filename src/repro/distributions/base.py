"""Base classes for continuous random-variable distributions.

The paper models every uncertain data item as a *continuous random
variable* whose uncertainty is described by a probability density
function (pdf).  Every distribution used by the stream system -- in T
operators, in relational operators, and in final results -- implements
the :class:`Distribution` interface defined here.

The interface is intentionally richer than scipy's frozen
distributions: stream operators need characteristic functions (for the
CF-based aggregation algorithms of Section 5.1), cheap moment access
(for CLT approximations), support bounds (for numerical inversion
grids) and confidence regions (for final-result reporting), all behind
one uniform API.
"""

from __future__ import annotations

import abc
import math
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "Distribution",
    "DistributionError",
    "UnsupportedOperationError",
    "ScalarDistribution",
]


class DistributionError(Exception):
    """Base error for distribution construction or evaluation problems."""


class UnsupportedOperationError(DistributionError):
    """Raised when a distribution cannot support a requested operation.

    For example, asking for a closed-form characteristic function of an
    arbitrary empirical distribution, or a quantile of a distribution
    that only supports sampling.
    """


class Distribution(abc.ABC):
    """Abstract continuous distribution carried inside stream tuples.

    Concrete subclasses must implement :meth:`pdf`, :meth:`mean`,
    :meth:`variance` and :meth:`sample`.  The remaining methods have
    sensible numerical defaults but may be overridden with closed forms
    for efficiency (the whole point of the paper's CF-based algorithms
    is that common continuous distributions admit closed forms).
    """

    #: Number of dimensions of the random variable (1 for scalars).
    ndim: int = 1

    # ------------------------------------------------------------------
    # Core interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the probability density function at ``x``."""

    @abc.abstractmethod
    def mean(self) -> float | np.ndarray:
        """Return the expected value."""

    @abc.abstractmethod
    def variance(self) -> float | np.ndarray:
        """Return the variance (scalar) or covariance matrix (vector)."""

    @abc.abstractmethod
    def sample(self, size: int = 1, rng: np.random.Generator | None = None) -> np.ndarray:
        """Draw ``size`` samples from the distribution."""

    # ------------------------------------------------------------------
    # Derived quantities with numerical fallbacks
    # ------------------------------------------------------------------
    def std(self) -> float:
        """Return the standard deviation (scalar distributions only)."""
        var = self.variance()
        if np.ndim(var) > 0:
            raise UnsupportedOperationError("std() is only defined for scalar distributions")
        return math.sqrt(float(var))

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the cumulative distribution function at ``x``.

        The default implementation integrates the pdf numerically over
        the distribution support; subclasses with closed forms should
        override it.
        """
        lo, hi = self.support()
        scalar = np.ndim(x) == 0
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        for i, xi in enumerate(xs):
            if xi <= lo:
                out[i] = 0.0
            else:
                upper = min(xi, hi)
                grid = np.linspace(lo, upper, 2049)
                out[i] = float(np.trapezoid(self.pdf(grid), grid))
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if scalar else out

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile by bisection over the cdf."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        lo, hi = self.support()
        if not np.isfinite(lo):
            lo = float(self.mean()) - 20.0 * self.std()
        if not np.isfinite(hi):
            hi = float(self.mean()) + 20.0 * self.std()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < q:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * (1.0 + abs(mid)):
                break
        return 0.5 * (lo + hi)

    def support(self) -> Tuple[float, float]:
        """Return ``(lower, upper)`` bounds of (effectively) all the mass.

        The default is a wide interval around the mean; distributions
        with bounded support override this.
        """
        mu = float(np.asarray(self.mean()).ravel()[0])
        sigma = self.std()
        return (mu - 12.0 * sigma, mu + 12.0 * sigma)

    def characteristic_function(self, t: np.ndarray | float) -> np.ndarray | complex:
        """Evaluate the characteristic function ``E[exp(itX)]`` at ``t``.

        The default evaluates the defining integral numerically over the
        support.  Common distributions override this with closed forms,
        which is what makes the CF-based aggregation algorithms of
        Section 5.1 fast.
        """
        lo, hi = self.support()
        grid = np.linspace(lo, hi, 4097)
        dens = np.asarray(self.pdf(grid), dtype=float)
        scalar = np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty(ts.shape, dtype=complex)
        for i, ti in enumerate(ts):
            out[i] = np.trapezoid(dens * np.exp(1j * ti * grid), grid)
        return complex(out[0]) if scalar else out

    def confidence_region(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Return a central interval containing ``confidence`` of the mass.

        This is the "confidence region" the paper proposes to report to
        end applications instead of (or alongside) the full pdf.
        """
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        alpha = (1.0 - confidence) / 2.0
        return (self.quantile(alpha), self.quantile(1.0 - alpha))

    def log_pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the log density, guarding against zero density."""
        dens = self.pdf(x)
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(dens, 1e-300))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def prob_greater_than(self, threshold: float) -> float:
        """Return ``P[X > threshold]``.

        Used by probabilistic selection predicates, e.g. the
        ``Having sum(weight) > 200`` clause of query Q1.
        """
        return float(1.0 - self.cdf(threshold))

    def prob_less_than(self, threshold: float) -> float:
        """Return ``P[X < threshold]``."""
        return float(self.cdf(threshold))

    def prob_in_interval(self, low: float, high: float) -> float:
        """Return ``P[low <= X <= high]``."""
        if high < low:
            raise ValueError("interval upper bound must not be below lower bound")
        return float(self.cdf(high) - self.cdf(low))

    def error_bounds(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Return (mean, half-width) error-bound style summary."""
        lo, hi = self.confidence_region(confidence)
        return (float(np.asarray(self.mean()).ravel()[0]), 0.5 * (hi - lo))


class ScalarDistribution(Distribution):
    """Marker base class for one-dimensional distributions."""

    ndim = 1


def as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce ``rng`` (generator, seed, or ``None``) into a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def weighted_mean_and_variance(
    values: Sequence[float] | np.ndarray, weights: Sequence[float] | np.ndarray
) -> Tuple[float, float]:
    """Return the weighted mean and (biased) weighted variance.

    These are exactly the KL-optimal Gaussian parameters for a weighted
    sample (Section 4.3 of the paper): ``mu = sum w_i x_i`` and
    ``sigma^2 = sum w_i (x_i - mu)^2`` for normalised weights.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise ValueError("values and weights must have matching shapes")
    if values.size == 0:
        raise ValueError("cannot compute moments of an empty sample")
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("weights must sum to a positive value")
    w = weights / total
    mu = float(np.dot(w, values))
    var = float(np.dot(w, (values - mu) ** 2))
    return mu, var


def normalize_weights(weights: Iterable[float]) -> np.ndarray:
    """Return weights normalised to sum to one.

    Raises :class:`DistributionError` if the weights are all zero, any
    weight is negative, or their sum is not finite (a NaN or infinite
    weight), which would indicate a broken particle filter update.
    """
    arr = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=float)
    if arr.size == 0:
        raise DistributionError("cannot normalise an empty weight vector")
    if np.any(arr < 0):
        raise DistributionError("weights must be non-negative")
    total = arr.sum()
    # One test on the sum catches NaN and +inf weights (-inf fails above)
    # without another pass over the array.
    if not np.isfinite(total):
        raise DistributionError("weights must be finite")
    if total <= 0:
        raise DistributionError("weights must not all be zero")
    return arr / total
