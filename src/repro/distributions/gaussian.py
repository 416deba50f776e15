"""Gaussian (normal) distributions, scalar and multivariate.

Gaussians are the workhorse parametric family of the paper: particle
clouds are compressed to Gaussians by KL minimisation (Section 4.3),
the CLT approximations produce Gaussians (Sections 4.4 and 5.1), and
the CF-approximation algorithm fits Gaussians / Gaussian mixtures to
the product characteristic function of a sum.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np
from scipy.special import erf, erfinv

from .base import Distribution, DistributionError, ScalarDistribution, as_rng

__all__ = ["Gaussian", "MultivariateGaussian", "gaussian_cdf"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)


def gaussian_cdf(x, mu, sigma):
    """Gaussian CDF, elementwise over any broadcastable arguments.

    This is the single definition of the erf-based CDF formula; the
    scalar :meth:`Gaussian.cdf` and the vectorised batch kernels
    (probabilistic selection over Gaussian columns) both call it, so
    per-row and columnar evaluation stay bit-identical.
    """
    return 0.5 * (1.0 + erf((x - mu) / (sigma * _SQRT_2)))


class Gaussian(ScalarDistribution):
    """A one-dimensional Gaussian ``N(mu, sigma^2)``.

    Parameters
    ----------
    mu:
        Mean of the distribution.
    sigma:
        Standard deviation; must be strictly positive.
    """

    __slots__ = ("mu", "sigma")

    def __init__(self, mu: float, sigma: float):
        if not math.isfinite(mu):
            raise DistributionError(f"Gaussian mean must be finite, got {mu}")
        if not math.isfinite(sigma) or sigma <= 0.0:
            raise DistributionError(f"Gaussian sigma must be positive and finite, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    # -- core interface -------------------------------------------------
    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        out = np.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = gaussian_cdf(x, self.mu, self.sigma)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        return self.mu + self.sigma * _SQRT_2 * float(erfinv(2.0 * q - 1.0))

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.sigma ** 2

    def std(self) -> float:
        return self.sigma

    def sample(self, size: int = 1, rng=None) -> np.ndarray:
        rng = as_rng(rng)
        return rng.normal(self.mu, self.sigma, size=size)

    def support(self) -> Tuple[float, float]:
        return (self.mu - 12.0 * self.sigma, self.mu + 12.0 * self.sigma)

    def characteristic_function(self, t):
        t = np.asarray(t, dtype=float)
        out = np.exp(1j * self.mu * t - 0.5 * (self.sigma ** 2) * t * t)
        return complex(out) if out.ndim == 0 else out

    # -- algebra ---------------------------------------------------------
    def shift(self, offset: float) -> Gaussian:
        """Return the distribution of ``X + offset``."""
        return Gaussian(self.mu + offset, self.sigma)

    def scale(self, factor: float) -> Gaussian:
        """Return the distribution of ``factor * X`` (factor != 0)."""
        if factor == 0.0:
            raise DistributionError("scaling a Gaussian by zero collapses it to a point mass")
        return Gaussian(self.mu * factor, self.sigma * abs(factor))

    def convolve(self, other: Gaussian) -> Gaussian:
        """Return the distribution of the sum of two independent Gaussians."""
        if not isinstance(other, Gaussian):
            raise TypeError("convolve expects another Gaussian")
        return Gaussian(self.mu + other.mu, math.hypot(self.sigma, other.sigma))

    def kl_divergence(self, other: Gaussian) -> float:
        """Return ``KL(self || other)`` in nats (closed form)."""
        if not isinstance(other, Gaussian):
            raise TypeError("kl_divergence expects another Gaussian")
        var_ratio = (self.sigma / other.sigma) ** 2
        mean_term = ((self.mu - other.mu) / other.sigma) ** 2
        return 0.5 * (var_ratio + mean_term - 1.0 - math.log(var_ratio))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Gaussian(mu={self.mu:.6g}, sigma={self.sigma:.6g})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gaussian)
            and math.isclose(self.mu, other.mu, rel_tol=1e-12, abs_tol=1e-12)
            and math.isclose(self.sigma, other.sigma, rel_tol=1e-12, abs_tol=1e-12)
        )

    def __hash__(self) -> int:
        return hash((round(self.mu, 12), round(self.sigma, 12)))


class MultivariateGaussian(Distribution):
    """A multivariate Gaussian ``N(mean, cov)``.

    Used for multi-dimensional uncertain attributes such as the
    ``(x, y, z)`` object location produced by the RFID T operator.
    """

    def __init__(self, mean: Sequence[float], cov: Sequence[Sequence[float]]):
        mean_arr = np.asarray(mean, dtype=float)
        cov_arr = np.asarray(cov, dtype=float)
        if mean_arr.ndim != 1:
            raise DistributionError("mean must be a one-dimensional vector")
        if cov_arr.shape != (mean_arr.size, mean_arr.size):
            raise DistributionError(
                f"covariance shape {cov_arr.shape} does not match mean dimension {mean_arr.size}"
            )
        if not np.allclose(cov_arr, cov_arr.T, atol=1e-10):
            raise DistributionError("covariance matrix must be symmetric")
        # Regularise slightly so nearly-degenerate particle clouds still work.
        jitter = 1e-12 * np.eye(mean_arr.size)
        try:
            chol = np.linalg.cholesky(cov_arr + jitter)
        except np.linalg.LinAlgError as exc:
            raise DistributionError("covariance matrix must be positive definite") from exc
        self._mean = mean_arr
        self._cov = cov_arr
        self._chol = chol
        self.ndim = mean_arr.size
        self._log_norm = -0.5 * (
            mean_arr.size * math.log(2.0 * math.pi) + 2.0 * float(np.sum(np.log(np.diag(chol))))
        )

    # -- core interface -------------------------------------------------
    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        diffs = pts - self._mean
        solved = np.linalg.solve(self._chol, diffs.T)
        quad = np.sum(solved ** 2, axis=0)
        out = np.exp(self._log_norm - 0.5 * quad)
        return float(out[0]) if single else out

    def mean(self) -> np.ndarray:
        return self._mean.copy()

    def variance(self) -> np.ndarray:
        return self._cov.copy()

    def covariance(self) -> np.ndarray:
        return self._cov.copy()

    def sample(self, size: int = 1, rng=None) -> np.ndarray:
        rng = as_rng(rng)
        z = rng.standard_normal((size, self.ndim))
        return self._mean + z @ self._chol.T

    def marginal(self, index: int) -> Gaussian:
        """Return the scalar marginal of dimension ``index``."""
        if not 0 <= index < self.ndim:
            raise IndexError(f"dimension index {index} out of range for ndim={self.ndim}")
        return Gaussian(float(self._mean[index]), math.sqrt(float(self._cov[index, index])))

    def mahalanobis(self, x: Sequence[float]) -> float:
        """Return the Mahalanobis distance of ``x`` from the mean."""
        diff = np.asarray(x, dtype=float) - self._mean
        solved = np.linalg.solve(self._chol, diff)
        return float(np.sqrt(np.sum(solved ** 2)))

    def confidence_region(self, confidence: float = 0.95):
        """Return per-dimension central intervals at the given confidence."""
        return [self.marginal(i).confidence_region(confidence) for i in range(self.ndim)]

    def characteristic_function(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 1 and t.size == self.ndim:
            return complex(
                np.exp(1j * np.dot(self._mean, t) - 0.5 * float(t @ self._cov @ t))
            )
        raise ValueError("multivariate CF expects a vector argument of matching dimension")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"MultivariateGaussian(mean={self._mean.tolist()})"
