"""Time-series modelling of moment-data noise (Section 4.4).

The radar T operator needs to quantify the uncertainty of averaged
moment data without fitting a full ARMA model to every voxel (too slow
for 200 Mb/s streams).  The paper's shortcut is:

1. model short sub-sequences with a pure **moving-average (MA)** model
   -- frequent sampling of the same phenomenon means no autoregression,
   only correlated noise;
2. identify where the MA assumption holds (and its order ``q``) from
   the k-lag sample autocorrelations, computable in at most two scans;
3. rely on the Central Limit Theorem for MA series to characterise
   aggregates, so the MA model never needs to be fitted precisely.

This module provides the autocovariance/autocorrelation estimators, the
MA-order identification rule, an explicit MA model (for simulation and
tests), innovations-algorithm fitting (the "many passes" alternative
the paper wants to avoid at stream speed), and a Ljung-Box whiteness
test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import special

from repro.distributions import as_rng

__all__ = [
    "sample_autocovariance",
    "sample_autocorrelation",
    "identify_ma_order",
    "MAModel",
    "fit_ma_innovations",
    "ljung_box",
]


def sample_autocovariance(series: Sequence[float], max_lag: int) -> np.ndarray:
    """Return the sample autocovariances ``gamma_0 .. gamma_max_lag``.

    Uses the biased (divide by ``n``) estimator, which keeps the implied
    autocovariance sequence positive semi-definite.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("series must contain at least two observations")
    if not 0 <= max_lag < n:
        raise ValueError("max_lag must satisfy 0 <= max_lag < len(series)")
    centered = x - x.mean()
    gammas = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        gammas[lag] = np.dot(centered[: n - lag], centered[lag:]) / n
    return gammas


def sample_autocorrelation(series: Sequence[float], max_lag: int) -> np.ndarray:
    """Return the sample autocorrelations ``rho_0 .. rho_max_lag``."""
    gammas = sample_autocovariance(series, max_lag)
    if gammas[0] <= 0:
        raise ValueError("series has zero variance; autocorrelation is undefined")
    return gammas / gammas[0]


def identify_ma_order(
    series: Sequence[float], max_order: int = 10, significance: float = 0.05
) -> int:
    """Identify the MA order ``q`` from the autocorrelation cut-off.

    An MA(q) process has zero autocorrelation beyond lag ``q``; the
    standard identification rule returns the largest lag whose sample
    autocorrelation is significant (outside the ``+- z / sqrt(n)``
    band).  A return value of 0 means the series looks like white noise
    and plain i.i.d. techniques apply.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    max_order = min(max_order, n - 2)
    if max_order < 1:
        return 0
    rho = sample_autocorrelation(x, max_order)
    z = special.ndtri(1.0 - significance / 2.0)
    band = z / math.sqrt(n)
    significant = np.nonzero(np.abs(rho[1:]) > band)[0]
    if significant.size == 0:
        return 0
    return int(significant[-1] + 1)


@dataclass(frozen=True)
class MAModel:
    """A moving-average model ``X_t = mu + e_t + sum_i b_i e_{t-i}``.

    Parameters
    ----------
    mean:
        The constant ``mu`` (the paper's ``C`` plus the noise mean).
    coefficients:
        The MA coefficients ``b_1 .. b_q``.
    noise_std:
        Standard deviation of the innovation ``e_t``.
    """

    mean: float
    coefficients: Tuple[float, ...]
    noise_std: float

    def __post_init__(self) -> None:
        if self.noise_std <= 0:
            raise ValueError("noise_std must be positive")

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def autocovariance(self, lag: int) -> float:
        """Return the theoretical autocovariance at ``lag``."""
        lag = abs(int(lag))
        if lag > self.order:
            return 0.0
        b = np.concatenate([[1.0], np.asarray(self.coefficients, dtype=float)])
        sigma2 = self.noise_std ** 2
        return float(sigma2 * np.dot(b[: b.size - lag], b[lag:]))

    def autocovariances(self, max_lag: Optional[int] = None) -> np.ndarray:
        """Return autocovariances for lags ``0 .. max_lag`` (default ``q``)."""
        max_lag = self.order if max_lag is None else max_lag
        return np.array([self.autocovariance(lag) for lag in range(max_lag + 1)])

    def variance(self) -> float:
        return self.autocovariance(0)

    def simulate(self, n: int, rng=None) -> np.ndarray:
        """Simulate ``n`` observations of the process."""
        if n < 1:
            raise ValueError("n must be at least 1")
        rng = as_rng(rng)
        q = self.order
        noise = rng.normal(0.0, self.noise_std, size=n + q)
        b = np.concatenate([[1.0], np.asarray(self.coefficients, dtype=float)])
        out = np.empty(n)
        for t in range(n):
            window = noise[t : t + q + 1][::-1]
            out[t] = self.mean + float(np.dot(b, window))
        return out


def fit_ma_innovations(series: Sequence[float], order: int) -> MAModel:
    """Fit an MA(q) model with the innovations algorithm.

    This is the "precise fitting" route the paper notes may be too slow
    for full-rate streams; we provide it for offline calibration, tests,
    and the ablation that compares it against the CLT shortcut.
    """
    x = np.asarray(series, dtype=float)
    if order < 1:
        raise ValueError("order must be at least 1")
    if x.size <= order + 1:
        raise ValueError("series is too short for the requested order")
    gammas = sample_autocovariance(x, order)
    # Innovations algorithm (Brockwell & Davis, ch. 8): iterate theta_{m, j}.
    m_steps = max(order * 4, 20)
    gam = sample_autocovariance(x, min(m_steps, x.size - 1))

    def gamma(lag: int) -> float:
        lag = abs(lag)
        return float(gam[lag]) if lag < gam.size else 0.0

    v = np.zeros(m_steps + 1)
    theta = np.zeros((m_steps + 1, m_steps + 1))
    v[0] = gamma(0)
    for m in range(1, m_steps + 1):
        for k in range(m):
            acc = gamma(m - k)
            for j in range(k):
                acc -= theta[k, k - j] * theta[m, m - j] * v[j]
            theta[m, m - k] = acc / v[k] if v[k] > 0 else 0.0
        v[m] = gamma(0) - float(np.sum(theta[m, 1 : m + 1] ** 2 * v[:m][::-1]))
        v[m] = max(v[m], 1e-12)
    coefficients = tuple(float(theta[m_steps, j]) for j in range(1, order + 1))
    return MAModel(mean=float(x.mean()), coefficients=coefficients, noise_std=math.sqrt(v[m_steps]))


def ljung_box(series: Sequence[float], lags: int = 10) -> Tuple[float, float]:
    """Ljung-Box whiteness test; returns ``(statistic, p_value)``.

    A large p-value means the series is compatible with white noise, so
    downstream aggregation can treat the samples as independent.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    lags = min(lags, n - 2)
    if lags < 1:
        raise ValueError("series too short for the Ljung-Box test")
    rho = sample_autocorrelation(x, lags)[1:]
    statistic = n * (n + 2) * float(np.sum(rho ** 2 / (n - np.arange(1, lags + 1))))
    p_value = float(special.chdtrc(lags, statistic))
    return statistic, p_value
