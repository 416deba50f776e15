"""Linear-Gaussian Kalman filtering and smoothing.

The related-work systems the paper compares against use Kalman filters
to clean GPS-style readings.  We provide a standard implementation both
as a baseline T-operator technique for linear-Gaussian sensors and as a
correctness oracle for the particle filter on linear-Gaussian problems
(where the Kalman filter is exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.distributions import MultivariateGaussian

__all__ = ["KalmanFilter", "KalmanState"]


@dataclass(frozen=True)
class KalmanState:
    """Posterior mean and covariance after one filtering step."""

    mean: np.ndarray
    covariance: np.ndarray

    def as_distribution(self) -> MultivariateGaussian:
        return MultivariateGaussian(self.mean, self.covariance)


class KalmanFilter:
    """A discrete-time Kalman filter ``x' = F x + w``, ``z = H x + v``.

    Parameters
    ----------
    transition:
        State transition matrix ``F`` (d x d).
    observation:
        Observation matrix ``H`` (m x d).
    process_noise:
        Process noise covariance ``Q`` (d x d).
    observation_noise:
        Observation noise covariance ``R`` (m x m).
    initial_mean / initial_covariance:
        Prior state distribution.
    """

    def __init__(
        self,
        transition: Sequence[Sequence[float]],
        observation: Sequence[Sequence[float]],
        process_noise: Sequence[Sequence[float]],
        observation_noise: Sequence[Sequence[float]],
        initial_mean: Sequence[float],
        initial_covariance: Sequence[Sequence[float]],
    ):
        self.F = np.asarray(transition, dtype=float)
        self.H = np.asarray(observation, dtype=float)
        self.Q = np.asarray(process_noise, dtype=float)
        self.R = np.asarray(observation_noise, dtype=float)
        self.mean = np.asarray(initial_mean, dtype=float)
        self.covariance = np.asarray(initial_covariance, dtype=float)
        d = self.mean.size
        if self.F.shape != (d, d):
            raise ValueError(f"transition matrix must be {d}x{d}")
        if self.Q.shape != (d, d):
            raise ValueError(f"process noise must be {d}x{d}")
        m = self.H.shape[0]
        if self.H.shape != (m, d):
            raise ValueError("observation matrix has inconsistent shape")
        if self.R.shape != (m, m):
            raise ValueError(f"observation noise must be {m}x{m}")
        if self.covariance.shape != (d, d):
            raise ValueError(f"initial covariance must be {d}x{d}")

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------
    def predict(self) -> KalmanState:
        """Propagate the state estimate one step forward."""
        self.mean = self.F @ self.mean
        self.covariance = self.F @ self.covariance @ self.F.T + self.Q
        return KalmanState(self.mean.copy(), self.covariance.copy())

    def update(self, measurement: Sequence[float]) -> KalmanState:
        """Incorporate one measurement."""
        z = np.asarray(measurement, dtype=float)
        innovation = z - self.H @ self.mean
        S = self.H @ self.covariance @ self.H.T + self.R
        K = self.covariance @ self.H.T @ np.linalg.inv(S)
        self.mean = self.mean + K @ innovation
        identity = np.eye(self.mean.size)
        self.covariance = (identity - K @ self.H) @ self.covariance
        # Symmetrise to fight numerical drift.
        self.covariance = 0.5 * (self.covariance + self.covariance.T)
        return KalmanState(self.mean.copy(), self.covariance.copy())

    def step(self, measurement: Optional[Sequence[float]]) -> KalmanState:
        """Predict and, if a measurement is available, update."""
        state = self.predict()
        if measurement is not None:
            state = self.update(measurement)
        return state

    def filter_sequence(
        self, measurements: Sequence[Optional[Sequence[float]]]
    ) -> List[KalmanState]:
        """Run the filter over a sequence of (possibly missing) measurements."""
        return [self.step(m) for m in measurements]

    def posterior(self) -> MultivariateGaussian:
        """Return the current posterior as a multivariate Gaussian."""
        return MultivariateGaussian(self.mean, self.covariance)
