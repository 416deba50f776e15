"""Uniform distribution over an interval.

Uniforms show up in the paper's setting as priors for object locations
before any RFID observation has been made (an object could be anywhere
in the storage area), and as a simple closed-form CF distribution for
testing the characteristic-function machinery.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .base import DistributionError, ScalarDistribution, as_rng

__all__ = ["Uniform"]


class Uniform(ScalarDistribution):
    """A continuous uniform distribution on ``[low, high]``."""

    __slots__ = ("low", "high")

    def __init__(self, low: float, high: float):
        if not math.isfinite(low) or not math.isfinite(high):
            raise DistributionError("uniform bounds must be finite")
        if high <= low:
            raise DistributionError(f"uniform requires high > low, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    @property
    def width(self) -> float:
        return self.high - self.low

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= self.low) & (x <= self.high), 1.0 / self.width, 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.low) / self.width, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        return self.low + q * self.width

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def variance(self) -> float:
        return self.width ** 2 / 12.0

    def sample(self, size: int = 1, rng=None) -> np.ndarray:
        rng = as_rng(rng)
        return rng.uniform(self.low, self.high, size=size)

    def support(self) -> Tuple[float, float]:
        return (self.low, self.high)

    def characteristic_function(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty(np.shape(t) if np.ndim(t) else (1,), dtype=complex)
        ts = np.atleast_1d(t)
        nonzero = ts != 0.0
        tz = ts[nonzero]
        out_flat = np.ones(ts.shape, dtype=complex)
        out_flat[nonzero] = (np.exp(1j * tz * self.high) - np.exp(1j * tz * self.low)) / (
            1j * tz * self.width
        )
        out = out_flat
        return complex(out[0]) if np.ndim(t) == 0 else out

    def shift(self, offset: float) -> Uniform:
        """Return the distribution of ``X + offset``."""
        return Uniform(self.low + offset, self.high + offset)

    def scale(self, factor: float) -> Uniform:
        """Return the distribution of ``factor * X`` (factor != 0)."""
        if factor == 0.0:
            raise DistributionError("scaling a Uniform by zero collapses it to a point mass")
        a, b = self.low * factor, self.high * factor
        return Uniform(min(a, b), max(a, b))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Uniform(low={self.low:.6g}, high={self.high:.6g})"
