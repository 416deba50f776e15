"""Gamma distribution.

Gamma random variables model skewed positive measurements such as radar
reflectivity and spectral width.  Like the other "common continuous
distributions" of Section 5.1, the Gamma has a closed-form
characteristic function, so sums of independent Gamma-distributed
tuples can be characterised exactly via products of CFs.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from scipy import special

from .base import DistributionError, ScalarDistribution, as_rng

__all__ = ["GammaDistribution"]


class GammaDistribution(ScalarDistribution):
    """A Gamma distribution with shape ``k`` and scale ``theta``."""

    __slots__ = ("shape", "scale_param")

    def __init__(self, shape: float, scale: float):
        if not math.isfinite(shape) or shape <= 0.0:
            raise DistributionError(f"gamma shape must be positive and finite, got {shape}")
        if not math.isfinite(scale) or scale <= 0.0:
            raise DistributionError(f"gamma scale must be positive and finite, got {scale}")
        self.shape = float(shape)
        self.scale_param = float(scale)

    def pdf(self, x):
        out = np.exp(self.log_pdf(x))
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = special.gammainc(self.shape, np.maximum(x, 0.0) / self.scale_param)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        return float(special.gammaincinv(self.shape, q)) * self.scale_param

    def mean(self) -> float:
        return self.shape * self.scale_param

    def variance(self) -> float:
        return self.shape * self.scale_param ** 2

    def sample(self, size: int = 1, rng=None) -> np.ndarray:
        rng = as_rng(rng)
        return rng.gamma(self.shape, self.scale_param, size=size)

    def support(self) -> Tuple[float, float]:
        return (0.0, self.quantile(1.0 - 1e-12))

    def characteristic_function(self, t):
        t = np.asarray(t, dtype=float)
        out = (1.0 - 1j * self.scale_param * t) ** (-self.shape)
        return complex(out) if out.ndim == 0 else out

    def skewness(self) -> float:
        """Return the skewness ``2 / sqrt(k)``."""
        return 2.0 / math.sqrt(self.shape)

    def mode(self) -> float:
        """Return the mode (zero when shape < 1)."""
        if self.shape < 1.0:
            return 0.0
        return (self.shape - 1.0) * self.scale_param

    def log_pdf(self, x):
        z = np.asarray(x, dtype=float) / self.scale_param
        # At x = +inf with shape > 1 this is inf - inf = NaN, as in SciPy's own gamma.
        with np.errstate(invalid="ignore"):
            inside = special.xlogy(self.shape - 1.0, z) - z - special.gammaln(self.shape)
        out = np.where(z < 0.0, -np.inf, inside) - math.log(self.scale_param)
        return float(out) if out.ndim == 0 else out

    def entropy(self) -> float:
        """Return the differential entropy in nats."""
        k, theta = self.shape, self.scale_param
        return k + math.log(theta) + math.lgamma(k) + (1.0 - k) * float(special.digamma(k))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"GammaDistribution(shape={self.shape:.6g}, scale={self.scale_param:.6g})"
