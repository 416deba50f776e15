"""Exponential distribution.

Exponentials model positive-valued quantities such as inter-reading
delays of a mobile RFID reader or dwell times of objects on a shelf.
They also have a simple closed-form characteristic function, which
makes them useful members of the "common continuous distributions"
toolbox that the CF-based aggregation algorithms rely on.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .base import DistributionError, ScalarDistribution, as_rng

__all__ = ["Exponential"]


class Exponential(ScalarDistribution):
    """An exponential distribution with rate ``lam`` (mean ``1/lam``)."""

    __slots__ = ("lam",)

    def __init__(self, lam: float):
        if not math.isfinite(lam) or lam <= 0.0:
            raise DistributionError(f"exponential rate must be positive and finite, got {lam}")
        self.lam = float(lam)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0.0, self.lam * np.exp(-self.lam * np.maximum(x, 0.0)), 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0.0, 1.0 - np.exp(-self.lam * np.maximum(x, 0.0)), 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        return -math.log(1.0 - q) / self.lam

    def mean(self) -> float:
        return 1.0 / self.lam

    def variance(self) -> float:
        return 1.0 / (self.lam ** 2)

    def sample(self, size: int = 1, rng=None) -> np.ndarray:
        rng = as_rng(rng)
        return rng.exponential(1.0 / self.lam, size=size)

    def support(self) -> Tuple[float, float]:
        return (0.0, self.quantile(1.0 - 1e-12))

    def characteristic_function(self, t):
        t = np.asarray(t, dtype=float)
        out = self.lam / (self.lam - 1j * t)
        return complex(out) if out.ndim == 0 else out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Exponential(lam={self.lam:.6g})"
