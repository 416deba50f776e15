"""Sample-based (empirical) distributions.

Two empirical representations are central to the paper:

* :class:`ParticleDistribution` -- a weighted sample ``{(x_i, w_i)}``
  as produced by particle-filter inference inside a T operator
  (Section 4.1).  Shipping these particles downstream is possible but
  expensive; Section 4.3 compresses them into Gaussians or Gaussian
  mixtures.

* :class:`HistogramDistribution` -- a discretised density over equal
  width bins, used by the histogram-based sampling baseline of
  Section 5.1 (following Ge & Zdonik) and to represent numerically
  inverted characteristic functions.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .base import (
    DistributionError,
    ScalarDistribution,
    as_rng,
    normalize_weights,
    weighted_mean_and_variance,
)

__all__ = ["ParticleDistribution", "HistogramDistribution"]


class ParticleDistribution(ScalarDistribution):
    """A weighted-sample representation of a scalar distribution.

    The pdf is approximated with a Gaussian kernel density estimate
    (needed only for diagnostics and plotting); the moments, sampling,
    and cdf are computed directly from the weighted atoms, which is how
    the stream system actually uses particles.
    """

    __slots__ = ("values", "weights", "_bandwidth")

    def __init__(self, values: Sequence[float], weights: Sequence[float] | None = None):
        values_arr = np.asarray(values, dtype=float)
        if values_arr.ndim != 1 or values_arr.size == 0:
            raise DistributionError("particles must form a non-empty one-dimensional array")
        if weights is None:
            weights_arr = np.full(values_arr.size, 1.0 / values_arr.size)
        else:
            weights_arr = normalize_weights(weights)
            if weights_arr.shape != values_arr.shape:
                raise DistributionError("weights must match particle values in shape")
        self.values = values_arr
        self.weights = weights_arr
        # The KDE bandwidth is only needed by pdf()/support(); most
        # particle sets are compressed or summarised without either.
        self._bandwidth = None

    def _kde_bandwidth(self) -> float:
        """Return the Silverman bandwidth, computed on first use and cached."""
        if self._bandwidth is None:
            _, var = weighted_mean_and_variance(self.values, self.weights)
            sigma = math.sqrt(max(var, 1e-24))
            n_eff = self.effective_sample_size()
            self._bandwidth = 1.06 * sigma * max(n_eff, 1.0) ** (-1.0 / 5.0) + 1e-12
        return self._bandwidth

    # ------------------------------------------------------------------
    # Distribution interface
    # ------------------------------------------------------------------
    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x)[..., None]
        bandwidth = self._kde_bandwidth()
        z = (xs - self.values) / bandwidth
        kernel = np.exp(-0.5 * z * z) / (bandwidth * math.sqrt(2.0 * math.pi))
        out = kernel @ self.weights
        return float(out[0]) if x.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x)
        order = np.argsort(self.values)
        sorted_vals = self.values[order]
        cum = np.cumsum(self.weights[order])
        idx = np.searchsorted(sorted_vals, xs, side="right")
        out = np.where(idx > 0, cum[np.clip(idx - 1, 0, cum.size - 1)], 0.0)
        return float(out[0]) if x.ndim == 0 else out

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        order = np.argsort(self.values)
        sorted_vals = self.values[order]
        cum = np.cumsum(self.weights[order])
        idx = int(np.searchsorted(cum, q, side="left"))
        idx = min(idx, sorted_vals.size - 1)
        return float(sorted_vals[idx])

    def mean(self) -> float:
        mu, _ = weighted_mean_and_variance(self.values, self.weights)
        return mu

    def variance(self) -> float:
        _, var = weighted_mean_and_variance(self.values, self.weights)
        return var

    def sample(self, size: int = 1, rng=None) -> np.ndarray:
        rng = as_rng(rng)
        idx = rng.choice(self.values.size, size=size, p=self.weights)
        return self.values[idx]

    def support(self) -> Tuple[float, float]:
        pad = 4.0 * self._kde_bandwidth()
        return (float(self.values.min()) - pad, float(self.values.max()) + pad)

    # ------------------------------------------------------------------
    # Particle-specific helpers
    # ------------------------------------------------------------------
    @property
    def n_particles(self) -> int:
        return int(self.values.size)

    def effective_sample_size(self) -> float:
        """Return ``1 / sum(w_i^2)``, the standard ESS of a particle set."""
        return float(1.0 / np.sum(self.weights ** 2))

    def resample(self, size: int | None = None, rng=None) -> ParticleDistribution:
        """Return a uniformly weighted resampled particle set (systematic)."""
        rng = as_rng(rng)
        n = size if size is not None else self.n_particles
        positions = (rng.random() + np.arange(n)) / n
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, positions)
        return ParticleDistribution(self.values[idx], np.full(n, 1.0 / n))

    def compress(self, size: int, rng=None) -> ParticleDistribution:
        """Return a smaller particle set approximating the same distribution.

        This is the "compression" optimisation of Section 4.1: once a
        particle cloud has stabilised in a small region, fewer particles
        suffice.  We resample down to ``size`` particles.
        """
        if size <= 0:
            raise ValueError("compressed particle count must be positive")
        if size >= self.n_particles:
            return self
        return self.resample(size=size, rng=rng)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ParticleDistribution(n={self.n_particles}, mean={self.mean():.4g})"


class HistogramDistribution(ScalarDistribution):
    """A piecewise-constant density over equal-width bins.

    Parameters
    ----------
    edges:
        Monotonically increasing bin edges of length ``n_bins + 1``.
    densities:
        Non-negative density values per bin; renormalised so the
        histogram integrates to one.
    """

    __slots__ = ("edges", "densities", "_widths", "_probs")

    def __init__(self, edges: Sequence[float], densities: Sequence[float]):
        edges_arr = np.asarray(edges, dtype=float)
        dens_arr = np.asarray(densities, dtype=float)
        if edges_arr.ndim != 1 or edges_arr.size < 2:
            raise DistributionError("histogram needs at least two bin edges")
        if not np.all(np.isfinite(edges_arr)):
            raise DistributionError("histogram edges must be finite")
        if np.any(np.diff(edges_arr) <= 0):
            raise DistributionError("histogram edges must be strictly increasing")
        if dens_arr.shape != (edges_arr.size - 1,):
            raise DistributionError("densities must have one value per bin")
        if np.any(dens_arr < 0) or not np.all(np.isfinite(dens_arr)):
            raise DistributionError("densities must be finite and non-negative")
        widths = np.diff(edges_arr)
        mass = float(np.sum(dens_arr * widths))
        if mass <= 0:
            raise DistributionError("histogram must contain positive total mass")
        self.edges = edges_arr
        self.densities = dens_arr / mass
        self._widths = widths
        self._probs = self.densities * widths

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(
        cls,
        samples: Sequence[float],
        n_bins: int = 64,
        weights: Sequence[float] | None = None,
        bounds: Tuple[float, float] | None = None,
    ) -> HistogramDistribution:
        """Build a histogram from (optionally weighted) samples."""
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise DistributionError("cannot build a histogram from an empty sample")
        if bounds is None:
            lo, hi = float(samples.min()), float(samples.max())
            if hi <= lo:
                lo, hi = lo - 0.5, hi + 0.5
            pad = 1e-9 * (hi - lo)
            bounds = (lo - pad, hi + pad)
        counts, edges = np.histogram(samples, bins=n_bins, range=bounds, weights=weights, density=True)
        # Guard against a degenerate all-zero histogram (can happen when
        # every sample falls on an edge due to floating point).
        if not np.any(counts > 0):
            counts = np.full_like(counts, 1.0)
        return cls(edges, counts)

    @classmethod
    def from_distribution(
        cls, dist: ScalarDistribution, n_bins: int = 64, coverage: float = 1.0 - 1e-6
    ) -> HistogramDistribution:
        """Discretise another distribution onto an equal-width grid."""
        lo, hi = dist.support()
        if not np.isfinite(lo) or not np.isfinite(hi):
            lo = dist.quantile((1.0 - coverage) / 2.0)
            hi = dist.quantile(1.0 - (1.0 - coverage) / 2.0)
        edges = np.linspace(lo, hi, n_bins + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = np.maximum(np.asarray(dist.pdf(centers), dtype=float), 0.0)
        if not np.any(dens > 0):
            dens = np.full_like(dens, 1.0)
        return cls(edges, dens)

    # ------------------------------------------------------------------
    # Distribution interface
    # ------------------------------------------------------------------
    @property
    def n_bins(self) -> int:
        return int(self.densities.size)

    def centers(self) -> np.ndarray:
        """Return bin mid-points."""
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def bin_probabilities(self) -> np.ndarray:
        """Return the probability mass in each bin."""
        return self._probs.copy()

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x)
        idx = np.searchsorted(self.edges, xs, side="right") - 1
        inside = (xs >= self.edges[0]) & (xs <= self.edges[-1])
        idx = np.clip(idx, 0, self.n_bins - 1)
        out = np.where(inside, self.densities[idx], 0.0)
        return float(out[0]) if x.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x)
        cum = np.concatenate([[0.0], np.cumsum(self._probs)])
        idx = np.searchsorted(self.edges, xs, side="right") - 1
        idx = np.clip(idx, 0, self.n_bins - 1)
        frac = (xs - self.edges[idx]) / self._widths[idx]
        frac = np.clip(frac, 0.0, 1.0)
        out = cum[idx] + frac * self._probs[idx]
        out = np.where(xs <= self.edges[0], 0.0, out)
        out = np.where(xs >= self.edges[-1], 1.0, out)
        return float(out[0]) if x.ndim == 0 else out

    def mean(self) -> float:
        return float(np.dot(self._probs, self.centers()))

    def variance(self) -> float:
        centers = self.centers()
        mu = float(np.dot(self._probs, centers))
        # Within-bin variance of a uniform over the bin plus between-bin term.
        within = np.dot(self._probs, self._widths ** 2) / 12.0
        between = np.dot(self._probs, (centers - mu) ** 2)
        return float(within + between)

    def sample(self, size: int = 1, rng=None) -> np.ndarray:
        rng = as_rng(rng)
        bins = rng.choice(self.n_bins, size=size, p=self._probs)
        offsets = rng.random(size)
        return self.edges[bins] + offsets * self._widths[bins]

    def support(self) -> Tuple[float, float]:
        return (float(self.edges[0]), float(self.edges[-1]))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"HistogramDistribution(bins={self.n_bins}, mean={self.mean():.4g})"
