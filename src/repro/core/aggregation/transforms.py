"""Affine transformations of result distributions.

Aggregation operators frequently need ``X + c`` (to fold deterministic
summands into an uncertain total) and ``a * X`` (to turn a SUM result
into an AVG result).  Closed forms exist for the parametric families;
histograms and particle sets are transformed by moving their support.
"""

from __future__ import annotations

from repro.distributions import (
    Distribution,
    Gaussian,
    GaussianMixture,
    HistogramDistribution,
    ParticleDistribution,
    Uniform,
)

__all__ = ["shift_distribution", "scale_distribution", "affine_distribution"]


def shift_distribution(dist: Distribution, offset: float) -> Distribution:
    """Return the distribution of ``X + offset``."""
    if offset == 0.0:
        return dist
    if isinstance(dist, (Gaussian, GaussianMixture, Uniform)):
        return dist.shift(offset)
    if isinstance(dist, HistogramDistribution):
        return HistogramDistribution(dist.edges + offset, dist.densities)
    if isinstance(dist, ParticleDistribution):
        return ParticleDistribution(dist.values + offset, dist.weights)
    raise TypeError(f"cannot shift a distribution of type {type(dist).__name__}")


def scale_distribution(dist: Distribution, factor: float) -> Distribution:
    """Return the distribution of ``factor * X`` (``factor != 0``)."""
    if factor == 0.0:
        raise ValueError("scaling a distribution by zero collapses it to a point mass")
    if factor == 1.0:
        return dist
    if isinstance(dist, (Gaussian, GaussianMixture, Uniform)):
        return dist.scale(factor)
    if isinstance(dist, HistogramDistribution):
        edges = dist.edges * factor
        densities = dist.densities / abs(factor)
        if factor < 0:
            edges = edges[::-1]
            densities = densities[::-1]
        return HistogramDistribution(edges, densities)
    if isinstance(dist, ParticleDistribution):
        return ParticleDistribution(dist.values * factor, dist.weights)
    raise TypeError(f"cannot scale a distribution of type {type(dist).__name__}")


def affine_distribution(dist: Distribution, scale: float = 1.0, offset: float = 0.0) -> Distribution:
    """Return the distribution of ``scale * X + offset``."""
    out = dist
    if scale != 1.0:
        out = scale_distribution(out, scale)
    if offset != 0.0:
        out = shift_distribution(out, offset)
    return out
