"""Order statistics for MAX / MIN aggregation over independent variables.

For independent continuous random variables the distribution of the
maximum has a closed form, ``F_max(x) = prod_i F_i(x)``, and
symmetrically ``F_min(x) = 1 - prod_i (1 - F_i(x))`` for the minimum.
This is one of the "order statistics" techniques Section 5.1 lists for
computing result distributions directly, without integration over the
joint.

The result is a histogram whose bin masses are differences of that CDF
at the bin edges, so every bin holds exactly the probability it covers.
(Sampling the density ``sum_i f_i prod_{j != i} F_j`` at the bins' left
edges instead aliases any input narrower than a bin.)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distributions import Distribution, DistributionError, HistogramDistribution

__all__ = ["max_distribution", "min_distribution"]


def _histogram(dists, n_points: int, name: str, cdf_of) -> HistogramDistribution:
    """The histogram whose bin masses are the increments of ``cdf_of`` over the bin edges.

    ``cdf_of(cdfs)`` maps the inputs' CDFs at the edges (one row per
    input) to the result's CDF at the edges, up to an additive constant.
    """
    dists = list(dists)
    if not dists:
        raise DistributionError(f"cannot take the {name} of an empty window")
    lows, highs = zip(*(d.support() for d in dists))
    lo, hi = min(lows), max(highs)
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        raise DistributionError("summand supports must be finite, non-degenerate intervals")
    grid = np.linspace(lo, hi, n_points)
    edges = np.concatenate([grid, [grid[-1] + (grid[1] - grid[0])]])
    cdfs = np.vstack([np.clip(np.asarray(d.cdf(edges), dtype=float), 0.0, 1.0) for d in dists])
    masses = np.maximum(np.diff(cdf_of(cdfs)), 0.0)
    if not np.any(masses > 0):
        raise DistributionError(f"{name} distribution is numerically zero on the evaluation grid")
    return HistogramDistribution(edges, masses / np.diff(edges))


def max_distribution(
    dists: Sequence[Distribution], n_points: int = 1024
) -> HistogramDistribution:
    """Return the distribution of ``max(X_1, ..., X_N)`` for independent inputs."""
    return _histogram(dists, n_points, "max", lambda cdfs: np.prod(cdfs, axis=0))


def min_distribution(
    dists: Sequence[Distribution], n_points: int = 1024
) -> HistogramDistribution:
    """Return the distribution of ``min(X_1, ..., X_N)`` for independent inputs."""
    return _histogram(dists, n_points, "min", lambda cdfs: -np.prod(1.0 - cdfs, axis=0))
