"""Resampling schemes and effective-sample-size diagnostics for particle filters."""

from __future__ import annotations

import numpy as np

from repro.distributions import normalize_weights

__all__ = [
    "effective_sample_size",
    "systematic_resample",
    "segmented_systematic_resample",
    "stratified_resample",
    "multinomial_resample",
    "residual_resample",
]


def effective_sample_size(weights: np.ndarray) -> float:
    """Return ``1 / sum(w_i^2)`` for normalised weights.

    The ESS measures how many particles are effectively contributing;
    filters resample when it falls below a fraction of the particle
    count.
    """
    w = normalize_weights(weights)
    return float(1.0 / np.sum(w ** 2))


def _check_count(n: int) -> None:
    if n < 1:
        raise ValueError("resample count must be at least 1")


def systematic_resample(weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: one random offset, evenly spaced positions.

    Lowest variance of the classical schemes and O(n); the default used
    by the RFID particle filter.
    """
    _check_count(n)
    w = normalize_weights(weights)
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions)


def segmented_systematic_resample(
    weights: np.ndarray, sizes: np.ndarray, out_sizes: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Systematic resampling of many particle sets in one vectorised pass.

    ``weights`` holds the sets back to back: set ``s`` has ``sizes[s]``
    entries and sums to one.  Set ``s`` is resampled to ``out_sizes[s]``
    draws with the uniform offset ``offsets[s]``.  Returns indices into
    ``weights``, the sets' draws back to back.  Set by set these are the
    indices :func:`systematic_resample` picks with the same offset (unless
    a position lies within rounding error of a cumulative weight):
    positions are shifted by the running weight total before their set,
    located with one ``searchsorted`` over the whole cumulative sum, and
    clamped to their set's own range, which also absorbs the rounding at
    the set's last entry.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    out_sizes = np.asarray(out_sizes, dtype=np.intp)
    if np.any(out_sizes < 1):
        raise ValueError("resample count must be at least 1")
    ends = np.cumsum(sizes)
    starts = ends - sizes
    cumulative = np.cumsum(weights)
    base = np.concatenate(([0.0], cumulative[ends[:-1] - 1]))
    out_ends = np.cumsum(out_sizes)
    owner = np.repeat(np.arange(sizes.size), out_sizes)
    rank = np.arange(out_ends[-1]) - np.repeat(out_ends - out_sizes, out_sizes)
    offsets = np.asarray(offsets, dtype=float)
    positions = base[owner] + (offsets[owner] + rank) / out_sizes[owner]
    index = np.searchsorted(cumulative, positions)
    return np.minimum(np.maximum(index, starts[owner]), ends[owner] - 1)


def stratified_resample(weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified resampling: one uniform draw per stratum."""
    _check_count(n)
    w = normalize_weights(weights)
    positions = (rng.random(n) + np.arange(n)) / n
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions)


def multinomial_resample(weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Plain multinomial resampling (highest variance, simplest)."""
    _check_count(n)
    w = normalize_weights(weights)
    return rng.choice(w.size, size=n, p=w)


def residual_resample(weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Residual resampling: deterministic copies plus multinomial residuals."""
    _check_count(n)
    w = normalize_weights(weights)
    counts = np.floor(n * w).astype(int)
    indices = np.repeat(np.arange(w.size), counts)
    remaining = n - indices.size
    if remaining > 0:
        residuals = n * w - counts
        total = residuals.sum()
        if total <= 0:
            extra = rng.choice(w.size, size=remaining)
        else:
            extra = rng.choice(w.size, size=remaining, p=residuals / total)
        indices = np.concatenate([indices, extra])
    return indices
