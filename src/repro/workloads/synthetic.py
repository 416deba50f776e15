"""Synthetic uncertain tuple streams for experiments and benchmarks.

The Table 2 experiment feeds the aggregation algorithms with tuples
whose per-tuple distributions are "generated from mixture Gaussian
distributions to simulate arbitrary real-world distributions"; this
module builds exactly that workload, plus a few simpler streams used by
examples and tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions import Gaussian, GaussianMixture, as_rng
from repro.streams import StreamTuple, TupleBatch

__all__ = [
    "random_gaussian_mixture",
    "gmm_tuple_stream",
    "gaussian_tuple_stream",
    "temperature_stream",
    "ma_series_tuple_stream",
    "to_batches",
    "gmm_tuple_batches",
    "gaussian_tuple_batches",
]


def random_gaussian_mixture(
    rng: np.random.Generator,
    max_components: int = 3,
    mean_range: Tuple[float, float] = (0.0, 100.0),
    sigma_range: Tuple[float, float] = (1.0, 10.0),
) -> GaussianMixture:
    """Draw a random Gaussian mixture with 1..``max_components`` components."""
    if max_components < 1:
        raise ValueError("max_components must be at least 1")
    k = int(rng.integers(1, max_components + 1))
    weights = rng.dirichlet(np.ones(k))
    means = rng.uniform(mean_range[0], mean_range[1], size=k)
    sigmas = rng.uniform(sigma_range[0], sigma_range[1], size=k)
    return GaussianMixture(weights, means, sigmas)


def gmm_tuple_stream(
    n_tuples: int,
    attribute: str = "value",
    max_components: int = 3,
    mean_range: Tuple[float, float] = (0.0, 100.0),
    sigma_range: Tuple[float, float] = (1.0, 10.0),
    interval: float = 0.01,
    rng: np.random.Generator | int | None = None,
) -> List[StreamTuple]:
    """Return tuples whose ``attribute`` carries a random Gaussian mixture.

    "The input distributions are different for different tuples"
    (Section 5.1): every tuple draws a fresh mixture.
    """
    if n_tuples < 1:
        raise ValueError("n_tuples must be at least 1")
    rng = as_rng(rng)
    stream = []
    for i in range(n_tuples):
        mixture = random_gaussian_mixture(
            rng, max_components=max_components, mean_range=mean_range, sigma_range=sigma_range
        )
        stream.append(
            StreamTuple(
                timestamp=i * interval,
                values={"sequence": i},
                uncertain={attribute: mixture},
            )
        )
    return stream


def gaussian_tuple_stream(
    n_tuples: int,
    attribute: str = "value",
    mean_range: Tuple[float, float] = (0.0, 100.0),
    sigma_range: Tuple[float, float] = (1.0, 10.0),
    interval: float = 0.01,
    rng: np.random.Generator | int | None = None,
) -> List[StreamTuple]:
    """Return tuples whose ``attribute`` carries a random Gaussian."""
    if n_tuples < 1:
        raise ValueError("n_tuples must be at least 1")
    rng = as_rng(rng)
    stream = []
    for i in range(n_tuples):
        mean = float(rng.uniform(*mean_range))
        sigma = float(rng.uniform(*sigma_range))
        stream.append(
            StreamTuple(
                timestamp=i * interval,
                values={"sequence": i},
                uncertain={attribute: Gaussian(mean, sigma)},
            )
        )
    return stream


def to_batches(stream: Sequence[StreamTuple], batch_size: int) -> List[TupleBatch]:
    """Chunk a tuple stream into :class:`TupleBatch` containers.

    The batches share the tuple objects with ``stream``; only the
    grouping changes, so a workload generated once can feed the engine
    at any batch size.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    return [
        TupleBatch(stream[start : start + batch_size])
        for start in range(0, len(stream), batch_size)
    ]


def gmm_tuple_batches(
    n_tuples: int,
    batch_size: int = 1024,
    **kwargs,
) -> List[TupleBatch]:
    """Batched variant of :func:`gmm_tuple_stream` for the batch engine path."""
    return to_batches(gmm_tuple_stream(n_tuples, **kwargs), batch_size)


def gaussian_tuple_batches(
    n_tuples: int,
    batch_size: int = 1024,
    **kwargs,
) -> List[TupleBatch]:
    """Batched variant of :func:`gaussian_tuple_stream` for the batch engine path."""
    return to_batches(gaussian_tuple_stream(n_tuples, **kwargs), batch_size)


def temperature_stream(
    n_tuples: int,
    area_bounds: Tuple[float, float, float, float] = (0.0, 0.0, 100.0, 50.0),
    base_temperature: float = 25.0,
    hot_spot: Optional[Tuple[float, float, float, float]] = (30.0, 20.0, 10.0, 80.0),
    temperature_sigma: float = 2.0,
    location_sigma: float = 0.5,
    interval: float = 0.25,
    rng: np.random.Generator | int | None = None,
) -> List[StreamTuple]:
    """Return a temperature sensor stream for query Q2.

    Each tuple carries an uncertain ``x``, ``y`` sensor location and an
    uncertain ``temp``.  Sensors inside the optional hot spot
    ``(cx, cy, radius, peak)`` report elevated temperatures, so Q2's
    ``temp > 60`` predicate selects them.
    """
    if n_tuples < 1:
        raise ValueError("n_tuples must be at least 1")
    rng = as_rng(rng)
    x_min, y_min, x_max, y_max = area_bounds
    stream = []
    for i in range(n_tuples):
        x = float(rng.uniform(x_min, x_max))
        y = float(rng.uniform(y_min, y_max))
        temperature = base_temperature
        if hot_spot is not None:
            cx, cy, radius, peak = hot_spot
            distance = float(np.hypot(x - cx, y - cy))
            if distance < radius:
                temperature = peak - (peak - base_temperature) * distance / radius
        stream.append(
            StreamTuple(
                timestamp=i * interval,
                values={"sensor_id": f"T{i:04d}"},
                uncertain={
                    "x": Gaussian(x, location_sigma),
                    "y": Gaussian(y, location_sigma),
                    "temp": Gaussian(temperature, temperature_sigma),
                },
            )
        )
    return stream


def ma_series_tuple_stream(
    n_tuples: int,
    coefficients: Sequence[float] = (0.6, 0.3),
    mean: float = 10.0,
    noise_std: float = 1.0,
    observation_sigma: float = 0.5,
    attribute: str = "value",
    interval: float = 0.001,
    rng: np.random.Generator | int | None = None,
) -> List[StreamTuple]:
    """Return a temporally correlated stream following an MA(q) model.

    The realised series values become the tuple means; each tuple's
    distribution is a Gaussian around its realised value with
    ``observation_sigma``.  Used to exercise the correlated-aggregation
    path (time-series CLT) of Section 5.1.
    """
    from repro.radar.timeseries import MAModel

    if n_tuples < 1:
        raise ValueError("n_tuples must be at least 1")
    rng = as_rng(rng)
    model = MAModel(mean=mean, coefficients=tuple(coefficients), noise_std=noise_std)
    series = model.simulate(n_tuples, rng=rng)
    return [
        StreamTuple(
            timestamp=i * interval,
            values={"sequence": i},
            uncertain={attribute: Gaussian(float(series[i]), observation_sigma)},
        )
        for i in range(n_tuples)
    ]
