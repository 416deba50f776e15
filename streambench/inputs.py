"""Seeded input generation.  Everything is built before any timing starts.

Distribution parameters are drawn with numpy first and kept as arrays,
so the reference checks (``checks.py``) compute expected results from
the same numbers without going through ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.distributions import Gaussian, GaussianMixture
from repro.streams import StreamTuple

#: Event-time spacing of the two synthetic streams (seconds).
READING_DT = 0.001
MIXTURE_DT = 0.005
N_TAGS = 8


@dataclass
class Readings:
    """Gaussian ``value`` tuples with a ``tag``; ``mu``/``sigma`` mirror them."""

    mu: np.ndarray
    sigma: np.ndarray
    tag: np.ndarray  # int codes; the tuple carries f"tag{code}"
    ts: np.ndarray
    tuples: List[StreamTuple]


@dataclass
class Mixtures:
    """Random Gaussian-mixture ``value`` tuples (the paper's Table 2 input)."""

    mean: np.ndarray  # per-tuple mixture mean
    var: np.ndarray  # per-tuple mixture variance
    ts: np.ndarray
    tuples: List[StreamTuple]


def make_readings(seed: int, n: int) -> Readings:
    rng = np.random.default_rng([seed, 1])
    mu = rng.uniform(0.0, 100.0, n)
    sigma = rng.uniform(1.0, 10.0, n)
    tag = rng.integers(0, N_TAGS, n)
    ts = np.arange(n) * READING_DT
    names = [f"tag{k}" for k in range(N_TAGS)]
    tuples = [
        StreamTuple(
            timestamp=float(ts[i]),
            values={"tag": names[tag[i]]},
            uncertain={"value": Gaussian(float(mu[i]), float(sigma[i]))},
        )
        for i in range(n)
    ]
    return Readings(mu, sigma, tag, ts, tuples)


def make_mixtures(seed: int, n: int) -> Mixtures:
    rng = np.random.default_rng([seed, 2])
    mean = np.empty(n)
    var = np.empty(n)
    ts = np.arange(n) * MIXTURE_DT
    tuples = []
    for i in range(n):
        k = int(rng.integers(1, 4))
        w = rng.dirichlet(np.ones(k))
        m = rng.uniform(0.0, 100.0, k)
        s = rng.uniform(1.0, 10.0, k)
        mean[i] = float(np.dot(w, m))
        var[i] = float(np.dot(w, s * s + m * m) - mean[i] ** 2)
        tuples.append(
            StreamTuple(
                timestamp=float(ts[i]),
                values={},
                uncertain={"value": GaussianMixture(w, m, s)},
            )
        )
    return Mixtures(mean, var, ts, tuples)
