"""The data capture and transformation (T) operator.

Section 3 introduces the T operator as the ingress box allocated to
each sensor device.  It has two jobs:

1. transform raw device data into the tuple format later operators
   need (object locations for RFID, per-voxel moment data for radar);
2. attach a probability density function to every uncertain attribute
   of every emitted tuple, so downstream operators can propagate
   uncertainty.

:class:`TransformOperator` is the abstract base shared by the two
application-specific T operators
(:class:`repro.rfid.transform_operator.RFIDTransformOperator` and
:class:`repro.radar.transform_operator.RadarTransformOperator`).  It
standardises the "infer, then compress the inferred distribution"
pipeline, including the particle-to-parametric compression policy of
Section 4.3.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.distributions import (
    Distribution,
    Gaussian,
    ParticleDistribution,
    compress_particles,
    fit_gaussian,
)
from repro.streams.batch import TupleBatch
from repro.streams.operators.base import Operator
from repro.streams.tuples import StreamTuple

__all__ = ["CompressionPolicy", "TransformOperator", "marginal_gaussians"]


@dataclass(frozen=True)
class CompressionPolicy:
    """How a T operator turns particle clouds into tuple-level distributions.

    Attributes
    ----------
    mode:
        ``"particles"`` ships the raw weighted samples (large tuples,
        slower downstream processing); ``"gaussian"`` fits the
        KL-optimal single Gaussian; ``"mixture"`` selects a Gaussian
        mixture with up to ``max_components`` components by AIC/BIC.
    max_components:
        Upper bound on mixture components in ``"mixture"`` mode.
    criterion:
        Model-selection criterion, ``"aic"`` or ``"bic"``.
    """

    mode: str = "gaussian"
    max_components: int = 3
    criterion: str = "bic"

    def __post_init__(self) -> None:
        if self.mode not in ("particles", "gaussian", "mixture"):
            raise ValueError(f"unknown compression mode {self.mode!r}")
        if self.max_components < 1:
            raise ValueError("max_components must be at least 1")
        if self.criterion not in ("aic", "bic"):
            raise ValueError("criterion must be 'aic' or 'bic'")

    def compress(self, particles: ParticleDistribution, rng=None) -> Distribution:
        """Apply the policy to one particle cloud."""
        if self.mode == "particles":
            return particles
        if self.mode == "gaussian":
            return fit_gaussian(particles.values, particles.weights)
        return compress_particles(
            particles,
            max_components=self.max_components,
            criterion=self.criterion,
            rng=rng,
        )


def marginal_gaussians(
    means: np.ndarray, variances: np.ndarray, min_sigma: float = 1e-9
) -> List[Tuple[Gaussian, ...]]:
    """One tuple of marginal Gaussians per row of ``(n, d)`` weighted moments.

    These are a cloud's KL-optimal fits (:func:`fit_gaussian`), sigma
    floored at ``min_sigma`` so that a collapsed cloud stays valid.
    """
    sigmas = np.maximum(np.sqrt(variances), min_sigma)
    return [
        tuple(map(Gaussian, mean_row, sigma_row))
        for mean_row, sigma_row in zip(means.tolist(), sigmas.tolist())
    ]


class TransformOperator(Operator):
    """Abstract base class for data capture and transformation operators.

    Subclasses implement :meth:`transform`, mapping one raw observation
    (whatever the device produces) to zero or more output tuples whose
    uncertain attributes already carry distributions.  Raw observations
    are wrapped in :class:`StreamTuple` instances whose ``values`` carry
    the raw payload under the key given by ``raw_attribute``.
    """

    def __init__(
        self,
        compression: Optional[CompressionPolicy] = None,
        raw_attribute: str = "raw",
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        self.compression = compression or CompressionPolicy()
        self.raw_attribute = raw_attribute

    @abc.abstractmethod
    def transform(self, observation, timestamp: float) -> Iterable[StreamTuple]:
        """Map one raw observation to output tuples with pdfs attached."""

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        raw, transform = self.raw_attribute, self.transform
        return TupleBatch(
            [out for item in batch for out in transform(item.value(raw), item.timestamp)]
        )

    # Convenience for drivers that have raw observations rather than tuples.
    def ingest(self, observation, timestamp: float) -> Iterable[StreamTuple]:
        """Transform a raw observation directly (bypassing tuple wrapping)."""
        self.tuples_in += 1
        outputs = list(self.transform(observation, timestamp))
        self.tuples_out += len(outputs)
        return outputs
