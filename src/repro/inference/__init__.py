"""Probabilistic inference substrate for T operators.

Graphical-model descriptions of the data generation process, particle
filtering with the paper's factorisation / spatial-indexing /
compression optimisations, adaptive particle-count control, and a
Kalman-filter baseline.
"""

from .adaptive import ParticleCountController, ReferenceAccuracyMonitor
from .graphical_model import (
    Factor,
    FactorGraph,
    ObservationModel,
    StateSpaceModel,
    TransitionModel,
)
from .kalman import KalmanFilter, KalmanState
from .particle_filter import (
    CompressionConfig,
    FactorizedParticleFilter,
    JointParticleFilter,
    ParticleFilter,
)
from .resampling import (
    effective_sample_size,
    multinomial_resample,
    residual_resample,
    segmented_systematic_resample,
    stratified_resample,
    systematic_resample,
)

__all__ = [
    "TransitionModel",
    "ObservationModel",
    "StateSpaceModel",
    "Factor",
    "FactorGraph",
    "ParticleFilter",
    "FactorizedParticleFilter",
    "JointParticleFilter",
    "CompressionConfig",
    "effective_sample_size",
    "systematic_resample",
    "segmented_systematic_resample",
    "stratified_resample",
    "multinomial_resample",
    "residual_resample",
    "ParticleCountController",
    "ReferenceAccuracyMonitor",
    "KalmanFilter",
    "KalmanState",
]
