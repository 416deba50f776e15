"""RFID sensing model: detection probability and observation likelihood.

Section 4.1: "a distribution for RFID sensing can be devised using
logistic regression over factors such as the distance and angle between
the reader and an object."  :class:`DetectionModel` implements exactly
that parametric form; it is used both by the trace simulator (to decide
which tags a scan actually reports) and by the particle filter's
observation model (to weight location hypotheses by how well they
explain a detection or a miss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.inference.graphical_model import ObservationModel

__all__ = ["DetectionModel", "DetectionObservation", "RFIDObservationModel"]


@dataclass(frozen=True)
class DetectionModel:
    """Logistic detection probability in distance (and optionally angle).

    ``P[detect | d, a] = max_rate * sigmoid(b0 + b_d * d + b_a * |a|)``

    With the default coefficients the probability is high close to the
    reader and decays to (almost) zero beyond roughly ``2 * midpoint``
    feet -- the "wide-range mobile reader" regime of the paper, where
    read rates are far below 100% and depend strongly on geometry.

    Parameters
    ----------
    midpoint:
        Distance (feet) at which the detection probability is half of
        ``max_rate``.
    steepness:
        Slope of the logistic in 1/feet; larger is a sharper cut-off.
    max_rate:
        Detection probability at zero distance (captures tag/antenna
        losses that no proximity can fix).
    angle_coefficient:
        Penalty per radian of reading angle away from boresight; zero
        disables the angle factor.
    """

    midpoint: float = 12.0
    steepness: float = 0.6
    max_rate: float = 0.95
    angle_coefficient: float = 0.0

    def __post_init__(self) -> None:
        if self.midpoint <= 0:
            raise ValueError("midpoint must be positive")
        if self.steepness <= 0:
            raise ValueError("steepness must be positive")
        if not 0.0 < self.max_rate <= 1.0:
            raise ValueError("max_rate must lie in (0, 1]")
        if self.angle_coefficient < 0:
            raise ValueError("angle_coefficient must be non-negative")

    def probability(self, distance, angle=0.0):
        """Return detection probability for distance (feet) and angle (rad)."""
        distance = np.asarray(distance, dtype=float)
        logit = self.steepness * (self.midpoint - distance) - self.angle_coefficient * np.abs(angle)
        out = self.max_rate / (1.0 + np.exp(-logit))
        return float(out) if out.ndim == 0 else out

    def effective_range(self, threshold: float = 0.02) -> float:
        """Return the distance beyond which detection is below ``threshold``.

        Used to size spatial-index queries: objects farther than this
        from the reader are (almost) never detected, and a non-detection
        carries (almost) no information about them.
        """
        if not 0.0 < threshold < self.max_rate:
            raise ValueError("threshold must lie in (0, max_rate)")
        # Invert the logistic: threshold = max_rate / (1 + exp(-s (m - d)))
        ratio = self.max_rate / threshold - 1.0
        return self.midpoint + math.log(ratio) / self.steepness


@dataclass(frozen=True)
class DetectionObservation:
    """One per-object observation extracted from a reader scan.

    ``detected`` is True when the object's tag id appeared in the scan
    and False when it did not (an informative miss for nearby objects).
    """

    reader_x: float
    reader_y: float
    detected: bool

    @property
    def reader_position(self) -> np.ndarray:
        return np.array([self.reader_x, self.reader_y], dtype=float)


class RFIDObservationModel(ObservationModel):
    """Particle-filter observation model wrapping a :class:`DetectionModel`."""

    def __init__(self, detection: Optional[DetectionModel] = None):
        self.detection = detection or DetectionModel()

    def likelihood(self, states: np.ndarray, observation: DetectionObservation) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[1] < 2:
            raise ValueError("states must be an (n, d>=2) array of candidate locations")
        # Column-wise: the same values as ``np.linalg.norm(deltas, axis=1)``
        # at a fraction of the cost of a reduction over length-2 rows.
        dx = states[:, 0] - observation.reader_x
        dy = states[:, 1] - observation.reader_y
        distances = np.sqrt(dx * dx + dy * dy)
        p_detect = np.asarray(self.detection.probability(distances), dtype=float)
        if observation.detected:
            return p_detect
        return 1.0 - p_detect
