"""Feedback control of the particle count (speed/accuracy trade-off).

Section 4.2: sampling-based inference trades accuracy against CPU time
through the number of particles.  The paper measures inference accuracy
*online* using reference objects whose true state is known (shelf tags
at fixed, known locations) and adjusts the particle count with a simple
feedback scheme: start small, keep doubling until the accuracy
requirement is met, then walk the count back down by a constant step
until the smallest sufficient count is found.

:class:`ParticleCountController` implements that scheme, and
:class:`ReferenceAccuracyMonitor` computes the accuracy signal from
reference objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

import numpy as np

__all__ = ["ReferenceAccuracyMonitor", "ParticleCountController"]


class ReferenceAccuracyMonitor:
    """Tracks inference error on reference objects with known ground truth.

    The RFID application conceptually replicates each shelf tag's node
    in the graphical model: one copy is evidence, the other is hidden
    and estimated like any object.  Comparing the estimate with the
    known location yields a running accuracy measurement.
    """

    def __init__(self, true_positions: Mapping[object, Sequence[float]], window: int = 50):
        if not true_positions:
            raise ValueError("at least one reference object is required")
        if window < 1:
            raise ValueError("window must be at least 1")
        self._truth = {key: np.asarray(value, dtype=float) for key, value in true_positions.items()}
        self._window = window
        self._errors: List[float] = []

    @property
    def reference_ids(self) -> List[object]:
        return list(self._truth.keys())

    def record_estimate(self, reference_id, estimate: Sequence[float]) -> float:
        """Record an estimate for one reference object; return its error."""
        truth = self._truth.get(reference_id)
        if truth is None:
            raise KeyError(f"unknown reference object {reference_id!r}")
        estimate = np.asarray(estimate, dtype=float)
        error = float(np.linalg.norm(estimate - truth))
        self._errors.append(error)
        if len(self._errors) > self._window:
            self._errors = self._errors[-self._window :]
        return error

    def current_error(self) -> Optional[float]:
        """Return the windowed mean error, or None before any estimate."""
        if not self._errors:
            return None
        return float(np.mean(self._errors))

    def reset(self) -> None:
        self._errors.clear()


@dataclass
class ParticleCountController:
    """Feedback controller for the per-object particle count.

    Parameters
    ----------
    target_error:
        Accuracy requirement (same units as the monitor's error, e.g.
        feet of location error).
    initial_count / min_count / max_count:
        Particle-count bounds.
    decrease_step:
        Constant subtracted while walking the count back down once the
        accuracy requirement has been met.
    """

    target_error: float
    initial_count: int = 25
    min_count: int = 10
    max_count: int = 3200
    decrease_step: int = 10
    _count: int = field(init=False)
    _phase: str = field(init=False, default="doubling")
    _last_good: Optional[int] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.target_error <= 0:
            raise ValueError("target_error must be positive")
        if not (0 < self.min_count <= self.initial_count <= self.max_count):
            raise ValueError("particle-count bounds must satisfy 0 < min <= initial <= max")
        if self.decrease_step < 1:
            raise ValueError("decrease_step must be at least 1")
        self._count = self.initial_count

    @property
    def count(self) -> int:
        """Return the particle count the filter should currently use."""
        return self._count

    @property
    def phase(self) -> str:
        """Return the controller phase: ``doubling``, ``decreasing``, or ``settled``."""
        return self._phase

    def observe(self, measured_error: Optional[float]) -> int:
        """Feed one accuracy measurement and return the new particle count.

        The controller doubles the count while the error exceeds the
        target, then decreases it by a constant step while the error
        stays within the target, settling on the smallest count that
        meets the requirement.
        """
        if measured_error is None:
            return self._count
        meets = measured_error <= self.target_error
        if self._phase == "doubling":
            if meets:
                self._last_good = self._count
                self._phase = "decreasing"
            else:
                # Keep doubling (capped at max_count); the accuracy requirement
                # may still be met later, e.g. once more observations arrive.
                self._count = min(self._count * 2, self.max_count)
        elif self._phase == "decreasing":
            if meets:
                self._last_good = self._count
                next_count = self._count - self.decrease_step
                if next_count < self.min_count:
                    self._phase = "settled"
                else:
                    self._count = next_count
            else:
                # Went one step too far: return to the last count that met
                # the requirement and stop searching.
                self._count = self._last_good if self._last_good is not None else self._count
                self._phase = "settled"
        return self._count
