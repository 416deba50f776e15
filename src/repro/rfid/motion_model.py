"""Object motion model for the RFID particle filter.

The graphical model's state-evolution component: objects mostly stay
where they are (small positional jitter) but occasionally jump to a
different shelf.  The particle-filter transition model mirrors that
behaviour, mixing a tight random walk with occasional long-range jumps
so particle clouds can recover when an object actually moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.inference.graphical_model import StateSpaceModel, TransitionModel

from .sensor_model import DetectionModel, RFIDObservationModel

__all__ = ["RandomWalkWithJumps", "uniform_prior", "build_object_model"]


@dataclass(frozen=True)
class RandomWalkWithJumps(TransitionModel):
    """Random-walk transition with occasional uniform relocation jumps.

    Parameters
    ----------
    walk_sigma:
        Standard deviation of the per-second positional jitter (feet).
    jump_rate:
        Expected relocations per second; each relocation resamples the
        particle uniformly over the area bounds.
    bounds:
        ``(x_min, y_min, x_max, y_max)`` of the storage area; particles
        are clipped to it after every move.
    """

    walk_sigma: float = 0.2
    jump_rate: float = 0.002
    bounds: Tuple[float, float, float, float] = (0.0, 0.0, 100.0, 50.0)

    def __post_init__(self) -> None:
        if self.walk_sigma <= 0:
            raise ValueError("walk_sigma must be positive")
        if self.jump_rate < 0:
            raise ValueError("jump_rate must be non-negative")
        x_min, y_min, x_max, y_max = self.bounds
        if x_max <= x_min or y_max <= y_min:
            raise ValueError("bounds must describe a non-empty rectangle")

    def propagate(self, states: np.ndarray, dt: float, rng: np.random.Generator) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        n = states.shape[0]
        x_min, y_min, x_max, y_max = self.bounds
        sigma = self.walk_sigma * np.sqrt(max(dt, 0.0))
        moved = states + rng.normal(0.0, sigma, size=states.shape) if sigma > 0 else states.copy()
        jump_probability = 1.0 - np.exp(-self.jump_rate * dt)
        if jump_probability > 0:
            jumps = rng.random(n) < jump_probability
            n_jumps = int(np.count_nonzero(jumps))
            if n_jumps:
                moved[jumps, 0] = rng.uniform(x_min, x_max, size=n_jumps)
                moved[jumps, 1] = rng.uniform(y_min, y_max, size=n_jumps)
        moved[:, 0] = np.clip(moved[:, 0], x_min, x_max)
        moved[:, 1] = np.clip(moved[:, 1], y_min, y_max)
        return moved


def uniform_prior(
    bounds: Tuple[float, float, float, float],
) -> Callable[[int, np.random.Generator], np.ndarray]:
    """Return a prior sampler drawing locations uniformly over the area.

    Before any observation, an object could be anywhere in the storage
    area; the first few readings (and misses) then concentrate the
    particle cloud.
    """
    x_min, y_min, x_max, y_max = bounds
    if x_max <= x_min or y_max <= y_min:
        raise ValueError("bounds must describe a non-empty rectangle")

    def sampler(n: int, rng: np.random.Generator) -> np.ndarray:
        xs = rng.uniform(x_min, x_max, size=n)
        ys = rng.uniform(y_min, y_max, size=n)
        return np.column_stack([xs, ys])

    return sampler


def build_object_model(
    bounds: Tuple[float, float, float, float],
    detection: Optional[DetectionModel] = None,
    walk_sigma: float = 0.2,
    jump_rate: float = 0.002,
    prior: Optional[Callable[[int, np.random.Generator], np.ndarray]] = None,
) -> StateSpaceModel:
    """Assemble the per-object state-space model used by the RFID T operator."""
    transition = RandomWalkWithJumps(walk_sigma=walk_sigma, jump_rate=jump_rate, bounds=bounds)
    observation = RFIDObservationModel(detection)
    return StateSpaceModel(
        transition=transition,
        observation=observation,
        prior_sampler=prior or uniform_prior(bounds),
        state_dim=2,
    )
