"""Radar scan geometry: polar range/azimuth grids and Cartesian conversion.

A CASA radar scans in polar coordinates: pulses are emitted at a fixed
rate while the antenna rotates, and every pulse is resolved into range
gates along the beam.  Detection algorithms and multi-radar merging
work in Cartesian (or geographic) coordinates, so Section 2.2's merge
step converts polar moment data to a Cartesian grid -- a conversion
whose uneven data density is itself a source of uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["RadarSite", "PolarCell", "polar_to_cartesian", "cartesian_to_polar", "beam_positions"]


@dataclass(frozen=True)
class RadarSite:
    """Location and scanning parameters of one radar node.

    Parameters
    ----------
    site_id:
        Identifier of the radar (e.g. ``"KSAO"``).
    x, y:
        Cartesian position of the radar in meters relative to the
        network origin.
    n_gates:
        Number of range gates per pulse (832 in the CASA testbed).
    gate_spacing:
        Radial distance between gates in meters.
    pulse_rate:
        Pulses per second (approximately 2000 in the testbed).
    rotation_rate:
        Antenna rotation rate in degrees per second.
    wavelength:
        Radar wavelength in meters (X-band ~ 0.032 m).  Scaled-down
        workloads with reduced pulse rates raise this value so the
        Nyquist velocity still covers the simulated wind speeds.
    """

    site_id: str
    x: float = 0.0
    y: float = 0.0
    n_gates: int = 832
    gate_spacing: float = 48.0
    pulse_rate: float = 2000.0
    rotation_rate: float = 18.0
    wavelength: float = 0.032

    def __post_init__(self) -> None:
        if self.n_gates < 1:
            raise ValueError("n_gates must be at least 1")
        if self.gate_spacing <= 0:
            raise ValueError("gate_spacing must be positive")
        if self.pulse_rate <= 0:
            raise ValueError("pulse_rate must be positive")
        if self.rotation_rate <= 0:
            raise ValueError("rotation_rate must be positive")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")

    @property
    def max_range(self) -> float:
        """Return the maximum unambiguous range in meters."""
        return self.n_gates * self.gate_spacing

    @property
    def nyquist_velocity(self) -> float:
        """Return the maximum unambiguous radial velocity in m/s.

        Velocities beyond ``wavelength * pulse_rate / 4`` alias (wrap
        around), which is why scaled workloads must pick the wavelength
        to match the simulated wind speeds.
        """
        return self.wavelength * self.pulse_rate / 4.0

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    def gate_ranges(self) -> np.ndarray:
        """Return the centre range of every gate in meters."""
        return (np.arange(self.n_gates) + 0.5) * self.gate_spacing

    def pulses_per_degree(self) -> float:
        """Return how many pulses are emitted per degree of rotation."""
        return self.pulse_rate / self.rotation_rate


@dataclass(frozen=True)
class PolarCell:
    """One resolution cell of a radar: an (azimuth, range-gate) pair."""

    azimuth_deg: float
    gate: int
    range_m: float

    def cartesian(self, site: RadarSite) -> Tuple[float, float]:
        return polar_to_cartesian(self.azimuth_deg, self.range_m, site)


def polar_to_cartesian(
    azimuth_deg: float | np.ndarray, range_m: float | np.ndarray, site: RadarSite
) -> Tuple[np.ndarray, np.ndarray]:
    """Convert radar-relative polar coordinates to network Cartesian.

    Azimuth follows the meteorological convention: 0 degrees is north
    (positive y) and angles increase clockwise.
    """
    azimuth = np.radians(np.asarray(azimuth_deg, dtype=float))
    rng = np.asarray(range_m, dtype=float)
    x = site.x + rng * np.sin(azimuth)
    y = site.y + rng * np.cos(azimuth)
    return x, y


def cartesian_to_polar(
    x: float | np.ndarray, y: float | np.ndarray, site: RadarSite
) -> Tuple[np.ndarray, np.ndarray]:
    """Convert network Cartesian coordinates to radar-relative polar."""
    dx = np.asarray(x, dtype=float) - site.x
    dy = np.asarray(y, dtype=float) - site.y
    rng = np.hypot(dx, dy)
    azimuth = np.degrees(np.arctan2(dx, dy)) % 360.0
    return azimuth, rng


def beam_positions(
    site: RadarSite, start_azimuth: float, n_pulses: int
) -> np.ndarray:
    """Return the azimuth (degrees) of each of ``n_pulses`` consecutive pulses."""
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    step = site.rotation_rate / site.pulse_rate
    return (start_azimuth + step * np.arange(n_pulses)) % 360.0
