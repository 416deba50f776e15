"""Moment data computation: the radar signal processor.

Section 2.2: "The radar's signal processor transforms the large amount
of raw pulse data into moment data, which is a numeric description of
each unit area of space (called a voxel) using real-valued attributes
such as reflectivity, velocity, and spectral width.  [...] moment data
is generated by averaging over the data items from N consecutive pulses
but for the same gate."

We implement the standard pulse-pair estimators over non-overlapping
blocks of ``averaging_size`` consecutive pulses:

* power / reflectivity from the mean squared magnitude of the I/Q
  samples (minus receiver noise),
* radial velocity from the phase of the lag-1 autocorrelation, and
* spectral width from the lag-0 / lag-1 magnitude ratio.

The block size is the experiment knob of Table 1: large blocks shrink
the moment data (and the detection runtime) but smear the azimuthal
velocity structure the tornado detector needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .geometry import RadarSite
from .pulse_generator import PulseBlock, SectorScan

__all__ = ["MomentField", "compute_moments", "MOMENT_BYTES_PER_VOXEL"]

#: Four real-valued attributes of four bytes each per voxel (reflectivity,
#: velocity, spectral width, signal-to-noise), matching the paper's "numeric
#: description of each unit area of space".
MOMENT_BYTES_PER_VOXEL = 4 * 4


@dataclass(frozen=True)
class MomentField:
    """Moment data for one sector scan at a given averaging size.

    Arrays are indexed ``[azimuth_block, gate]``.
    """

    azimuths_deg: np.ndarray
    ranges_m: np.ndarray
    reflectivity_dbz: np.ndarray
    velocity: np.ndarray
    spectrum_width: np.ndarray
    snr: np.ndarray
    averaging_size: int
    start_time: float = 0.0

    @property
    def n_blocks(self) -> int:
        return int(self.azimuths_deg.size)

    @property
    def n_gates(self) -> int:
        return int(self.ranges_m.size)

    @property
    def n_voxels(self) -> int:
        return self.n_blocks * self.n_gates

    @property
    def size_bytes(self) -> int:
        """Return the moment data volume (Table 1, column 2)."""
        return self.n_voxels * MOMENT_BYTES_PER_VOXEL

    @property
    def size_megabytes(self) -> float:
        return self.size_bytes / 1e6

    def azimuth_resolution_deg(self) -> float:
        """Return the azimuthal spacing between consecutive blocks."""
        if self.n_blocks < 2:
            return float("nan")
        return float(np.median(np.diff(self.azimuths_deg)))


def _block_moments(
    iq_block: np.ndarray, noise_power: float, prt: float, wavelength: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pulse-pair estimators for one block, vectorised over gates.

    ``iq_block`` has shape ``(n_pulses_in_block, n_gates)``.
    """
    power = np.mean(np.abs(iq_block) ** 2, axis=0)
    signal_power = np.maximum(power - noise_power, 1e-12)
    reflectivity_dbz = 10.0 * np.log10(signal_power * 100.0)
    snr = signal_power / max(noise_power, 1e-12)

    lag1 = np.mean(iq_block[1:] * np.conj(iq_block[:-1]), axis=0)
    velocity = np.angle(lag1) * wavelength / (4.0 * math.pi * prt)

    lag0 = np.maximum(power, 1e-12)
    ratio = np.abs(lag1) / lag0
    ratio = np.clip(ratio, 1e-6, 1.0)
    spectrum_width = (wavelength / (2.0 * math.sqrt(2.0) * math.pi * prt)) * np.sqrt(
        np.abs(np.log(1.0 / ratio))
    )
    return reflectivity_dbz, velocity, spectrum_width, snr


def compute_moments(
    block: PulseBlock | SectorScan,
    site: RadarSite,
    averaging_size: int,
) -> MomentField:
    """Compute moment data by averaging ``averaging_size`` consecutive pulses.

    Trailing pulses that do not fill a complete block are discarded,
    mirroring a real signal processor that emits one moment record per
    full block.
    """
    if averaging_size < 2:
        raise ValueError("averaging_size must be at least 2 (pulse-pair needs two pulses)")
    if isinstance(block, SectorScan):
        block = block.concatenated()
    n_pulses, n_gates = block.iq.shape
    n_blocks = n_pulses // averaging_size
    if n_blocks < 1:
        raise ValueError(
            f"averaging_size {averaging_size} exceeds the {n_pulses} pulses available"
        )
    usable = n_blocks * averaging_size
    iq = block.iq[:usable].reshape(n_blocks, averaging_size, n_gates)
    azimuths = block.azimuths_deg[:usable].reshape(n_blocks, averaging_size).mean(axis=1)

    prt = 1.0 / site.pulse_rate
    reflectivity = np.empty((n_blocks, n_gates))
    velocity = np.empty((n_blocks, n_gates))
    width = np.empty((n_blocks, n_gates))
    snr = np.empty((n_blocks, n_gates))
    for b in range(n_blocks):
        reflectivity[b], velocity[b], width[b], snr[b] = _block_moments(
            iq[b], block.noise_power, prt, site.wavelength
        )

    return MomentField(
        azimuths_deg=azimuths,
        ranges_m=site.gate_ranges(),
        reflectivity_dbz=reflectivity,
        velocity=velocity,
        spectrum_width=width,
        snr=snr,
        averaging_size=averaging_size,
        start_time=block.start_time,
    )
