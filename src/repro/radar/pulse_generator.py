"""Synthetic raw pulse generation (the radar's time-series data).

Section 2.2: each radar emits roughly 2000 pulses per second while
rotating; every pulse is resolved into 832 range gates, and each gate
carries a data item of four 32-bit floats, for about 205 Mb/s of raw
data.  The raw data here are the I/Q (in-phase / quadrature) samples of
the returned signal, from which the signal processor later derives
moment data.

We simulate that process directly: for each pulse and gate the complex
return is

``z[p, g] = A[p, g] * exp(i * phi[p, g]) + noise``

where the phase advances between consecutive pulses by
``4 * pi * v * T / lambda`` (the Doppler shift of the local radial
velocity ``v``), the amplitude follows the scene reflectivity, and the
noise term aggregates the electronic/environmental noise sources the
paper lists.  Spectral broadening (turbulence) appears as random phase
jitter.  This reproduces the property Table 1 depends on: velocity can
be recovered accurately from finely averaged pulses and is smeared by
coarse averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.distributions import as_rng

from .geometry import RadarSite, polar_to_cartesian
from .scene import WeatherScene

__all__ = ["SectorScan", "PulseBlock", "PulseGenerator", "RAW_BYTES_PER_GATE"]

#: Four 32-bit floats per gate per pulse, as described in Section 2.2.
RAW_BYTES_PER_GATE = 4 * 4


@dataclass(frozen=True)
class PulseBlock:
    """A contiguous block of pulses from one sector scan.

    Attributes
    ----------
    start_time:
        Timestamp of the first pulse in seconds.
    azimuths_deg:
        Azimuth of every pulse, shape ``(n_pulses,)``.
    iq:
        Complex I/Q samples, shape ``(n_pulses, n_gates)``.
    noise_power:
        The (known) receiver noise power used in generation; real
        radars estimate this from blank-sky measurements.
    """

    start_time: float
    azimuths_deg: np.ndarray
    iq: np.ndarray
    noise_power: float

    @property
    def n_pulses(self) -> int:
        return int(self.iq.shape[0])

    @property
    def n_gates(self) -> int:
        return int(self.iq.shape[1])

    @property
    def raw_size_bytes(self) -> int:
        """Return the raw data volume this block represents."""
        return self.n_pulses * self.n_gates * RAW_BYTES_PER_GATE


@dataclass(frozen=True)
class SectorScan:
    """One full sweep of the configured sector (a list of pulse blocks)."""

    scan_index: int
    blocks: Tuple[PulseBlock, ...]

    @property
    def n_pulses(self) -> int:
        return sum(block.n_pulses for block in self.blocks)

    @property
    def raw_size_bytes(self) -> int:
        return sum(block.raw_size_bytes for block in self.blocks)

    def concatenated(self) -> PulseBlock:
        """Return the whole scan as a single pulse block."""
        if len(self.blocks) == 1:
            return self.blocks[0]
        azimuths = np.concatenate([b.azimuths_deg for b in self.blocks])
        iq = np.vstack([b.iq for b in self.blocks])
        return PulseBlock(
            start_time=self.blocks[0].start_time,
            azimuths_deg=azimuths,
            iq=iq,
            noise_power=self.blocks[0].noise_power,
        )


class PulseGenerator:
    """Generates synthetic raw pulse data for one radar and scene.

    Parameters
    ----------
    site:
        Radar location and scanning parameters.
    scene:
        The weather scene providing velocity and reflectivity fields.
    sector:
        ``(start, end)`` azimuth of the scanned sector in degrees.
    noise_power:
        Receiver noise power relative to a 0 dBZ return.
    spectrum_width:
        Intrinsic spectrum width in m/s (turbulence); appears as phase
        jitter between pulses.
    rng:
        Random generator or seed.
    """

    def __init__(
        self,
        site: RadarSite,
        scene: WeatherScene,
        sector: Tuple[float, float] = (0.0, 90.0),
        noise_power: float = 0.05,
        spectrum_width: float = 1.5,
        rng: np.random.Generator | int | None = None,
    ):
        start, end = sector
        if end <= start:
            raise ValueError("sector end azimuth must exceed start azimuth")
        if noise_power < 0:
            raise ValueError("noise_power must be non-negative")
        if spectrum_width < 0:
            raise ValueError("spectrum_width must be non-negative")
        self.site = site
        self.scene = scene
        self.sector = (float(start), float(end))
        self.noise_power = float(noise_power)
        self.spectrum_width = float(spectrum_width)
        self._rng = as_rng(rng)
        self._warn_if_aliasing()

    def _warn_if_aliasing(self) -> None:
        """Raise when the scene's vortex speeds exceed the Nyquist velocity.

        Aliased velocities wrap around and silently destroy the shear
        signatures the Table 1 experiment depends on, so this is an
        error rather than a warning.
        """
        if not self.scene.vortices:
            return
        peak = max(abs(v.max_speed) for v in self.scene.vortices)
        peak += float(np.hypot(*self.scene.background_wind))
        if peak > self.site.nyquist_velocity:
            raise ValueError(
                f"scene velocities (~{peak:.1f} m/s) exceed the Nyquist velocity "
                f"({self.site.nyquist_velocity:.1f} m/s); increase the site wavelength "
                "or pulse rate"
            )

    # ------------------------------------------------------------------
    # Scan geometry
    # ------------------------------------------------------------------
    @property
    def pulses_per_scan(self) -> int:
        """Return the number of pulses in one sweep of the sector."""
        width = self.sector[1] - self.sector[0]
        return max(int(round(width * self.site.pulses_per_degree())), 2)

    @property
    def seconds_per_scan(self) -> float:
        """Return the duration of one sector sweep in seconds."""
        return self.pulses_per_scan / self.site.pulse_rate

    def scans_in(self, duration_seconds: float) -> int:
        """Return how many full sector scans fit in ``duration_seconds``."""
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        return max(int(duration_seconds // self.seconds_per_scan), 1)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate_scan(self, scan_index: int = 0, start_time: float = 0.0) -> SectorScan:
        """Generate the raw pulses of one sector sweep."""
        n_pulses = self.pulses_per_scan
        azimuths = self.sector[0] + (self.sector[1] - self.sector[0]) * (
            np.arange(n_pulses) / n_pulses
        )
        ranges = self.site.gate_ranges()
        # True fields evaluated at every (pulse, gate) cell.
        az_grid = np.repeat(azimuths[:, None], ranges.size, axis=1)
        rng_grid = np.repeat(ranges[None, :], n_pulses, axis=0)
        x, y = polar_to_cartesian(az_grid, rng_grid, self.site)
        velocity = self.scene.radial_velocity(x, y, self.site.x, self.site.y)
        dbz = self.scene.reflectivity(x, y)
        power = 10.0 ** (dbz / 20.0) / 10.0  # arbitrary linear amplitude scale

        prt = 1.0 / self.site.pulse_rate
        wavelength = self.site.wavelength
        doppler_step = 4.0 * math.pi * velocity * prt / wavelength
        jitter_sigma = 4.0 * math.pi * self.spectrum_width * prt / wavelength
        phase_noise = self._rng.normal(0.0, jitter_sigma, size=doppler_step.shape)
        initial_phase = self._rng.uniform(0.0, 2.0 * math.pi, size=ranges.size)
        phase = initial_phase[None, :] + np.cumsum(doppler_step + phase_noise, axis=0)

        noise_sigma = math.sqrt(self.noise_power / 2.0)
        noise = self._rng.normal(0.0, noise_sigma, size=phase.shape) + 1j * self._rng.normal(
            0.0, noise_sigma, size=phase.shape
        )
        iq = power * np.exp(1j * phase) + noise

        block = PulseBlock(
            start_time=start_time,
            azimuths_deg=azimuths,
            iq=iq.astype(np.complex64),
            noise_power=self.noise_power,
        )
        return SectorScan(scan_index=scan_index, blocks=(block,))

    def generate(self, duration_seconds: float) -> List[SectorScan]:
        """Generate all full sector scans that fit in ``duration_seconds``."""
        n_scans = self.scans_in(duration_seconds)
        scans = []
        for i in range(n_scans):
            scans.append(self.generate_scan(scan_index=i, start_time=i * self.seconds_per_scan))
        return scans

    def __iter__(self) -> Iterator[SectorScan]:
        index = 0
        while True:
            yield self.generate_scan(scan_index=index, start_time=index * self.seconds_per_scan)
            index += 1
