"""The radar data capture and transformation (T) operator.

Unlike the RFID case, the raw-to-moment transformation is deterministic
(pulse-pair formulas), so the T operator's job is to attach an
uncertainty description to each transformed value (Section 4.4).  For
every voxel (azimuth block x range gate) it:

1. computes the averaged moment data over ``averaging_size`` pulses,
2. forms the per-pulse-pair instantaneous velocity series for that
   voxel (a short, temporally correlated series),
3. treats that series as an MA process and uses the time-series CLT to
   obtain the distribution of the averaged velocity, and
4. emits one tuple per (sufficiently reflective) voxel carrying the
   velocity distribution plus deterministic azimuth / range /
   reflectivity attributes.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from repro.core.transform import CompressionPolicy, TransformOperator
from repro.streams.tuples import StreamTuple

from .clt import mean_distribution_from_series
from .geometry import RadarSite
from .moment import compute_moments
from .pulse_generator import PulseBlock, SectorScan
from .timeseries import identify_ma_order

__all__ = ["RadarTransformOperator", "pulse_pair_velocity_series"]


def pulse_pair_velocity_series(
    iq: np.ndarray, pulse_rate: float, wavelength: float = 0.032
) -> np.ndarray:
    """Return per-pulse-pair instantaneous velocity estimates for one voxel.

    ``iq`` is the length-``N`` complex sample series of one gate inside
    one averaging block; the result has ``N - 1`` entries.  These are
    the correlated "observed velocity series" of Section 4.4.
    """
    iq = np.asarray(iq)
    if iq.ndim != 1 or iq.size < 2:
        raise ValueError("iq must be a one-dimensional series of at least two samples")
    prt = 1.0 / pulse_rate
    lag1 = iq[1:] * np.conj(iq[:-1])
    return np.angle(lag1) * wavelength / (4.0 * math.pi * prt)


class RadarTransformOperator(TransformOperator):
    """T operator turning raw pulse data into voxel tuples with pdfs.

    Parameters
    ----------
    site:
        The radar whose pulses this operator ingests.
    averaging_size:
        Number of consecutive pulses averaged per moment record
        (Table 1's knob).
    min_reflectivity_dbz:
        Voxels below this reflectivity are not emitted (clear air),
        which keeps the tuple stream at a volume the wireless link and
        the central node can handle.
    identify_order:
        When True the MA order of each voxel's velocity series is
        identified from its autocorrelations; when False a fixed
        ``ma_order`` is used (cheaper, the paper's default posture for
        extremely high-volume streams).
    ma_order:
        Fixed MA order used when ``identify_order`` is False.
    """

    def __init__(
        self,
        site: RadarSite,
        averaging_size: int = 40,
        min_reflectivity_dbz: float = 20.0,
        identify_order: bool = False,
        ma_order: int = 2,
        compression: Optional[CompressionPolicy] = None,
        name: Optional[str] = None,
    ):
        super().__init__(compression=compression, raw_attribute="scan", name=name)
        if averaging_size < 2:
            raise ValueError("averaging_size must be at least 2")
        if ma_order < 0:
            raise ValueError("ma_order must be non-negative")
        self.site = site
        self.averaging_size = averaging_size
        self.min_reflectivity_dbz = min_reflectivity_dbz
        self.identify_order = identify_order
        self.ma_order = ma_order
        #: Number of voxels emitted so far (diagnostic).
        self.voxels_emitted = 0

    def transform(self, observation, timestamp: float) -> Iterable[StreamTuple]:
        if isinstance(observation, SectorScan):
            block = observation.concatenated()
        elif isinstance(observation, PulseBlock):
            block = observation
        else:
            raise TypeError(
                f"radar T operator expects a SectorScan or PulseBlock, got {type(observation).__name__}"
            )
        moments = compute_moments(block, self.site, self.averaging_size)
        n_blocks = moments.n_blocks
        usable = n_blocks * self.averaging_size
        iq = block.iq[:usable].reshape(n_blocks, self.averaging_size, moments.n_gates)

        for b in range(n_blocks):
            emit_gates = np.nonzero(moments.reflectivity_dbz[b] >= self.min_reflectivity_dbz)[0]
            for g in emit_gates:
                series = pulse_pair_velocity_series(
                    iq[b, :, g], self.site.pulse_rate, self.site.wavelength
                )
                order = (
                    identify_ma_order(series)
                    if self.identify_order
                    else min(self.ma_order, series.size - 2)
                )
                velocity_dist = mean_distribution_from_series(series, ma_order=max(order, 0))
                self.voxels_emitted += 1
                yield StreamTuple(
                    timestamp=timestamp,
                    values={
                        "site_id": self.site.site_id,
                        "azimuth_deg": float(moments.azimuths_deg[b]),
                        "range_m": float(moments.ranges_m[g]),
                        "reflectivity_dbz": float(moments.reflectivity_dbz[b, g]),
                        "spectrum_width": float(moments.spectrum_width[b, g]),
                        "averaging_size": self.averaging_size,
                    },
                    uncertain={"velocity": velocity_dist},
                )
