"""Tornado detection from moment data: azimuthal velocity shear signatures.

The operational CASA detection algorithms look for tornado vortex
signatures: adjacent-in-azimuth velocity samples at (roughly) the same
range whose difference (the gate-to-gate shear) is large, i.e. strong
inbound next to strong outbound flow.  We implement that classic
signature detector, which is all Table 1 needs: with finely averaged
moment data the vortex couplet is resolved and detected; with heavy
averaging the couplet is smeared below the shear threshold and the
detector reports nothing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .geometry import RadarSite
from .moment import MomentField

__all__ = ["VortexDetection", "DetectionResult", "detect_vortices", "run_detection"]


@dataclass(frozen=True)
class VortexDetection:
    """One detected vortex signature."""

    azimuth_deg: float
    range_m: float
    delta_v: float
    n_cells: int

    def position(self, site: RadarSite) -> Tuple[float, float]:
        azimuth = math.radians(self.azimuth_deg)
        return (
            site.x + self.range_m * math.sin(azimuth),
            site.y + self.range_m * math.cos(azimuth),
        )


@dataclass(frozen=True)
class DetectionResult:
    """Detections for one moment field plus algorithm runtime."""

    detections: Tuple[VortexDetection, ...]
    runtime_seconds: float
    averaging_size: int

    @property
    def count(self) -> int:
        return len(self.detections)


def _cluster_hits(
    hits: List[Tuple[int, int, float]],
    azimuths: np.ndarray,
    ranges: np.ndarray,
    azimuth_gap: float,
    range_gap: float,
) -> List[VortexDetection]:
    """Group neighbouring shear hits into one detection each.

    Hits are ``(block_index, gate_index, delta_v)``.  Two hits belong to
    the same cluster when both their azimuth and range separations are
    within the given gaps, which collapses the several cells a single
    vortex lights up into one reported detection.
    """
    clusters: List[List[Tuple[int, int, float]]] = []
    for hit in sorted(hits):
        b, g, dv = hit
        placed = False
        for cluster in clusters:
            cb, cg, _ = cluster[-1]
            if (
                abs(azimuths[b] - azimuths[cb]) <= azimuth_gap
                and abs(ranges[g] - ranges[cg]) <= range_gap
            ):
                cluster.append(hit)
                placed = True
                break
        if not placed:
            clusters.append([hit])

    detections = []
    for cluster in clusters:
        blocks = [b for b, _, _ in cluster]
        gates = [g for _, g, _ in cluster]
        dvs = [dv for _, _, dv in cluster]
        detections.append(
            VortexDetection(
                azimuth_deg=float(np.mean(azimuths[blocks])),
                range_m=float(np.mean(ranges[gates])),
                delta_v=float(np.max(dvs)),
                n_cells=len(cluster),
            )
        )
    return detections


def detect_vortices(
    moments: MomentField,
    site: RadarSite,
    delta_v_threshold: float = 40.0,
    max_signature_width_m: float = 2000.0,
    min_reflectivity_dbz: float = 20.0,
    cluster_azimuth_gap_deg: float = 6.0,
    cluster_range_gap_m: float = 2500.0,
) -> List[VortexDetection]:
    """Find tornado vortex signatures in one moment field.

    For every range gate, the detector slides an azimuthal window whose
    physical arc length is at most ``max_signature_width_m`` (the scale
    of a tornado couplet rather than a storm-scale gradient) and looks
    for a velocity couplet: the difference between the maximum outbound
    and maximum inbound velocity inside the window.  A window is a
    *hit* when that delta-V exceeds ``delta_v_threshold`` m/s and both
    extreme cells carry meaningful reflectivity.  Hits are clustered
    into one detection per vortex.

    Heavier pulse averaging widens the azimuthal spacing of the moment
    cells and averages inbound and outbound flow into the same cell, so
    the measured delta-V collapses and the signature disappears -- the
    degradation Table 1 documents.
    """
    if moments.n_blocks < 2:
        return []
    velocity = moments.velocity
    reflectivity = moments.reflectivity_dbz
    azimuths = moments.azimuths_deg
    ranges = moments.ranges_m
    azimuth_step = moments.azimuth_resolution_deg()
    if not np.isfinite(azimuth_step) or azimuth_step <= 0:
        return []

    hits: List[Tuple[int, int, float]] = []
    refl_ok = reflectivity >= min_reflectivity_dbz
    for g, range_m in enumerate(ranges):
        if range_m <= 0:
            continue
        # Window size (in blocks) whose arc length stays within the
        # tornado couplet scale at this range; at least one neighbour.
        max_width_deg = math.degrees(max_signature_width_m / range_m)
        window = max(int(round(max_width_deg / azimuth_step)), 1)
        column = velocity[:, g]
        usable = refl_ok[:, g]
        if not np.any(usable):
            continue
        for b in range(moments.n_blocks - 1):
            end = min(b + window + 1, moments.n_blocks)
            segment = column[b:end]
            segment_ok = usable[b:end]
            if np.count_nonzero(segment_ok) < 2:
                continue
            values = segment[segment_ok]
            delta_v = float(values.max() - values.min())
            if delta_v >= delta_v_threshold:
                hits.append((b, g, delta_v))
    if not hits:
        return []
    return _cluster_hits(
        hits, azimuths, ranges, cluster_azimuth_gap_deg, cluster_range_gap_m
    )


def run_detection(
    moments: MomentField,
    site: RadarSite,
    **kwargs,
) -> DetectionResult:
    """Run the detector and record its wall-clock runtime (Table 1, column 3)."""
    start = time.perf_counter()
    detections = detect_vortices(moments, site, **kwargs)
    elapsed = time.perf_counter() - start
    return DetectionResult(
        detections=tuple(detections),
        runtime_seconds=elapsed,
        averaging_size=moments.averaging_size,
    )
