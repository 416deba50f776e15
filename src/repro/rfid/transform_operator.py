"""The RFID data capture and transformation (T) operator.

Turns raw mobile-reader readings (tag ids seen at a reader position)
into an object-location tuple stream with quantified uncertainty:

raw ``RFIDReading`` -> particle-filter inference per object ->
particle-cloud compression (Gaussian / mixture, Section 4.3) ->
``StreamTuple`` carrying the location distribution.

The operator owns a :class:`FactorizedParticleFilter` configured with
the paper's optimisations (factorisation, spatial indexing, particle
compression) and optionally an adaptive particle-count controller fed
by reference shelf tags (Section 4.2).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.transform import CompressionPolicy, TransformOperator, marginal_gaussians
from repro.distributions import ParticleDistribution
from repro.inference import (
    CompressionConfig,
    FactorizedParticleFilter,
    ParticleCountController,
    ReferenceAccuracyMonitor,
)
from repro.streams.tuples import StreamTuple

from .motion_model import build_object_model
from .sensor_model import DetectionModel, DetectionObservation
from .simulator import RFIDReading
from .world import WarehouseWorld

__all__ = ["RFIDTransformOperator"]


class RFIDTransformOperator(TransformOperator):
    """T operator transforming RFID readings into location tuples with pdfs.

    Parameters
    ----------
    world:
        The warehouse layout.  Only the *known* facts are used for
        inference: the area bounds, the object ids (what tags exist),
        and the shelf-tag locations (the reference objects); ground-truth
        object locations are never read.
    detection:
        The sensing model assumed by inference.
    n_particles:
        Particles per tracked object.
    use_spatial_index / use_compression:
        Enable/disable the optimisations of Section 4.1 (exposed so the
        ablation benchmark can toggle them).
    emit_mode:
        ``"detected"`` emits one tuple per detected object per scan,
        ``"candidates"`` one per object whose filter was touched,
        ``"none"`` suppresses emission (pure inference, used when only
        the posteriors are needed).
    compression:
        Tuple-level compression policy (Section 4.3) applied to the
        particle clouds before emission.
    adaptive_controller:
        Optional particle-count controller driven by shelf-tag accuracy.
    rng:
        Random generator or seed.
    """

    def __init__(
        self,
        world: WarehouseWorld,
        detection: Optional[DetectionModel] = None,
        n_particles: int = 100,
        use_spatial_index: bool = True,
        use_compression: bool = True,
        walk_sigma: float = 0.2,
        jump_rate: float = 0.002,
        emit_mode: str = "detected",
        compression: Optional[CompressionPolicy] = None,
        adaptive_controller: Optional[ParticleCountController] = None,
        track_reference_tags: bool = False,
        rng=None,
        name: Optional[str] = None,
    ):
        super().__init__(compression=compression, raw_attribute="reading", name=name)
        if emit_mode not in ("detected", "candidates", "none"):
            raise ValueError(f"unknown emit_mode {emit_mode!r}")
        self.world = world
        self.detection = detection or DetectionModel()
        self.emit_mode = emit_mode
        self.adaptive_controller = adaptive_controller
        self.track_reference_tags = track_reference_tags
        self._rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng

        bounds = world.bounds()
        self._model = build_object_model(
            bounds, detection=self.detection, walk_sigma=walk_sigma, jump_rate=jump_rate
        )
        sensing_range = self.detection.effective_range()
        self.filter = FactorizedParticleFilter(
            n_particles=n_particles,
            use_spatial_index=use_spatial_index,
            index_cell_size=max(sensing_range, 1.0),
            compression=CompressionConfig() if use_compression else None,
            rng=self._rng,
        )
        for tag_id in world.object_ids():
            self.filter.add_variable(tag_id, self._model)
        self._reference_ids: List[str] = []
        self.accuracy_monitor: Optional[ReferenceAccuracyMonitor] = None
        if track_reference_tags:
            self._reference_ids = world.shelf_ids()
            for shelf_id in self._reference_ids:
                self.filter.add_variable(shelf_id, self._model)
            self.accuracy_monitor = ReferenceAccuracyMonitor(
                {shelf_id: world.shelves[shelf_id].position for shelf_id in self._reference_ids}
            )
        self._sensing_range = sensing_range
        self._last_timestamp: Optional[float] = None
        #: Cumulative number of readings processed (diagnostic).
        self.readings_processed = 0

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _process_reading(self, reading: RFIDReading) -> np.ndarray:
        dt = 0.0
        if self._last_timestamp is not None:
            dt = max(reading.timestamp - self._last_timestamp, 0.0)
        self._last_timestamp = reading.timestamp

        detected = reading.detected_object_ids
        if self.track_reference_tags:
            detected = (*detected, *reading.detected_shelf_ids)
        seen = DetectionObservation(reading.reader_x, reading.reader_y, detected=True)
        missed = DetectionObservation(reading.reader_x, reading.reader_y, detected=False)
        region = (reading.reader_x, reading.reader_y, self._sensing_range)
        # Detected objects must be processed even if the index had them
        # registered far away (e.g. they just moved).
        rows = self.filter.step_observed(dt, dict.fromkeys(detected, seen), missed, region)
        self.readings_processed += 1
        self._update_reference_accuracy(reading)
        return rows

    def _update_reference_accuracy(self, reading: RFIDReading) -> None:
        if self.accuracy_monitor is None:
            return
        for shelf_id in reading.detected_shelf_ids:
            if shelf_id in self.filter:
                self.accuracy_monitor.record_estimate(shelf_id, self.filter.estimate(shelf_id))
        if self.adaptive_controller is not None:
            error = self.accuracy_monitor.current_error()
            self.filter.set_particle_count(self.adaptive_controller.observe(error))

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def transform(self, observation: RFIDReading, timestamp: float) -> Iterable[StreamTuple]:
        rows = self._process_reading(observation)
        if self.emit_mode == "none":
            return
        if self.emit_mode == "detected":
            # A reader may report a tag more than once per scan; emit it once.
            detected = dict.fromkeys(observation.detected_object_ids)
            to_emit = [tag for tag in detected if tag in self.filter]
        else:
            ids = self.filter.variables()
            to_emit = [ids[row] for row in rows.tolist() if ids[row] in self.world.objects]
        yield from self._make_tuples(to_emit, observation.timestamp)

    def _make_tuples(self, tag_ids: Sequence[str], timestamp: float) -> List[StreamTuple]:
        """Turn the emitted objects' clouds into tuples.

        ``"gaussian"`` mode reads each x/y marginal from the step's moments;
        the other modes compress each cloud's marginals, x before y.
        """
        if self.compression.mode == "gaussian":
            rows = self.filter.rows(tag_ids)
            estimates, variances = self.filter.estimates[rows, :2], self.filter.variances[rows, :2]
            locations = marginal_gaussians(estimates, variances)
        else:
            locations = [
                tuple(
                    self.compression.compress(ParticleDistribution(column, weights), rng=self._rng)
                    for column in particles[:, :2].T
                )
                for particles, weights in map(self.filter.cloud, tag_ids)
            ]
        return [
            StreamTuple(timestamp=timestamp, values={"tag_id": tag_id}, uncertain={"x": x, "y": y})
            for tag_id, (x, y) in zip(tag_ids, locations)
        ]

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def location_error(self, tag_id: str) -> float:
        """Return the current XY-plane estimation error against ground truth.

        Only used by benchmarks and tests (the ground truth is known to
        the simulator, not to the operator's inference path).
        """
        estimate = self.filter.estimate(tag_id)
        truth = self.world.true_position(tag_id)
        return float(np.linalg.norm(estimate[:2] - truth))

    def mean_location_error(self, tag_ids: Optional[Sequence[str]] = None) -> float:
        """Return the mean XY-plane error over ``tag_ids`` (default: all objects)."""
        ids = list(tag_ids) if tag_ids is not None else self.world.object_ids()
        if not ids:
            raise ValueError("no objects to evaluate")
        return float(np.mean([self.location_error(tag_id) for tag_id in ids]))
