"""RFID workload builders for the Figure 3 experiments.

Figure 3 measures inference error (in feet, XY plane) and CPU time per
event for a *highly noisy* RFID trace while varying the number of
objects (100 to 10 000) and the number of particles (50 / 100 / 200).
This module packages the world + simulator + T-operator construction
behind one function so the benchmark and the tests share the exact same
workload definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.rfid import (
    DetectionModel,
    MobileReaderSimulator,
    RFIDTransformOperator,
    WarehouseWorld,
)

__all__ = ["RFIDWorkload", "build_rfid_workload", "noisy_detection_model"]


def noisy_detection_model() -> DetectionModel:
    """Return the "highly noisy trace" detection model of Figure 3.

    Compared to the default model, the maximum read rate is lower and
    the logistic roll-off is shallower, so detections are both rarer and
    less informative about distance.
    """
    return DetectionModel(midpoint=10.0, steepness=0.35, max_rate=0.7)


@dataclass
class RFIDWorkload:
    """A ready-to-run RFID inference workload."""

    world: WarehouseWorld
    simulator: MobileReaderSimulator
    operator: RFIDTransformOperator
    n_objects: int
    n_particles: int

    def run(self, n_readings: int) -> None:
        """Process ``n_readings`` scans through the T operator."""
        for reading in self.simulator.readings(n_readings):
            list(self.operator.ingest(reading, reading.timestamp))

    def mean_error(self) -> float:
        """Return the mean XY-plane location error over all objects (feet)."""
        return self.operator.mean_location_error()


def build_rfid_workload(
    n_objects: int,
    n_particles: int,
    area: Tuple[float, float] = (200.0, 100.0),
    use_spatial_index: bool = True,
    use_compression: bool = True,
    move_rate: float = 0.0,
    read_capacity: Optional[int] = 40,
    seed: int = 7,
) -> RFIDWorkload:
    """Build the Figure 3 workload for a given object count and particle budget.

    The warehouse area is fixed while the object count varies, matching
    the paper's setup where density grows with the number of objects.
    Ground-truth motion is disabled by default so the measured error
    isolates the inference approximation.
    """
    if n_objects < 1:
        raise ValueError("n_objects must be at least 1")
    if n_particles < 2:
        raise ValueError("n_particles must be at least 2")
    width, height = area
    world = WarehouseWorld(
        width=width,
        height=height,
        shelf_grid=(10, 5),
        n_objects=n_objects,
        move_rate=move_rate,
        rng=seed,
    )
    detection = noisy_detection_model()
    simulator = MobileReaderSimulator(
        world,
        detection=detection,
        lane_spacing=height / 5.0,
        speed=8.0,
        scan_interval=0.5,
        evolve_world=move_rate > 0,
        read_capacity=read_capacity,
        rng=seed + 1,
    )
    operator = RFIDTransformOperator(
        world,
        detection=detection,
        n_particles=n_particles,
        use_spatial_index=use_spatial_index,
        use_compression=use_compression,
        emit_mode="none",
        rng=seed + 2,
    )
    return RFIDWorkload(
        world=world,
        simulator=simulator,
        operator=operator,
        n_objects=n_objects,
        n_particles=n_particles,
    )
