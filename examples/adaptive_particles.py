"""Adaptive speed/accuracy control of particle-filter inference (Section 4.2).

The RFID T operator measures its own inference accuracy online using
reference shelf tags (whose true locations are known) and adjusts the
per-object particle count with a feedback controller: double until the
accuracy requirement is met, then walk back down to the smallest
sufficient count.  The count is a ceiling: a cloud that compression
shrank (a stable object, Section 4.1) keeps its smaller size.

Run with:  python examples/adaptive_particles.py
"""

from __future__ import annotations

from repro.inference import ParticleCountController
from repro.rfid import (
    DetectionModel,
    MobileReaderSimulator,
    RFIDTransformOperator,
    WarehouseWorld,
)


def main() -> None:
    detection = DetectionModel(midpoint=10.0, steepness=0.6, max_rate=0.85)
    world = WarehouseWorld(
        width=50.0, height=25.0, shelf_grid=(5, 3), n_objects=30, move_rate=0.0, rng=5
    )
    simulator = MobileReaderSimulator(
        world, detection=detection, lane_spacing=6.0, speed=6.0, scan_interval=0.25, rng=6
    )
    controller = ParticleCountController(
        target_error=2.5, initial_count=16, min_count=8, max_count=256, decrease_step=32
    )
    operator = RFIDTransformOperator(
        world,
        detection=detection,
        n_particles=16,
        emit_mode="none",
        track_reference_tags=True,
        adaptive_controller=controller,
        rng=7,
    )

    print("running the mobile-reader sweep with adaptive particle control ...")
    print(f"accuracy requirement: {controller.target_error:.1f} ft on reference shelf tags\n")
    print(
        f"{'reading':>8} {'reference error (ft)':>21} {'particles/object':>17} "
        f"{'compressed':>11} {'phase':>11}"
    )
    for i, reading in enumerate(simulator.readings(400)):
        list(operator.ingest(reading, reading.timestamp))
        if i % 40 == 0:
            error = operator.accuracy_monitor.current_error()
            error_text = f"{error:.2f}" if error is not None else "n/a"
            compressed = sum(size < controller.count for size in operator.filter.sizes.tolist())
            print(
                f"{i:>8d} {error_text:>21} {controller.count:>17d} "
                f"{compressed:>11d} {controller.phase:>11}"
            )

    print(
        f"\ncontroller settled on {controller.count} particles per object "
        f"(phase: {controller.phase})"
    )
    print(f"final mean location error over all objects: {operator.mean_location_error():.2f} ft")


if __name__ == "__main__":
    main()
