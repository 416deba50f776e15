"""Ablation (Section 4.1): particle-filter optimisations.

The paper reports that factorisation + spatial indexing + compression
take inference from 0.1 readings/second for 20 objects to over 1000
readings/second for 20 000 objects.  This ablation toggles the
optimisations on a fixed workload and reports readings/second and mean
inference error for each configuration:

* ``joint``         -- one particle set over the joint state (no optimisations)
* ``factorized``    -- per-object filters, every object touched per event
* ``+spatial_index``-- only objects near the reader touched per event
* ``+compression``  -- stable particle clouds shrunk (full optimisation set)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.inference import CompressionConfig, FactorizedParticleFilter, JointParticleFilter
from repro.rfid import DetectionObservation, build_object_model
from repro.workloads import build_rfid_workload, noisy_detection_model

N_OBJECTS = 150
N_PARTICLES = 60
WARMUP_READINGS = 40
MEASURED_READINGS = 30

CONFIGURATIONS = ("joint", "factorized", "factorized+index", "factorized+index+compression")


def build_filter(configuration, world, detection, rng_seed=5):
    bounds = world.bounds()
    model = build_object_model(bounds, detection=detection, walk_sigma=0.2, jump_rate=0.0)
    if configuration == "joint":
        flt = JointParticleFilter(n_particles=N_PARTICLES, rng=rng_seed)
    else:
        flt = FactorizedParticleFilter(
            n_particles=N_PARTICLES,
            use_spatial_index="index" in configuration,
            compression=CompressionConfig() if "compression" in configuration else None,
            rng=rng_seed,
        )
    for tag_id in world.object_ids():
        flt.add_variable(tag_id, model)
    return flt


def drive(flt, simulator, detection, n_readings, use_region):
    """Push ``n_readings`` scans through a filter (joint or factorised)."""
    sensing_range = detection.effective_range()
    last_time = None
    for reading in simulator.readings(n_readings):
        dt = 0.0 if last_time is None else max(reading.timestamp - last_time, 0.0)
        last_time = reading.timestamp
        detected = set(reading.detected_object_ids)

        def observation_for(tag_id):
            return DetectionObservation(reading.reader_x, reading.reader_y, tag_id in detected)

        region = (reading.reader_x, reading.reader_y, sensing_range) if use_region else None
        flt.step(dt, observation_for, region=region)


@pytest.fixture(scope="module")
def table(result_table_factory):
    return result_table_factory(
        "ablation_pf_optimizations",
        f"{'configuration':<32} {'readings/s':>12} {'mean error (ft)':>16}",
    )


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
def test_pf_optimization_ablation(benchmark, configuration, table):
    workload = build_rfid_workload(n_objects=N_OBJECTS, n_particles=N_PARTICLES)
    world = workload.world
    detection = noisy_detection_model()
    simulator = workload.simulator
    flt = build_filter(configuration, world, detection)
    use_region = "index" in configuration

    drive(flt, simulator, detection, WARMUP_READINGS, use_region)

    def measured():
        drive(flt, simulator, detection, MEASURED_READINGS, use_region)

    benchmark.pedantic(measured, rounds=1, iterations=1)

    readings_per_second = MEASURED_READINGS / benchmark.stats.stats.mean
    errors = [
        float(np.linalg.norm(flt.estimate(tag)[:2] - world.true_position(tag)))
        for tag in world.object_ids()
    ]
    mean_error = float(np.mean(errors))
    benchmark.extra_info.update(
        {"readings_per_second": readings_per_second, "mean_error_ft": mean_error}
    )
    table.add_row(f"{configuration:<32} {readings_per_second:>12.2f} {mean_error:>16.2f}")

    assert readings_per_second > 0.0
