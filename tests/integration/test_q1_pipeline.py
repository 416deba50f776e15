"""End-to-end test of the Q1 pipeline: RFID T operator -> fire-code monitor.

This exercises Figure 2's architecture end to end: raw readings enter a
T operator, location tuples with pdfs flow into the Q1 monitoring query,
and violation alerts with quantified uncertainty come out.
"""

import pytest

from repro.rfid import (
    DetectionModel,
    FireCodeMonitor,
    MobileReaderSimulator,
    RFIDTransformOperator,
    WarehouseWorld,
)
from repro.streams import CollectSink, StreamEngine, StreamTuple


@pytest.fixture(scope="module")
def q1_results():
    detection = DetectionModel(midpoint=10.0, steepness=0.8, max_rate=0.95)
    world = WarehouseWorld(
        width=40.0,
        height=20.0,
        shelf_grid=(4, 2),
        n_objects=24,
        move_rate=0.0,
        weight_range=(40.0, 60.0),
        placement_jitter=0.5,
        rng=101,
    )
    simulator = MobileReaderSimulator(
        world,
        detection=detection,
        lane_spacing=5.0,
        speed=6.0,
        scan_interval=0.25,
        evolve_world=False,
        rng=102,
    )
    t_operator = RFIDTransformOperator(
        world, detection=detection, n_particles=80, emit_mode="detected", rng=103
    )
    monitor = FireCodeMonitor(
        weight_of=lambda tag: world.objects[tag].weight,
        window_length=5.0,
        cell_size=5.0,
        weight_limit=100.0,
        min_violation_probability=0.5,
    )
    sink = CollectSink()

    engine = StreamEngine()
    engine.add_source("rfid", t_operator)
    t_operator.connect(monitor)
    monitor.connect(sink)

    for reading in simulator.readings(260):
        engine.push(
            "rfid",
            StreamTuple(timestamp=reading.timestamp, values={"reading": reading}),
        )
    engine.finish()
    return world, sink.results


class TestQ1Pipeline:
    def test_violations_are_reported(self, q1_results):
        _, results = q1_results
        assert results, "several shelves carry > 100 pounds, so alerts must fire"

    def test_alerts_carry_uncertain_totals_and_probabilities(self, q1_results):
        _, results = q1_results
        for alert in results:
            assert alert.has_uncertain("total_weight")
            assert 0.5 <= alert.value("violation_probability") <= 1.0
            assert alert.value("total_weight_mean") > 0.0
            assert alert.has_value("area")

    def test_reported_areas_actually_overloaded(self, q1_results):
        world, results = q1_results
        cell_size = 5.0
        # Compute the ground-truth weight per cell.
        true_weight = {}
        for obj in world.objects.values():
            cell = (int(obj.x // cell_size), int(obj.y // cell_size))
            true_weight[cell] = true_weight.get(cell, 0.0) + obj.weight
        reported_cells = {alert.value("area") for alert in results}
        # At least half of the reported cells must be truly overloaded (the
        # rest may be borderline due to location uncertainty).
        truly_overloaded = {c for c in reported_cells if true_weight.get(c, 0.0) > 100.0}
        assert len(truly_overloaded) >= max(1, len(reported_cells) // 2)

    def test_alert_lineage_points_at_contributing_tuples(self, q1_results):
        _, results = q1_results
        assert all(len(alert.lineage) >= 1 for alert in results)
