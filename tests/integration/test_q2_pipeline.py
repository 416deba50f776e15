"""End-to-end test of the Q2 pipeline: flammable-object / temperature join."""

import pytest

from repro.rfid import (
    DetectionModel,
    MobileReaderSimulator,
    RFIDTransformOperator,
    WarehouseWorld,
    build_flammable_alert_join,
)
from repro.streams import CollectSink, StreamEngine, StreamTuple
from repro.workloads import temperature_stream


@pytest.fixture(scope="module")
def q2_results():
    detection = DetectionModel(midpoint=10.0, steepness=0.8, max_rate=0.95)
    world = WarehouseWorld(
        width=40.0,
        height=20.0,
        shelf_grid=(4, 2),
        n_objects=20,
        move_rate=0.0,
        flammable_fraction=0.5,
        rng=201,
    )
    simulator = MobileReaderSimulator(
        world,
        detection=detection,
        lane_spacing=5.0,
        speed=6.0,
        scan_interval=0.25,
        evolve_world=False,
        rng=202,
    )
    t_operator = RFIDTransformOperator(
        world, detection=detection, n_particles=80, emit_mode="detected", rng=203
    )
    rfid_entry, temp_entry, join = build_flammable_alert_join(
        object_type_of=lambda tag: world.objects[tag].object_type,
        temperature_threshold=60.0,
        location_tolerance=4.0,
        window_length=1e6,  # keep everything in the window for this batch test
        min_match_probability=0.05,
    )
    sink = CollectSink()
    join.connect(sink)

    engine = StreamEngine()
    engine.add_source("rfid_raw", t_operator)
    engine.add_source("temperature", temp_entry)
    t_operator.connect(rfid_entry)

    # The hot spot sits over the first shelf, so at least one flammable
    # object is close to a hot sensor.
    first_shelf = next(iter(world.shelves.values()))
    temp_tuples = temperature_stream(
        200,
        area_bounds=world.bounds(),
        hot_spot=(first_shelf.x, first_shelf.y, 6.0, 90.0),
        rng=204,
    )
    for t in temp_tuples:
        engine.push("temperature", t)
    for reading in simulator.readings(240):
        engine.push(
            "rfid_raw",
            StreamTuple(timestamp=reading.timestamp, values={"reading": reading}),
        )
    engine.finish()
    return world, sink.results


class TestQ2Pipeline:
    def test_alerts_produced(self, q2_results):
        _, results = q2_results
        assert results, "flammable objects near the hot spot must raise alerts"

    def test_alerts_only_for_flammable_objects(self, q2_results):
        world, results = q2_results
        for alert in results:
            tag = alert.value("obj_tag_id")
            assert world.objects[tag].object_type == "flammable"

    def test_alerts_only_for_hot_sensors(self, q2_results):
        _, results = q2_results
        for alert in results:
            assert alert.distribution("temp_temp").mean() > 50.0
            assert alert.value("temp_selection_probability") >= 0.5

    def test_alert_probability_and_lineage(self, q2_results):
        _, results = q2_results
        for alert in results:
            assert 0.05 <= alert.value("match_probability") <= 1.0
            assert len(alert.lineage) >= 2
