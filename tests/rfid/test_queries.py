"""Tests for the paper's example queries Q1 (fire code) and Q2 (flammable alert)."""

import pytest

from repro.distributions import Gaussian
from repro.rfid import (
    FireCodeMonitor,
    area_membership_probabilities,
    build_flammable_alert_join,
)
from repro.streams import CollectSink, StreamEngine, StreamTuple


def location_tuple(ts, tag_id, x, y, sigma=0.2):
    return StreamTuple(
        timestamp=ts,
        values={"tag_id": tag_id},
        uncertain={"x": Gaussian(x, sigma), "y": Gaussian(y, sigma)},
    )


class TestAreaMembership:
    def test_tight_distribution_concentrates_in_one_cell(self):
        probs = area_membership_probabilities(Gaussian(3.5, 0.05), Gaussian(7.5, 0.05), cell_size=1.0)
        assert probs[(3, 7)] > 0.99

    def test_boundary_location_splits_between_cells(self):
        probs = area_membership_probabilities(Gaussian(4.0, 0.3), Gaussian(0.5, 0.05), cell_size=1.0)
        assert probs[(3, 0)] == pytest.approx(0.5, abs=0.05)
        assert probs[(4, 0)] == pytest.approx(0.5, abs=0.05)

    def test_probabilities_sum_to_at_most_one(self):
        probs = area_membership_probabilities(Gaussian(0.0, 2.0), Gaussian(0.0, 2.0), cell_size=1.0)
        assert sum(probs.values()) <= 1.0 + 1e-6

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            area_membership_probabilities(Gaussian(0, 1), Gaussian(0, 1), cell_size=0.0)


class TestFireCodeMonitor(object):
    def make_monitor(self, weights, **kwargs):
        defaults = dict(window_length=5.0, cell_size=1.0, weight_limit=200.0)
        defaults.update(kwargs)
        return FireCodeMonitor(weight_of=lambda tag: weights[tag], **defaults)

    def test_overloaded_area_reported(self, process_one):
        weights = {"A": 150.0, "B": 120.0}
        monitor = self.make_monitor(weights)
        process_one(monitor, location_tuple(0.5, "A", 2.5, 2.5, sigma=0.05))
        process_one(monitor, location_tuple(1.0, "B", 2.5, 2.5, sigma=0.05))
        results = list(monitor.flush())
        assert len(results) == 1
        out = results[0]
        assert out.value("area") == (2, 2)
        assert out.value("violation_probability") > 0.95
        assert out.distribution("total_weight").mean() == pytest.approx(270.0, rel=0.02)

    def test_underloaded_area_not_reported(self, process_one):
        weights = {"A": 50.0}
        monitor = self.make_monitor(weights)
        process_one(monitor, location_tuple(0.5, "A", 2.5, 2.5, sigma=0.05))
        assert list(monitor.flush()) == []

    def test_uncertain_location_spreads_weight_over_cells(self, process_one):
        # Weight 210 with a location straddling two cells: neither cell is a
        # confident violation at the 0.5 probability bar.
        weights = {"A": 210.0}
        monitor = self.make_monitor(weights, min_violation_probability=0.5)
        process_one(monitor, location_tuple(0.5, "A", 3.0, 2.5, sigma=0.4))
        assert list(monitor.flush()) == []
        # But with a lower reporting bar both candidate cells appear.
        lenient = self.make_monitor(weights, min_violation_probability=0.1)
        process_one(lenient, location_tuple(0.5, "A", 3.0, 2.5, sigma=0.4))
        results = list(lenient.flush())
        assert len(results) >= 1

    def test_windows_are_independent(self, process_one):
        weights = {"A": 300.0}
        monitor = self.make_monitor(weights)
        process_one(monitor, location_tuple(0.5, "A", 1.5, 1.5, sigma=0.05))
        outputs_mid = process_one(monitor, location_tuple(6.0, "A", 1.5, 1.5, sigma=0.05))
        # Closing the first window emits its violation.
        assert len(list(outputs_mid)) == 1
        assert len(list(monitor.flush())) == 1

    def test_duplicate_reports_deduplicated_within_window(self, process_one):
        weights = {"A": 150.0}
        monitor = self.make_monitor(weights, min_violation_probability=0.5)
        # The same object reported twice must not double its weight.
        process_one(monitor, location_tuple(0.5, "A", 2.5, 2.5, sigma=0.05))
        process_one(monitor, location_tuple(1.0, "A", 2.5, 2.5, sigma=0.05))
        assert list(monitor.flush()) == []

    def test_invalid_configuration(self):
        with pytest.raises(Exception):
            FireCodeMonitor(weight_of=lambda t: 1.0, weight_limit=0.0)


class TestFlammableAlertJoin:
    def test_plan_joins_flammable_objects_with_hot_sensors(self):
        object_types = {"O1": "flammable", "O2": "general"}
        rfid_entry, temp_entry, join = build_flammable_alert_join(
            object_type_of=lambda tag: object_types[tag],
            temperature_threshold=60.0,
            location_tolerance=2.0,
        )
        sink = CollectSink()
        join.connect(sink)
        engine = StreamEngine()
        engine.add_source("rfid", rfid_entry)
        engine.add_source("temp", temp_entry)

        hot_sensor = StreamTuple(
            timestamp=0.0,
            values={"sensor_id": "T1"},
            uncertain={"x": Gaussian(10.0, 0.3), "y": Gaussian(5.0, 0.3), "temp": Gaussian(85.0, 2.0)},
        )
        cold_sensor = StreamTuple(
            timestamp=0.1,
            values={"sensor_id": "T2"},
            uncertain={"x": Gaussian(10.0, 0.3), "y": Gaussian(5.0, 0.3), "temp": Gaussian(20.0, 2.0)},
        )
        engine.push("temp", hot_sensor)
        engine.push("temp", cold_sensor)
        engine.push("rfid", location_tuple(0.5, "O1", 10.0, 5.0))  # flammable, co-located
        engine.push("rfid", location_tuple(0.6, "O2", 10.0, 5.0))  # not flammable
        engine.push("rfid", location_tuple(0.7, "O1", 40.0, 20.0))  # flammable, far away

        assert len(sink.results) == 1
        alert = sink.results[0]
        assert alert.value("obj_tag_id") == "O1"
        assert alert.value("temp_sensor_id") == "T1"
        assert alert.value("match_probability") > 0.25
