"""Tests for the Figure 3 (RFID) and Table 1 (radar) workload builders."""

import pytest

from repro.workloads import (
    TABLE1_AVERAGING_SIZES,
    build_rfid_workload,
    build_table1_workload,
    noisy_detection_model,
)


class TestRFIDWorkload:
    def test_builder_wires_consistent_components(self):
        workload = build_rfid_workload(n_objects=30, n_particles=20)
        assert workload.n_objects == 30
        assert workload.world.n_objects == 30
        assert len(workload.operator.filter) == 30
        assert workload.operator.filter.sizes.tolist() == [20] * 30

    def test_running_reduces_error(self):
        workload = build_rfid_workload(n_objects=25, n_particles=40)
        before = workload.mean_error()
        workload.run(150)
        assert workload.mean_error() < before

    def test_noisy_detection_model_is_noisier_than_default(self):
        from repro.rfid import DetectionModel

        noisy = noisy_detection_model()
        assert noisy.max_rate < DetectionModel().max_rate

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_rfid_workload(n_objects=0, n_particles=10)
        with pytest.raises(ValueError):
            build_rfid_workload(n_objects=10, n_particles=1)


class TestRadarWorkload:
    def test_builder_produces_requested_scans(self):
        workload = build_table1_workload(
            duration_seconds=19.0, n_scans=2, pulse_rate=200.0, n_gates=80
        )
        assert workload.n_scans == 2
        assert workload.raw_size_bytes > 0
        assert workload.site.nyquist_velocity > 2 * 40.0

    def test_averaging_sizes_constant_matches_paper(self):
        assert TABLE1_AVERAGING_SIZES == (40, 60, 80, 100, 200, 500, 1000)

    def test_scan_duration_matches_requested_structure(self):
        workload = build_table1_workload(
            duration_seconds=19.0, n_scans=2, pulse_rate=200.0, n_gates=80
        )
        pulses_per_scan = workload.scans[0].n_pulses
        assert pulses_per_scan == pytest.approx(19.0 / 2 * 200.0, rel=0.02)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_table1_workload(duration_seconds=0.0)
        with pytest.raises(ValueError):
            build_table1_workload(n_scans=0)
