"""Golden trace of the RFID T operator in the ``rfid_pf`` benchmark configuration.

The fixture ``data/t_operator_golden.json`` holds, for two 150-scan
reader traces (noisy detection model, 100 objects, 60 particles, gaussian
emission), every emitted ``(timestamp, tag_id, mu_x, sigma_x, mu_y,
sigma_y)`` in emission order, plus the operator's mean location error
after the last scan.  It pins the filter's random stream: any change to
the order in which priors, propagation noise or resampling offsets are
drawn, or to the candidate set of a scan, moves these numbers.

Regenerate (only when a change is *meant* to move the filter state) with::

    PYTHONPATH=src python tests/rfid/test_golden_trace.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.rfid import MobileReaderSimulator, RFIDTransformOperator, WarehouseWorld
from repro.workloads import noisy_detection_model

FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "t_operator_golden.json"
TRACE_SEEDS = (1, 2)
N_SCANS = 150
TOLERANCE = 1e-9


def run_trace(seed: int) -> dict:
    """Emit every tuple of one trace, as the ``rfid_pf`` workload builds it."""
    world = WarehouseWorld(
        width=100.0,
        height=50.0,
        shelf_grid=(10, 5),
        n_objects=100,
        move_rate=0.0,
        flammable_fraction=0.3,
        weight_range=(30.0, 70.0),
        rng=1,
    )
    detection = noisy_detection_model()
    simulator = MobileReaderSimulator(
        world,
        detection=detection,
        lane_spacing=10.0,
        speed=8.0,
        scan_interval=0.5,
        read_capacity=40,
        rng=seed * 10 + 2,
    )
    operator = RFIDTransformOperator(
        world, detection=detection, n_particles=60, emit_mode="detected", rng=seed * 10 + 3
    )
    rows = []
    for scan in simulator.readings(N_SCANS):
        for item in operator.ingest(scan, scan.timestamp):
            x, y = item.distribution("x"), item.distribution("y")
            rows.append([item.timestamp, item.value("tag_id"), x.mu, x.sigma, y.mu, y.sigma])
    return {"seed": seed, "rows": rows, "mean_location_error": operator.mean_location_error()}


@pytest.fixture(scope="module")
def golden():
    return {trace["seed"]: trace for trace in json.loads(FIXTURE.read_text())["traces"]}


@pytest.mark.parametrize("seed", TRACE_SEEDS)
def test_t_operator_emits_the_golden_trace(golden, seed):
    want = golden[seed]
    got = run_trace(seed)
    assert [row[1] for row in got["rows"]] == [row[1] for row in want["rows"]]
    for got_row, want_row in zip(got["rows"], want["rows"]):
        assert got_row[0] == want_row[0]
        for g, w in zip(got_row[2:], want_row[2:]):
            assert abs(g - w) <= TOLERANCE, (got_row, want_row)
    assert abs(got["mean_location_error"] - want["mean_location_error"]) <= TOLERANCE


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    traces = [run_trace(seed) for seed in TRACE_SEEDS]
    FIXTURE.write_text(json.dumps({"traces": traces}, separators=(",", ":")) + "\n")
    print(f"wrote {sum(len(t['rows']) for t in traces)} rows to {FIXTURE}")
