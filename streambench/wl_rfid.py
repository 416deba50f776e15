"""``rfid_pf``: the paper's first component end to end, in one process.

A noisy mobile-reader trace (``noisy_detection_model``, Figure 3) feeds
the RFID T operator (factorised particle filter, spatial index, particle
compression); its location tuples feed Q1 (``FireCodeMonitor``) and the
Q2 flammable-object / temperature probabilistic join, registered on a
``QuerySession``.  Inputs are pushed one tuple at a time; an input tuple
is one raw reader scan (the temperature readings due before a scan ride
in the same tick and are not counted).

Closed loop: a fresh session per pass takes 150 scans (one sweep of the
warehouse) as fast as it can; every round of the shared schedule runs
three passes (as ``local_batch`` does) and one open-loop segment.  Open
loop: a fresh session takes the same sweep at one scan every 30 ms
(33 scans/s, a sixth to a quarter of capacity).  Scan cost varies
along the reader's path, so a segment covers the whole sweep: over part
of it the latency distribution is a few lumps and its median jumps
between them from run to run.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import List

import checks
from common import HostMeter, OpenLoop, clock, median, own_peak_rss_mb, run_rounds, service_self_times
from repro import QuerySession
from repro.core import Comparison, match_probability_band
from repro.distributions import GaussianMixture
from repro.rfid import (
    FireCodeMonitor,
    MobileReaderSimulator,
    RFIDTransformOperator,
    WarehouseWorld,
    build_flammable_alert_join,
)
from repro.streams import CollectSink, StreamEngine, StreamTuple
from repro.workloads import noisy_detection_model, temperature_stream

N_OBJECTS = 100
N_PARTICLES = 60
N_SCANS = 150
TRACES = 3  # reader traces per run, rotated through by passes and segments
PERIOD = 0.03
SCAN_INTERVAL = 0.5
AREA = (100.0, 50.0)
#: Mean XY error (ft) the T operator's posteriors must stay under.  Over
#: traces 1-180 the error is 4.4-6.8 ft (median 5.6); the cap is a tenth
#: above the worst of them, so a filter that trades a third of its accuracy
#: on a typical trace for speed fails the run.
MAX_LOCATION_ERROR_FT = 7.5

# Q1 / Q2 parameters (shared by the session queries and the reference).
WINDOW_Q1 = 1.0
CELL = 10.0
WEIGHT_LIMIT = 60.0
HOT = 60.0
TOLERANCE_FT = 4.0
WINDOW_Q2 = 10.0
MIN_MATCH = 0.1


def make_world() -> WarehouseWorld:
    """The warehouse: fixed, like the paper's setup; seeds vary the trace."""
    return WarehouseWorld(
        width=AREA[0],
        height=AREA[1],
        shelf_grid=(10, 5),
        n_objects=N_OBJECTS,
        move_rate=0.0,
        flammable_fraction=0.3,
        weight_range=(30.0, 70.0),
        rng=1,
    )


def make_t_operator(world: WarehouseWorld, seed: int) -> RFIDTransformOperator:
    return RFIDTransformOperator(
        world,
        detection=noisy_detection_model(),
        n_particles=N_PARTICLES,
        emit_mode="detected",
        rng=seed * 10 + 3,
    )


@dataclass
class Inputs:
    world: WarehouseWorld
    scans: list  # RFIDReading
    steps: List[tuple]  # per scan: (temperature tuples due before it, raw scan tuple)


def make_inputs(seed: int) -> Inputs:
    world = make_world()
    detection = noisy_detection_model()
    simulator = MobileReaderSimulator(
        world,
        detection=detection,
        lane_spacing=AREA[1] / 5.0,
        speed=8.0,
        scan_interval=SCAN_INTERVAL,
        read_capacity=40,
        rng=seed * 10 + 2,
    )
    scans = list(simulator.readings(N_SCANS))
    first = next(iter(world.shelves.values()))
    temps = temperature_stream(
        int(N_SCANS * SCAN_INTERVAL / 0.25) + 4,
        area_bounds=world.bounds(),
        hot_spot=(first.x, first.y, 25.0, 90.0),
        interval=0.25,
        rng=4,  # the sensors, like the shelves, are fixed installations
    )
    steps, t = [], 0
    for scan in scans:
        due = []
        while t < len(temps) and temps[t].timestamp <= scan.timestamp:
            due.append(temps[t])
            t += 1
        steps.append((due, StreamTuple(timestamp=scan.timestamp, values={"reading": scan})))
    return Inputs(world, scans, steps)


def _location_match(left, right) -> float:
    px = match_probability_band(left.distribution("x"), right.distribution("x"), TOLERANCE_FT)
    py = match_probability_band(left.distribution("y"), right.distribution("y"), TOLERANCE_FT)
    return px * py


def _monitor(world) -> FireCodeMonitor:
    return FireCodeMonitor(
        weight_of=lambda tag: world.objects[tag].weight,
        window_length=WINDOW_Q1,
        cell_size=CELL,
        weight_limit=WEIGHT_LIMIT,
        min_violation_probability=0.5,
    )


def new_session(world, seed, on_result=None, register_ms=None):
    """Session with the T operator shared by Q1 and Q2; returns (session, T)."""
    t_operator = make_t_operator(world, seed)
    session = QuerySession()
    raw = session.create_stream("rfid_raw")
    sensors = session.create_stream(
        "temperature", values=("sensor_id",), uncertain=("x", "y", "temp")
    )
    located = raw.pipe(t_operator, description="RFID T operator")
    flammable = located.where(
        lambda t: world.objects[t.value("tag_id")].object_type == "flammable",
        uses=("tag_id",),
        description="flammable",
    )
    queries = {
        "q1": located.pipe(_monitor(world), description="fire-code monitor"),
        "q2": flammable.join(
            sensors.where_probably("temp", Comparison.GREATER, HOT, min_probability=0.5),
            on=_location_match,
            window_length=WINDOW_Q2,
            min_probability=MIN_MATCH,
            prefix_left="obj_",
            prefix_right="temp_",
        ),
    }
    for name, query in queries.items():
        t0 = clock()
        session.register(name, query, on_result=on_result(name) if on_result else None)
        if register_ms is not None:
            register_ms.append((clock() - t0) * 1e3)
    return session, t_operator


class _Setup:
    def __init__(self, seed: int):
        self.session, _ = new_session(make_world(), seed)

    def close(self) -> None:
        self.session.close()


def setup(seed: int):
    return _Setup(seed)


def reference(inputs: Inputs, seed: int):
    """Q1 and Q2 from a standalone T operator -> FireCodeMonitor / join plan."""
    world = inputs.world
    t_operator = make_t_operator(world, seed)
    monitor = _monitor(world)
    flammable, temperature, join = build_flammable_alert_join(
        lambda tag: world.objects[tag].object_type,
        temperature_threshold=HOT,
        location_tolerance=TOLERANCE_FT,
        window_length=WINDOW_Q2,
        min_match_probability=MIN_MATCH,
    )
    q1, q2 = CollectSink(), CollectSink()
    t_operator.connect(monitor)
    t_operator.connect(flammable)
    monitor.connect(q1)
    join.connect(q2)
    engine = StreamEngine()
    engine.add_source("rfid_raw", t_operator)
    engine.add_source("temperature", temperature)
    for temps, raw in inputs.steps:
        for item in temps:
            engine.push("temperature", item)
        engine.push("rfid_raw", raw)
    engine.finish()
    return {"q1": q1.results, "q2": q2.results}


def transform_probe(inputs: Inputs, seed: int) -> dict:
    """The T operator alone over the same scans: cost and output shape."""
    t_operator = make_t_operator(inputs.world, seed)
    emitted = []
    t0 = clock()
    for scan in inputs.scans:
        emitted.extend(t_operator.ingest(scan, scan.timestamp))
    elapsed = clock() - t0
    n = len(inputs.scans)
    mixtures = sum(isinstance(t.distribution("x"), GaussianMixture) for t in emitted)
    return {
        "rfid.transform_ms_per_scan": elapsed / n * 1e3,
        "rfid.tuples_per_scan": len(emitted) / n,
        "rfid.mixture_share": mixtures / max(len(emitted), 1),
        "rfid.detections_per_scan": sum(len(s.detected_object_ids) for s in inputs.scans) / n,
    }


def _query_us_per_tuple(session, name: str) -> float:
    """Busy time of a query's own boxes (not sources, not the shared T operator)."""
    rows = [r.stats for r in session.statistics(name)]
    own = [r for r in rows if not r.name.startswith("source:") and r.name != "RFIDTransformOperator"]
    fed = sum(r.tuples_in for r in own if r.name != "ProbabilisticJoin")
    return sum(r.seconds for r in own) / max(fed, 1) * 1e6


def measure(seed: int, seconds: float, trace: bool, tracer, tally) -> dict:
    # Which scans close a Q1 window, and so which latencies the
    # percentiles are taken over, follows the reader's detections: the
    # p50 of one trace moved by a quarter from seed to seed.  A run
    # therefore rotates through TRACES traces drawn from its seed.
    traces = [seed * TRACES + j for j in range(TRACES)]
    inputs = [make_inputs(t) for t in traces]
    expected = [reference(i, t) for i, t in zip(inputs, traces)]
    gc.collect()
    gc.freeze()

    meter = HostMeter()
    # Closed-loop throughputs and open-loop segment latencies, each with
    # the interval it was taken in (to look up the host's speed then).
    out = {"tps": [], "tps_spans": [], "segments": [], "segment_spans": []}
    out.update(segment_groups=[], traced_tps=[], lags=[], meter=meter)
    register_ms, push_self, errors, q1_us, q2_us = [], [], [], [], []
    turns = {"closed": 0, "open": 0}

    def next_trace(kind: str) -> int:
        j = turns[kind] % TRACES
        turns[kind] += 1
        return j

    def push_scan(session, steps, k: int) -> None:
        tracer.chunk = k
        temps, raw = steps[k]
        for item in temps:
            session.push("temperature", item)
        tracer.span("service.push", session.push, "rfid_raw", raw)

    def check(kind, j, results):
        for name in ("q1", "q2"):
            checks.check_same(results[name], expected[j][name], tally, f"{kind}/{traces[j]}/{name}")

    def closed_pass(record: bool, traced: bool) -> None:
        j = next_trace("closed")
        results = {"q1": [], "q2": []}
        session, t_operator = new_session(
            inputs[j].world, traces[j], lambda name: results[name].append, register_ms
        )
        tracer.enabled = traced
        t0 = clock()
        for k in range(N_SCANS):
            push_scan(session, inputs[j].steps, k)
        f0 = clock()
        tracer.span("service.flush", session.flush)
        t1 = clock()
        tracer.enabled = False
        tally.ok(N_SCANS + 1)
        if record:
            (out["traced_tps"] if traced else out["tps"]).append(N_SCANS / (t1 - t0))
            if not traced:
                out["tps_spans"].append((t0, t1))
            push_self.append((f0 - t0) / N_SCANS)
            q1_us.append(_query_us_per_tuple(session, "q1"))
            q2_us.append(_query_us_per_tuple(session, "q2"))
        error = t_operator.mean_location_error()
        errors.append(error)
        tally.check(
            error <= MAX_LOCATION_ERROR_FT,
            f"closed: mean location error {error:.2f} ft exceeds {MAX_LOCATION_ERROR_FT} ft",
        )
        session.close()
        check("closed", j, results)

    def open_segment() -> None:
        j = next_trace("open")
        results = {"q1": [], "q2": []}
        loop = OpenLoop(PERIOD, meter)

        def on_result(name):
            def deliver(item):
                loop.arrival()
                results[name].append(item)

            return deliver

        session, _ = new_session(inputs[j].world, traces[j], on_result, register_ms)
        loop.run(N_SCANS, lambda k: push_scan(session, inputs[j].steps, k))
        session.flush()
        session.close()
        tally.ok(N_SCANS + 1)
        out["segments"].append(loop.latencies)
        out["segment_spans"].append(loop.span)
        out["segment_groups"].append(j)
        out["lags"].extend(loop.lags)
        check("open", j, results)

    run_rounds(seconds, trace, closed_pass, open_segment, passes_per_round=3, meter=meter)
    out["rss_mb"] = own_peak_rss_mb()

    layer = {
        "cql.register_ms": median(register_ms),
        "service.push_us_per_tuple": median(push_self) * 1e6,
        "service.results": median([sum(len(v) for v in e.values()) for e in expected]),
        "rfid.q1_us_per_tuple": median(q1_us),
        "rfid.q2_us_per_tuple": median(q2_us),
        "rfid.location_error_ft": median(errors),
    }
    if trace:
        layer.update(service_self_times(tracer, len(out["traced_tps"]) * N_SCANS))
        layer.update(transform_probe(inputs[0], traces[0]))
    out["layers"] = layer
    return out
