"""``local_batch``: one process, one thread, an in-process batch session.

Two declared streams: ``readings`` (Gaussian, tagged) feeds ``hot_sum``
(probabilistic select fused into a tumbling SUM) and ``tag_having``
(GROUP BY tag HAVING ... WITH CONFIDENCE); ``mixtures`` (random Gaussian
mixtures, a fifth of the rate) feeds ``mix_sum`` (SUM, CF approximation
picked by the planner).

Closed loop: a fresh session per pass pushes the whole pool (40 000
readings + 8 000 mixtures) in chunks of 2 000 + 400 and flushes.
Open loop: a fresh session takes 1 000 readings + 200 mixtures every
100 ms (10 000 + 2 000 tuples/s) for 20 ticks.  Each tick closes ten
windows of every query, so every tick carries the same mix of results.

The traced run also probes the sharded runtime and checkpoints
(``probe_shard.py``) and the network layer (``probe_tcp.py``) on the
same readings.
"""

from __future__ import annotations

import gc

import checks
import layers
import probe_shard
import probe_tcp
import queries as Q
from common import HostMeter, OpenLoop, clock, median, own_peak_rss_mb, run_rounds, service_self_times
from inputs import make_mixtures, make_readings
from repro import QuerySession

N_READINGS = 40_000
N_MIXTURES = 8_000
CHUNK_R, CHUNK_M = 2_000, 400
TICK_R, TICK_M = 1_000, 200
PERIOD = 0.1
TICKS = 20
BATCH_SIZE = 1024
QUERIES = (("hot_sum", Q.HOT_SUM), ("tag_having", Q.TAG_HAVING), ("mix_sum", Q.MIX_SUM))


def new_session(on_result=None, register_ms=None) -> QuerySession:
    session = QuerySession(batch_size=BATCH_SIZE)
    Q.declare_readings(session)
    Q.declare_mixtures(session)
    for name, text in QUERIES:
        t0 = clock()
        session.register(name, text, on_result=on_result(name) if on_result else None)
        if register_ms is not None:
            register_ms.append((clock() - t0) * 1e3)
    return session


def setup(seed: int):
    """Everything a user does before the first push (timed by the set-up probe)."""
    return new_session()


def measure(seed: int, seconds: float, trace: bool, tracer, tally) -> dict:
    readings = make_readings(seed, N_READINGS)
    mixtures = make_mixtures(seed, N_MIXTURES)
    n_open_r, n_open_m = TICKS * TICK_R, TICKS * TICK_M
    expected = {
        "closed": {
            "hot_sum": checks.hot_sum(readings, N_READINGS),
            "tag_having": checks.tag_having(readings, N_READINGS),
            "mix_sum": checks.mix_sum(mixtures, N_MIXTURES),
        },
        "open": {
            "hot_sum": checks.hot_sum(readings, n_open_r),
            "tag_having": checks.tag_having(readings, n_open_r),
            "mix_sum": checks.mix_sum(mixtures, n_open_m),
        },
    }
    r_chunks = [readings.tuples[i : i + CHUNK_R] for i in range(0, N_READINGS, CHUNK_R)]
    m_chunks = [mixtures.tuples[i : i + CHUNK_M] for i in range(0, N_MIXTURES, CHUNK_M)]
    # The inputs live for the whole run; keep the collector from
    # re-scanning them on the system's time.
    gc.collect()
    gc.freeze()

    meter = HostMeter()
    # Closed-loop throughputs and open-loop segment latencies, each with
    # the interval it was taken in (to look up the host's speed then).
    out = {"tps": [], "tps_spans": [], "segments": [], "segment_spans": []}
    out.update(traced_tps=[], lags=[], meter=meter)
    register_ms, flush_ms, push_self, op_rows, result_counts = [], [], [], [], []

    def check(kind, results):
        for name, _ in QUERIES:
            checks.check_windows(results[name], expected[kind][name], tally, f"{kind}/{name}")

    def closed_pass(record: bool, traced: bool) -> None:
        results = {name: [] for name, _ in QUERIES}
        session = new_session(lambda name: results[name].append, register_ms)
        tracer.enabled = traced
        t0 = clock()
        for j, (rc, mc) in enumerate(zip(r_chunks, m_chunks)):
            tracer.chunk = j
            tracer.span("service.push", session.push_many, "readings", rc)
            tracer.span("service.push", session.push_many, "mixtures", mc)
        f0 = clock()
        tracer.span("service.flush", session.flush)
        t1 = clock()
        tracer.enabled = False
        tally.ok(2 * len(r_chunks) + 1)
        if record:
            (out["traced_tps"] if traced else out["tps"]).append(
                (N_READINGS + N_MIXTURES) / (t1 - t0)
            )
            if not traced:
                out["tps_spans"].append((t0, t1))
            flush_ms.append((t1 - f0) * 1e3)
            push_self.append((f0 - t0) / (N_READINGS + N_MIXTURES))
            sizes = {"hot_sum": N_READINGS, "tag_having": N_READINGS, "mix_sum": N_MIXTURES}
            row = {}
            for name, n in sizes.items():
                rows = layers.statistics_rows(session, name)
                row.update(layers.operator_metrics(name, rows, n, len(results[name])))
            op_rows.append(row)
            result_counts.append(sum(len(v) for v in results.values()))
        session.close()
        check("closed", results)

    def open_segment() -> None:
        results = {name: [] for name, _ in QUERIES}
        loop = OpenLoop(PERIOD, meter)

        def on_result(name):
            def deliver(item):
                loop.arrival()
                results[name].append(item)

            return deliver

        session = new_session(on_result, register_ms)

        def send(k: int) -> None:
            tracer.chunk = k
            session.push_many("readings", readings.tuples[k * TICK_R : (k + 1) * TICK_R])
            session.push_many("mixtures", mixtures.tuples[k * TICK_M : (k + 1) * TICK_M])

        loop.run(TICKS, send)
        session.flush()
        session.close()
        tally.ok(2 * TICKS + 1)
        out["segments"].append(loop.latencies)
        out["segment_spans"].append(loop.span)
        out["lags"].extend(loop.lags)
        check("open", results)

    run_rounds(seconds, trace, closed_pass, open_segment, passes_per_round=3, meter=meter)
    out["rss_mb"] = own_peak_rss_mb()

    layer = {
        "cql.register_ms": median(register_ms),
        "service.flush_ms": median(flush_ms),
        "service.results": median(result_counts),
        "service.push_us_per_tuple": median(push_self) * 1e6,
    }
    if trace:
        layer.update(service_self_times(tracer, len(out["traced_tps"]) * (N_READINGS + N_MIXTURES)))
        layer.update(layers.codec_probe(r_chunks[:5] + m_chunks[:5]))
        tracer.enabled = True
        try:
            layer.update(probe_shard.measure(readings, tracer, tally))
            layer.update(probe_tcp.measure(readings, tracer, tally))
        finally:
            tracer.enabled = False
    layer.update(layers.median_of_dicts(op_rows))
    out["layers"] = layer
    return out
