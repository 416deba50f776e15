"""The network layer, probed in ``local_batch``'s traced run.

A StreamServer in its own process, driven over TCP.

The generator process ingests ``readings`` through one ``StreamClient``
(pipelined, batched acks) and reads ``hot_sum`` through one
``Subscription`` on a reader thread: two processes, two connections,
two threads.  The query is the cheap vectorised one, so framing, the
columnar codec and result push dominate.

Closed loop: per pass the query is registered afresh and the whole pool
(40 000 readings) is ingested in 1 024-tuple frames with an ack window of
8, then flushed.  Open loop: 1 000 readings every 100 ms (10 000
tuples/s), one acked frame per tick, for 20 ticks; each tick closes ten
windows.  The probe runs the shared schedule's minimum (a discarded
warm-up pass, then four rounds of one closed pass and one open segment)
and reports the ``net.*`` metrics; every result is checked against an
in-process session run of the same inputs.
"""

from __future__ import annotations

import threading

import checks
import queries as Q
from common import OpenLoop, ServerProcess, clock, median, percentile, run_rounds
from repro.net import ConnectionClosed, StreamClient

N_READINGS = 40_000
FRAME = 1024
ACK_WINDOW = 8
TICK = 1_000
PERIOD = 0.1
TICKS = 20
WAIT_S = 60.0


class Reader:
    """The subscriber thread: stamps each result batch as it arrives."""

    def __init__(self, client: StreamClient, query: str, expected: int):
        self.subscription = client.subscribe(query)
        self.expected = expected
        self.items = []
        self.arrivals = []  # one stamp per result tuple
        self.frames = 0
        self.done = threading.Event()
        self.error = None
        self.thread = threading.Thread(target=self._run, name="hot_sum-reader")
        self.thread.start()

    def _run(self) -> None:
        try:
            while True:
                batch = self.subscription.recv()
                now = clock()
                self.frames += 1
                self.items.extend(batch)
                self.arrivals.extend([now] * len(batch))
                if len(self.items) >= self.expected:
                    self.done.set()
        except ConnectionClosed:
            pass
        except Exception as exc:  # reported as a failure by the caller
            self.error = exc
        finally:
            self.done.set()

    def finish(self, client: StreamClient, query: str) -> None:
        """Drop the query (ends the subscription) and join the thread."""
        client.drop(query)
        self.thread.join(timeout=WAIT_S)
        self.subscription.close()


def measure(readings, tracer, tally) -> dict:
    """``net.*`` over ``readings`` (40 000 of them) through a server process."""
    server = ServerProcess()
    try:
        return _measure(server, readings, tracer, tally)
    finally:
        server.close()


def _measure(server, readings, tracer, tally) -> dict:
    n_open = TICKS * TICK
    expected = {
        "closed": checks.session_reference(readings.tuples, FRAME),
        "open": checks.session_reference(readings.tuples[:n_open], FRAME),
    }
    windows = {"closed": checks.hot_sum(readings, N_READINGS), "open": checks.hot_sum(readings, n_open)}
    for kind in expected:  # the in-process reference itself must match numpy
        checks.check_windows(expected[kind], windows[kind], tally, f"reference/{kind}")
    acks, frames_in, per_frame, dropped = [], [], [], []
    client = None
    try:
        client = StreamClient(server.address, timeout=WAIT_S)
        Q.declare_readings(client)

        def start(kind):
            client.register("hot_sum", Q.HOT_SUM)
            return Reader(client, "hot_sum", len(expected[kind]))

        def collect(kind, reader):
            ok = reader.done.wait(WAIT_S) and len(reader.items) >= len(expected[kind])
            if not ok:
                tally.fail(f"{kind}: results missing after {WAIT_S:.0f} s")
            reader.finish(client, "hot_sum")
            if reader.error is not None:
                tally.fail(f"{kind}: subscriber failed: {reader.error!r}")
            dropped.append(reader.subscription.dropped)
            if reader.subscription.dropped:
                tally.fail(f"{kind}: subscriber dropped {reader.subscription.dropped} results")
            checks.check_same(reader.items, expected[kind], tally, f"tcp/{kind}/hot_sum")

        def closed_pass(record: bool, traced: bool) -> None:
            reader = start("closed")
            tracer.enabled = traced
            acked = tracer.span(
                "net.ingest", client.ingest, "readings", readings.tuples, FRAME, ACK_WINDOW
            )
            tracer.span("net.flush", client.flush)
            reader.done.wait(WAIT_S)
            tracer.enabled = False
            tally.check(acked == N_READINGS, f"tcp/closed: {acked} of {N_READINGS} tuples acked")
            collect("closed", reader)
            if record:
                frames_in.append(-(-N_READINGS // FRAME))
                per_frame.append(len(reader.items) / max(reader.frames, 1))

        def open_segment() -> None:
            reader = start("open")
            loop = OpenLoop(PERIOD)
            tick_acks = []

            def send(k: int) -> None:
                tracer.chunk = k
                chunk = readings.tuples[k * TICK : (k + 1) * TICK]
                acked = tracer.span("net.ingest", client.ingest, "readings", chunk, TICK, ACK_WINDOW)
                tick_acks.extend(client.last_ingest_ack_latencies)
                tally.check(acked == len(chunk), f"tcp/open: tick {k} acked {acked} of {len(chunk)}")

            loop.run(TICKS, send)
            client.flush()
            reader.done.wait(WAIT_S)
            collect("open", reader)
            acks.extend(tick_acks)

        run_rounds(0.0, True, closed_pass, open_segment)
    finally:
        if client is not None:
            client.close()

    return {
        "net.ingest_ack_p50_ms": percentile(acks, 50) * 1e3,
        "net.ingest_ack_p90_ms": percentile(acks, 90) * 1e3,
        "net.ingest_frames": median(frames_in),
        "net.results_per_frame": median(per_frame),
        "net.subscriber_dropped": float(sum(dropped)),
    }

