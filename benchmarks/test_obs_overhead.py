"""Observability overhead: an attached exporter must cost ≤ ``MAX_OVERHEAD``.

The registry's design claim (see :mod:`repro.obs.registry`) is that the
ingest hot path pays only plain array increments — snapshotting,
percentile estimation and rendering all run on the reader's side.  This
smoke check measures it: the same select→aggregate session workload
runs bare and then with an aggressive exporter attached (a thread
snapshotting the registry and rendering the Prometheus text format
every 10 ms — ~100× a production scrape rate), and the instrumented
run must stay within ``MAX_OVERHEAD`` of the bare one.

Both runs execute identical code (trace stamping and instruments are
always on); only the exporter differs, so the measured delta is the
cost of *exposition under load*, the ISSUE's ≤3% budget.  The assert
allows ``NOISE_SLACK`` on top because best-of-N wall clocks on a shared
box still jitter by a few percent.

The span layer (:mod:`repro.obs.spans`) adds a second budget check:
the same workload runs with span sampling off and at the default 1/64
in interleaved pairs, and the *default* must stay within the same ≤3%
budget by the same best-pair estimate.  A run pushes its tuples in
``BATCH_SIZE`` chunks, one trace each, so every run makes at least 64
traces and every 1/64 run records spans (asserted: a run that records
none would time nothing).  Always-on is reported for the perf
trajectory but not asserted — it is a debugging mode, priced
accordingly.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import QuerySession, obs
from repro.distributions import Gaussian
from repro.obs import render_prometheus
from repro.streams import StreamTuple

N_TUPLES = 150_000
BATCH_SIZE = 2048
REPEATS = 5
MAX_OVERHEAD = 0.03
NOISE_SLACK = 0.04

QUERY = "SELECT SUM(value) AS total FROM s [RANGE 2 SECONDS SLIDE 2 SECONDS]"


def make_tuples(n):
    rng = np.random.default_rng(41)
    return [
        StreamTuple(
            timestamp=i * 0.01,
            values={"tag_id": f"T{i % 16}"},
            uncertain={"value": Gaussian(float(rng.uniform(10.0, 90.0)), 2.0)},
        )
        for i in range(n)
    ]


def run_once(stream):
    session = QuerySession(batch_size=BATCH_SIZE)
    session.create_stream(
        "s", values=("tag_id",), uncertain=("value",), family="gaussian",
        rate_hint=100.0,
    )
    session.register("totals", QUERY)
    started = time.perf_counter()
    # One push per chunk: each push is one trace, so span sampling at
    # 1/64 records spans in every run (>= 64 chunks).
    for start in range(0, len(stream), BATCH_SIZE):
        session.push_many("s", stream[start : start + BATCH_SIZE])
    session.flush()
    return time.perf_counter() - started


def interleaved_best(stream, instrument_factory, repeats=REPEATS):
    """Best bare/instrumented times, the per-pair time ratios and the instruments.

    Runs alternate bare/instrumented so machine drift (cache warmup, a
    background process, CPU frequency shifts) never lands entirely on
    one side.  The overhead estimate is the *minimum per-pair ratio*:
    noise only ever inflates a run, so the cleanest adjacent pair is
    the best estimate of the true cost — the same best-of-N logic the
    other benchmarks apply to absolute times, applied to the ratio.
    """
    run_once(stream)  # warmup: numpy dispatch, allocator, caches
    bare = instrumented = float("inf")
    ratios = []
    instruments = []
    for _ in range(repeats):
        bare_run = run_once(stream)
        with instrument_factory() as instrument:
            instrumented_run = run_once(stream)
        bare = min(bare, bare_run)
        instrumented = min(instrumented, instrumented_run)
        ratios.append(instrumented_run / bare_run)
        instruments.append(instrument)
    return bare, instrumented, ratios, instruments


class _Exporter:
    """Snapshot + render the registry on a Prometheus-like poll cadence.

    A zero-interval spin loop would measure GIL contention with the
    worker thread, not exposition cost; 10 ms is already ~100× more
    aggressive than a production scraper.
    """

    POLL_INTERVAL = 0.010

    def __init__(self):
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self.polls = 0

    def _loop(self):
        registry = obs.get_registry()
        while not self._stop.is_set():
            render_prometheus(registry.snapshot())
            self.polls += 1
            self._stop.wait(self.POLL_INTERVAL)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)


class _DefaultSampling:
    """Record spans at the default 1-in-64 rate for one run; count them."""

    def __init__(self):
        self.spans = 0

    def __enter__(self):
        self._previous = obs.set_trace_sample(obs.DEFAULT_TRACE_SAMPLE)
        obs.local_spans().clear()
        return self

    def __exit__(self, *exc):
        self.spans = len(obs.local_spans())
        obs.local_spans().clear()
        obs.set_trace_sample(self._previous)


def timed_with_sampling(stream, sample, repeats=REPEATS):
    """Best-of-N wall time of the workload at a given span-sample rate."""
    previous = obs.set_trace_sample(sample)
    try:
        obs.local_spans().clear()
        best = float("inf")
        for _ in range(repeats):
            best = min(best, run_once(stream))
            obs.local_spans().clear()  # bound memory across always-on runs
        return best
    finally:
        obs.set_trace_sample(previous)


def test_exporter_overhead_within_budget(result_table_factory):
    stream = make_tuples(N_TUPLES)

    # Both bare sides run with spans off, isolating the two costs:
    # exporter polling, then span recording at the default rate.
    previous_sample = obs.set_trace_sample(0)
    try:
        bare, instrumented, ratios, exporters = interleaved_best(stream, _Exporter)
        spans_off, spans_default, span_ratios, samplers = interleaved_best(
            stream, _DefaultSampling
        )
    finally:
        obs.set_trace_sample(previous_sample)
    polls = sum(exporter.polls for exporter in exporters)
    assert polls > 0, "the exporter thread never snapshotted"
    spans_per_run = [sampler.spans for sampler in samplers]
    assert min(spans_per_run) > 0, (
        f"a 1/64 run recorded no spans ({spans_per_run}); the span phase "
        "would time an unsampled workload"
    )

    spans_always = timed_with_sampling(stream, 1)
    span_overhead = min(span_ratios) - 1.0
    always_overhead = spans_always / spans_off - 1.0

    overhead = min(ratios) - 1.0
    median_overhead = float(np.median(ratios)) - 1.0
    table = result_table_factory(
        "obs_overhead",
        f"# select->aggregate session, {N_TUPLES} tuples, batch {BATCH_SIZE}, "
        f"best of {REPEATS}\n"
        f"{'mode':>14} {'seconds':>10} {'tuples/s':>12}",
    )
    table.add_row(f"{'bare':>14} {bare:>10.4f} {N_TUPLES / bare:>12.0f}")
    table.add_row(
        f"{'exporter':>14} {instrumented:>10.4f} {N_TUPLES / instrumented:>12.0f}"
    )
    table.add_row(f"{'spans-off':>14} {spans_off:>10.4f} {N_TUPLES / spans_off:>12.0f}")
    table.add_row(
        f"{'spans-1-in-64':>14} {spans_default:>10.4f} {N_TUPLES / spans_default:>12.0f}"
    )
    table.add_row(
        f"{'spans-always':>14} {spans_always:>10.4f} {N_TUPLES / spans_always:>12.0f}"
    )
    table.add_row(
        f"# exporter overhead: best pair {overhead * 100.0:+.2f}%, "
        f"median {median_overhead * 100.0:+.2f}% "
        f"(budget {MAX_OVERHEAD * 100.0:.0f}%, snapshots: {polls})"
    )
    table.add_row(
        f"# span overhead vs spans-off: 1/64 best pair {span_overhead * 100.0:+.2f}%, "
        f"median {float(np.median(span_ratios)) * 100.0 - 100.0:+.2f}%, "
        f"always {always_overhead * 100.0:+.2f}% "
        f"(budget {MAX_OVERHEAD * 100.0:.0f}% at the default rate; "
        f"spans per 1/64 run: {spans_per_run})"
    )

    assert overhead <= MAX_OVERHEAD + NOISE_SLACK, (
        f"exporter overhead {overhead * 100.0:.2f}% exceeds the "
        f"{MAX_OVERHEAD * 100.0:.0f}% budget (+{NOISE_SLACK * 100.0:.0f}% noise slack)"
    )
    assert span_overhead <= MAX_OVERHEAD + NOISE_SLACK, (
        f"default 1/64 span sampling costs {span_overhead * 100.0:.2f}%, over the "
        f"{MAX_OVERHEAD * 100.0:.0f}% budget (+{NOISE_SLACK * 100.0:.0f}% noise slack)"
    )
