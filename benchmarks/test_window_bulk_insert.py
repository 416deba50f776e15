"""Micro-benchmark: per-tuple vs bulk window insertion (`WindowBuffer`).

Batch execution hands whole :class:`~repro.streams.batch.TupleBatch`
containers to the windowed aggregates, which forward them to
``WindowBuffer.add_many`` — one call per batch instead of one ``add``
per tuple (ROADMAP follow-up to PR 1).  This benchmark measures that
difference in isolation for the two buffers with bulk kernels
(tumbling count and tumbling time windows) and asserts that both paths
close *identical* windows.

The speedup assertion is intentionally loose (bulk must not be slower
than ~0.8x the per-tuple loop) because the win is modest for small
batches and this guards the mechanism, not a marketing number; see
``.bench_run/results/window_bulk_insert.txt`` (written by a run) for
measured figures.
"""

from __future__ import annotations

import time

import pytest

from repro.streams import StreamTuple, TumblingCountWindow, TumblingTimeWindow
from repro.streams.batch import TupleBatch

N_TUPLES = 60_000
BATCH_SIZE = 4096
REPEATS = 3
WINDOW_TUPLES = 100
WINDOW_SECONDS = 1.0
TUPLES_PER_SECOND = 100.0
MIN_RELATIVE_SPEED = 0.8


def make_stream(n: int):
    return [
        StreamTuple(timestamp=i / TUPLES_PER_SECOND, values={"i": i}) for i in range(n)
    ]


def run_per_tuple(spec, stream):
    buffer = spec.new_buffer()
    closed = []
    started = time.perf_counter()
    for item in stream:
        closed.extend(buffer.add(item))
    elapsed = time.perf_counter() - started
    closed.extend(buffer.flush())
    return elapsed, closed


def run_bulk(spec, batches):
    buffer = spec.new_buffer()
    closed = []
    started = time.perf_counter()
    for batch in batches:
        closed.extend(buffer.add_many(batch))
    elapsed = time.perf_counter() - started
    closed.extend(buffer.flush())
    return elapsed, closed


def best_of(fn, *args):
    fn(*args)  # warmup
    best, closed = float("inf"), None
    for _ in range(REPEATS):
        elapsed, closed = fn(*args)
        best = min(best, elapsed)
    return best, closed


def assert_same_windows(per_tuple, bulk):
    assert len(per_tuple) == len(bulk)
    for a, b in zip(per_tuple, bulk):
        assert a.start == b.start
        assert a.end == b.end
        assert [t.tuple_id for t in a.items] == [t.tuple_id for t in b.items]


@pytest.fixture(scope="module")
def table(result_table_factory):
    return result_table_factory(
        "window_bulk_insert",
        f"{'window':>22} {'path':>10} {'tuples/s':>12} {'speedup':>9}",
    )


@pytest.mark.parametrize(
    "label,spec",
    [
        ("TumblingCountWindow", TumblingCountWindow(WINDOW_TUPLES)),
        ("TumblingTimeWindow", TumblingTimeWindow(WINDOW_SECONDS)),
    ],
)
def test_bulk_insert_matches_and_keeps_pace(label, spec, table):
    stream = make_stream(N_TUPLES)
    batches = [
        TupleBatch(stream[start : start + BATCH_SIZE])
        for start in range(0, len(stream), BATCH_SIZE)
    ]

    per_tuple_s, per_tuple_windows = best_of(run_per_tuple, spec, stream)
    bulk_s, bulk_windows = best_of(run_bulk, spec, batches)

    assert_same_windows(per_tuple_windows, bulk_windows)

    speedup = per_tuple_s / bulk_s
    table.add_row(
        f"{label:>22} {'per-tuple':>10} {N_TUPLES / per_tuple_s:>12.0f} {1.0:>9.2f}"
    )
    table.add_row(f"{label:>22} {'bulk':>10} {N_TUPLES / bulk_s:>12.0f} {speedup:>9.2f}")
    assert speedup >= MIN_RELATIVE_SPEED, (
        f"{label}: bulk insertion fell to {speedup:.2f}x of the per-tuple loop"
    )


def test_bulk_insert_refuses_out_of_order_batch():
    """An out-of-order batch is refused whole, naming the late row."""
    spec = TumblingTimeWindow(WINDOW_SECONDS)
    buffer = spec.new_buffer()
    buffer.add_many([StreamTuple(timestamp=5.0)])
    with pytest.raises(ValueError, match=r"out-of-order tuple \(timestamp 0\.5\)"):
        buffer.add_many([StreamTuple(timestamp=9.0), StreamTuple(timestamp=0.5)])
    # The row before the late one did not close the open window.
    assert buffer.add_many([StreamTuple(timestamp=5.5)]) == []
