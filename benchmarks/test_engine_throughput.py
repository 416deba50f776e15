"""Engine-overhead throughput: batches of 4096 rows vs one-row batches.

The engine has one execution path: :class:`~repro.streams.batch.TupleBatch`
containers move between boxes and the operators run their vectorised
kernels.  This benchmark feeds the same select -> aggregate plan
(probabilistic selection over a per-tuple Gaussian, then a
tumbling-window SUM with the CF-approximation strategy -- the paper's
fastest accurate algorithm) the same synthetic stream twice: cut into
batches of ``BATCH_SIZE`` rows, and as one-row batches (what
``StreamEngine.push`` and an engine without a batch size deliver).

Two properties are asserted, mirroring the paper's "high-volume stream
processing" claim:

* batches of ``BATCH_SIZE`` sustain at least ``MIN_SPEEDUP`` times the
  one-row-batch throughput on the Gaussian workload, and
* both batch sizes produce numerically identical query results (within
  ``EQUIVALENCE_TOLERANCE``) on the Q1-shaped Gaussian-mixture
  workload, where the batch kernels fall back to generic per-tuple
  moment extraction.

Both runs carry the same per-``accept_batch`` timing instrumentation
(two ``perf_counter`` calls per box per batch), so the reported speedup
is the per-batch engine and operator overhead that large batches
amortise.
"""

from __future__ import annotations

import time

import pytest

from repro.core import (
    CFApproximationSum,
    Comparison,
    ProbabilisticSelect,
    UncertainAggregate,
    UncertainPredicate,
)
from repro.streams import CollectSink, StreamEngine, TumblingCountWindow
from repro.workloads import gaussian_tuple_stream, gmm_tuple_stream

N_TUPLES = 30_000
WINDOW_SIZE = 100
BATCH_SIZE = 4096
REPEATS = 3
MIN_SPEEDUP = 5.0
EQUIVALENCE_TOLERANCE = 1e-9


def build_plan(batch_size):
    """Build a fresh select -> aggregate -> sink plan."""
    select = ProbabilisticSelect(
        UncertainPredicate("value", Comparison.GREATER, 50.0), min_probability=0.5
    )
    aggregate = UncertainAggregate(
        TumblingCountWindow(WINDOW_SIZE), "value", CFApproximationSum(), function="sum"
    )
    sink = CollectSink(name="sink")
    engine = StreamEngine(batch_size=batch_size)
    engine.add_source("in", select)
    select.connect(aggregate)
    aggregate.connect(sink)
    return engine, sink


def run_once(stream, batch_size):
    """Run the plan over ``stream``; return (seconds, results)."""
    engine, sink = build_plan(batch_size)
    started = time.perf_counter()
    engine.push_many("in", stream)
    engine.finish()
    return time.perf_counter() - started, sink.results


def best_throughput(stream, batch_size):
    """Best-of-``REPEATS`` throughput in tuples/s, plus one result list."""
    run_once(stream, batch_size)  # warmup: numpy/scipy dispatch, allocator, caches
    best = float("inf")
    results = None
    for _ in range(REPEATS):
        elapsed, results = run_once(stream, batch_size)
        best = min(best, elapsed)
    return len(stream) / best, results


@pytest.fixture(scope="module")
def table(result_table_factory):
    return result_table_factory(
        "engine_throughput",
        f"{'path':>12} {'batch':>8} {'tuples/s':>12} {'speedup':>8}",
    )


def test_batch_path_speedup_and_equivalence(table):
    stream = gaussian_tuple_stream(N_TUPLES, rng=3)

    row_rate, row_results = best_throughput(stream, batch_size=None)
    batch_rate, batch_results = best_throughput(stream, batch_size=BATCH_SIZE)
    speedup = batch_rate / row_rate

    table.add_row(f"{'one-row':>12} {1:>8} {row_rate:>12.0f} {1.0:>8.2f}")
    table.add_row(f"{'batch':>12} {BATCH_SIZE:>8} {batch_rate:>12.0f} {speedup:>8.2f}")

    _assert_equivalent(row_results, batch_results)
    assert speedup >= MIN_SPEEDUP, (
        f"batches of {BATCH_SIZE} reached only {speedup:.2f}x the one-row-batch throughput "
        f"({batch_rate:.0f} vs {row_rate:.0f} tuples/s); expected >= {MIN_SPEEDUP}x"
    )


def test_q1_workload_results_identical():
    """Q1-shaped GMM workload: one-row and 512-row batches, identical window results."""
    stream = gmm_tuple_stream(6_000, mean_range=(0.0, 100.0), rng=7)
    _, row_results = run_once(stream, batch_size=None)
    _, batch_results = run_once(stream, batch_size=512)
    assert row_results, "expected at least one closed window"
    _assert_equivalent(row_results, batch_results)


def _assert_equivalent(row_results, batch_results):
    assert len(row_results) == len(batch_results)
    for expected, actual in zip(row_results, batch_results):
        assert expected.value("window_start") == actual.value("window_start")
        assert expected.value("window_end") == actual.value("window_end")
        assert expected.value("window_count") == actual.value("window_count")
        dist_expected = expected.distribution("sum_value")
        dist_actual = actual.distribution("sum_value")
        assert abs(dist_expected.mu - dist_actual.mu) <= EQUIVALENCE_TOLERANCE
        assert abs(dist_expected.sigma - dist_actual.sigma) <= EQUIVALENCE_TOLERANCE
