"""Property-style equivalence of one-row and larger batches.

Runs the Q1-shaped query of ``examples/quickstart.py`` (probabilistic
selection -> windowed CF-approximation SUM -> summary) over randomly
generated uncertain streams and asserts that ``run_plan`` produces the
same results whether the engine is fed one-row batches (``push_many``
without a batch size) or larger ones (``push_batch``-based chunking).
"""

import pytest

from repro.core import (
    CFApproximationSum,
    Comparison,
    ProbabilisticSelect,
    SummarizeResults,
    UncertainAggregate,
    UncertainPredicate,
)
from repro.streams import StreamEngine, TumblingCountWindow, TupleBatch, CollectSink
from repro.streams.engine import run_plan
from repro.workloads import gaussian_tuple_stream, gmm_tuple_stream, to_batches

TOLERANCE = 1e-9
SUMMARY_KEYS = ("sum_value_mean", "sum_value_variance", "sum_value_lo", "sum_value_hi")


def build_q1_plan():
    """The quickstart plan: select -> windowed SUM -> summarise."""
    select = ProbabilisticSelect(
        UncertainPredicate("value", Comparison.GREATER, 20.0), min_probability=0.5
    )
    aggregate = UncertainAggregate(
        TumblingCountWindow(50), "value", CFApproximationSum(), function="sum"
    )
    summarise = SummarizeResults("sum_value", confidence=0.95, keep_distribution=True)
    select.connect(aggregate)
    aggregate.connect(summarise)
    return select


def assert_results_match(expected, actual):
    assert len(expected) == len(actual)
    assert expected, "stream should close at least one window"
    for left, right in zip(expected, actual):
        assert left.value("window_start") == right.value("window_start")
        assert left.value("window_end") == right.value("window_end")
        assert left.value("window_count") == right.value("window_count")
        for key in SUMMARY_KEYS:
            assert abs(left.value(key) - right.value(key)) <= TOLERANCE, key
        dist_left = left.distribution("sum_value")
        dist_right = right.distribution("sum_value")
        assert abs(dist_left.mu - dist_right.mu) <= TOLERANCE
        assert abs(dist_left.sigma - dist_right.sigma) <= TOLERANCE


@pytest.mark.parametrize("seed", [1, 7, 13, 42, 99])
@pytest.mark.parametrize("generator", [gmm_tuple_stream, gaussian_tuple_stream])
@pytest.mark.parametrize("batch_size", [1, 64, 1000])
def test_run_plan_matches_between_paths(seed, generator, batch_size):
    stream = generator(600, mean_range=(0.0, 100.0), rng=seed)
    tuple_results = run_plan(build_q1_plan(), stream)
    batch_results = run_plan(build_q1_plan(), stream, batch_size=batch_size)
    assert_results_match(tuple_results, batch_results)


def test_push_batch_matches_push_many_directly(quickstart_seed=7):
    stream = gmm_tuple_stream(1200, mean_range=(0.0, 100.0), rng=quickstart_seed)

    def run(push):
        source = build_q1_plan()
        sink = CollectSink()
        tail = source
        while tail.downstream:
            tail = tail.downstream[0]
        tail.connect(sink)
        engine = StreamEngine()
        engine.add_source("in", source)
        push(engine)
        engine.finish()
        return sink.results

    tuple_results = run(lambda engine: engine.push_many("in", stream))

    def push_batches(engine):
        for batch in to_batches(stream, 256):
            engine.push_batch("in", batch)

    batch_results = run(push_batches)
    assert_results_match(tuple_results, batch_results)


def test_batch_of_whole_stream_matches(quickstart_seed=3):
    stream = gaussian_tuple_stream(500, rng=quickstart_seed)
    tuple_results = run_plan(build_q1_plan(), stream)

    source = build_q1_plan()
    sink = CollectSink()
    tail = source
    while tail.downstream:
        tail = tail.downstream[0]
    tail.connect(sink)
    engine = StreamEngine()
    engine.add_source("in", source)
    engine.push_batch("in", TupleBatch(stream))
    engine.finish()
    assert_results_match(tuple_results, sink.results)
