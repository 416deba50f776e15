"""Tests for the push-based stream engine."""

import pytest

from repro.streams import (
    CollectSink,
    EngineError,
    Filter,
    Map,
    PassThroughOperator,
    StreamEngine,
    StreamTuple,
    TupleBatch,
    Union,
)
from repro.streams.engine import run_plan


def make_tuples(n):
    return [StreamTuple(timestamp=float(i), values={"i": i}) for i in range(n)]


class TestStreamEngine:
    def test_linear_plan_pushes_through_all_operators(self):
        engine = StreamEngine()
        source = PassThroughOperator(name="src")
        keep_even = Filter(lambda t: t.value("i") % 2 == 0, name="even")
        sink = CollectSink()
        engine.add_source("in", source)
        source.connect(keep_even).connect(sink)

        engine.push_many("in", make_tuples(10))
        engine.finish()
        assert [t.value("i") for t in sink.results] == [0, 2, 4, 6, 8]

    def test_fan_out_to_two_sinks(self):
        engine = StreamEngine()
        source = PassThroughOperator()
        sink_a, sink_b = CollectSink(), CollectSink()
        engine.add_source("in", source)
        source.connect(sink_a)
        source.connect(sink_b)
        engine.push_many("in", make_tuples(3))
        assert len(sink_a.results) == 3
        assert len(sink_b.results) == 3

    def test_fan_in_via_union(self):
        engine = StreamEngine()
        left, right = PassThroughOperator(), PassThroughOperator()
        union = Union()
        sink = CollectSink()
        engine.add_source("l", left)
        engine.add_source("r", right)
        left.connect(union)
        right.connect(union)
        union.connect(sink)
        engine.push("l", make_tuples(1)[0])
        engine.push("r", make_tuples(1)[0])
        assert len(sink.results) == 2

    def test_unknown_source_rejected(self):
        engine = StreamEngine()
        with pytest.raises(EngineError):
            engine.push("nope", make_tuples(1)[0])

    def test_duplicate_source_rejected(self):
        engine = StreamEngine()
        engine.add_source("in", PassThroughOperator())
        with pytest.raises(EngineError):
            engine.add_source("in", PassThroughOperator())

    def test_statistics_reflect_flow(self):
        engine = StreamEngine()
        source = PassThroughOperator(name="src")
        drop_all = Filter(lambda t: False, name="drop")
        sink = CollectSink(name="sink")
        engine.add_source("in", source)
        source.connect(drop_all).connect(sink)
        engine.push_many("in", make_tuples(4))
        stats = {s.name: (s.tuples_in, s.tuples_out) for s in engine.statistics()}
        assert stats["src"] == (4, 4)
        assert stats["drop"] == (4, 0)
        assert stats["sink"] == (0, 0)

    def test_validate_detects_cycles(self):
        engine = StreamEngine()
        a, b = PassThroughOperator(), PassThroughOperator()
        engine.add_source("in", a)
        a.connect(b)
        b.connect(a)
        with pytest.raises(EngineError):
            engine.validate()

    def test_validate_accepts_dag(self):
        engine = StreamEngine()
        a, b, c = PassThroughOperator(), PassThroughOperator(), CollectSink()
        engine.add_source("in", a)
        a.connect(b)
        b.connect(c)
        a.connect(c)
        engine.validate()

    def test_finish_flushes_in_topological_order(self):
        # A buffering operator that only emits on flush must still reach the sink.
        class Buffering(PassThroughOperator):
            def __init__(self):
                super().__init__()
                self._held = []

            def process_batch(self, batch):
                self._held.extend(batch)
                return TupleBatch()

            def flush(self):
                yield from self._held

        engine = StreamEngine()
        source = PassThroughOperator()
        buffering = Buffering()
        sink = CollectSink()
        engine.add_source("in", source)
        source.connect(buffering).connect(sink)
        engine.push_many("in", make_tuples(3))
        assert sink.results == []
        engine.finish()
        assert len(sink.results) == 3


class TestRunPlan:
    def test_runs_linear_plan_and_collects(self):
        source = Map(lambda t: t.derive(values={"j": t.value("i") + 1}))
        results = run_plan(source, make_tuples(3))
        assert [t.value("j") for t in results] == [1, 2, 3]

    def test_rejects_branching_plan_without_sink(self):
        source = PassThroughOperator()
        source.connect(PassThroughOperator())
        source.connect(PassThroughOperator())
        with pytest.raises(EngineError):
            run_plan(source, make_tuples(1))
