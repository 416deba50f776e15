"""Engine topology edge cases: diamonds, deep chains, multi-source plans.

These guard the iterative scheduler (recursion removal) and the single-pass
tri-color cycle check.
"""

import pytest

from repro.streams import (
    CollectSink,
    EngineError,
    PassThroughOperator,
    StreamEngine,
    StreamTuple,
    TupleBatch,
    Union,
)


def make_tuples(n):
    return [StreamTuple(timestamp=float(i), values={"i": i}) for i in range(n)]


class Buffering(PassThroughOperator):
    """Holds every tuple until flush; used to probe flush ordering."""

    def __init__(self, name=None):
        super().__init__(name=name)
        self._held = []

    def process_batch(self, batch):
        self._held.extend(batch)
        return TupleBatch()

    def flush(self):
        held, self._held = self._held, []
        return held


class TestDiamondDag:
    def _build(self, batch_size=None):
        engine = StreamEngine(batch_size=batch_size)
        source = PassThroughOperator(name="src")
        left = Buffering(name="left")
        right = Buffering(name="right")
        join = Union(name="join")
        sink = CollectSink(name="sink")
        engine.add_source("in", source)
        source.connect(left)
        source.connect(right)
        left.connect(join)
        right.connect(join)
        join.connect(sink)
        return engine, sink

    @pytest.mark.parametrize("batch_size", [None, 2])
    def test_diamond_flush_reaches_sink_once_per_branch(self, batch_size):
        engine, sink = self._build(batch_size)
        engine.push_many("in", make_tuples(3))
        assert sink.results == []  # both branches buffer until flush
        engine.finish()
        # Each tuple fans out to both branches, so the sink sees 6 tuples,
        # and flush order is topological: both branches before the join.
        assert len(sink.results) == 6
        assert sorted(t.value("i") for t in sink.results) == [0, 0, 1, 1, 2, 2]

    def test_diamond_validates_as_dag(self):
        engine, _ = self._build()
        engine.validate()  # cross edges to already-explored boxes are no cycle


class TestDeepChains:
    CHAIN_LENGTH = 1200

    def _build_chain(self, batch_size=None):
        engine = StreamEngine(batch_size=batch_size)
        head = PassThroughOperator(name="op0")
        engine.add_source("in", head)
        tail = head
        for i in range(1, self.CHAIN_LENGTH):
            tail = tail.connect(PassThroughOperator(name=f"op{i}"))
        sink = CollectSink()
        tail.connect(sink)
        return engine, sink

    def test_tuple_path_survives_1000_plus_operators(self):
        engine, sink = self._build_chain()
        engine.push_many("in", make_tuples(3))
        engine.finish()
        assert [t.value("i") for t in sink.results] == [0, 1, 2]

    def test_batch_path_survives_1000_plus_operators(self):
        engine, sink = self._build_chain(batch_size=2)
        engine.push_many("in", make_tuples(5))
        engine.finish()
        assert [t.value("i") for t in sink.results] == [0, 1, 2, 3, 4]

    def test_deep_chain_validates_without_recursion(self):
        engine, _ = self._build_chain()
        engine.validate()


class TestMultiSourcePlans:
    def test_two_sources_merge_into_one_stream(self):
        engine = StreamEngine()
        left = PassThroughOperator(name="left")
        right = PassThroughOperator(name="right")
        union = Union()
        sink = CollectSink()
        engine.add_source("l", left)
        engine.add_source("r", right)
        left.connect(union)
        right.connect(union)
        union.connect(sink)
        engine.push_many("l", make_tuples(2))
        engine.push_many("r", make_tuples(3))
        assert len(sink.results) == 5

    def test_batch_push_per_source(self):
        engine = StreamEngine()
        left = PassThroughOperator(name="left")
        right = PassThroughOperator(name="right")
        union = Union()
        sink = CollectSink()
        engine.add_source("l", left)
        engine.add_source("r", right)
        left.connect(union)
        right.connect(union)
        union.connect(sink)
        engine.push_batch("l", TupleBatch(make_tuples(4)))
        engine.push_batch("r", make_tuples(2))  # plain iterables are wrapped
        assert len(sink.results) == 6

    def test_statistics_cover_all_sources(self):
        engine = StreamEngine()
        a = PassThroughOperator(name="a")
        b = PassThroughOperator(name="b")
        engine.add_source("a", a)
        engine.add_source("b", b)
        names = {s.name for s in engine.statistics()}
        assert names == {"a", "b"}


class TestCycleDetection:
    def test_long_cycle_detected_in_one_pass(self):
        engine = StreamEngine()
        a = PassThroughOperator(name="a")
        b = PassThroughOperator(name="b")
        c = PassThroughOperator(name="c")
        engine.add_source("in", a)
        a.connect(b)
        b.connect(c)
        c.connect(a)
        with pytest.raises(EngineError, match="cycle detected through operator"):
            engine.validate()

    def test_cycle_off_the_main_path_detected(self):
        engine = StreamEngine()
        a = PassThroughOperator(name="a")
        b = PassThroughOperator(name="b")
        c = PassThroughOperator(name="c")
        engine.add_source("in", a)
        a.connect(b)
        b.connect(c)
        c.connect(b)  # cycle not involving the source
        with pytest.raises(EngineError, match="cycle detected through operator 'b'"):
            engine.validate()
