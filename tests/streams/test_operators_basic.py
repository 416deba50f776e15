"""Tests for the basic deterministic operators and operator base class."""

import pytest

from repro.distributions import Gaussian
from repro.streams import (
    AttributeDeriver,
    CallbackSink,
    CollectSink,
    Filter,
    FunctionOperator,
    Map,
    PassThroughOperator,
    StreamTuple,
    TupleBatch,
)
from repro.streams.operators.base import OperatorError


def make_tuple(i, temp=None):
    uncertain = {"temp": Gaussian(temp, 1.0)} if temp is not None else {}
    return StreamTuple(timestamp=float(i), values={"i": i}, uncertain=uncertain)


class TestOperatorBase:
    def test_connect_returns_downstream_for_chaining(self):
        a, b, c = PassThroughOperator(), PassThroughOperator(), CollectSink()
        assert a.connect(b) is b
        b.connect(c)
        assert a.downstream == (b,)
        assert b.downstream == (c,)

    def test_self_connection_rejected(self):
        op = PassThroughOperator()
        with pytest.raises(OperatorError):
            op.connect(op)

    def test_accept_counts_tuples(self):
        op = PassThroughOperator()
        op.accept_batch(TupleBatch([make_tuple(0)]))
        op.accept_batch(TupleBatch([make_tuple(1)]))
        assert op.tuples_in == 2
        assert op.tuples_out == 2
        assert op.batches_in == 2
        op.reset_counters()
        assert op.tuples_in == 0

    def test_function_operator_wraps_callable(self, process_one):
        def explode(item):
            yield item
            yield item.derive(values={"copy": True})

        op = FunctionOperator(explode)
        outputs = process_one(op, make_tuple(0))
        assert len(outputs) == 2
        assert op.name == "explode"


class TestFilterAndMap:
    def test_filter_keeps_matching_tuples(self, process_one):
        op = Filter(lambda t: t.value("i") % 2 == 0)
        kept = [t for i in range(6) for t in process_one(op, make_tuple(i))]
        assert [t.value("i") for t in kept] == [0, 2, 4]

    def test_map_transforms_tuples(self, process_one):
        op = Map(lambda t: t.derive(values={"doubled": t.value("i") * 2}))
        out = process_one(op, make_tuple(3))[0]
        assert out.value("doubled") == 6

    def test_map_must_return_stream_tuple(self, process_one):
        op = Map(lambda t: 42)
        with pytest.raises(OperatorError):
            process_one(op, make_tuple(0))


class TestAttributeDeriver:
    def test_adds_value_and_uncertain_attributes(self, process_one):
        op = AttributeDeriver(
            value_functions={"weight": lambda t: 10.0 * t.value("i")},
            uncertain_functions={"scaled_temp": lambda t: t.distribution("temp").scale(2.0)},
        )
        out = process_one(op, make_tuple(2, temp=30.0))[0]
        assert out.value("weight") == 20.0
        assert out.distribution("scaled_temp").mu == pytest.approx(60.0)
        # Original attributes preserved.
        assert out.value("i") == 2
        assert out.has_uncertain("temp")

    def test_uncertain_function_must_return_distribution(self, process_one):
        op = AttributeDeriver(uncertain_functions={"bad": lambda t: 3.0})
        with pytest.raises(OperatorError):
            process_one(op, make_tuple(0, temp=1.0))

    def test_requires_at_least_one_function(self):
        with pytest.raises(OperatorError):
            AttributeDeriver()


class TestSinks:
    def test_collect_sink_accumulates(self, process_one):
        sink = CollectSink()
        for i in range(3):
            process_one(sink, make_tuple(i))
        assert len(sink.results) == 3
        sink.clear()
        assert sink.results == []

    def test_callback_sink_invokes_callback(self, process_one):
        seen = []
        sink = CallbackSink(seen.append)
        process_one(sink, make_tuple(7))
        assert seen[0].value("i") == 7
