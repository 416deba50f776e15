"""PlanHost: one box table lowers, wires and shares every in-process plan."""

import pytest

from repro.core.aggregation.strategies import CLTSum
from repro.distributions import Gaussian
from repro.plan import CostModel, PlanError, PlanHost, Stream, compile_streams
from repro.plan.nodes import DeriveNode, FilterNode, ProbFilterNode
from repro.streams import StreamEngine, StreamTuple, TumblingCountWindow
from repro.streams.operators.base import PassThroughOperator

TOLERANCE = 1e-9


def is_hot(t):
    return t.value("kind") == "hot"


def heavier(t):
    return t.distribution("weight").mean() + 1.0


def readings(n=60):
    return [
        StreamTuple(
            timestamp=float(i),
            values={"tag_id": f"T{i % 5}", "kind": "hot" if i % 3 else "cold"},
            uncertain={"weight": Gaussian(10.0 + (i * 7) % 23, 1.0 + i % 4)},
        )
        for i in range(n)
    ]


def build_outputs():
    """Two outputs whose prefixes are built separately from the same functions."""
    source = Stream.source(
        "in", values=("tag_id", "kind"), uncertain=("weight",), family="gaussian"
    )

    def prefix():
        return (
            source.derive(values={"score": heavier})
            .where(is_hot, uses=("kind",), description="hot")
            .where_probably("weight", ">", 12.0, min_probability=0.3)
        )

    sums = prefix().window(TumblingCountWindow(4)).aggregate("weight", strategy=CLTSum())
    counts = prefix().window(TumblingCountWindow(3)).aggregate("weight", function="count")
    return {"sums": sums, "counts": counts}


def assert_equivalent(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.timestamp == b.timestamp
        assert a.values.keys() == b.values.keys()
        for key, value in a.values.items():
            if isinstance(value, float):
                assert b.values[key] == pytest.approx(value, abs=TOLERANCE)
            else:
                assert b.values[key] == value
        assert a.uncertain.keys() == b.uncertain.keys()
        for key in a.uncertain:
            da, db = a.distribution(key), b.distribution(key)
            assert float(db.mean()) == pytest.approx(float(da.mean()), abs=TOLERANCE)
            assert float(db.variance()) == pytest.approx(
                float(da.variance()), abs=TOLERANCE
            )


class TestSharedPrefixInOnePlan:
    def test_separately_built_prefix_lowers_to_one_box_per_node(self):
        query = compile_streams(build_outputs())
        boxes = query.host.boxes()
        for kind in (DeriveNode, FilterNode, ProbFilterNode):
            assert len([b for b in boxes if isinstance(b.node, kind)]) == 1
        # The selection ends the shared prefix: it feeds both aggregates.
        (select,) = [b.op for b in boxes if isinstance(b.node, ProbFilterNode)]
        assert len(select.downstream) == 2
        assert [b.op.name for b in boxes].count("source:in") == 1

    def test_each_output_matches_its_own_compilation(self):
        items = readings()
        shared = compile_streams(build_outputs(), batch_size=8)
        shared.push_many("in", items)
        shared.finish()
        for name in ("sums", "counts"):
            alone = compile_streams({name: build_outputs()[name]}, batch_size=8)
            alone.push_many("in", items)
            expected = alone.finish()
            assert expected
            assert_equivalent(expected, shared.output(name))

    def test_take_drains_one_output(self):
        query = compile_streams(build_outputs())
        query.push_many("in", readings())
        query.finish()
        counts = query.output("counts")
        assert query.take("counts") == counts
        assert query.output("counts") == []
        assert query.results  # the primary output is untouched


class TestAttach:
    def test_failed_attach_leaves_no_boxes(self):
        host = PlanHost(StreamEngine(), CostModel())
        wired = PassThroughOperator(name="wired")
        wired.connect(PassThroughOperator())
        stream = Stream.source("in", values=("kind",)).where(is_hot, uses=("kind",))
        with pytest.raises(PlanError, match="already wired"):
            host.attach("q", stream.pipe(wired).plan().outputs)
        assert host.boxes() == []
        assert host.entries == {}
        assert host.engine.operators == ()

    def test_detach_keeps_boxes_other_owners_use(self):
        host = PlanHost(StreamEngine(), CostModel())
        outputs = build_outputs()
        host.attach("sums", outputs["sums"].plan().outputs)
        host.attach("counts", outputs["counts"].plan().outputs)
        assert len(host.boxes()) == len(host.boxes("sums")) + 1
        assert host.detach("sums") == []
        assert [b.op.name for b in host.boxes()] == [
            b.op.name for b in host.boxes("counts")
        ]
        assert host.detach("counts") == ["in"]
        assert host.boxes() == []
