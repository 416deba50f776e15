"""Union fan-in lowering: fused batch segments + fused/unfused equivalence."""

import pytest

from repro.distributions import Gaussian
from repro.plan import FusedBatchSegment, Stream
from repro.streams import StreamTuple
from repro.streams.operators.base import OperatorError, PassThroughOperator
from repro.streams.operators.basic import Filter, Map
from repro.streams.windows import TumblingCountWindow


def branch_stream(name):
    return (
        Stream.source(name, values=("kind",), uncertain=("w",), family="gaussian")
        .where(lambda t: t.value("kind") != "ghost", uses=("kind",), description="real")
        .where_probably("w", ">", 0.0, min_probability=0.1)
    )


def branch_tuples(n, offset=0.0, ghost_every=5):
    return [
        StreamTuple(
            timestamp=offset + float(i),
            values={"kind": "ghost" if i % ghost_every == 0 else "real"},
            uncertain={"w": Gaussian(10.0 + i, 2.0)},
        )
        for i in range(n)
    ]


class TestSegmentLowering:
    def test_union_branches_fuse(self):
        union = branch_stream("a").union(branch_stream("b"))
        query = union.window(TumblingCountWindow(4)).aggregate("w").compile()
        segments = [
            op for op, _ in query._operator_tags if isinstance(op, FusedBatchSegment)
        ]
        assert len(segments) == 2
        for segment in segments:
            assert len(segment.operators) == 2
            assert segment.supports_batch
        # The members were severed from the engine graph: each segment
        # is one box in the statistics, its members invisible.
        names = [stats.name for stats in query.statistics(detailed=True)]
        assert sum("Segment[" in name for name in names) == 2
        assert not any(name == "ProbabilisticSelect" for name in names)

    def test_per_tuple_box_keeps_branch_unfused(self):
        # Map has no vectorised kernel: the chain walk from the union
        # stops at it, so neither branch is fused.
        union = branch_stream("a").pipe(Map(lambda t: t)).union(
            branch_stream("b").pipe(Map(lambda t: t))
        )
        query = union.window(TumblingCountWindow(4)).aggregate("w").compile()
        assert not any(
            isinstance(op, FusedBatchSegment) for op, _ in query._operator_tags
        )

    def test_segment_rejects_per_tuple_members(self):
        class NoBatch(Filter):
            def process(self, item):  # overriding process disables the kernel
                yield item

        with pytest.raises(OperatorError, match="per-tuple fallback"):
            FusedBatchSegment([NoBatch(lambda t: True), PassThroughOperator()])

    def test_segment_needs_two_members(self):
        with pytest.raises(OperatorError, match="at least two"):
            FusedBatchSegment([PassThroughOperator()])


class TestFusedUnfusedEquivalence:
    def _run(self, batch_size, fused):
        a, b = branch_stream("a"), branch_stream("b")
        if not fused:
            # A per-tuple box at the end of each branch blocks fusion.
            a, b = a.pipe(Map(lambda t: t)), b.pipe(Map(lambda t: t))
        query = (
            a.union(b)
            .window(TumblingCountWindow(4))
            .aggregate("w")
            .compile(batch_size=batch_size)
        )
        segments = [op for op, _ in query._operator_tags if isinstance(op, FusedBatchSegment)]
        assert len(segments) == (2 if fused else 0)
        query.push_many("a", branch_tuples(23))
        query.push_many("b", branch_tuples(17, offset=100.0, ghost_every=3))
        return query.finish()

    def test_union_results_identical_fused_and_unfused(self):
        unfused_results = self._run(1, fused=False)
        fused_results = self._run(8, fused=True)
        assert len(unfused_results) == len(fused_results)
        assert unfused_results, "the union plan must produce windows"
        for a, b in zip(unfused_results, fused_results):
            assert set(a.values) == set(b.values)
            assert b.value("sum_w_mean") == pytest.approx(
                a.value("sum_w_mean"), abs=1e-9
            )
            da, db = a.distribution("sum_w"), b.distribution("sum_w")
            assert float(db.mean()) == pytest.approx(float(da.mean()), abs=1e-9)
            assert float(db.variance()) == pytest.approx(
                float(da.variance()), abs=1e-9
            )

    def test_segment_flush_cascades_buffered_state(self):
        """End-of-stream output of a fused chain matches the unfused chain."""
        from repro.core.selection import (
            Comparison,
            ProbabilisticSelect,
            UncertainPredicate,
        )

        def make_ops():
            return (
                Filter(lambda t: t.value("kind") != "ghost", name="real"),
                ProbabilisticSelect(
                    UncertainPredicate("w", Comparison.GREATER, 0.0),
                    min_probability=0.1,
                    # No annotation: survivors pass through unchanged, so
                    # both runs can be compared by tuple identity.
                    probability_attribute=None,
                ),
            )

        items = branch_tuples(9)
        f1, p1 = make_ops()
        segment = FusedBatchSegment([f1, p1])
        from repro.streams.batch import TupleBatch

        fused_out = list(segment.process_batch(TupleBatch(items)))
        fused_out.extend(segment.flush())

        f2, p2 = make_ops()
        loose = [t for item in items for t in f2.process(item)]
        loose = [t for item in loose for t in p2.process(item)]
        loose.extend(
            t for item in f2.flush() for t in p2.process(item)
        )
        loose.extend(p2.flush())

        assert [t.tuple_id for t in fused_out] == [t.tuple_id for t in loose]
