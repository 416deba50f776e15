"""PipeNode chain fusion: fused batch segments + fused/unfused equivalence."""

from repro.distributions import Gaussian
from repro.plan import FusedBatchSegment, Stream
from repro.streams import StreamTuple
from repro.streams.operators.basic import Filter, Map
from repro.streams.windows import TumblingCountWindow


def tuples(n):
    return [
        StreamTuple(
            timestamp=float(i),
            values={"kind": "ghost" if i % 5 == 0 else "real", "seq": i},
            uncertain={"w": Gaussian(10.0 + i, 2.0)},
        )
        for i in range(n)
    ]


def piped_query(batch_size, middle=None):
    """source -> pipe(filter) [-> pipe(middle)] -> pipe(filter) -> aggregate."""
    stream = Stream.source("in", values=("kind", "seq"), uncertain=("w",), family="gaussian")
    stream = stream.pipe(Filter(lambda t: t.value("kind") != "ghost", name="real"))
    if middle is not None:
        stream = stream.pipe(middle)
    stream = stream.pipe(Filter(lambda t: t.value("seq") % 7 != 0, name="lucky"))
    return (
        stream.window(TumblingCountWindow(4))
        .aggregate("w")
        .compile(batch_size=batch_size)
    )


def segments_of(query):
    return [op for op, _ in query._operator_tags if isinstance(op, FusedBatchSegment)]


class TestPipeChainFusion:
    def test_adjacent_pipes_fuse(self):
        query = piped_query(8)
        segments = segments_of(query)
        assert len(segments) == 1
        assert [op.name for op in segments[0].operators] == ["real", "lucky"]
        # The members were severed: only the segment shows up as a box.
        names = [stats.name for stats in query.statistics(detailed=True)]
        assert sum("Segment[" in name for name in names) == 1
        assert "real" not in names and "lucky" not in names

    def test_per_tuple_pipe_breaks_the_run(self):
        # Map has no vectorised kernel, so it must not be fused -- and it
        # splits the two filters into runs of one, which stay unfused.
        query = piped_query(8, middle=Map(lambda t: t, name="ident"))
        assert segments_of(query) == []

    def test_fusion_does_not_depend_on_batch_size(self):
        assert len(segments_of(piped_query(1))) == 1

    def test_fused_results_match_unfused_results(self):
        items = tuples(37)
        # The identity Map splits the run, so this plan stays unfused.
        unfused_query = piped_query(1, middle=Map(lambda t: t, name="ident"))
        assert segments_of(unfused_query) == []
        unfused_query.push_many("in", items)
        expected = unfused_query.finish()

        fused_query = piped_query(8)
        fused_query.push_many("in", items)
        got = fused_query.finish()

        assert expected, "the piped plan must produce windows"
        assert len(got) == len(expected)
        for a, b in zip(expected, got):
            assert a.value("window_count") == b.value("window_count")
            da, db = a.distribution("sum_w"), b.distribution("sum_w")
            assert abs(float(da.mean()) - float(db.mean())) <= 1e-9
            assert abs(float(da.variance()) - float(db.variance())) <= 1e-9
