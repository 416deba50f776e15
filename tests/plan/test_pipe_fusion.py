"""Piped chains: the same results at every batch size."""

from repro.distributions import Gaussian
from repro.plan import Stream
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


class TestPipeChains:
    def test_every_piped_box_is_its_own_engine_box(self):
        query = piped_query(8, middle=Map(lambda t: t, name="ident"))
        names = [stats.name for stats in query.statistics()]
        assert {"real", "ident", "lucky"} <= set(names)

    def test_piped_results_match_across_batch_sizes(self):
        items = tuples(37)
        one_row = piped_query(1, middle=Map(lambda t: t, name="ident"))
        one_row.push_many("in", items)
        expected = one_row.finish()

        batched = piped_query(8)
        batched.push_many("in", items)
        got = batched.finish()

        assert expected, "the piped plan must produce windows"
        assert len(got) == len(expected)
        for a, b in zip(expected, got):
            assert a.value("window_count") == b.value("window_count")
            da, db = a.distribution("sum_w"), b.distribution("sum_w")
            assert abs(float(da.mean()) - float(db.mean())) <= 1e-9
            assert abs(float(da.variance()) - float(db.variance())) <= 1e-9
