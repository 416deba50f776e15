"""Union fan-in plans: the same results at every batch size."""

import pytest

from repro.core.selection import Comparison, ProbabilisticSelect, UncertainPredicate
from repro.distributions import Gaussian
from repro.plan import Stream
from repro.streams import StreamTuple, TupleBatch
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


class TestUnionBatchSizeEquivalence:
    def _run(self, batch_size, piped):
        a, b = branch_stream("a"), branch_stream("b")
        if piped:
            # A per-row box at the end of each branch.
            a, b = a.pipe(Map(lambda t: t)), b.pipe(Map(lambda t: t))
        query = (
            a.union(b)
            .window(TumblingCountWindow(4))
            .aggregate("w")
            .compile(batch_size=batch_size)
        )
        query.push_many("a", branch_tuples(23))
        query.push_many("b", branch_tuples(17, offset=100.0, ghost_every=3))
        return query.finish()

    @pytest.mark.parametrize("piped", [False, True])
    def test_union_results_identical_across_batch_sizes(self, piped):
        one_row = self._run(1, piped)
        batched = self._run(8, piped)
        assert len(one_row) == len(batched)
        assert one_row, "the union plan must produce windows"
        for a, b in zip(one_row, batched):
            assert set(a.values) == set(b.values)
            assert b.value("sum_w_mean") == pytest.approx(
                a.value("sum_w_mean"), abs=1e-9
            )
            da, db = a.distribution("sum_w"), b.distribution("sum_w")
            assert float(db.mean()) == pytest.approx(float(da.mean()), abs=1e-9)
            assert float(db.variance()) == pytest.approx(
                float(da.variance()), abs=1e-9
            )

    def test_chain_flush_cascade_is_batch_size_independent(self):
        """A branch's end-of-stream output, cascaded down the chain, is
        the same whether its rows arrived one at a time or eight at a time."""

        items = branch_tuples(9)

        def run_chain(batch_size):
            chain = (
                Filter(lambda t: t.value("kind") != "ghost", name="real"),
                ProbabilisticSelect(
                    UncertainPredicate("w", Comparison.GREATER, 0.0),
                    min_probability=0.1,
                    # No annotation: survivors pass through unchanged, so
                    # both runs can be compared by tuple identity.
                    probability_attribute=None,
                ),
            )
            out = []
            for start in range(0, len(items), batch_size):
                batch = TupleBatch(items[start : start + batch_size])
                for op in chain:
                    batch = op.process_batch(batch)
                out.extend(batch)
            for i, op in enumerate(chain):
                batch = TupleBatch(op.flush())
                for later in chain[i + 1 :]:
                    batch = later.process_batch(batch)
                out.extend(batch)
            return [t.tuple_id for t in out]

        one_row = run_chain(1)
        assert one_row
        assert one_row == run_chain(8)
