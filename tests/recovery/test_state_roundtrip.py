"""Operator state protocol + state codec round trips."""

import math

import pytest

from repro.core import Comparison
from repro.distributions import Gaussian
from repro.plan import Stream
from repro.recovery import StateError, decode_state, encode_state
from repro.runtime import ShardedEngine
from repro.streams import StreamTuple, TumblingTimeWindow


def make_tuples(n=20, start=0):
    return [
        StreamTuple(
            timestamp=float(start + i),
            values={"tag": f"T{(start + i) % 3}"},
            uncertain={"v": Gaussian(10.0 + start + i, 2.0)},
        )
        for i in range(n)
    ]


class TestStateCodec:
    def test_scalar_dict_round_trips(self):
        state = {
            "count": 7,
            "label": "window",
            "nested": {"flag": True, "ratio": 0.25, "nothing": None},
            "plain_list": [1, 2, 3],
        }
        assert decode_state(encode_state(state)) == state

    def test_nonfinite_floats_round_trip(self):
        state = {"watermark": float("-inf"), "high": float("inf"), "nan": float("nan")}
        decoded = decode_state(encode_state(state))
        assert decoded["watermark"] == float("-inf")
        assert decoded["high"] == float("inf")
        assert math.isnan(decoded["nan"])

    def test_tuple_lists_round_trip_exactly(self):
        tuples = make_tuples(15)
        state = {"buffer": tuples, "groups": {"a": tuples[:4], "b": []}}
        decoded = decode_state(encode_state(state))
        assert decoded["groups"]["b"] == []
        for original, restored in zip(tuples, decoded["buffer"]):
            assert restored.tuple_id == original.tuple_id
            assert restored.timestamp == original.timestamp
            assert restored.values == original.values
            assert restored.lineage == original.lineage
            da, db = original.distribution("v"), restored.distribution("v")
            assert float(db.mean()) == float(da.mean())
            assert float(db.variance()) == float(da.variance())

    def test_bare_stream_tuple_is_rejected(self):
        with pytest.raises(StateError, match="bare StreamTuple"):
            encode_state({"loose": make_tuples(1)[0]})

    def test_bad_magic_is_rejected(self):
        with pytest.raises(StateError, match="magic"):
            decode_state(b"NOPE" + b"\x00" * 16)

    def test_trailing_bytes_are_rejected(self):
        payload = encode_state({"x": 1}) + b"junk"
        with pytest.raises(StateError, match="trailing"):
            decode_state(payload)


def aggregate_engine():
    return (
        Stream.source("s", values=("tag",), uncertain=("v",))
        .window(TumblingTimeWindow(5.0))
        .group_by(lambda t: t.value("tag"))
        .aggregate("v")
        .compile()
    )


def join_engine():
    left = Stream.source("l", uncertain=("x",))
    right = Stream.source("r", uncertain=("x",))
    return left.join(
        right,
        on=lambda a, b: 1.0 if abs(a.distribution("x").mean() - b.distribution("x").mean()) < 5.0 else 0.0,
        window_length=30.0,
        min_probability=0.5,
    ).compile()


class TestHostSnapshot:
    """A compiled query's PlanHost.snapshot/restore over real operator chains."""

    def test_open_windows_survive_the_round_trip(self, assert_tuples_equivalent):
        tuples = make_tuples(23)
        uninterrupted = aggregate_engine()
        uninterrupted.push_many("s", tuples)

        first = aggregate_engine()
        first.push_many("s", tuples[:9])  # mid-window: state is live
        entries = first.host.snapshot()
        # A lossless wire trip, exactly as the checkpoint file stores it.
        entries = decode_state(encode_state({"ops": entries}))["ops"]

        second = aggregate_engine()
        second.host.restore(entries)
        second.push_many("s", tuples[9:])

        # The host snapshots the plan's boxes; results already collected
        # stay with the query that collected them.
        assert first.results
        assert_tuples_equivalent(
            uninterrupted.finish(), first.results + second.finish()
        )

    def test_join_build_side_survives_the_round_trip(self, assert_tuples_equivalent):
        lefts = [
            StreamTuple(timestamp=float(i), uncertain={"x": Gaussian(float(i), 1.0)})
            for i in range(12)
        ]
        rights = [
            StreamTuple(
                timestamp=float(i) + 0.5, uncertain={"x": Gaussian(float(i), 1.0)}
            )
            for i in range(12)
        ]
        uninterrupted = join_engine()
        uninterrupted.push_many("l", lefts)
        uninterrupted.push_many("r", rights)

        first = join_engine()
        first.push_many("l", lefts)  # build side populated, probe pending
        entries = decode_state(encode_state({"ops": first.host.snapshot()}))["ops"]
        second = join_engine()
        second.host.restore(entries)
        second.push_many("r", rights)

        assert uninterrupted.finish()
        assert_tuples_equivalent(uninterrupted.results, second.finish())

    def test_restore_rejects_a_different_box_count(self):
        entries = aggregate_engine().host.snapshot()
        other = (
            Stream.source("s", uncertain=("v",))
            .where_probably("v", Comparison.GREATER, 0.0, min_probability=0.5)
            .window(TumblingTimeWindow(5.0))
            .aggregate("v")
            .compile()
        )
        with pytest.raises(StateError, match="3 boxes, the checkpoint recorded 2"):
            other.host.restore(entries)

    def test_restore_rejects_a_different_box_name(self):
        entries = aggregate_engine().host.snapshot()
        other = (
            Stream.source("s", uncertain=("v",))
            .where_probably("v", Comparison.GREATER, 0.0, min_probability=0.5)
            .compile()
        )
        with pytest.raises(StateError, match="box order mismatch"):
            other.host.restore(entries)


def sharded_aggregate():
    return (
        Stream.source("s", values=("tag",), uncertain=("v",), family="gaussian")
        .window(TumblingTimeWindow(5.0))
        .group_by(lambda t: t.value("tag"))
        .aggregate("v")
    )


def sharded_rowwise():
    return Stream.source("s", values=("tag",), uncertain=("v",)).where_probably(
        "v", Comparison.GREATER, 20.0, min_probability=0.5
    )


class TestShardedCheckpointCompatibility:
    """Checkpoints that carry a ``weights`` entry (weighted chunk rotation)
    restore into the plain-rotation engine, which ignores the entry."""

    @pytest.mark.parametrize("weights", [[3, 1], None])
    @pytest.mark.parametrize(
        "query, backend",
        [
            (sharded_aggregate, "inline"),
            (sharded_aggregate, "process"),
            (sharded_rowwise, "inline"),
        ],
    )
    def test_weights_entry_is_ignored(
        self, query, backend, weights, assert_tuples_equivalent
    ):
        tuples = make_tuples(60)
        options = dict(workers=2, backend=backend, chunk_size=4)
        with ShardedEngine(query(), **options) as uninterrupted:
            uninterrupted.push_many("s", tuples)
            expected = uninterrupted.finish()

        with ShardedEngine(query(), **options) as first:
            first.push_many("s", tuples[:26])
            state = first.state_snapshot()
            delivered = first.results
        state["weights"] = weights
        state = decode_state(encode_state(state))

        with ShardedEngine(query(), **options) as second:
            second.state_restore(state)
            second.push_many("s", tuples[26:])
            recovered = second.finish()

        assert delivered and recovered
        assert_tuples_equivalent(expected, delivered + recovered)
