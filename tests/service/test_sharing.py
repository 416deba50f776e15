"""Cross-query subplan sharing: the acceptance scenario of this layer.

Two queries registering an identical source→filter→window prefix must
compile to ONE shared physical operator chain (verified through
``session.explain()`` and per-box statistics showing single-chain
tuple counts), and ``drop()`` must detach only exclusively-owned boxes
while the surviving query keeps producing results identical to a
standalone run.
"""

import pytest

from repro.distributions import Gaussian
from repro.service import QuerySession
from repro.streams import StreamTuple
from repro.streams.operators.base import PassThroughOperator


def value_tuple(i, weight, area=0):
    return StreamTuple(
        timestamp=float(i),
        values={"tag_id": f"O{i}", "area": area},
        uncertain={"weight": Gaussian(weight, 2.0)},
    )


#: Two queries with an identical source→filter→window prefix but
#: different HAVING thresholds.  (The GROUP BY keeps the filter from
#: fusing into the aggregate, so the shared chain stays visible as
#: separate boxes.)
Q_LOW = """
    SELECT area, SUM(weight) FROM rfid [ROWS 4]
    WHERE keep(tag_id) AND weight > 5 WITH PROBABILITY 0.5
    GROUP BY area
    HAVING SUM(weight) > 20 WITH PROBABILITY 0.5
"""
Q_HIGH = """
    SELECT area, SUM(weight) FROM rfid [ROWS 4]
    WHERE keep(tag_id) AND weight > 5 WITH PROBABILITY 0.5
    GROUP BY area
    HAVING SUM(weight) > 60 WITH PROBABILITY 0.5
"""


def make_session():
    session = QuerySession(functions={"keep": lambda tag: not tag.endswith("3")})
    session.create_stream(
        "rfid", values=("tag_id", "area"), uncertain=("weight",), family="gaussian"
    )
    return session


class TestSharedPrefix:
    def test_identical_prefix_compiles_to_one_chain(self):
        session = make_session()
        session.register("low", Q_LOW)
        session.register("high", Q_HIGH)

        reports = session.statistics()
        shared = [r for r in reports if r.shared]
        exclusive = [r for r in reports if not r.shared]
        # source + filter + prob filter are shared; each query owns its
        # own aggregate (different HAVING).
        assert len(shared) == 3
        assert len(exclusive) == 2
        for report in shared:
            assert set(report.owners) == {"low", "high"}

        explain = session.explain("low")
        assert "[shared with high]" in explain
        assert "[exclusive]" in explain

    def test_shared_boxes_process_each_tuple_once(self):
        session = make_session()
        session.register("low", Q_LOW)
        session.register("high", Q_HIGH)
        n = 12
        for i in range(n):
            session.push("rfid", value_tuple(i, 10.0))
        # The statistics show ONE shared chain — each box fed once per
        # input tuple (not once per consuming query), each box's intake
        # equal to its upstream's output.
        low_chain = [r for r in session.statistics("low") if r.shared]
        assert [r.stats.name for r in low_chain] == [
            "source:rfid",
            "Filter[keep(tag_id)]",
            "ProbabilisticSelect",
        ]
        source, filter_box, select_box = low_chain
        assert source.stats.tuples_in == n
        assert filter_box.stats.tuples_in == source.stats.tuples_out == n
        assert select_box.stats.tuples_in == filter_box.stats.tuples_out < n
        # Both per-query views report the SAME chain (same counters).
        high_chain = [r for r in session.statistics("high") if r.shared]
        assert [r.stats for r in high_chain] == [r.stats for r in low_chain]

    def test_shared_results_match_standalone_runs(self):
        """Sharing is an optimization: results must be unchanged."""
        tuples = [value_tuple(i, 8.0 + (i % 5), area=i % 2) for i in range(24)]

        shared_session = make_session()
        low = shared_session.register("low", Q_LOW)
        high = shared_session.register("high", Q_HIGH)
        for item in tuples:
            shared_session.push("rfid", item)

        for name, text in (("low", Q_LOW), ("high", Q_HIGH)):
            solo_session = make_session()
            solo = solo_session.register(name, text)
            for item in tuples:
                solo_session.push("rfid", item)
            shared_results = (low if name == "low" else high).results
            assert len(shared_results) == len(solo.results)
            for a, b in zip(shared_results, solo.results):
                assert a.value("group") == b.value("group")
                assert b.value("sum_weight_mean") == pytest.approx(
                    a.value("sum_weight_mean"), abs=1e-9
                )

    def test_identical_queries_share_everything_but_sinks(self):
        session = make_session()
        a = session.register("a", Q_LOW)
        b = session.register("b", Q_LOW)
        assert all(report.shared for report in session.statistics())
        for i in range(8):
            session.push("rfid", value_tuple(i, 10.0))
        assert len(a.results) == len(b.results) > 0


class TestDropWithSharing:
    def test_drop_detaches_only_exclusive_boxes(self):
        session = make_session()
        low = session.register("low", Q_LOW)
        high = session.register("high", Q_HIGH)
        for i in range(8):
            session.push("rfid", value_tuple(i, 10.0))
        low_results_before = len(low.results)
        assert low_results_before > 0

        session.drop("high")
        assert session.queries == ["low"]
        # Shared boxes survive with their owners reduced; high's
        # aggregate is gone.
        reports = session.statistics()
        assert all(report.owners == ("low",) for report in reports)
        assert len(reports) == 4  # source + 2 filters + low's aggregate

        # The surviving query keeps producing correct results, with
        # window state carried across the drop (4-tuple windows keep
        # closing on schedule).
        for i in range(8, 16):
            session.push("rfid", value_tuple(i, 10.0))
        assert len(low.results) == low_results_before + 2

    def test_drop_keeps_window_state_of_shared_boxes(self):
        """A drop must not reset a shared aggregate's partial window."""
        session = make_session()
        a = session.register("a", Q_LOW)
        session.register("b", Q_LOW)  # fully shared, including the aggregate
        for i in range(3):  # 3 of 4 tuples into the shared window
            session.push("rfid", value_tuple(i, 10.0))
        session.drop("b")
        session.push("rfid", value_tuple(4, 10.0))  # closes the window
        assert len(a.results) == 1

    def test_dropped_query_handle_is_dead(self):
        from repro.service import ServiceError

        session = make_session()
        session.register("low", Q_LOW)
        high = session.register("high", Q_HIGH)
        session.drop("high")
        for i in range(8):
            session.push("rfid", value_tuple(i, 10.0))
        with pytest.raises(ServiceError, match="no query named"):
            high.results


class TestPipeSharing:
    def test_same_pipe_operator_instance_is_shared(self):
        """The Figure 2 shape: one T operator feeding two queries."""
        session = QuerySession()
        raw = session.create_stream("raw")
        t_operator = PassThroughOperator(name="T-operator")
        located = raw.pipe(t_operator, description="T operator")

        a = session.register("a", located.where(lambda t: True, uses=(), description="all"))
        b = session.register("b", located.where_probably("w", ">", 0.0))

        t_boxes = [
            r for r in session.statistics() if r.stats.name == "T-operator"
        ]
        assert len(t_boxes) == 1
        assert set(t_boxes[0].owners) == {"a", "b"}

        session.push("raw", StreamTuple(timestamp=0.0, uncertain={"w": Gaussian(1.0, 1.0)}))
        assert len(a.results) == 1 and len(b.results) == 1
        assert t_boxes[0].stats.name == "T-operator"

    def test_distinct_pipe_instances_are_not_shared(self):
        session = QuerySession()
        raw = session.create_stream("raw")
        a = session.register("a", raw.pipe(PassThroughOperator(name="T1")))
        b = session.register("b", raw.pipe(PassThroughOperator(name="T2")))
        shared = [r for r in session.statistics() if r.shared]
        assert [r.stats.name for r in shared] == ["source:raw"]
        session.push("raw", StreamTuple(timestamp=0.0))
        assert len(a.results) == 1 and len(b.results) == 1


class TestJoinSharing:
    def test_identical_join_text_shares_the_join_box(self):
        text = """
            SELECT * FROM objects AS o
            JOIN sensors AS s [RANGE 10 SECONDS]
            ON o.x ~= s.x WITHIN 2 MIN PROBABILITY 0.1
        """
        session = QuerySession()
        session.create_stream("objects", uncertain=("x",))
        session.create_stream("sensors", uncertain=("x",))
        a = session.register("a", text)
        b = session.register("b", text)
        joins = [
            r for r in session.statistics() if "Join" in r.stats.name
        ]
        assert len(joins) == 1 and set(joins[0].owners) == {"a", "b"}
        session.push("sensors", StreamTuple(timestamp=0.0, uncertain={"x": Gaussian(0.0, 1.0)}))
        session.push("objects", StreamTuple(timestamp=0.5, uncertain={"x": Gaussian(0.0, 1.0)}))
        assert len(a.results) == 1 and len(b.results) == 1


class TestFluentAndCqlShare:
    def test_cql_and_identical_fluent_query_share_the_source(self):
        session = QuerySession()
        stream = session.create_stream("s", uncertain=("v",), family="gaussian")
        session.register("text", "SELECT SUM(v) FROM s [ROWS 2]")
        from repro.streams.windows import TumblingCountWindow

        session.register(
            "fluent", stream.window(TumblingCountWindow(2)).aggregate("v")
        )
        source = next(
            r for r in session.statistics() if r.stats.name == "source:s"
        )
        assert set(source.owners) == {"text", "fluent"}
