"""QuerySession(workers=N): transparent sharded execution of registered queries."""

import numpy as np
import pytest

from repro import QuerySession
from repro.distributions import Gaussian
from repro.service import ServiceError
from repro.streams import StreamTuple


@pytest.fixture()
def tuples():
    rng = np.random.default_rng(17)
    return [
        StreamTuple(
            timestamp=i * 0.2,
            values={"tag_id": f"T{i % 5}"},
            uncertain={"w": Gaussian(float(rng.uniform(20.0, 60.0)), 2.0)},
        )
        for i in range(600)
    ]


def declare(session):
    session.create_stream(
        "rfid", values=("tag_id",), uncertain=("w",), family="gaussian", rate_hint=5.0
    )


TOTALS = "SELECT SUM(w) AS total FROM rfid [RANGE 5 SECONDS SLIDE 5 SECONDS]"
HOT = "SELECT * FROM rfid WHERE w > 40 WITH PROBABILITY 0.5"


def run_reference(tuples):
    session = QuerySession()
    declare(session)
    session.register("totals", TOTALS)
    session.register("hot", HOT)
    session.push_many("rfid", tuples)
    session.flush()
    return session.results("totals"), session.results("hot")


class TestShardedRegistration:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_results_match_engine_hosted_session(self, tuples, backend):
        expected_totals, expected_hot = run_reference(tuples)
        with QuerySession(workers=2, shard_backend=backend) as session:
            declare(session)
            session.register("totals", TOTALS)
            session.register("hot", HOT)
            session.push_many("rfid", tuples)
            session.flush()
            totals, hot = session.results("totals"), session.results("hot")
        assert len(totals) == len(expected_totals)
        for a, b in zip(expected_totals, totals):
            da, db = a.distribution("total"), b.distribution("total")
            assert float(db.mean()) == pytest.approx(float(da.mean()), abs=1e-9)
            assert float(db.variance()) == pytest.approx(float(da.variance()), abs=1e-9)
        assert len(hot) == len(expected_hot)

    def test_unshardable_query_stays_in_shared_engine(self, tuples):
        with QuerySession(workers=2, shard_backend="inline") as session:
            declare(session)
            session.register("rows", "SELECT SUM(w) FROM rfid [ROWS 100]")
            assert session._queries["rows"].sharded is None
            session.push_many("rfid", tuples)
            session.flush()
            assert session.results("rows")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_select_into_tumbling_sum_shards(self, tuples, workers):
        # The benchmark's hot_sum shape: a WITH PROBABILITY select into a
        # tumbling time SUM.  Its probe reads shard_statistics, which
        # raises for a query that did not shard.
        hot_sum = (
            "SELECT SUM(w) FROM rfid [RANGE 5 SECONDS SLIDE 5 SECONDS] "
            "WHERE w > 40 WITH PROBABILITY 0.5"
        )
        reference = QuerySession()
        declare(reference)
        reference.register("hot_sum", hot_sum)
        reference.push_many("rfid", tuples)
        reference.flush()
        expected = reference.results("hot_sum")
        with QuerySession(workers=workers, shard_backend="inline") as session:
            declare(session)
            session.register("hot_sum", hot_sum)
            assert session.is_sharded("hot_sum")
            session.push_many("rfid", tuples)
            session.flush()
            assert sorted(session.shard_statistics("hot_sum").backpressure) == list(
                range(workers)
            )
            got = session.results("hot_sum")
        assert expected and len(got) == len(expected)
        for a, b in zip(expected, got):
            assert a.values["window_count"] == b.values["window_count"]
            da, db = a.distribution("sum_w"), b.distribution("sum_w")
            assert float(db.mean()) == pytest.approx(float(da.mean()), abs=1e-9)
            assert float(db.variance()) == pytest.approx(float(da.variance()), abs=1e-9)

    def test_registration_splits_the_plan_once(self, tuples, monkeypatch):
        import repro.runtime.engine as engine_module
        import repro.service.session as session_module
        from repro.plan.sharding import split_for_sharding

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return split_for_sharding(*args, **kwargs)

        for module in (session_module, engine_module):
            monkeypatch.setattr(module, "split_for_sharding", counting)
        expected_totals, _ = run_reference(tuples)
        with QuerySession(workers=2, shard_backend="inline") as session:
            declare(session)
            session.register("totals", TOTALS)
            assert session.is_sharded("totals")
            assert len(calls) == 1
            session.push_many("rfid", tuples)
            session.flush()
            totals = session.results("totals")
        assert expected_totals and len(totals) == len(expected_totals)
        for a, b in zip(expected_totals, totals):
            da, db = a.distribution("total"), b.distribution("total")
            assert float(db.mean()) == pytest.approx(float(da.mean()), abs=1e-9)
            assert float(db.variance()) == pytest.approx(float(da.variance()), abs=1e-9)

    def test_session_explain_marks_sharded_queries(self, tuples):
        with QuerySession(workers=3, shard_backend="inline") as session:
            declare(session)
            session.register("totals", TOTALS)
            assert "totals (sharded x3)" in session.explain()
            per_query = session.explain("totals")
            assert "sharded: yes" in per_query
            assert TOTALS.split()[0] in per_query  # the CQL text is shown


class TestShardedLifecycle:
    def test_pause_resume_gate_sharded_results(self, tuples):
        with QuerySession(workers=2, shard_backend="inline") as session:
            declare(session)
            session.register("hot", HOT)
            session.push_many("rfid", tuples[:300])
            session.flush()
            seen = len(session.results("hot"))
            session.pause("hot")
            session.push_many("rfid", tuples[300:])
            session.flush()
            assert len(session.results("hot")) == seen
            assert session._queries["hot"].sink.dropped > 0
            session.resume("hot")

    def test_drop_closes_worker_pool(self, tuples):
        with QuerySession(workers=2, shard_backend="process") as session:
            declare(session)
            session.register("totals", TOTALS)
            engine = session._queries["totals"].sharded
            session.push_many("rfid", tuples)
            session.flush()
            session.drop("totals")
            assert "totals" not in session.queries
            assert engine._closed
            # The declared stream persists for new registrations.
            session.register("totals2", TOTALS)

    def test_callbacks_fire_for_sharded_results(self, tuples):
        seen = []
        with QuerySession(workers=2, shard_backend="inline") as session:
            declare(session)
            session.register("totals", TOTALS, on_result=seen.append)
            session.push_many("rfid", tuples)
            session.flush()
            assert len(seen) == len(session.results("totals"))

    def test_statistics_expose_shard_boxes(self, tuples):
        with QuerySession(workers=2, shard_backend="inline") as session:
            declare(session)
            session.register("totals", TOTALS)
            session.push_many("rfid", tuples)
            session.flush()
            reports = session.statistics("totals")
            names = [report.stats.name for report in reports]
            assert any(name.startswith("shard0/") for name in names)
            assert any(name.startswith("shard1/") for name in names)
            raw = session.shard_statistics("totals")
            assert sorted(raw.shards) == [0, 1]

    def test_shard_statistics_rejects_engine_hosted_query(self, tuples):
        with QuerySession(workers=2, shard_backend="inline") as session:
            declare(session)
            session.register("rows", "SELECT SUM(w) FROM rfid [ROWS 100]")
            with pytest.raises(ServiceError, match="shared engine"):
                session.shard_statistics("rows")
