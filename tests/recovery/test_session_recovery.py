"""Recovered sessions continue exactly where the checkpoint left off.

The acceptance bar of the subsystem: for Q1 (sharded aggregate) and Q2
(probabilistic join, engine-hosted), ``checkpoint → recover → push the
rest`` must equal an uninterrupted run to 1e-9 — on the single-process
engine and on workers=4 with both the inline and forked (socketpair)
backends.
"""

import pytest

from repro import QuerySession
from repro.recovery import CheckpointStore
from repro.service import ServiceError


def run_uninterrupted(factory, objects, sensors, **session_kwargs):
    with factory(**session_kwargs) as session:
        session.push_many("temperature", sensors)
        session.push_many("rfid", objects[:45])
        session.push_many("objects", objects[:45])
        session.push_many("rfid", objects[45:])
        session.push_many("objects", objects[45:])
        session.flush()
        return session.results("q1"), session.results("q2")


def run_with_recovery(factory, udfs, objects, sensors, tmp_path, checkpoints=1,
                      **session_kwargs):
    directory = str(tmp_path / "ckpts")
    session = factory(**session_kwargs)
    try:
        session.push_many("temperature", sensors)
        if checkpoints > 1:  # earlier checkpoints make the final one a delta
            for i in range(checkpoints - 1):
                session.push_many("rfid", objects[i : i + 1])
                session.push_many("objects", objects[i : i + 1])
                session.checkpoint(directory)
            session.push_many("rfid", objects[checkpoints - 1 : 45])
            session.push_many("objects", objects[checkpoints - 1 : 45])
        else:
            session.push_many("rfid", objects[:45])
            session.push_many("objects", objects[:45])
        info = session.checkpoint(directory)
    finally:
        session.close()

    recovered = QuerySession.recover(directory, functions=udfs, **session_kwargs)
    try:
        recovered.push_many("rfid", objects[45:])
        recovered.push_many("objects", objects[45:])
        recovered.flush()
        return recovered.results("q1"), recovered.results("q2"), info
    finally:
        recovered.close()


class TestRecoverEqualsUninterrupted:
    def test_single_engine(self, warehouse, paper_session_factory, paper_udfs,
                           assert_tuples_equivalent, tmp_path):
        _, objects, sensors = warehouse
        q1, q2 = run_uninterrupted(paper_session_factory, objects, sensors)
        r1, r2, info = run_with_recovery(
            paper_session_factory, paper_udfs, objects, sensors, tmp_path
        )
        assert info.mode == "full"
        assert q1 and q2, "both paper queries must produce alerts"
        assert_tuples_equivalent(q1, r1)
        assert_tuples_equivalent(q2, r2)

    def test_workers_4_inline(self, warehouse, paper_session_factory, paper_udfs,
                              assert_tuples_equivalent, tmp_path):
        _, objects, sensors = warehouse
        kwargs = dict(workers=4, shard_backend="inline")
        q1, q2 = run_uninterrupted(paper_session_factory, objects, sensors, **kwargs)
        r1, r2, _ = run_with_recovery(
            paper_session_factory, paper_udfs, objects, sensors, tmp_path, **kwargs
        )
        assert q1 and q2
        assert_tuples_equivalent(q1, r1)
        assert_tuples_equivalent(q2, r2)

    def test_workers_4_forked(self, warehouse, paper_session_factory,
                              paper_udfs, assert_tuples_equivalent, tmp_path):
        """The real thing: forked shard workers, each on its end of a socketpair."""
        _, objects, sensors = warehouse
        kwargs = dict(workers=4, shard_backend="process")
        q1, q2 = run_uninterrupted(paper_session_factory, objects, sensors, **kwargs)
        r1, r2, _ = run_with_recovery(
            paper_session_factory, paper_udfs, objects, sensors, tmp_path, **kwargs
        )
        assert q1 and q2
        assert_tuples_equivalent(q1, r1)
        assert_tuples_equivalent(q2, r2)

    def test_delta_checkpoint_chain(self, warehouse, paper_session_factory,
                                    paper_udfs, assert_tuples_equivalent, tmp_path):
        """Recovery from the newest delta of a checkpoint chain."""
        _, objects, sensors = warehouse
        q1, q2 = run_uninterrupted(paper_session_factory, objects, sensors)
        r1, r2, info = run_with_recovery(
            paper_session_factory, paper_udfs, objects, sensors, tmp_path,
            checkpoints=3,
        )
        assert info.mode == "delta"
        assert info.parent == 2
        assert_tuples_equivalent(q1, r1)
        assert_tuples_equivalent(q2, r2)

    def test_collected_results_survive(self, warehouse, paper_session_factory,
                                       paper_udfs, tmp_path):
        """Results emitted before the checkpoint are still readable after."""
        _, objects, _ = warehouse
        directory = str(tmp_path / "ckpts")
        with paper_session_factory() as session:
            session.push_many("rfid", objects)  # past the last full window
            before = list(session.results("q1"))
            assert before, "the workload must emit before the checkpoint"
            session.checkpoint(directory)
        with QuerySession.recover(directory, functions=paper_udfs) as recovered:
            assert len(recovered.results("q1")) == len(before)
            assert recovered.last_result_seq("q1") == len(before)


class TestCheckpointErrors:
    def test_worker_mismatch_is_rejected(self, warehouse, paper_session_factory,
                                         paper_udfs, tmp_path):
        _, objects, _ = warehouse
        directory = str(tmp_path / "ckpts")
        with paper_session_factory(workers=4, shard_backend="inline") as s:
            s.push_many("rfid", objects[:10])
            s.checkpoint(directory)
        with pytest.raises(ServiceError, match="worker configuration"):
            QuerySession.recover(directory, functions=paper_udfs, workers=0)

    def test_programmatic_queries_cannot_checkpoint(self, tmp_path):
        session = QuerySession()
        stream = session.create_stream("s", uncertain=("v",))
        session.register("fluent", stream.where_probably("v", ">", 0.0))
        with pytest.raises(ServiceError, match="CQL"):
            session.checkpoint(str(tmp_path / "ckpts"))

    def test_closed_session_cannot_checkpoint(self, tmp_path):
        session = QuerySession()
        session.close()
        with pytest.raises(ServiceError, match="closed"):
            session.checkpoint(str(tmp_path / "ckpts"))

    def test_missing_udfs_fail_recovery(self, warehouse, paper_session_factory,
                                        tmp_path):
        _, objects, _ = warehouse
        directory = str(tmp_path / "ckpts")
        with paper_session_factory() as session:
            session.push_many("rfid", objects[:10])
            session.checkpoint(directory)
        with pytest.raises(Exception):  # UDFs are code, not state
            QuerySession.recover(directory)

    def test_checkpoint_files_accumulate_with_stable_names(
        self, warehouse, paper_session_factory, tmp_path
    ):
        _, objects, _ = warehouse
        directory = str(tmp_path / "ckpts")
        with paper_session_factory() as session:
            session.push_many("rfid", objects[:10])
            session.checkpoint(directory)
            session.push_many("rfid", objects[10:20])
            session.checkpoint(directory)
        assert CheckpointStore(directory).checkpoint_ids() == [1, 2]
