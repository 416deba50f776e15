"""StreamServer + clients: verbs, subscriptions, slow consumers, errors."""

import asyncio
import struct

import numpy as np
import pytest

from repro import QuerySession
from repro.distributions import Gaussian
from repro.net.errors import ConnectionClosed
from repro.streams import StreamTuple, encode_batch_wire
from repro.net import (
    RemoteError,
    SlowConsumerError,
    StreamClient,
    StreamServer,
    serve_in_thread,
)
from repro.net.server import _Subscriber

TOTALS = "SELECT SUM(w) AS total FROM rfid [RANGE 5 SECONDS SLIDE 5 SECONDS]"
HOT = "SELECT * FROM rfid WHERE w > 40 WITH PROBABILITY 0.5"


@pytest.fixture
def server():
    handle = serve_in_thread(QuerySession())
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with StreamClient(server.address, timeout=15.0) as connected:
        yield connected


def declare_rfid(client):
    client.declare_stream(
        "rfid", values=("tag_id",), uncertain=("w",), family="gaussian", rate_hint=5.0
    )


class TestVerbs:
    def test_hello_reports_streams_and_queries(self, client):
        assert client.hello() == {"server": "repro.net", "streams": [], "queries": []}
        declare_rfid(client)
        client.register("totals", TOTALS)
        info = client.hello()
        assert info["streams"] == ["rfid"]
        assert info["queries"] == ["totals"]

    def test_ingest_flush_and_results_via_subscription(self, client, rfid_tuples):
        declare_rfid(client)
        client.register("totals", TOTALS)
        with client.subscribe("totals") as sub:
            acked = client.ingest("rfid", rfid_tuples, batch_size=64, window=4)
            assert acked == len(rfid_tuples)
            client.flush()
            # 400 tuples at 0.2s spacing = 80s = 16 windows of 5s.
            results = sub.take(16, timeout=15.0)
        assert len(results) == 16
        assert all(r.has_uncertain("total") for r in results)

    def test_declared_stream_schema_survives_the_wire(self, client, rfid_tuples):
        client.declare_stream(
            "rfid",
            values=("tag_id",),
            uncertain={"w": ("gaussian", 40.0, 10.0)},
            family="gaussian",
            rate_hint=5.0,
        )
        client.register("totals", TOTALS)
        assert "totals" in client.explain()

    def test_pause_resume_drop(self, client, rfid_tuples):
        declare_rfid(client)
        client.register("hot", HOT)
        client.pause("hot")
        client.ingest("rfid", rfid_tuples[:50])
        client.resume("hot")
        client.ingest("rfid", rfid_tuples[50:100])
        stats = client.statistics("hot")
        assert stats["stats"], "a registered query must report its boxes"
        assert all("hot" in row["owners"] for row in stats["stats"])
        client.drop("hot")
        assert client.hello()["queries"] == []

    def test_drop_ends_active_subscriptions(self, client, rfid_tuples):
        """A dropped query's subscribers get END, not a silent hang."""
        declare_rfid(client)
        client.register("hot", HOT)
        with client.subscribe("hot") as sub:
            client.ingest("rfid", rfid_tuples[:40], batch_size=40)
            delivered = sub.recv(timeout=10.0)  # pre-drop results arrive
            assert delivered
            client.drop("hot")
            with pytest.raises(ConnectionClosed, match="dropped"):
                while True:
                    sub.recv(timeout=10.0)

    def test_statistics_carry_server_counters(self, client, rfid_tuples):
        declare_rfid(client)
        client.register("totals", TOTALS)
        client.ingest("rfid", rfid_tuples, batch_size=100)
        stats = client.statistics()
        assert stats["tuples_ingested"] == len(rfid_tuples)
        assert stats["frames_in"] >= 4  # declare, register, 4 ingest frames

    def test_explain_whole_session_and_single_query(self, client):
        declare_rfid(client)
        client.register("totals", TOTALS)
        assert "QuerySession" in client.explain()
        assert "Logical plan" in client.explain("totals")


class TestErrors:
    def test_register_bad_cql_is_a_remote_error(self, client):
        declare_rfid(client)
        with pytest.raises(RemoteError) as excinfo:
            client.register("bad", "SELEKT nothing FROM nowhere")
        assert excinfo.value.code == "CQLSyntaxError"
        # The connection survives a failed request.
        assert client.hello()["queries"] == []

    def test_duplicate_stream_reports_service_error(self, client):
        declare_rfid(client)
        with pytest.raises(RemoteError) as excinfo:
            declare_rfid(client)
        assert excinfo.value.code == "ServiceError"

    def test_ingest_into_unknown_source_fails(self, client, rfid_tuples):
        with pytest.raises(RemoteError) as excinfo:
            client.ingest("nowhere", rfid_tuples[:10])
        assert excinfo.value.code == "ServiceError"

    def test_failed_pipelined_ingest_leaves_the_connection_aligned(
        self, client, rfid_tuples
    ):
        """Every in-flight frame's ERROR reply must be consumed on failure."""
        declare_rfid(client)
        client.register("totals", TOTALS)
        with pytest.raises(RemoteError):
            # 10 batches pipelined into a window of 8: several frames
            # are in flight when the first ERROR ack comes back.
            client.ingest("nowhere", rfid_tuples[:100], batch_size=10, window=8)
        # The connection must still serve unrelated requests correctly.
        assert "QuerySession" in client.explain()
        assert client.ingest("rfid", rfid_tuples[:50], batch_size=10) == 50

    def test_corrupt_gaussian_payload_is_a_remote_error(self, client, rfid_tuples, monkeypatch):
        """Wire Gaussians are validated: a sigma of -1.0 never reaches the session."""
        import repro.net.client as client_module

        declare_rfid(client)
        client.register("totals", TOTALS)

        def corrupt(batch):
            payload = encode_batch_wire(batch)
            sigma = struct.pack("<d", batch[0].distribution("w").sigma)
            return payload.replace(sigma, struct.pack("<d", -1.0), 1)

        monkeypatch.setattr(client_module, "encode_batch_wire", corrupt)
        with pytest.raises(RemoteError, match="sigma must be positive"):
            client.ingest("rfid", rfid_tuples[:10])
        monkeypatch.undo()
        assert client.ingest("rfid", rfid_tuples[:10]) == 10

    def test_subscribe_to_unknown_query_fails(self, client):
        with pytest.raises(RemoteError):
            client.subscribe("ghost")


class TestSlowConsumer:
    def _serve(self, policy, buffer):
        return serve_in_thread(
            QuerySession(), subscriber_buffer=buffer, slow_consumer=policy
        )

    def test_drop_oldest_reports_cumulative_drops(self, rfid_tuples):
        handle = self._serve("drop-oldest", buffer=8)
        try:
            with StreamClient(handle.address) as client:
                declare_rfid(client)
                client.register("hot", HOT)
                with client.subscribe("hot") as sub:
                    # One big ingest: every result of it lands in the
                    # subscriber buffer before the writer task runs, so
                    # the overflow policy triggers deterministically.
                    client.ingest("rfid", rfid_tuples, batch_size=400)
                    rows = sub.recv(timeout=10.0)
                    assert len(rows) <= 8
                    assert sub.dropped > 0
        finally:
            handle.stop()

    def test_disconnect_policy_kills_the_subscription(self, rfid_tuples):
        handle = self._serve("disconnect", buffer=8)
        try:
            with StreamClient(handle.address) as client:
                declare_rfid(client)
                client.register("hot", HOT)
                with client.subscribe("hot") as sub:
                    client.ingest("rfid", rfid_tuples, batch_size=400)
                    with pytest.raises(SlowConsumerError):
                        for _ in range(1000):
                            sub.recv(timeout=10.0)
        finally:
            handle.stop()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            StreamServer(QuerySession(), slow_consumer="shrug")

    def test_subscriber_overflow_is_bounded(self):
        sub = _Subscriber("q", writer=None, buffer_limit=4, policy="drop-oldest")
        rng = np.random.default_rng(0)
        items = [
            StreamTuple(timestamp=float(i), uncertain={"w": Gaussian(rng.uniform(1, 2), 1.0)})
            for i in range(20)
        ]
        for item in items:
            sub.on_result(item)
        assert len(sub.pending) == 4
        assert sub.dropped == 16


class TestAsyncClient:
    """asyncio callers run the one blocking client through ``to_thread``."""

    def test_full_cycle(self, server, rfid_tuples):
        async def scenario():
            client = await asyncio.to_thread(StreamClient, server.address, 15.0)
            try:
                await asyncio.to_thread(
                    client.declare_stream,
                    "rfid",
                    values=("tag_id",),
                    uncertain=("w",),
                    family="gaussian",
                )
                sharded = await asyncio.to_thread(client.register, "totals", TOTALS)
                assert sharded is False
                sub = await asyncio.to_thread(client.subscribe, "totals")
                acked = await asyncio.to_thread(
                    client.ingest, "rfid", rfid_tuples, batch_size=64, window=4
                )
                assert acked == len(rfid_tuples)
                await asyncio.to_thread(client.flush)
                collected = []
                while len(collected) < 16:
                    collected.extend(await asyncio.to_thread(sub.recv))
                sub.close()
                explained = await asyncio.to_thread(client.explain, "totals")
                assert explained.startswith("query totals")
                stats = await asyncio.to_thread(client.statistics)
                assert stats["tuples_ingested"] == len(rfid_tuples)
                return collected
            finally:
                await asyncio.to_thread(client.close)

        results = asyncio.run(scenario())
        assert len(results) == 16

    def test_remote_error_surfaces(self, server):
        async def scenario():
            with await asyncio.to_thread(StreamClient, server.address, 15.0) as client:
                with pytest.raises(RemoteError):
                    await asyncio.to_thread(client.register, "bad", "SELEKT")

        asyncio.run(scenario())
