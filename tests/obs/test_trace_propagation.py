"""Cross-process trace propagation: ingest stamp to sink delivery.

The tentpole claim: a chunk ingested over TCP into a sharded
shared-memory session reaches the sink carrying its original trace id,
and its ingest stamp is monotone with respect to delivery time.
"""

import pytest

from repro import QuerySession, obs
from repro.net import StreamClient, serve_in_thread
from repro.streams.serialization import decode_batch, encode_batch_wire
from repro.streams.batch import TupleBatch

TOTALS = "SELECT SUM(w) AS total FROM rfid [RANGE 5 SECONDS SLIDE 5 SECONDS]"
HOT = "SELECT * FROM rfid WHERE w > 40 WITH PROBABILITY 0.5"


def declare(target):
    target.create_stream(
        "rfid", values=("tag_id",), uncertain=("w",), family="gaussian", rate_hint=5.0
    )


class TestWireTraceFlag:
    """The trace context rides the batch header, flagged, not sniffed."""

    def test_trace_round_trips(self, rfid_tuples):
        batch = TupleBatch(rfid_tuples[:32])
        batch.trace_id = 0xDEADBEEF
        batch.t_ingest = 123.456
        decoded = decode_batch(encode_batch_wire(batch))
        assert decoded.trace_id == 0xDEADBEEF
        assert decoded.t_ingest == 123.456

    def test_untraced_payload_decodes_without_trace(self, rfid_tuples):
        plain = TupleBatch(rfid_tuples[:32])
        traced = TupleBatch(rfid_tuples[:32])
        traced.trace_id = 1
        traced.t_ingest = 0.0
        assert len(encode_batch_wire(traced)) == len(encode_batch_wire(plain)) + 16
        decoded = decode_batch(encode_batch_wire(plain))
        assert decoded.trace_id is None and decoded.t_ingest is None


class TestEndToEnd:
    def test_tcp_ingest_to_sharded_sink_keeps_trace(self, rfid_tuples):
        """TCP -> INGEST -> 4 forked shard workers -> merge -> sink."""
        handle = serve_in_thread(QuerySession(workers=4, shard_backend="process"))
        try:
            with StreamClient(handle.address, timeout=30.0) as client:
                client.declare_stream(
                    "rfid",
                    values=("tag_id",),
                    uncertain=("w",),
                    family="gaussian",
                    rate_hint=5.0,
                )
                client.register("totals", TOTALS)
                client.register("hot", HOT)
                assert client.ingest(
                    "rfid", rfid_tuples, batch_size=64, trace=777
                ) == len(rfid_tuples)
                client.flush()
                observed = client.metrics("hot")["observed"]
        finally:
            handle.stop()

        assert observed["sharded"] is True
        last = observed["last_trace"]
        assert last is not None, "the sink never saw an active trace context"
        assert last["trace_id"] == 777
        assert last["t_ingest"] <= last["delivered_at"]
        latency = observed["latency"]
        assert latency["count"] > 0
        assert latency["p95"] is not None and latency["p95"] >= 0.0
        # Per-operator pass rates surface for the probabilistic filter.
        rates = {
            op["name"]: op["pass_rate"]
            for op in observed["operators"]
            if op["pass_rate"] is not None
        }
        assert rates, "no operator reported a pass rate"
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())

    def test_embedded_push_mints_a_trace(self, rfid_tuples):
        """push_many without an explicit trace still stamps deliveries."""
        session = QuerySession()
        declare(session)
        session.register("totals", TOTALS)
        session.push_many("rfid", rfid_tuples)
        session.flush()
        observed = session.observed_stats("totals")
        assert observed["last_trace"] is not None
        assert observed["latency"]["count"] > 0

    def test_ingest_ack_latency_is_recorded(self, rfid_tuples):
        handle = serve_in_thread(QuerySession())
        try:
            with StreamClient(handle.address, timeout=30.0) as client:
                client.declare_stream(
                    "rfid",
                    values=("tag_id",),
                    uncertain=("w",),
                    family="gaussian",
                    rate_hint=5.0,
                )
                client.register("totals", TOTALS)
                client.ingest("rfid", rfid_tuples, batch_size=100)
                latencies = list(client.last_ingest_ack_latencies)
        finally:
            handle.stop()
        # One sample per ACK read; ACKs may coalesce pipelined frames.
        assert 1 <= len(latencies) <= 4  # 400 tuples / 100 per frame
        assert all(lat >= 0.0 for lat in latencies)
        hist = obs.get_registry().histogram("repro_ingest_ack_latency_seconds")
        assert hist.count == len(latencies)


class TestInstrumentedEquivalence:
    def test_sharded_results_match_reference_with_instrumentation_armed(
        self, rfid_tuples
    ):
        """Tracing + registry instruments must not perturb the numbers."""
        reference = QuerySession()
        declare(reference)
        reference.register("totals", TOTALS)
        reference.push_many("rfid", rfid_tuples)
        reference.flush()
        expected = reference.results("totals")

        with QuerySession(workers=4, shard_backend="process") as session:
            declare(session)
            session.register("totals", TOTALS)
            for start in range(0, len(rfid_tuples), 50):
                session.push_many(
                    "rfid", rfid_tuples[start : start + 50], trace=obs.new_trace()
                )
                obs.get_registry().snapshot()  # exporter armed mid-stream
            session.flush()
            actual = session.results("totals")
            observed = session.observed_stats("totals")

        assert len(actual) == len(expected)
        for a, b in zip(expected, actual):
            da, db = a.distribution("total"), b.distribution("total")
            assert float(db.mean()) == pytest.approx(float(da.mean()), abs=1e-9)
            assert float(db.variance()) == pytest.approx(
                float(da.variance()), abs=1e-9
            )
        assert observed["latency"]["count"] > 0
