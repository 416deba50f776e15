"""Flight-recorder end-to-end: TRACE verb, Chrome export, edge cases.

The acceptance case: Q1 (windowed SUM) ingested over TCP into a
4-shard forked session with sampling forced on, the server's span
buffer drained through the TRACE verb, and the exported Chrome trace
validated — parseable JSON, monotonic timestamps, and every worker-side
``shard.exec`` span carrying a coordinator-side parent recorded in a
*different* process.
"""

import json

from repro import QuerySession, obs
from repro.net import StreamClient, serve_in_thread
from repro.obs import export_chrome_trace

TOTALS = "SELECT SUM(w) AS total FROM rfid [RANGE 5 SECONDS SLIDE 5 SECONDS]"
HOT = "SELECT * FROM rfid WHERE w > 40 WITH PROBABILITY 0.5"


def declare(target):
    target.create_stream(
        "rfid", values=("tag_id",), uncertain=("w",), family="gaussian",
        rate_hint=5.0,
    )


class TestTraceVerbEndToEnd:
    def collect(self, rfid_tuples):
        handle = serve_in_thread(
            QuerySession(workers=4, shard_backend="process", trace_sample=1)
        )
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
                client.ingest("rfid", rfid_tuples, batch_size=64, trace=777)
                client.flush()
                peeked = client.trace(keep=True)
                reply = client.trace()
                drained = client.trace()
        finally:
            handle.stop()
        return peeked, reply, drained

    def test_trace_verb_assembles_the_cross_process_tree(self, rfid_tuples):
        peeked, reply, drained = self.collect(rfid_tuples)
        assert reply["sample"] == 1
        spans = reply["spans"]
        assert peeked["spans"] == spans  # keep=True did not consume
        assert drained["spans"] == []  # the drain did

        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        # Every stage of the flight is on record.
        for stage in (
            "net.ingest",
            "session.push",
            "shard.encode",
            "shard.ship",
            "shard.exec",
            "shard.decode",
            "shard.merge",
            "sink.deliver",
        ):
            assert by_name.get(stage), f"no {stage} spans recorded"
        assert any(name.startswith("op.") for name in by_name)

        # Worker spans crossed the process boundary with their
        # coordinator parent intact (the acceptance criterion).
        ids = {s["span"]: s for s in spans if s["span"]}
        coordinator_pid = by_name["session.push"][0]["pid"]
        worker_pids = set()
        for execute in by_name["shard.exec"]:
            parent = ids.get(execute["parent"])
            assert parent is not None, (
                f"exec span {execute['span']} has no coordinator parent"
            )
            assert parent["name"] == "shard.ship"
            assert parent["pid"] == coordinator_pid
            assert execute["pid"] != coordinator_pid
            worker_pids.add(execute["pid"])
        assert len(worker_pids) >= 2, "expected spans from several workers"

        # The push roots chain up to the server's ingest spans.
        for root in by_name["session.push"]:
            assert root["parent"] in ids
            assert ids[root["parent"]]["name"] == "net.ingest"

    def test_export_is_valid_chrome_trace_json(self, rfid_tuples, tmp_path):
        _, reply, _ = self.collect(rfid_tuples)
        target = tmp_path / "trace.json"
        export_chrome_trace(reply["spans"], path=str(target))
        document = json.loads(target.read_text(encoding="utf-8"))
        events = document["traceEvents"]
        assert events, "the export must contain events"
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps), "timestamps must be monotonic"
        completes = [e for e in events if e["ph"] == "X"]
        assert len(completes) == len(reply["spans"])
        assert all(e["dur"] >= 0.0 for e in completes)
        assert len({e["pid"] for e in completes}) >= 3  # server + workers
        # Cross-process hand-offs draw flow arrows.
        flows = [e for e in events if e["cat"] == "flow"]
        assert flows and len(flows) % 2 == 0


class TestTraceEdges:
    """Satellite: the span layer at the edges must not leak or crash."""

    def test_empty_batch_records_no_orphan_stage_spans(self):
        with QuerySession(workers=2, shard_backend="process",
                          trace_sample=1) as session:
            declare(session)
            session.register("totals", TOTALS)
            obs.local_spans().clear()
            session.push_many("rfid", [], trace=obs.new_trace())
            session.flush()
            spans = obs.local_spans().drain()
        # An empty push ships nothing: no shard or operator spans.
        assert not [s for s in spans if s["name"].startswith("shard.")]

    def test_flush_shipped_partial_chunk_keeps_causality(self, rfid_tuples):
        """A batch below batch_size only ships on flush — still traced."""
        with QuerySession(workers=2, shard_backend="process",
                          batch_size=4096, trace_sample=1) as session:
            declare(session)
            session.register("totals", TOTALS)
            obs.local_spans().clear()
            session.push_many("rfid", rfid_tuples[:50], trace=obs.new_trace())
            session.flush()
            spans = obs.local_spans().drain()
        executes = [s for s in spans if s["name"] == "shard.exec"]
        assert executes, "the flush-shipped partial chunk was not traced"
        ids = {s["span"] for s in spans if s["span"]}
        assert all(e["parent"] in ids for e in executes)

    def test_drop_mid_trace_does_not_leak_or_crash(self, rfid_tuples):
        with QuerySession(workers=2, shard_backend="process",
                          trace_sample=1) as session:
            declare(session)
            session.register("totals", TOTALS)
            session.register("doomed", HOT)
            session.push_many("rfid", rfid_tuples[:100], trace=obs.new_trace())
            session.drop("doomed")
            obs.local_spans().clear()
            session.push_many("rfid", rfid_tuples[100:200],
                              trace=obs.new_trace())
            session.flush()
            spans = obs.local_spans().drain()
        assert len(obs.local_spans()) == 0
        # Post-drop batches still trace the surviving query's flight.
        assert [s for s in spans if s["name"] == "shard.exec"]
        capacity = obs.local_spans().capacity
        assert len(spans) <= capacity

    def test_unsampled_traffic_records_nothing(self, rfid_tuples):
        with QuerySession(trace_sample=64) as session:
            declare(session)
            session.register("totals", TOTALS)
            obs.local_spans().clear()
            # Trace id 63 is never divisible by 64.
            session.push_many("rfid", rfid_tuples[:100],
                              trace=obs.new_trace(63))
            session.flush()
            assert obs.local_spans().drain() == []

    def test_sampling_off_records_nothing_even_for_id_zero(self, rfid_tuples):
        with QuerySession(trace_sample=0) as session:
            declare(session)
            session.register("totals", TOTALS)
            obs.local_spans().clear()
            session.push_many("rfid", rfid_tuples[:100], trace=obs.new_trace(0))
            session.flush()
            assert obs.local_spans().drain() == []


class TestInlineSpans:
    """The inline backend traces exactly like forked workers."""

    STAGES = ("session.push", "shard.encode", "shard.ship", "shard.exec",
              "shard.decode", "shard.merge")

    def run(self, backend, rfid_tuples):
        with QuerySession(workers=2, shard_backend=backend, shard_chunk_size=64,
                          trace_sample=1) as session:
            declare(session)
            session.register("totals", TOTALS)
            obs.local_spans().clear()
            for i, start in enumerate(range(0, len(rfid_tuples), 100)):
                session.push_many("rfid", rfid_tuples[start:start + 100],
                                  trace=obs.new_trace(trace_id=9000 + i))
            session.flush()
            chunks = sum(state.chunks_sent for state in
                         session.shard_statistics("totals").backpressure.values())
            spans = obs.local_spans().drain()
        return spans, chunks

    def test_one_exec_span_per_chunk_with_forked_ids(self, rfid_tuples):
        spans, chunks = self.run("inline", rfid_tuples)
        executes = [s for s in spans if s["name"] == "shard.exec"]
        assert chunks > 2
        assert len(executes) == chunks
        ids = [s["span"] for s in spans if s["span"]]
        assert len(ids) == len(set(ids)), "a span was recorded twice"
        ships = {s["span"] for s in spans if s["name"] == "shard.ship"}
        for execute in executes:
            assert execute["parent"] in ships
            assert execute["span"] == execute["parent"] + "/exec"

        forked, forked_chunks = self.run("process", rfid_tuples)
        assert forked_chunks == chunks

        def tree(recorded):
            return sorted(
                (s["name"], s["trace"], s["span"] or "", s["parent"] or "")
                for s in recorded
                if s["name"] in self.STAGES or s["name"].startswith("op.")
            )

        assert tree(spans) == tree(forked)
