"""Network service quickstart: the query stack over TCP.

Part 1 hosts a :class:`~repro.net.StreamServer` around a
:class:`~repro.service.QuerySession`, then drives it purely through the
wire protocol: declare a stream, register the paper's Q1-style
monitoring query as CQL text, subscribe to its results, and ingest
tuples from a client — exactly what a remote RFID receptor would do.

Part 2 shows the multi-machine sharding transport: a
:class:`~repro.net.ShardServer` hosting one shard of a windowed
aggregate in a separate (forked) process, driven by a
``ShardedEngine(remote_shards=[...])`` coordinator over TCP.

Run with: ``PYTHONPATH=src python examples/network_quickstart.py``
"""

import numpy as np

from repro import QuerySession
from repro.distributions import Gaussian
from repro.net import ShardServer, StreamClient, serve_in_thread
from repro.plan import Stream
from repro.runtime import ShardedEngine
from repro.streams import StreamTuple, TumblingTimeWindow

CATALOG = {f"O{i:02d}": 30.0 + 2.0 * i for i in range(20)}


def make_readings(n=600, seed=11):
    rng = np.random.default_rng(seed)
    return [
        StreamTuple(
            timestamp=i * 0.1,
            values={"tag_id": f"O{int(rng.integers(0, 25)):02d}"},
            uncertain={"x": Gaussian(float(rng.uniform(0.0, 60.0)), 0.8)},
        )
        for i in range(n)
    ]


def part_one_service_over_tcp():
    print("=== Part 1: query service over TCP")
    session = QuerySession(functions={
        "weight_of": lambda tag: CATALOG.get(tag, 0.0),
        "in_catalog": lambda tag: tag in CATALOG,
    })
    handle = serve_in_thread(session)
    print(f"server listening on {handle.address}")

    with StreamClient(handle.address) as client:
        client.declare_stream(
            "rfid", values=("tag_id",), uncertain=("x",), family="gaussian",
            rate_hint=10.0,
        )
        client.register(
            "overload",
            """
            SELECT weight_of(tag_id) AS weight, SUM(weight) AS total
            FROM rfid [RANGE 10 SECONDS SLIDE 10 SECONDS]
            WHERE in_catalog(tag_id)
            HAVING SUM(weight) > 500 WITH CONFIDENCE 0.5
            """,
        )
        with client.subscribe("overload") as subscription:
            sent = client.ingest("rfid", make_readings(), batch_size=128, window=8)
            client.flush()
            print(f"ingested {sent} readings over the wire")
            alerts = subscription.take(3, timeout=15.0)
        for alert in alerts[:3]:
            print(
                f"  window@{alert.value('window_start'):5.1f}s  "
                f"total weight mean={alert.value('total_mean'):8.1f}  "
                f"P(>500)={alert.value('having_probability'):.3f}"
            )
        stats = client.statistics()
        print(f"server processed {stats['tuples_ingested']} tuples, "
              f"{stats['frames_in']} frames")
    handle.stop()


def part_two_remote_shard():
    print("\n=== Part 2: a ShardedEngine shard living in another process")

    def build_query():
        stream = Stream.source(
            "pulses", uncertain=("energy",), family="gaussian", rate_hint=100.0
        )
        stream = stream.where_probably(
            "energy", ">", 30.0, min_probability=0.3, annotate=None
        )
        return stream.window(TumblingTimeWindow(5.0)).aggregate("energy")

    # The shard host constructs the same query (same code) and serves
    # its shard-local segment; here a thread-hosted server stands in
    # for the second machine (spawn_shard_server forks a real process).
    shard_server = ShardServer(build_query()).start_in_thread()
    print(f"remote shard serving on {shard_server.address}")

    rng = np.random.default_rng(23)
    pulses = [
        StreamTuple(
            timestamp=i * 0.02,
            uncertain={"energy": Gaussian(float(rng.uniform(10.0, 90.0)), 3.0)},
        )
        for i in range(4000)
    ]
    with ShardedEngine(
        build_query(),
        workers=2,  # shard 0 forks locally, shard 1 attaches over TCP
        backend="process",
        chunk_size=512,
        remote_shards=[shard_server.address],
    ) as engine:
        engine.push_many("pulses", pulses)
        results = engine.finish()
        # One channel kind for both: the forked shard speaks the same
        # frames over a socketpair that the remote one speaks over TCP.
        transports = {
            shard: report.transport
            for shard, report in engine.shard_statistics().items()
        }
        print(f"shard transports: {transports}")
        print("  shard 0: forked worker on a socketpair; shard 1: TCP to "
              f"{shard_server.address}")
        for result in results[:3]:
            dist = result.distribution("sum_energy")
            print(
                f"  window@{result.value('window_start'):5.1f}s  "
                f"SUM(energy) ~ N({dist.mean():8.1f}, {dist.std():6.2f})"
            )
    shard_server.close()


if __name__ == "__main__":
    part_one_service_over_tcp()
    part_two_remote_shard()
