"""Network service layer: the query stack over TCP.

The paper's receptor streams (RFID readers, radar sites) arrive from
*distributed* sources; this package puts the whole service surface on
the network so ingest, registration and result delivery no longer need
to share a process with the engine:

* :class:`StreamServer` — an asyncio TCP server wrapping one
  :class:`~repro.service.QuerySession`: declare streams, register CQL
  queries, ingest tuple batches, subscribe to per-query result pushes
  (bounded buffers, slow-consumer policy), fetch statistics/explain.
* :class:`StreamClient` — the one wire-protocol client; ingest is
  pipelined with windowed acks, and every read honours a timeout.
  asyncio callers run it through ``asyncio.to_thread`` (see
  :mod:`repro.net.client`).
* :class:`ShardServer` — one shard of a
  :class:`~repro.runtime.ShardedEngine` served over the same framing,
  so a coordinator's shard can live on another machine
  (``ShardedEngine(remote_shards=[...])``).

Control data rides as JSON headers, tuple data as the columnar batch
codec of :mod:`repro.streams.serialization` — the same bytes a forked
worker receives, now routable across machines.
"""

from repro.recovery.replay import ReplayGapError

from .client import StreamClient, Subscription
from .errors import (
    AuthError,
    ConnectionClosed,
    NetError,
    ProtocolError,
    RemoteError,
    SlowConsumerError,
)
from .framing import PROTOCOL_VERSION
from .server import ServerHandle, StreamServer, serve_in_thread
from .shard import ShardServer, spawn_shard_server

__all__ = [
    "StreamServer",
    "ServerHandle",
    "serve_in_thread",
    "StreamClient",
    "Subscription",
    "ShardServer",
    "spawn_shard_server",
    "NetError",
    "ProtocolError",
    "RemoteError",
    "ConnectionClosed",
    "SlowConsumerError",
    "AuthError",
    "ReplayGapError",
    "PROTOCOL_VERSION",
]
