"""Sharded parallel runtime: multi-process query execution.

The paper targets stream rates a single Python process cannot sustain;
this package adds the horizontal half of that story.  A
:class:`ShardedEngine` rotates chunks of source tuples across worker
processes — each running a full :class:`~repro.streams.engine.StreamEngine` on
the shard-local plan segment chosen by
:func:`repro.plan.sharding.split_for_sharding` — and recombines the
outputs through uncertainty-aware merge operators: exact moment/mixture
merge for windowed SUM/AVG/COUNT partials, ordered k-way chunk merge
for row-wise outputs.

>>> from repro.runtime import ShardedEngine
>>> engine = ShardedEngine(query_stream, workers=4)
>>> engine.push_many("sensors", tuples)
>>> results = engine.finish()
>>> engine.close()

A :class:`ShardedEngine` only shards: it refuses a plan the sharding
pass cannot split (a join, a count window, ...) with a
:class:`~repro.plan.nodes.PlanError` naming the blocker.  The service
layer exposes the same capability as ``QuerySession(workers=N)``, which
is the one place that picks in-process or sharded execution per query:
a query that does not shard runs in the session's in-process engine.
"""

from .engine import ShardBackpressure, ShardedEngine, ShardedStatistics, ShardError
from .merge import MergeProtocolError, OrderedChunkMerger, WindowPartialMerger
from .transport import SocketShardChannel
from .worker import ShardRunner

__all__ = [
    "ShardedEngine",
    "ShardedStatistics",
    "ShardBackpressure",
    "ShardError",
    "SocketShardChannel",
    "OrderedChunkMerger",
    "WindowPartialMerger",
    "MergeProtocolError",
    "ShardRunner",
]
