"""Durable checkpoint & replay subsystem.

Makes the stream service restartable:

* a ``state_snapshot()``/``state_restore()`` protocol on stateful
  operators, serialized through the columnar wire format
  (:mod:`repro.recovery.state`).  A plan's boxes snapshot as a list of
  ``{"name", "state"}`` entries through the plan host that holds them
  (:meth:`repro.plan.PlanHost.snapshot` / ``restore``);
* versioned checkpoint files with full + incremental modes and atomic
  rename-on-commit (:mod:`repro.recovery.checkpoint`);
* a bounded per-query replay log feeding ``SUBSCRIBE ... RESUME <seq>``
  (:mod:`repro.recovery.replay`).

The session-level entry points are
:meth:`repro.service.QuerySession.checkpoint` and
:meth:`repro.service.QuerySession.recover`.
"""

from .checkpoint import CheckpointError, CheckpointInfo, CheckpointStore
from .replay import ReplayGapError, ReplayLog
from .state import StateError, decode_state, encode_state

__all__ = [
    "CheckpointError",
    "CheckpointInfo",
    "CheckpointStore",
    "ReplayGapError",
    "ReplayLog",
    "StateError",
    "decode_state",
    "encode_state",
]
