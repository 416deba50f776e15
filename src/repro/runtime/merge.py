"""Coordinator-side merge operators for sharded execution.

Two recombination modes cover the plans the sharding pass accepts:

* :class:`OrderedChunkMerger` — k-way ordered merge for row-wise
  plans.  Every input chunk has a globally ordered id and row-wise
  operators are order-preserving and 1-to-(0 or 1), so emitting each
  chunk's outputs in ascending chunk id reproduces the single engine's
  output sequence exactly.
* :class:`WindowPartialMerger` — uncertainty-aware merge for
  aggregate-split plans.  Shard partials accumulate per window (and
  group); a window is emitted once every shard's *watermark* has passed
  its end — each shard ships its watermark atomically with the results
  it produced, so a passed watermark proves the shard's contribution to
  the window has arrived.  Emission order matches the single engine:
  windows in time order, groups sorted by ``repr`` within a window.
  The moment/mixture arithmetic lives in
  :mod:`repro.core.aggregation.merge`; this class adds the streaming
  bookkeeping.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.aggregation.merge import (
    WindowPartial,
    extract_partial,
    merge_window_partials,
)
from repro.distributions import Distribution
from repro.plan.sharding import MergeSpec
from repro.streams.tuples import StreamTuple

__all__ = ["OrderedChunkMerger", "WindowPartialMerger", "MergeProtocolError"]


class MergeProtocolError(RuntimeError):
    """Raised when shard results violate the merge protocol (missing chunks)."""


class OrderedChunkMerger:
    """Reassemble per-chunk shard outputs in global chunk order."""

    def __init__(self) -> None:
        self._pending: Dict[int, List[StreamTuple]] = {}
        self._next = 0

    def ingest(self, chunk_id: int, outputs: Sequence[StreamTuple]) -> List[StreamTuple]:
        """Record one chunk's outputs; return everything now emittable."""
        if chunk_id < self._next or chunk_id in self._pending:
            raise MergeProtocolError(
                f"chunk {chunk_id} delivered twice"
            )
        self._pending[chunk_id] = list(outputs)
        emitted: List[StreamTuple] = []
        while self._next in self._pending:
            emitted.extend(self._pending.pop(self._next))
            self._next += 1
        return emitted

    @property
    def pending_chunks(self) -> int:
        return len(self._pending)

    def drain(self) -> List[StreamTuple]:
        """End of stream: every sent chunk must have been ingested."""
        if self._pending:
            missing = [
                i
                for i in range(self._next, max(self._pending) + 1)
                if i not in self._pending
            ]
            raise MergeProtocolError(
                f"cannot drain ordered merge: chunks {missing} were never delivered"
            )
        return []

    def state_snapshot(self) -> dict:
        return {
            "kind": "ordered",
            "next": self._next,
            "pending": [
                {"chunk": chunk_id, "rows": list(rows)}
                for chunk_id, rows in sorted(self._pending.items())
            ],
        }

    def state_restore(self, state: dict) -> None:
        if state.get("kind") != "ordered":
            raise MergeProtocolError(
                f"cannot restore merger state of kind {state.get('kind')!r}"
            )
        self._next = int(state["next"])
        self._pending = {
            int(entry["chunk"]): list(entry["rows"]) for entry in state["pending"]
        }


def _emission_order(key: Tuple[float, float, Optional[Hashable]]):
    start, end, group = key
    return (start, end, repr(group))


class WindowPartialMerger:
    """Accumulate shard window-partials; emit merged windows by watermark."""

    def __init__(self, spec: MergeSpec, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        self.spec = spec
        self.n_shards = n_shards
        self._pending: Dict[Tuple[float, float, Optional[Hashable]], List[WindowPartial]] = {}
        self._watermarks: List[float] = [-math.inf] * n_shards
        self._fed: set = set()

    def mark_fed(self, shard: int) -> None:
        """Note that ``shard`` has been sent data.

        Only fed shards gate emission: a stream shorter than
        ``n_shards`` chunks leaves some shards without any data, and
        waiting on a shard that will never reply would stop streaming
        emission (and grow the pending table) until the final drain.  A fed shard whose
        reply is still in flight stays at ``-inf`` and gates correctly.
        """
        self._fed.add(shard)

    def ingest(
        self,
        shard: int,
        outputs: Sequence[StreamTuple],
        watermark: float,
    ) -> List[StreamTuple]:
        """Record one shard message (partials + watermark); emit ready windows."""
        for item in outputs:
            partial = extract_partial(
                item, self.spec.partial_attribute, grouped=self.spec.grouped
            )
            self._pending.setdefault(partial.key, []).append(partial)
        self._fed.add(shard)
        if watermark > self._watermarks[shard]:
            self._watermarks[shard] = watermark
        horizon = min(self._watermarks[s] for s in self._fed)
        if horizon == -math.inf:
            return []
        ready = [key for key in self._pending if key[1] <= horizon]
        return self._emit(ready)

    def _emit(self, keys) -> List[StreamTuple]:
        emitted: List[StreamTuple] = []
        for key in sorted(keys, key=_emission_order):
            merged = merge_window_partials(
                self._pending.pop(key),
                function=self.spec.function,
                output_attribute=self.spec.output_attribute,
                strategy=self.spec.strategy,
                having=self.spec.having,
                check_independence=self.spec.check_independence,
            )
            if merged is not None:  # None = filtered out by HAVING
                emitted.append(merged)
        return emitted

    @property
    def pending_windows(self) -> int:
        return len(self._pending)

    def drain(self) -> List[StreamTuple]:
        """End of stream: merge and emit every pending window."""
        out = self._emit(list(self._pending))
        self._watermarks = [-math.inf] * self.n_shards
        self._fed.clear()
        return out

    # ------------------------------------------------------------------
    # Durability: partials round-trip through the same result-tuple shape
    # the shards ship them in, so extract_partial is its own inverse and
    # the wire codec (which knows distributions and lineage) carries
    # everything — per-key list order included, which preserves the
    # float-summation order of a later merge.
    # ------------------------------------------------------------------
    def _partial_tuple(self, partial: WindowPartial) -> StreamTuple:
        values = {
            "window_start": partial.window_start,
            "window_end": partial.window_end,
            "window_count": partial.count,
        }
        uncertain = {}
        if partial.group is not None:
            values["group"] = partial.group
        if isinstance(partial.result, Distribution):
            uncertain[self.spec.partial_attribute] = partial.result
        else:
            values[self.spec.partial_attribute] = partial.result
        return StreamTuple(
            timestamp=partial.window_end,
            values=values,
            uncertain=uncertain,
            lineage=partial.lineage,
        )

    def state_snapshot(self) -> dict:
        return {
            "kind": "window",
            "watermarks": list(self._watermarks),
            "fed": sorted(self._fed),
            "pending": [
                [self._partial_tuple(p) for p in parts]
                for parts in self._pending.values()
            ],
        }

    def state_restore(self, state: dict) -> None:
        if state.get("kind") != "window":
            raise MergeProtocolError(
                f"cannot restore merger state of kind {state.get('kind')!r}"
            )
        watermarks = [float(w) for w in state["watermarks"]]
        if len(watermarks) != self.n_shards:
            raise MergeProtocolError(
                f"checkpoint recorded {len(watermarks)} shard watermarks, "
                f"this merger has {self.n_shards} shards"
            )
        self._watermarks = watermarks
        self._fed = set(int(s) for s in state["fed"])
        self._pending = {}
        for rows in state["pending"]:
            for item in rows:
                partial = extract_partial(
                    item, self.spec.partial_attribute, grouped=self.spec.grouped
                )
                self._pending.setdefault(partial.key, []).append(partial)
