"""Window specifications and window assignment for stream operators.

The paper's queries use CQL-style windows: ``[Now]``, ``[Range 5
seconds]`` and tumbling count windows such as the 100-tuple window of
Table 2.  Windowed operators (aggregation, join, group-by) delegate
window bookkeeping to the classes defined here so every operator shares
one tested implementation of window semantics.
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .batch import TupleBatch
from .tuples import StreamTuple

__all__ = [
    "WindowSpec",
    "TumblingCountWindow",
    "TumblingTimeWindow",
    "SlidingTimeWindow",
    "NowWindow",
    "WindowBuffer",
]


#: One stretch of a window's rows: ``batch``'s rows ``begin:end``.
Segment = Tuple[TupleBatch, int, int]


class WindowClose:
    """A closed window: its boundaries and the tuples it contains.

    The buffers of tumbling windows hand over the rows as ``segments``,
    ``(batch, begin, end)`` slices of the batches that filled the window
    in stream order, so a columnar consumer (the window x group moment
    kernel) reads the batches' cached columns and never the rows.
    ``items`` is the same rows as a tuple, built on first access for the
    consumers that need rows.  A close is built from one of the two; one
    built from ``items`` gets its one segment on first access to
    ``segments``.
    """

    __slots__ = ("start", "end", "_items", "_segments")

    def __init__(
        self,
        start: float,
        end: float,
        items: Optional[Sequence[StreamTuple]] = None,
        segments: Optional[Sequence[Segment]] = None,
    ):
        self.start = start
        self.end = end
        self._items = None if items is None else tuple(items)
        self._segments = None if segments is None else tuple(segments)

    @property
    def items(self) -> Tuple[StreamTuple, ...]:
        if self._items is None:
            rows: List[StreamTuple] = []
            for batch, begin, end in self._segments:
                rows.extend(batch._tuples[begin:end])
            self._items = tuple(rows)
        return self._items

    @property
    def segments(self) -> Tuple[Segment, ...]:
        if self._segments is None:
            items = self._items
            self._segments = ((TupleBatch(items), 0, len(items)),) if items else ()
        return self._segments

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"WindowClose(start={self.start}, end={self.end})"


class WindowSpec(abc.ABC):
    """Strategy describing how tuples are grouped into windows."""

    @abc.abstractmethod
    def new_buffer(self) -> WindowBuffer:
        """Return a fresh stateful buffer implementing this window."""


class WindowBuffer(abc.ABC):
    """Stateful buffer that accumulates tuples and emits closed windows."""

    @abc.abstractmethod
    def add(self, item: StreamTuple) -> List[WindowClose]:
        """Add a tuple and return any windows that closed as a result."""

    def add_many(self, items: Iterable[StreamTuple]) -> List[WindowClose]:
        """Add a sequence of tuples and return all windows they closed.

        Default: loop over :meth:`add`.  Buffers with cheap bulk
        insertion (count and tumbling-time windows) override this for
        the batch execution path; the closed windows must be identical
        to those the per-tuple loop would produce.  ``items`` may be
        any tuple iterable, including a
        :class:`~repro.streams.batch.TupleBatch`.
        """
        closed: List[WindowClose] = []
        add = self.add
        for item in items:
            closed.extend(add(item))
        return closed

    @abc.abstractmethod
    def flush(self) -> List[WindowClose]:
        """Close and return any remaining partial windows (end of stream)."""

    def state_snapshot(self) -> dict:
        """Return the buffer's open-window state for checkpointing.

        Default: stateless (``_NowBuffer``).  Buffers that hold tuples
        between calls override this; the dict's ``items`` lists are
        serialized tuple-exact by the checkpoint codec, so restoring and
        continuing is indistinguishable from never having stopped.
        """
        return {"kind": "now"}

    def state_restore(self, state: dict) -> None:
        """Install a state previously returned by :meth:`state_snapshot`."""
        if state.get("kind") != "now":
            raise ValueError(f"cannot restore window buffer state {state.get('kind')!r}")


#: The rows of a batch this short join an open window as rows, not as a
#: segment: for a few rows, pinning their batch and slicing its columns
#: costs more than gathering the rows again (one-row pushes would pin a
#: batch per row).
_MIN_SEGMENT_BATCH = 16


class _SegmentBuffer(WindowBuffer):
    """The open window of a tumbling buffer, held without copying rows.

    Bulk insertion appends ``(batch, begin, end)`` segments; :meth:`add`
    and short batches append rows to a loose list (a plain
    ``list.append``), which becomes a segment of its own only when a
    segment follows it.  So the open window pins at most the batches of
    ``_MIN_SEGMENT_BATCH`` rows or more that reach into it.
    """

    def __init__(self) -> None:
        self._segments: List[Segment] = []
        self._loose: List[StreamTuple] = []

    def _seal_loose(self) -> None:
        if self._loose:
            self._segments.append((TupleBatch(self._loose), 0, len(self._loose)))
            self._loose = []

    def _append_segment(self, batch: TupleBatch, begin: int, end: int) -> None:
        if len(batch) < _MIN_SEGMENT_BATCH:
            self._loose.extend(batch._tuples[begin:end])
        else:
            self._seal_loose()
            self._segments.append((batch, begin, end))

    def _is_empty(self) -> bool:
        return not self._segments and not self._loose

    def _first_row(self) -> StreamTuple:
        if self._segments:
            batch, begin, _ = self._segments[0]
            return batch._tuples[begin]
        return self._loose[0]

    def _last_row(self) -> StreamTuple:
        if self._loose:
            return self._loose[-1]
        batch, _, end = self._segments[-1]
        return batch._tuples[end - 1]

    def _take_close(self, start: float, end: float) -> WindowClose:
        """Close the open window as ``[start, end]`` and start an empty one."""
        if self._segments:
            self._seal_loose()
            window = WindowClose(start, end, segments=self._segments)
        else:
            window = WindowClose(start, end, items=self._loose)
        self._segments = []
        self._loose = []
        return window

    def _rows(self) -> List[StreamTuple]:
        rows: List[StreamTuple] = []
        for batch, begin, end in self._segments:
            rows.extend(batch._tuples[begin:end])
        rows.extend(self._loose)
        return rows

    def _restore_rows(self, rows: Iterable[StreamTuple]) -> None:
        self._segments = []
        self._loose = list(rows)


# ----------------------------------------------------------------------
# Tumbling count window (Table 2: "tumbling window of size 100 tuples")
# ----------------------------------------------------------------------
class TumblingCountWindow(WindowSpec):
    """Non-overlapping windows of a fixed number of tuples."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"window size must be at least 1, got {size}")
        self.size = int(size)

    def new_buffer(self) -> WindowBuffer:
        return _CountBuffer(self.size)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TumblingCountWindow(size={self.size})"


class _CountBuffer(_SegmentBuffer):
    def __init__(self, size: int):
        super().__init__()
        self._size = size
        self._pending = 0

    def _close(self) -> WindowClose:
        self._pending = 0
        return self._take_close(self._first_row().timestamp, self._last_row().timestamp)

    def add(self, item: StreamTuple) -> List[WindowClose]:
        self._loose.append(item)
        self._pending += 1
        if self._pending < self._size:
            return []
        return [self._close()]

    def add_many(self, items: Iterable[StreamTuple]) -> List[WindowClose]:
        batch = items if isinstance(items, TupleBatch) else TupleBatch(items)
        n, position = len(batch), 0
        closed: List[WindowClose] = []
        while n - position >= self._size - self._pending:
            end = position + self._size - self._pending
            self._append_segment(batch, position, end)
            closed.append(self._close())
            position = end
        if position < n:
            self._append_segment(batch, position, n)
            self._pending += n - position
        return closed

    def flush(self) -> List[WindowClose]:
        if self._is_empty():
            return []
        return [self._close()]

    def state_snapshot(self) -> dict:
        return {"kind": "count", "items": self._rows()}

    def state_restore(self, state: dict) -> None:
        if state.get("kind") != "count":
            raise ValueError(f"cannot restore window buffer state {state.get('kind')!r}")
        self._restore_rows(state["items"])
        self._pending = len(self._loose)


# ----------------------------------------------------------------------
# Tumbling time window (Q1: "[Range 5 seconds]" grouped per window)
# ----------------------------------------------------------------------
class TumblingTimeWindow(WindowSpec):
    """Non-overlapping windows of fixed duration, aligned to the origin."""

    def __init__(self, length: float, origin: float = 0.0):
        if length <= 0:
            raise ValueError(f"window length must be positive, got {length}")
        self.length = float(length)
        self.origin = float(origin)

    def new_buffer(self) -> WindowBuffer:
        return _TimeBuffer(self.length, self.origin)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TumblingTimeWindow(length={self.length})"


def _late_row(timestamp: float) -> ValueError:
    return ValueError(
        f"out-of-order tuple (timestamp {float(timestamp)!r}) arrived before "
        "the current tumbling window"
    )


class _TimeBuffer(_SegmentBuffer):
    def __init__(self, length: float, origin: float):
        super().__init__()
        self._length = length
        self._origin = origin
        self._window_index: Optional[int] = None

    def _index_of(self, timestamp: float) -> int:
        return int((timestamp - self._origin) // self._length)

    def _close_current(self) -> WindowClose:
        assert self._window_index is not None
        start = self._origin + self._window_index * self._length
        return self._take_close(start, start + self._length)

    def add(self, item: StreamTuple) -> List[WindowClose]:
        idx = self._index_of(item.timestamp)
        closed: List[WindowClose] = []
        if self._window_index is None:
            self._window_index = idx
        elif idx != self._window_index:
            if idx < self._window_index:
                raise _late_row(item.timestamp)
            closed.append(self._close_current())
            self._window_index = idx
        self._loose.append(item)
        return closed

    def add_many(self, items: Iterable[StreamTuple]) -> List[WindowClose]:
        """Bulk insertion: one vectorised bucketing pass per batch.

        Window indices for the whole batch come from a single numpy
        floor-division over the timestamp column, and each run of rows
        in one window joins it as one segment; the closed windows are
        identical to the per-tuple :meth:`add` loop.  A row stamped
        before the window open when it arrives makes the whole batch
        refused, before anything is inserted: the ``ValueError`` names
        that row's timestamp and the buffer stays as it was.
        """
        batch = items if isinstance(items, TupleBatch) else TupleBatch(items)
        if not batch:
            return []
        # Same arithmetic as _index_of: floor((t - origin) / length).
        timestamps = batch.timestamps()
        indices = np.floor_divide(timestamps - self._origin, self._length).astype(np.int64)
        current = indices[0] if self._window_index is None else self._window_index
        steps = np.diff(indices)
        if indices[0] < current or (steps < 0).any():
            # The first row below the window open when it arrives.
            opened = np.maximum.accumulate(np.concatenate(([current], indices[:-1])))
            raise _late_row(timestamps[np.flatnonzero(indices < opened)[0]])
        closed: List[WindowClose] = []
        run_starts = [0] + (np.flatnonzero(steps) + 1).tolist()
        run_starts.append(len(batch))
        for begin, end in zip(run_starts, run_starts[1:]):
            idx = int(indices[begin])
            if self._window_index is None:
                self._window_index = idx
            elif idx != self._window_index:
                closed.append(self._close_current())
                self._window_index = idx
            self._append_segment(batch, begin, end)
        return closed

    def flush(self) -> List[WindowClose]:
        if self._is_empty():
            return []
        return [self._close_current()]

    def state_snapshot(self) -> dict:
        return {
            "kind": "time",
            "items": self._rows(),
            "window_index": self._window_index,
        }

    def state_restore(self, state: dict) -> None:
        if state.get("kind") != "time":
            raise ValueError(f"cannot restore window buffer state {state.get('kind')!r}")
        self._restore_rows(state["items"])
        index = state["window_index"]
        self._window_index = None if index is None else int(index)


# ----------------------------------------------------------------------
# Sliding time window (Q2: "[Range 3 seconds]" join windows)
# ----------------------------------------------------------------------
class SlidingTimeWindow(WindowSpec):
    """A window keeping every tuple within ``length`` of the newest tuple.

    This models the CQL ``[Range t seconds]`` construct used on join
    inputs: at any point the window contains the tuples whose timestamps
    are within ``length`` of the current stream time.
    """

    def __init__(self, length: float):
        if length <= 0:
            raise ValueError(f"window length must be positive, got {length}")
        self.length = float(length)

    def new_buffer(self) -> WindowBuffer:
        return _SlidingBuffer(self.length)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SlidingTimeWindow(length={self.length})"


class _SlidingBuffer(WindowBuffer):
    """Sliding buffer; emits the window content after every insertion."""

    def __init__(self, length: float):
        self._length = length
        self._items: List[StreamTuple] = []

    def current(self, now: float) -> List[StreamTuple]:
        """Return the tuples currently inside the window at time ``now``."""
        cutoff = now - self._length
        self._items = [t for t in self._items if t.timestamp > cutoff]
        return list(self._items)

    def add(self, item: StreamTuple) -> List[WindowClose]:
        self._items.append(item)
        content = self.current(item.timestamp)
        return [
            WindowClose(
                start=item.timestamp - self._length,
                end=item.timestamp,
                items=tuple(content),
            )
        ]

    def flush(self) -> List[WindowClose]:
        return []

    def state_snapshot(self) -> dict:
        return {"kind": "sliding", "items": list(self._items)}

    def state_restore(self, state: dict) -> None:
        if state.get("kind") != "sliding":
            raise ValueError(f"cannot restore window buffer state {state.get('kind')!r}")
        self._items = list(state["items"])


# ----------------------------------------------------------------------
# Now window (Q1 inner query: "[Now]")
# ----------------------------------------------------------------------
class NowWindow(WindowSpec):
    """A window containing only the most recent tuple."""

    def new_buffer(self) -> WindowBuffer:
        return _NowBuffer()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "NowWindow()"


class _NowBuffer(WindowBuffer):
    def add(self, item: StreamTuple) -> List[WindowClose]:
        return [WindowClose(start=item.timestamp, end=item.timestamp, items=(item,))]

    def flush(self) -> List[WindowClose]:
        return []


def iter_windows(spec: WindowSpec, items: Sequence[StreamTuple]) -> Iterator[WindowClose]:
    """Run a sequence of tuples through a window spec and yield closed windows.

    Convenience helper for batch-style tests and benchmarks.
    """
    buffer = spec.new_buffer()
    for item in items:
        yield from buffer.add(item)
    yield from buffer.flush()
