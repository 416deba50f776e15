"""Columnar batches of stream tuples for batch-at-a-time execution.

Moving one tuple at a time would pay Python call overhead for every
tuple at every box.  A :class:`TupleBatch` amortises that overhead: the engine
moves whole batches between boxes and operators that can vectorise
(probabilistic selection over Gaussians, moment accumulation for the
CF-approximation sum) read *columnar views* of the batch -- numpy
arrays built lazily and cached on first access -- instead of touching
each :class:`~repro.streams.tuples.StreamTuple` individually.

A batch is an ordered, immutable-by-convention sequence of tuples; the
row objects themselves are shared, never copied, so converting between
the batch and tuple representations is cheap (``from_tuples`` /
``to_tuples``).  Columnar caches are invalidated never -- batches are
treated as frozen once handed to the engine, mirroring the frozen
:class:`StreamTuple` semantics.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.distributions import Distribution, Gaussian, GaussianMixture

from .tuples import StreamTuple

__all__ = ["TupleBatch", "concat_lineage", "ragged_take", "summand_moments"]

#: Sentinel distinguishing "not cached yet" from a cached ``None``.
_UNSET = object()


class TupleBatch:
    """An ordered batch of :class:`StreamTuple` rows with columnar views.

    Parameters
    ----------
    tuples:
        The rows of the batch, in stream order.  The sequence is copied
        into an internal list; the tuples themselves are shared.

    A column is gathered from the rows once, on first access, and a
    batch derived by :meth:`select`, slicing, :meth:`chunks` or
    :meth:`concat` carries the columns its parents had already gathered
    (an array take, not a second walk over the rows).  So a source
    batch's columns serve every query that batch feeds, and every
    window segment cut from it.
    """

    __slots__ = (
        "_tuples",
        "_timestamps",
        "_gaussian_cols",
        "_moment_cols",
        "_value_cols",
        "_lineage",
        "trace_id",
        "t_ingest",
    )

    def __init__(self, tuples: Iterable[StreamTuple] = ()):
        self._tuples: List[StreamTuple] = list(tuples)
        self._timestamps: Optional[np.ndarray] = None
        self._gaussian_cols: Dict[str, Any] = {}
        self._moment_cols: Dict[str, Any] = {}
        self._value_cols: Dict[str, np.ndarray] = {}
        self._lineage: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Trace context (see :mod:`repro.obs.trace`), stamped at ingest
        #: and preserved by the wire codecs.  Transport-level metadata:
        #: derived batches (``select``/``chunks``/``concat``) start
        #: unstamped — the runtime re-stamps at each shipping boundary.
        self.trace_id: Optional[int] = None
        self.t_ingest: Optional[float] = None

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(cls, tuples: Iterable[StreamTuple]) -> TupleBatch:
        """Build a batch from an iterable of tuples (stream order preserved)."""
        return cls(tuples)

    def to_tuples(self) -> List[StreamTuple]:
        """Return the rows as a new list (the tuples themselves are shared)."""
        return list(self._tuples)

    @property
    def tuples(self) -> Sequence[StreamTuple]:
        """Read-only view of the rows."""
        return tuple(self._tuples)

    @staticmethod
    def concat(batches: Iterable["TupleBatch"]) -> TupleBatch:
        """Concatenate several batches into one (stream order preserved).

        A column is carried when every part has it cached.
        """
        parts = list(batches)
        out = TupleBatch()
        for batch in parts:
            out._tuples.extend(batch._tuples)
        if not parts:
            return out
        if all(batch._timestamps is not None for batch in parts):
            out._timestamps = np.concatenate([batch._timestamps for batch in parts])
        for field in ("_gaussian_cols", "_moment_cols"):
            columns = [getattr(batch, field) for batch in parts]
            for name, first in columns[0].items():
                pairs = [cols.get(name) for cols in columns]
                if first is not None and all(pair is not None for pair in pairs):
                    getattr(out, field)[name] = tuple(map(np.concatenate, zip(*pairs)))
        for name in parts[0]._value_cols:
            if all(name in batch._value_cols for batch in parts):
                out._value_cols[name] = np.concatenate([b._value_cols[name] for b in parts])
        if all(batch._lineage is not None for batch in parts):
            out._lineage = concat_lineage([batch._lineage for batch in parts])
        return out

    def chunks(self, size: int) -> Iterator["TupleBatch"]:
        """Yield consecutive sub-batches of at most ``size`` rows."""
        if size < 1:
            raise ValueError(f"chunk size must be at least 1, got {size}")
        for start in range(0, len(self._tuples), size):
            yield self[start : start + size]

    def select(self, mask: Union[Sequence[bool], np.ndarray]) -> TupleBatch:
        """Return the rows where ``mask`` is truthy (boolean row filter)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self._tuples),):
            raise ValueError(
                f"mask length {mask.shape} does not match batch length {len(self._tuples)}"
            )
        rows = list(compress(self._tuples, mask.tolist()))
        if not rows:
            return TupleBatch()
        return self._carry(rows, None if len(rows) == len(self._tuples) else mask.nonzero()[0])

    def _carry(
        self, rows: List[StreamTuple], index: Union[None, slice, np.ndarray]
    ) -> TupleBatch:
        """The batch of ``rows``, this batch's rows at ``index`` (a slice of
        step 1, an integer array, or ``None`` for all of them), with every
        cached column taken along."""
        out = TupleBatch()
        out._tuples = rows
        if index is None:  # the same rows: share the columns, even the negative ones
            out._timestamps = self._timestamps
            out._gaussian_cols.update(self._gaussian_cols)
            out._moment_cols.update(self._moment_cols)
            out._value_cols.update(self._value_cols)
            out._lineage = self._lineage
            return out
        if self._timestamps is not None:
            out._timestamps = self._timestamps[index]
        for name, pair in self._gaussian_cols.items():
            if pair is not None:
                out._gaussian_cols[name] = (pair[0][index], pair[1][index])
        for name, pair in self._moment_cols.items():
            if pair is not None:
                out._moment_cols[name] = (pair[0][index], pair[1][index])
        for name, column in self._value_cols.items():
            out._value_cols[name] = column[index]
        if self._lineage is not None:
            out._lineage = _take_lineage(*self._lineage, index)
        return out

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._tuples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self._tuples))
            if step != 1:
                return self._carry(self._tuples[index], np.arange(start, stop, step))
            return self._carry(self._tuples[index], slice(start, max(start, stop)))
        return self._tuples[index]

    def __bool__(self) -> bool:
        return bool(self._tuples)

    # ------------------------------------------------------------------
    # Columnar views (lazy, cached)
    # ------------------------------------------------------------------
    def timestamps(self) -> np.ndarray:
        """Return the event times of all rows as a float64 array."""
        if self._timestamps is None:
            self._timestamps = np.fromiter(
                [t.timestamp for t in self._tuples], dtype=np.float64, count=len(self._tuples)
            )
        return self._timestamps

    def value_column(self, name: str) -> np.ndarray:
        """Return deterministic attribute ``name`` as an object array.

        Raises ``KeyError`` (like :meth:`StreamTuple.value`) if any row
        lacks the attribute.
        """
        cached = self._value_cols.get(name)
        if cached is None:
            cached = np.fromiter(
                [t.values[name] for t in self._tuples], dtype=object, count=len(self._tuples)
            )
            self._value_cols[name] = cached
        return cached

    def lineage_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return every row's lineage as ``(ids, offsets)`` int64 arrays.

        Row ``i``'s base tuple ids are ``ids[offsets[i]:offsets[i + 1]]``,
        in no particular order; ``offsets`` has one entry more than the
        batch has rows.  A lineage is never empty, so ``len(ids)`` equals
        the row count exactly when every row has a single base tuple.
        Ids must fit in int64, as the wire codec also requires.
        """
        if self._lineage is None:
            lineages = [t.lineage for t in self._tuples]
            ids = np.fromiter(chain.from_iterable(lineages), np.int64)
            if len(ids) == len(lineages):
                offsets = np.arange(len(ids) + 1, dtype=np.int64)
            else:
                offsets = np.zeros(len(lineages) + 1, dtype=np.int64)
                np.cumsum(np.fromiter(map(len, lineages), np.int64, len(lineages)), out=offsets[1:])
            self._lineage = (ids, offsets)
        return self._lineage

    def numeric_column(self, name: str) -> np.ndarray:
        """Return deterministic attribute ``name`` as a float64 array."""
        return np.asarray(
            [float(item.values[name]) for item in self._tuples], dtype=np.float64
        )

    def uncertain_column(self, name: str) -> np.ndarray:
        """Return uncertain attribute ``name`` as an object array of distributions."""
        out = np.empty(len(self._tuples), dtype=object)
        for i, item in enumerate(self._tuples):
            out[i] = item.uncertain[name]
        return out

    def gaussian_params(self, name: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Return ``(mu, sigma)`` arrays when *every* row carries a scalar
        Gaussian for uncertain attribute ``name``, else ``None``.

        This is the fast path for vectorised kernels: one attribute-access
        pass builds two float64 columns, after which tail probabilities
        and moment sums are single numpy expressions.
        """
        cached = self._gaussian_cols.get(name, _UNSET)
        if cached is _UNSET:
            cached = self._gather_gaussian(name, self._distributions(name))
        return cached

    def moments(self, name: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Return ``(means, variances)`` columns for uncertain attribute ``name``.

        Returns ``None`` when any row lacks the attribute entirely or
        carries a non-scalar distribution (the caller decides how to
        promote or fail).  An all-Gaussian column comes from
        :meth:`gaussian_params`; see :func:`summand_moments` for the
        general gather.
        """
        cached = self._moment_cols.get(name, _UNSET)
        if cached is not _UNSET:
            return cached
        gaussian = self._gaussian_cols.get(name, _UNSET)
        dists = None
        if gaussian is _UNSET:
            dists = self._distributions(name)
            gaussian = self._gather_gaussian(name, dists)
        if gaussian is not None:
            result = (gaussian[0], gaussian[1] * gaussian[1])
        else:
            if dists is None:
                dists = self._distributions(name)
            result = None if dists is None else summand_moments(dists)
        self._moment_cols[name] = result
        return result

    def _distributions(self, name: str) -> Optional[List[Distribution]]:
        """Uncertain attribute ``name`` of every row, or ``None`` if a row lacks it."""
        try:
            return [t.uncertain[name] for t in self._tuples]
        except KeyError:
            return None

    def _gather_gaussian(self, name: str, dists: Optional[List[Distribution]]):
        """Cache and return the ``(mu, sigma)`` columns of ``dists``, or ``None``."""
        result: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if dists is not None and all(issubclass(cls, Gaussian) for cls in set(map(type, dists))):
            result = (
                np.fromiter([dist.mu for dist in dists], np.float64, len(dists)),
                np.fromiter([dist.sigma for dist in dists], np.float64, len(dists)),
            )
        self._gaussian_cols[name] = result
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TupleBatch(n={len(self._tuples)})"


_WEIGHTS = attrgetter("weights")


def _take_lineage(
    ids: np.ndarray, offsets: np.ndarray, index: Union[slice, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(ids, offsets)`` lineage column of the rows at ``index``."""
    if isinstance(index, slice):
        begin, end = int(offsets[index.start]), int(offsets[index.stop])
        return ids[begin:end], offsets[index.start : index.stop + 1] - begin
    return ragged_take(ids, offsets, index)


def concat_lineage(
    columns: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``(ids, offsets)`` lineage columns (see :meth:`TupleBatch.lineage_ids`)."""
    if len(columns) == 1:
        return columns[0]
    offsets, base = [np.zeros(1, dtype=np.int64)], 0
    for ids, part_offsets in columns:
        offsets.append(part_offsets[1:] + base)
        base += len(ids)
    return np.concatenate([ids for ids, _ in columns]), np.concatenate(offsets)


def ragged_take(
    ids: np.ndarray, offsets: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather the runs ``ids[offsets[r]:offsets[r + 1]]`` of ``rows``, in
    that order: return the concatenated runs and their new offsets."""
    if len(ids) == len(offsets) - 1:  # one id per row
        return ids[rows], np.arange(len(rows) + 1, dtype=np.int64)
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    new_offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=new_offsets[1:])
    positions = np.arange(int(new_offsets[-1]), dtype=np.int64)
    positions += np.repeat(starts - new_offsets[:-1], counts)
    return ids[positions], new_offsets


def summand_moments(dists: Sequence[Distribution]) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Return the ``(means, variances)`` columns of scalar distributions.

    Gaussians contribute their parameters by attribute access.  Mixture
    rows are reduced together: their weights, means and sigmas are
    gathered with one ``np.concatenate`` each and every row's moments
    come from two ``np.add.reduceat`` calls, with the variance taken
    about the row mean as :meth:`GaussianMixture.variance` does.  Other
    families fall back to their ``mean()``/``variance()`` methods.
    Returns ``None`` when any distribution is not one-dimensional.
    """
    try:
        # All-Gaussian fast path: parameters by attribute access.
        return (
            np.asarray([dist.mu for dist in dists], dtype=np.float64),
            np.asarray([dist.sigma * dist.sigma for dist in dists], dtype=np.float64),
        )
    except AttributeError:
        pass
    means = np.empty(len(dists))
    variances = np.empty(len(dists))
    mixture_rows: List[int] = []
    if all(issubclass(cls, GaussianMixture) for cls in set(map(type, dists))):
        mixture_rows = list(range(len(dists)))
    else:
        for i, dist in enumerate(dists):
            if isinstance(dist, GaussianMixture):
                mixture_rows.append(i)
            elif isinstance(dist, Gaussian):
                means[i] = dist.mu
                variances[i] = dist.sigma * dist.sigma
            elif dist.ndim != 1:
                return None
            else:
                means[i] = float(np.asarray(dist.mean()).ravel()[0])
                variances[i] = float(np.asarray(dist.variance()).ravel()[0])
    if mixture_rows:
        mixtures = [dists[i] for i in mixture_rows]
        sizes = np.fromiter(map(len, map(_WEIGHTS, mixtures)), np.intp, len(mixtures))
        starts = np.zeros(len(mixtures), dtype=np.intp)
        np.cumsum(sizes[:-1], out=starts[1:])
        weights = np.concatenate([m.weights for m in mixtures])
        centres = np.concatenate([m.means for m in mixtures])
        sigmas = np.concatenate([m.sigmas for m in mixtures])
        row_means = np.add.reduceat(weights * centres, starts)
        deviations = centres - np.repeat(row_means, sizes)
        means[mixture_rows] = row_means
        variances[mixture_rows] = np.add.reduceat(
            weights * (sigmas * sigmas + deviations * deviations), starts
        )
    return means, variances
