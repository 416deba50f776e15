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

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.distributions import Distribution, Gaussian, GaussianMixture

from .tuples import StreamTuple

__all__ = ["TupleBatch", "summand_moments"]

#: Sentinel distinguishing "not cached yet" from a cached ``None``.
_UNSET = object()


class TupleBatch:
    """An ordered batch of :class:`StreamTuple` rows with columnar views.

    Parameters
    ----------
    tuples:
        The rows of the batch, in stream order.  The sequence is copied
        into an internal list; the tuples themselves are shared.
    """

    __slots__ = (
        "_tuples",
        "_timestamps",
        "_gaussian_cols",
        "_moment_cols",
        "_value_cols",
        "trace_id",
        "t_ingest",
    )

    def __init__(self, tuples: Iterable[StreamTuple] = ()):
        self._tuples: List[StreamTuple] = list(tuples)
        self._timestamps: Optional[np.ndarray] = None
        self._gaussian_cols: Dict[str, Any] = {}
        self._moment_cols: Dict[str, Any] = {}
        self._value_cols: Dict[str, np.ndarray] = {}
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
        """Concatenate several batches into one (stream order preserved)."""
        rows: List[StreamTuple] = []
        for batch in batches:
            rows.extend(batch._tuples)
        return TupleBatch(rows)

    def chunks(self, size: int) -> Iterator["TupleBatch"]:
        """Yield consecutive sub-batches of at most ``size`` rows."""
        if size < 1:
            raise ValueError(f"chunk size must be at least 1, got {size}")
        for start in range(0, len(self._tuples), size):
            yield TupleBatch(self._tuples[start : start + size])

    def select(self, mask: Union[Sequence[bool], np.ndarray]) -> TupleBatch:
        """Return the rows where ``mask`` is truthy (boolean row filter)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self._tuples),):
            raise ValueError(
                f"mask length {mask.shape} does not match batch length {len(self._tuples)}"
            )
        return TupleBatch([t for t, keep in zip(self._tuples, mask) if keep])

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._tuples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TupleBatch(self._tuples[index])
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
                (t.timestamp for t in self._tuples), dtype=np.float64, count=len(self._tuples)
            )
        return self._timestamps

    def value_column(self, name: str) -> np.ndarray:
        """Return deterministic attribute ``name`` as an object array.

        Raises ``KeyError`` (like :meth:`StreamTuple.value`) if any row
        lacks the attribute.
        """
        cached = self._value_cols.get(name)
        if cached is None:
            cached = np.empty(len(self._tuples), dtype=object)
            for i, item in enumerate(self._tuples):
                cached[i] = item.values[name]
            self._value_cols[name] = cached
        return cached

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
        if cached is not _UNSET:
            return cached
        result: Optional[Tuple[np.ndarray, np.ndarray]] = None
        try:
            dists = [item.uncertain[name] for item in self._tuples]
        except KeyError:
            dists = None
        if dists is not None and all(isinstance(dist, Gaussian) for dist in dists):
            result = (
                np.asarray([dist.mu for dist in dists], dtype=np.float64),
                np.asarray([dist.sigma for dist in dists], dtype=np.float64),
            )
        self._gaussian_cols[name] = result
        return result

    def moments(self, name: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Return ``(means, variances)`` columns for uncertain attribute ``name``.

        Returns ``None`` when any row lacks the attribute entirely or
        carries a non-scalar distribution (the caller decides how to
        promote or fail).  See :func:`summand_moments` for the gather.
        """
        cached = self._moment_cols.get(name, _UNSET)
        if cached is not _UNSET:
            return cached
        try:
            result = summand_moments([item.uncertain[name] for item in self._tuples])
        except KeyError:
            result = None
        self._moment_cols[name] = result
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TupleBatch(n={len(self._tuples)})"


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
        sizes = np.fromiter((m.weights.size for m in mixtures), np.intp, len(mixtures))
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
