"""Probabilistic window join over uncertain attributes.

Query Q2 joins the RFID location stream with a temperature stream on
``loc_equals(R.(x,y,z), T.(x,y,z))``.  Because both locations carry
uncertainty, the join predicate holds with some probability: the match
probability of two tuples.  The :class:`ProbabilisticJoin` operator
implements a symmetric sliding-window join that

* buffers each input in its own time window,
* evaluates the (possibly probabilistic) join predicate against every
  tuple of the opposite window within ``window_length`` of the new one,
* emits a merged tuple for every pair whose match probability clears a
  threshold, annotated with that probability, and
* records the union of the two lineages so downstream operators can
  detect correlation among join outputs sharing a base tuple
  (Section 5.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.distributions import Distribution, Gaussian, MultivariateGaussian, as_rng
from repro.streams.batch import TupleBatch
from repro.streams.operators.base import Operator, OperatorError
from repro.streams.tuples import StreamTuple

__all__ = [
    "match_probability_band",
    "location_equality_probability",
    "ProbabilisticJoin",
]


def match_probability_band(
    left: Distribution,
    right: Distribution,
    tolerance: float,
    n_samples: int = 256,
    rng=None,
) -> float:
    """Return ``P[|X_left - X_right| <= tolerance]`` for independent scalars.

    Gaussian/Gaussian pairs use the closed form (the difference of two
    independent Gaussians is Gaussian); any other combination falls back
    to Monte Carlo with ``n_samples`` paired draws.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if isinstance(left, Gaussian) and isinstance(right, Gaussian):
        diff = Gaussian(left.mu - right.mu, math.hypot(left.sigma, right.sigma))
        return diff.prob_in_interval(-tolerance, tolerance)
    rng = as_rng(rng)
    ls = np.asarray(left.sample(n_samples, rng=rng), dtype=float)
    rs = np.asarray(right.sample(n_samples, rng=rng), dtype=float)
    return float(np.mean(np.abs(ls - rs) <= tolerance))


def location_equality_probability(
    left: Distribution,
    right: Distribution,
    tolerance: float,
    n_samples: int = 256,
    rng=None,
) -> float:
    """Return the probability that two uncertain locations coincide.

    "Coincide" means every coordinate differs by at most ``tolerance``
    (the voxel / square-foot-area resolution of the application).  For
    multivariate Gaussians the per-axis marginals are combined assuming
    axis independence; otherwise Monte Carlo over joint samples is used.
    """
    if isinstance(left, MultivariateGaussian) and isinstance(right, MultivariateGaussian):
        if left.ndim != right.ndim:
            raise ValueError("location distributions must have matching dimension")
        prob = 1.0
        for axis in range(left.ndim):
            prob *= match_probability_band(left.marginal(axis), right.marginal(axis), tolerance)
        return prob
    if left.ndim == 1 and right.ndim == 1:
        return match_probability_band(left, right, tolerance, n_samples=n_samples, rng=rng)
    rng = as_rng(rng)
    ls = np.atleast_2d(np.asarray(left.sample(n_samples, rng=rng), dtype=float))
    rs = np.atleast_2d(np.asarray(right.sample(n_samples, rng=rng), dtype=float))
    if ls.shape != rs.shape:
        raise ValueError("sampled locations must have matching shapes")
    hits = np.all(np.abs(ls - rs) <= tolerance, axis=-1)
    return float(np.mean(hits))


@dataclass
class _WindowedInput:
    """Per-input sliding-window buffer for the symmetric join."""

    length: float
    items: List[StreamTuple]

    def insert(self, item: StreamTuple) -> None:
        self.items.append(item)

    def expire(self, now: float) -> None:
        cutoff = now - self.length
        self.items = [t for t in self.items if t.timestamp > cutoff]


class ProbabilisticJoin(Operator):
    """Symmetric sliding-window join with a probabilistic match predicate.

    The operator itself is single-input (to fit the push-based engine);
    use :meth:`left_port` and :meth:`right_port` to obtain the two input
    adapters and connect each upstream operator to the corresponding
    port.

    A pair matches when its timestamps lie less than ``window_length``
    apart; the merged tuple carries the later of the two.  Each input
    must arrive in timestamp order, but the two inputs may run ahead of
    each other: a buffered tuple is expired only once the *other* input
    has moved past its window, so the result does not depend on how
    the engine interleaves the two inputs (a batch reaches one port
    whole before the other port sees the same rows).  An input that
    stops delivering therefore holds the other input's buffer until it
    resumes.

    Parameters
    ----------
    window_length:
        Length (in seconds) of the sliding window kept for each input,
        mirroring ``[Range t seconds]`` in Q2.
    match_probability:
        Function ``(left_tuple, right_tuple) -> probability`` returning
        the probability that the join predicate holds.
    min_probability:
        Minimum match probability for a pair to be emitted.
    probability_attribute:
        Name of the deterministic attribute carrying the match
        probability in emitted tuples.
    prefix_left / prefix_right:
        Attribute-name prefixes applied when merging matched tuples.
    """

    def __init__(
        self,
        window_length: float,
        match_probability: Callable[[StreamTuple, StreamTuple], float],
        min_probability: float = 0.5,
        probability_attribute: str = "match_probability",
        prefix_left: str = "left_",
        prefix_right: str = "right_",
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if window_length <= 0:
            raise OperatorError("window_length must be positive")
        if not 0.0 <= min_probability <= 1.0:
            raise OperatorError("min_probability must lie in [0, 1]")
        self.window_length = float(window_length)
        self.match_probability = match_probability
        self.min_probability = min_probability
        self.probability_attribute = probability_attribute
        self.prefix_left = prefix_left
        self.prefix_right = prefix_right
        self._left = _WindowedInput(self.window_length, [])
        self._right = _WindowedInput(self.window_length, [])

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------
    def left_port(self) -> Operator:
        """Return the operator to connect the left (probe) input to."""
        return _JoinPort(self, side="left", name=f"{self.name}.left")

    def right_port(self) -> Operator:
        """Return the operator to connect the right (build) input to."""
        return _JoinPort(self, side="right", name=f"{self.name}.right")

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        # Tuples pushed directly into the join (not via a port) are
        # treated as left-input tuples for convenience.
        return TupleBatch([out for item in batch for out in self.process_side(item, "left")])

    def process_side(self, item: StreamTuple, side: str) -> Iterable[StreamTuple]:
        if side not in ("left", "right"):
            raise OperatorError(f"unknown join side {side!r}")
        own = self._left if side == "left" else self._right
        other = self._right if side == "left" else self._left
        now = item.timestamp
        # Later tuples on this input are no earlier than ``now``, so
        # nothing the other input holds from before ``now - length`` can
        # match again; this input's own buffer waits for the other one.
        other.expire(now)
        own.insert(item)
        for candidate in other.items:
            if candidate.timestamp - now >= self.window_length:
                continue  # delivered ahead of this input, outside the window
            left_item, right_item = (item, candidate) if side == "left" else (candidate, item)
            prob = self.match_probability(left_item, right_item)
            if prob < self.min_probability:
                continue
            merged = StreamTuple.merge(
                left_item,
                right_item,
                timestamp=max(now, candidate.timestamp),
                prefix_left=self.prefix_left,
                prefix_right=self.prefix_right,
            )
            yield merged.derive(values={self.probability_attribute: prob})

    def window_sizes(self) -> Tuple[int, int]:
        """Return the current (left, right) window sizes (for diagnostics)."""
        return (len(self._left.items), len(self._right.items))

    def state_snapshot(self) -> dict:
        # Window lengths are configuration; only the live window
        # contents (both build sides of the symmetric join) are state.
        return {"left": list(self._left.items), "right": list(self._right.items)}

    def state_restore(self, state: Optional[dict]) -> None:
        if state is None:
            raise OperatorError(f"{self.name!r} expected a join-window state")
        self._left.items = list(state["left"])
        self._right.items = list(state["right"])


class _JoinPort(Operator):
    """Adapter forwarding tuples into one side of a ProbabilisticJoin."""

    def __init__(self, join: ProbabilisticJoin, side: str, name: str):
        super().__init__(name=name)
        self._join = join
        self._side = side
        # Results must flow out of the join operator's connections, so the
        # port shares the join's downstream list by delegating emission.

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        # ``match_probability`` is an opaque per-pair callable, so the
        # rows run the join's insert-and-probe step one at a time.
        join, side = self._join, self._side
        join.tuples_in += len(batch)
        outputs = TupleBatch([out for item in batch for out in join.process_side(item, side)])
        join.tuples_out += len(outputs)
        return outputs

    def connect(self, downstream: Operator) -> Operator:
        raise OperatorError(
            "connect downstream operators to the ProbabilisticJoin itself, not to its ports"
        )

    @property
    def downstream(self):
        return self._join.downstream
