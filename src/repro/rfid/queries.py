"""The paper's example monitoring queries Q1 and Q2 over RFID streams.

Q1 (fire-code monitoring): per 5-second window, group objects by the
square-foot shelf area they are in and report areas whose total object
weight exceeds 200 pounds.  Because object locations are uncertain,
*group membership* is uncertain: each object belongs to each area with
some probability.  :class:`FireCodeMonitor` propagates that uncertainty
into a per-area total-weight distribution (a sum of independent
weight-scaled Bernoullis, approximated with a Gaussian via the CLT) and
applies the HAVING clause probabilistically.

Q2 (flammable-object alerts): join the object-location stream with a
temperature stream on probabilistic location equality, keeping
flammable objects and temperatures above 60 degrees C.
:func:`build_flammable_alert_join` wires the corresponding plan from
the generic core operators.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core import (
    Comparison,
    ProbabilisticJoin,
    ProbabilisticSelect,
    UncertainPredicate,
    match_probability_band,
)
from repro.distributions import Distribution, Gaussian
from repro.distributions.gaussian import gaussian_cdf
from repro.streams import Filter, StreamTuple, TumblingTimeWindow, TupleBatch, WindowBuffer
from repro.streams.operators.base import Operator, OperatorError

__all__ = [
    "area_membership_probabilities",
    "FireCodeMonitor",
    "build_flammable_alert_join",
]


def area_membership_probabilities(
    x_dist: Distribution,
    y_dist: Distribution,
    cell_size: float,
    min_probability: float = 1e-3,
) -> Dict[Tuple[int, int], float]:
    """Return the probability that a location falls in each grid cell.

    Cells are axis-aligned squares of side ``cell_size`` (the "square
    foot of shelf area" in Q1 for ``cell_size=1``).  Assuming the x and
    y marginals are independent (which holds for the per-axis
    compressed distributions emitted by the T operator), the cell
    probability factorises into a product of interval probabilities.
    Cells with probability below ``min_probability`` are dropped.
    This is the one-item case of the Q1 window kernel.
    """
    _, ix, iy, prob = _cell_memberships([x_dist], [y_dist], cell_size, min_probability)
    return dict(zip(zip(ix.tolist(), iy.tolist()), prob.tolist()))


def _marginal_cells(
    dists: Sequence[Distribution], cell_size: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every marginal's grid cells along its own axis, with their probabilities.

    Marginal ``i`` covers the cells its ``support()`` touches.  Their
    edges are laid back to back in one ragged array, a segment of
    ``cells + 1`` edges per marginal.  Gaussian marginals are evaluated
    in one :func:`gaussian_cdf` call, any other marginal with one
    ``cdf`` call over its own segment; differencing inside each segment
    gives the cell probabilities.  Returns flat ``(owner, cells,
    probs)`` arrays, one entry per cell in marginal order, plus the
    cell count of every marginal.
    """
    bounds = np.array([dist.support() for dist in dists], dtype=float)
    if not np.isfinite(bounds).all():
        raise ValueError("area membership needs distributions with finite support")
    first = np.floor(bounds[:, 0] / cell_size).astype(np.int64)
    counts = np.floor(bounds[:, 1] / cell_size).astype(np.int64) - first + 1
    edge_ends = np.cumsum(counts + 1)
    edge_starts = edge_ends - (counts + 1)
    edge_index = np.repeat(first - edge_starts, counts + 1) + np.arange(edge_ends[-1])
    edges = edge_index * cell_size
    params = np.array(
        [(d.mu, d.sigma) if isinstance(d, Gaussian) else (0.0, 1.0) for d in dists]
    )
    cdf = gaussian_cdf(
        edges, np.repeat(params[:, 0], counts + 1), np.repeat(params[:, 1], counts + 1)
    )
    for i, dist in enumerate(dists):
        if not isinstance(dist, Gaussian):
            cdf[edge_starts[i] : edge_ends[i]] = dist.cdf(edges[edge_starts[i] : edge_ends[i]])
    # A cell's left edge: each marginal before it adds one trailing edge.
    owner = np.repeat(np.arange(len(dists)), counts)
    left = np.arange(owner.size) + owner
    return owner, edge_index[left], cdf[left + 1] - cdf[left], counts


def _cell_memberships(
    x_dists: Sequence[Distribution],
    y_dists: Sequence[Distribution],
    cell_size: float,
    min_probability: float = 1e-3,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grid-cell membership of many uncertain locations at once.

    Item ``i`` is located by the independent marginals ``x_dists[i]``
    and ``y_dists[i]``; there is at least one item.  Returns flat
    arrays ``(item, ix, iy, prob)``, one entry per kept (item, cell)
    pair in item order, then ``ix``, then ``iy``.  An x cell below ``min_probability`` is dropped before
    pairing and a pair below it after, as in the per-cell definition;
    for Gaussian marginals every probability is bit-identical to the
    product of two ``prob_in_interval`` calls.
    """
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    n = len(x_dists)
    owner, cells, probs, counts = _marginal_cells(
        list(x_dists) + list(y_dists), float(cell_size)
    )
    n_x = int(counts[:n].sum())
    x_item, x_cells, px = owner[:n_x], cells[:n_x], probs[:n_x]
    y_counts, y_cells, py = counts[n:], cells[n_x:], probs[n_x:]
    keep = ~(px < min_probability)
    x_item, x_cells, px = x_item[keep], x_cells[keep], px[keep]
    # Pair every kept x cell with all of its item's y cells.
    reps = y_counts[x_item]
    pair_ends = np.cumsum(reps)
    y_starts = np.cumsum(y_counts) - y_counts
    y_row = np.repeat(y_starts[x_item] - (pair_ends - reps), reps) + np.arange(reps.sum())
    prob = np.repeat(px, reps) * py[y_row]
    keep = prob >= min_probability
    item = np.repeat(x_item, reps)[keep]
    return item, np.repeat(x_cells, reps)[keep], y_cells[y_row][keep], prob[keep]


class FireCodeMonitor(Operator):
    """Q1: per-window, per-area total-weight monitoring under uncertainty.

    Parameters
    ----------
    window_length:
        The outer query window (5 seconds in the paper).
    weight_of:
        Lookup ``tag_id -> weight`` in pounds (the ``weight(R.tag_id)``
        function of Q1).
    cell_size:
        Side of the square area cells in feet.
    weight_limit:
        The fire-code threshold (200 pounds in the paper).
    min_violation_probability:
        Report an area only if the probability that its total weight
        exceeds the limit is at least this value.
    dedupe_per_window:
        Objects can be reported several times inside one window (once
        per scan); when True only the latest tuple per object in the
        window contributes.
    """

    def __init__(
        self,
        weight_of: Callable[[str], float],
        window_length: float = 5.0,
        cell_size: float = 1.0,
        weight_limit: float = 200.0,
        min_violation_probability: float = 0.5,
        dedupe_per_window: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if weight_limit <= 0:
            raise OperatorError("weight_limit must be positive")
        if not 0.0 <= min_violation_probability <= 1.0:
            raise OperatorError("min_violation_probability must lie in [0, 1]")
        self.weight_of = weight_of
        self.cell_size = cell_size
        self.weight_limit = weight_limit
        self.min_violation_probability = min_violation_probability
        self.dedupe_per_window = dedupe_per_window
        self._window = TumblingTimeWindow(window_length)
        self._buffer: WindowBuffer = self._window.new_buffer()

    def _window_results(self, close) -> Iterable[StreamTuple]:
        items = list(close.items)
        if not items:
            return
        if self.dedupe_per_window:
            latest: Dict[str, StreamTuple] = {}
            for item in items:
                latest[item.value("tag_id")] = item
            items = list(latest.values())

        # Aggregate each area's total weight as a sum of independent
        # weight-scaled Bernoulli memberships; approximate with a
        # Gaussian via the CLT (mean = sum w_i p_i, var = sum w_i^2 p_i (1 - p_i)).
        weights = [float(self.weight_of(item.value("tag_id"))) for item in items]
        owner, ix, iy, prob = _cell_memberships(
            [item.distribution("x") for item in items],
            [item.distribution("y") for item in items],
            self.cell_size,
        )
        if not prob.size:
            return
        weight = np.array(weights)[owner]
        weight_sq = np.array([w ** 2 for w in weights])[owner]
        span = int(iy.max() - iy.min()) + 1
        keys = (ix - ix.min()) * span + (iy - iy.min())
        _, first, area_of = np.unique(keys, return_index=True, return_inverse=True)
        # bincount adds each area's terms in item order, as a running sum would.
        means = np.bincount(area_of, weights=weight * prob)
        variances = np.bincount(area_of, weights=weight_sq * prob * (1.0 - prob))
        sigmas = np.sqrt(np.maximum(variances, 1e-12))
        violation = 1.0 - gaussian_cdf(self.weight_limit, means, sigmas)

        for a in np.flatnonzero(~(violation < self.min_violation_probability)).tolist():
            mean, sigma = float(means[a]), float(sigmas[a])
            members = np.unique(owner[area_of == a]).tolist()
            yield StreamTuple(
                timestamp=close.end,
                values={
                    "area": (int(ix[first[a]]), int(iy[first[a]])),
                    "window_start": close.start,
                    "window_end": close.end,
                    "violation_probability": float(violation[a]),
                    "total_weight_mean": mean,
                },
                uncertain={"total_weight": Gaussian(mean, sigma)},
                lineage=frozenset().union(*(items[k].lineage for k in members)),
            )

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        add, results = self._buffer.add, self._window_results
        return TupleBatch([out for item in batch for close in add(item) for out in results(close)])

    def flush(self) -> Iterable[StreamTuple]:
        for close in self._buffer.flush():
            yield from self._window_results(close)


def build_flammable_alert_join(
    object_type_of: Callable[[str], str],
    temperature_threshold: float = 60.0,
    location_tolerance: float = 2.0,
    window_length: float = 3.0,
    min_match_probability: float = 0.25,
    min_temperature_probability: float = 0.5,
) -> Tuple[Operator, Operator, ProbabilisticJoin]:
    """Build the Q2 plan and return ``(rfid_entry, temperature_entry, join)``.

    The RFID side filters to flammable objects (a deterministic
    predicate on ``object_type(tag_id)``); the temperature side applies
    the probabilistic ``temp > 60`` selection; the two sides meet in a
    sliding-window probabilistic join on location equality within
    ``location_tolerance`` feet.  Connect downstream consumers to the
    returned join operator.
    """
    flammable_filter = Filter(
        lambda item: object_type_of(item.value("tag_id")) == "flammable",
        name="Q2.flammable_filter",
    )
    temperature_select = ProbabilisticSelect(
        UncertainPredicate("temp", Comparison.GREATER, temperature_threshold),
        min_probability=min_temperature_probability,
        name="Q2.temp_select",
    )

    def match_probability(left: StreamTuple, right: StreamTuple) -> float:
        px = match_probability_band(
            left.distribution("x"), right.distribution("x"), location_tolerance
        )
        py = match_probability_band(
            left.distribution("y"), right.distribution("y"), location_tolerance
        )
        return px * py

    join = ProbabilisticJoin(
        window_length=window_length,
        match_probability=match_probability,
        min_probability=min_match_probability,
        prefix_left="obj_",
        prefix_right="temp_",
        name="Q2.location_join",
    )
    flammable_filter.connect(join.left_port())
    temperature_select.connect(join.right_port())
    return flammable_filter, temperature_select, join
