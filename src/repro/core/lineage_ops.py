"""Lineage-aware computation of result distributions.

Section 5.2: intermediate tuples produced by a join can be *correlated*
because a single input tuple matched several tuples from the other
stream.  Aggregating such tuples as if independent understates the
result variance.  The paper's remedy is lineage: intermediate tuples
carry the identifiers of the independent base tuples they derive from,
the base tuples are archived, and the final operator recomputes exact
(or well-approximated) result distributions from that joint structure.

:func:`lineage_aware_sum` implements that final-operator computation
for SUM: tuples are partitioned into correlation groups (connected
components of shared lineage); independent groups are combined with the
fast CF machinery, while each correlated group is evaluated jointly by
Monte-Carlo over its *base* tuples, which captures the correlation
induced by reuse of a base tuple in several intermediate tuples.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.distributions import Distribution, DistributionError, Gaussian, as_rng, fit_gaussian
from repro.streams.lineage import TupleArchive, correlation_groups
from repro.streams.tuples import StreamTuple

from .aggregation.strategies import CFApproximationSum, SumStrategy

__all__ = ["lineage_aware_sum", "group_contribution_samples"]


def group_contribution_samples(
    group: Sequence[StreamTuple],
    attribute: str,
    archive: TupleArchive,
    contribution: Callable[[StreamTuple, Dict[int, float]], float],
    n_samples: int,
    rng,
) -> np.ndarray:
    """Sample the total contribution of one correlated group.

    For every Monte-Carlo iteration, each *base* tuple referenced by the
    group is sampled exactly once; every intermediate tuple's
    contribution is then computed from those shared base samples via the
    ``contribution`` callback, which receives the intermediate tuple and
    a mapping ``base tuple id -> sampled value``.  Sharing base samples
    across intermediate tuples is what reproduces the correlation.
    """
    rng = as_rng(rng)
    base_ids = sorted(set().union(*(t.lineage for t in group)))
    base_samples: Dict[int, np.ndarray] = {}
    for base_id in base_ids:
        base = archive.get(base_id)
        if base.has_uncertain(attribute):
            base_samples[base_id] = np.asarray(
                base.distribution(attribute).sample(n_samples, rng=rng), dtype=float
            )
        else:
            value = float(base.value(attribute))
            base_samples[base_id] = np.full(n_samples, value)
    totals = np.zeros(n_samples)
    for i in range(n_samples):
        assignment = {base_id: float(samples[i]) for base_id, samples in base_samples.items()}
        totals[i] += sum(contribution(member, assignment) for member in group)
    return totals


def _default_contribution(attribute: str) -> Callable[[StreamTuple, Dict[int, float]], float]:
    """Default contribution: sum of the sampled base values in the lineage.

    This matches the common case where an intermediate tuple's uncertain
    attribute is (a copy of) a base tuple's attribute, e.g. a join
    output that carries forward the temperature of the matched base
    tuple.
    """

    def contribution(item: StreamTuple, assignment: Dict[int, float]) -> float:
        return sum(assignment[base_id] for base_id in item.lineage)

    return contribution


def lineage_aware_sum(
    items: Sequence[StreamTuple],
    attribute: str,
    archive: TupleArchive,
    independent_strategy: Optional[SumStrategy] = None,
    contribution: Optional[Callable[[StreamTuple, Dict[int, float]], float]] = None,
    n_samples: int = 2048,
    rng=None,
) -> Distribution:
    """Compute the SUM result distribution for possibly-correlated tuples.

    Parameters
    ----------
    items:
        The intermediate tuples to aggregate.
    attribute:
        The attribute being summed (looked up on base tuples for
        correlated groups and on the intermediate tuples for
        independent ones).
    archive:
        Archive resolving base tuple ids to base tuples.
    independent_strategy:
        Strategy used for the fully independent part (default: CF
        approximation).
    contribution:
        Optional override of how an intermediate tuple's contribution is
        computed from sampled base values.
    n_samples:
        Monte-Carlo sample count for correlated groups.
    """
    items = list(items)
    if not items:
        raise DistributionError("cannot aggregate an empty tuple set")
    independent_strategy = independent_strategy or CFApproximationSum()
    contribution = contribution or _default_contribution(attribute)
    rng = as_rng(rng)

    groups = correlation_groups(items)
    independent_summands: List[Distribution] = []
    correlated_totals: Optional[np.ndarray] = None

    for group in groups:
        if len(group) == 1:
            item = group[0]
            if item.has_uncertain(attribute):
                independent_summands.append(item.distribution(attribute))
            else:
                independent_summands.append(Gaussian(float(item.value(attribute)), 1e-9))
            continue
        totals = group_contribution_samples(
            group, attribute, archive, contribution, n_samples, rng
        )
        correlated_totals = totals if correlated_totals is None else correlated_totals + totals

    if correlated_totals is None:
        return independent_strategy.result_distribution(independent_summands)
    if independent_summands:
        independent_part = independent_strategy.result_distribution(independent_summands)
        correlated_totals = correlated_totals + np.asarray(
            independent_part.sample(n_samples, rng=rng), dtype=float
        )
    # Summarise the joint samples; a Gaussian fit keeps the result cheap
    # for further propagation, while a histogram would also be valid.
    if correlated_totals.std() < 1e-12:
        return Gaussian(float(correlated_totals.mean()), 1e-9)
    return fit_gaussian(correlated_totals, None)
