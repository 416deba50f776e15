"""Partial-state merge for distributed windowed aggregation.

The distribution layer makes shard-local aggregation *mergeable*: for
independent summands the first two cumulants of a sum are additive, so
a SUM computed as ``S = S_1 + ... + S_k`` over disjoint shards has
exactly the moments of the single-engine SUM over the whole window.
The moment-closed strategies (single-component CF approximation, CLT)
build their result distribution from those two moments alone, which
means per-shard partial results merge **exactly** — not approximately —
into the global result:

* **SUM** — each shard emits the partial sum's distribution; the merged
  result is ``strategy.result_from_moments(sum of means, sum of
  variances)``, bit-for-bit the arithmetic the single engine runs.
* **AVG** — shards emit partial *sums* plus their window counts; the
  merged average is the merged sum scaled by ``1 / total count``.
* **COUNT** — integer partials add.
* **Gaussian-mixture partials** — when a shard-local strategy produced
  a mixture, the sum of independent partials is the pairwise mixture
  convolution (closed form: weights multiply, means add, variances
  add).  This is exact *as a convolution of the partials*, though not
  identical to fitting one mixture to the full window's product CF.

Correctness requires the shards to be **independent**: the partials'
lineage sets must be disjoint, mirroring the per-window independence
check of :class:`~repro.core.aggregation.operator.UncertainAggregate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.distributions import Distribution, Gaussian, GaussianMixture
from repro.streams.lineage import lineage_union
from repro.streams.operators.base import OperatorError
from repro.streams.tuples import StreamTuple

from .operator import HavingClause, _result_tuple_from_parts
from .strategies import SumStrategy
from .transforms import affine_distribution

__all__ = [
    "MergeError",
    "WindowPartial",
    "extract_partial",
    "merge_sum_distributions",
    "merge_window_partials",
    "MERGEABLE_FUNCTIONS",
]

#: Aggregate functions whose partial windows merge exactly across shards.
MERGEABLE_FUNCTIONS = ("sum", "avg", "count")


class MergeError(OperatorError):
    """Raised when shard partials cannot be merged soundly."""


@dataclass(frozen=True)
class WindowPartial:
    """One shard's contribution to a window: the mergeable state.

    ``result`` is the partial SUM distribution for ``sum``/``avg``
    aggregates (AVG partials are shipped as sums and scaled only after
    the counts are known) or the partial count for ``count``.
    """

    window_start: float
    window_end: float
    count: int
    result: Union[Distribution, int]
    lineage: FrozenSet[int]
    group: Optional[Hashable] = None

    @property
    def key(self) -> Tuple[float, float, Optional[Hashable]]:
        """Merge key: partials with equal keys belong to one window."""
        return (self.window_start, self.window_end, self.group)


def extract_partial(
    item: StreamTuple, result_attribute: str, grouped: bool = False
) -> WindowPartial:
    """Read a partial-aggregate result tuple back into mergeable state."""
    try:
        start = item.value("window_start")
        end = item.value("window_end")
        count = item.value("window_count")
    except KeyError as exc:
        raise MergeError(
            f"partial result tuple is missing window bounds: {exc}"
        ) from exc
    if item.has_uncertain(result_attribute):
        result: Union[Distribution, int] = item.distribution(result_attribute)
    elif item.has_value(result_attribute):
        result = item.value(result_attribute)
    else:
        raise MergeError(
            f"partial result tuple carries no attribute {result_attribute!r}"
        )
    group: Optional[Hashable] = None
    if grouped:
        try:
            group = item.value("group")
        except KeyError as exc:
            raise MergeError("grouped partial is missing its 'group' value") from exc
    return WindowPartial(
        window_start=start,
        window_end=end,
        count=int(count),
        result=result,
        lineage=item.lineage,
        group=group,
    )


def merge_sum_distributions(
    partials: Sequence[Distribution], strategy: Optional[SumStrategy] = None
) -> Distribution:
    """Merge independent partial-SUM distributions into the global SUM.

    With a moment-closed ``strategy`` the merge reproduces the single
    engine's arithmetic (two moment sums, one ``result_from_moments``
    call).  Mixture partials fall back to exact pairwise convolution.
    Anything else is refused: silently approximating here would make
    sharded and single-engine results diverge without warning.
    """
    partials = list(partials)
    if not partials:
        raise MergeError("cannot merge an empty set of partial sums")
    if len(partials) == 1:
        return partials[0]
    if any(isinstance(p, GaussianMixture) for p in partials):
        if not all(isinstance(p, (Gaussian, GaussianMixture)) for p in partials):
            raise MergeError(
                "mixture partials can only be merged with Gaussian or mixture partials"
            )
        merged = None
        for part in partials:
            mixture = (
                part
                if isinstance(part, GaussianMixture)
                else GaussianMixture.single(part)
            )
            merged = mixture if merged is None else merged.convolve(mixture)
        return merged
    mean = float(sum(float(np.asarray(p.mean()).ravel()[0]) for p in partials))
    variance = float(sum(float(np.asarray(p.variance()).ravel()[0]) for p in partials))
    if strategy is not None and strategy.supports_moments:
        return strategy.result_from_moments(mean, variance)
    if all(isinstance(p, Gaussian) for p in partials):
        if variance <= 0:
            raise MergeError("merged partial sums have non-positive total variance")
        return Gaussian(mean, float(np.sqrt(variance)))
    raise MergeError(
        "cannot merge partial sums of types "
        f"{sorted({type(p).__name__ for p in partials})} without a moment-closed strategy"
    )


def merge_window_partials(
    partials: Sequence[WindowPartial],
    function: str,
    output_attribute: str,
    strategy: Optional[SumStrategy] = None,
    having: Optional[HavingClause] = None,
    check_independence: bool = True,
) -> Optional[StreamTuple]:
    """Merge one window's shard partials into the final result tuple.

    Returns ``None`` when a HAVING clause filters the merged result
    out, mirroring the single-engine emission.  All partials must refer
    to the same window (and group); the caller groups them by
    :attr:`WindowPartial.key`.
    """
    partials = list(partials)
    if not partials:
        raise MergeError("cannot merge an empty set of window partials")
    if function not in MERGEABLE_FUNCTIONS:
        raise MergeError(
            f"aggregate function {function!r} does not merge across shards "
            f"(mergeable: {MERGEABLE_FUNCTIONS})"
        )
    first = partials[0]
    for other in partials[1:]:
        if other.key != first.key:
            raise MergeError(
                f"cannot merge partials of different windows: {other.key} vs {first.key}"
            )
    lineage, disjoint = lineage_union(partials)
    if check_independence and not disjoint:
        raise MergeError(
            "shard partials share lineage: the shards are not independent, so "
            "their partial aggregates cannot be merged (disable "
            "check_independence to override)"
        )
    count = sum(p.count for p in partials)

    result: Union[Distribution, int]
    if function == "count":
        result = sum(int(p.result) for p in partials)
    else:
        distributions = []
        for p in partials:
            if not isinstance(p.result, Distribution):
                raise MergeError(
                    f"{function} partial carries a non-distribution result "
                    f"({type(p.result).__name__})"
                )
            distributions.append(p.result)
        result = merge_sum_distributions(distributions, strategy)
        if function == "avg":
            result = affine_distribution(result, scale=1.0 / count)
    return _result_tuple_from_parts(
        first.window_start,
        first.window_end,
        result,
        count,
        lineage,
        output_attribute,
        group_key=first.group,
        having=having,
    )
