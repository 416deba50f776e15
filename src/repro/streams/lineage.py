"""Lineage tracking and archival of base tuples.

Section 5.2: when an intermediate operator may produce *correlated*
output tuples (e.g. a join matching one tuple against several others),
each output tuple carries its lineage -- the set of independent base
tuples it was derived from -- instead of a pre-computed distribution.
The last operator in the plan then uses the lineage together with an
archive of the independent base tuples to compute exact result
distributions, applying shared computation across tuples with
overlapping lineage.

This module provides the archive and the correlation analysis helpers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .tuples import StreamTuple, TupleId

__all__ = ["TupleArchive", "correlation_groups", "are_independent", "lineage_union"]


class TupleArchive:
    """An archive of independent base tuples keyed by tuple id.

    Operators whose inputs are independent archive them here (the "A4"
    box in Figure 2 of the paper) so that a downstream operator can
    later reconstruct joint distributions from lineage.  The archive
    supports eviction by watermark so that it does not grow without
    bound in long-running streams.
    """

    def __init__(self) -> None:
        self._tuples: Dict[TupleId, StreamTuple] = {}

    def archive(self, item: StreamTuple) -> None:
        """Store a base tuple (overwrites any previous tuple with the same id)."""
        self._tuples[item.tuple_id] = item

    def archive_many(self, items: Iterable[StreamTuple]) -> None:
        for item in items:
            self.archive(item)

    def get(self, tuple_id: TupleId) -> StreamTuple:
        """Return an archived tuple, raising ``KeyError`` if unknown."""
        return self._tuples[tuple_id]

    def resolve(self, lineage: Iterable[TupleId]) -> List[StreamTuple]:
        """Return the archived base tuples for a lineage set.

        Raises ``KeyError`` if any referenced base tuple has not been
        archived (or has been evicted), which indicates either a plan
        wiring bug or an eviction horizon that is too aggressive.
        """
        return [self._tuples[tid] for tid in sorted(lineage)]

    def __contains__(self, tuple_id: TupleId) -> bool:
        return tuple_id in self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def evict_older_than(self, watermark: float) -> int:
        """Drop tuples with ``timestamp < watermark``; return how many were dropped."""
        stale = [tid for tid, item in self._tuples.items() if item.timestamp < watermark]
        for tid in stale:
            del self._tuples[tid]
        return len(stale)

    def clear(self) -> None:
        self._tuples.clear()


def are_independent(items: Sequence[StreamTuple]) -> bool:
    """Return True when no two tuples share lineage.

    Aggregating tuples that share a base tuple as if they were
    independent would understate (or overstate) the result variance;
    operators use this check to decide between the fast independent
    path and the lineage-aware path.
    """
    return lineage_union(items)[1]


def lineage_union(items: Iterable) -> Tuple[FrozenSet[TupleId], bool]:
    """Return the union of the items' ``lineage`` sets and whether they are disjoint.

    The sets are disjoint -- no two items share a base tuple -- exactly
    when ``|union| == sum of |lineage|``.  ``items`` are tuples or
    anything else carrying a ``lineage`` set (e.g. shard partials).
    """
    lineages = [item.lineage for item in items]
    union = frozenset().union(*lineages)
    return union, len(union) == sum(map(len, lineages))


def correlation_groups(items: Sequence[StreamTuple]) -> List[List[StreamTuple]]:
    """Partition tuples into groups connected by shared lineage.

    Tuples in different groups are mutually independent; tuples within
    a group may be correlated.  The last operator in a plan can use the
    fast independent-variable techniques *across* groups and the exact
    joint computation *within* each group, exactly the optimisation
    sketched in Section 5.2.
    """
    # Union-find over tuples, linking tuples that share any base id.
    parent: Dict[int, int] = {i: i for i in range(len(items))}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    owner_of_base: Dict[TupleId, int] = {}
    for idx, item in enumerate(items):
        for base in item.lineage:
            if base in owner_of_base:
                union(owner_of_base[base], idx)
            else:
                owner_of_base[base] = idx

    groups: Dict[int, List[StreamTuple]] = {}
    for idx, item in enumerate(items):
        groups.setdefault(find(idx), []).append(item)
    return list(groups.values())
