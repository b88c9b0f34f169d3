"""The one access-path planner: bound predicates to the blocks a select reads.

Every read that picks blocks — :meth:`Table.select`,
:meth:`TableSnapshot.select`, :func:`~repro.db.aggregates.aggregate`,
the index join's probe, ``repro query`` and :meth:`Table.explain` —
asks :func:`plan`.  The rules, in order:

1. a predicate on the *leading* attribute takes the clustered cut of
   the block directory ("primary"): the relation is phi-clustered, so
   its matches are one contiguous run of blocks;
2. otherwise the value index with the smallest exact candidate set
   wins — a hash index (equality only) or a secondary index, tried in
   predicate order, the hash index first on a tie ("hash:X",
   "secondary:X");
3. otherwise every block ("scan").

The directory is whatever the caller reads: the live file's, a
snapshot's frozen one, a heap table's or a container header's.  The cut
is :meth:`~repro.storage.directory.BlockDirectory.cover`: every block
whose ``[first, last]`` overlaps the range, including one that ends
where a run of one tuple straddles into the next — the exact cover
Figure 5.8 counts.  A snapshot passes no value indexes, because they
track the live state.

:func:`explain` lists every applicable path with its exact ``N`` and
its Equation 5.7 price ``C = I + N (t1 + t_cpu)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Union

from repro.core.phi import OrdinalMapper
from repro.db.query import BoundPredicate, RangeQuery, leading_ordinal_range
from repro.index.hashindex import ExtendibleHashIndex
from repro.index.secondary import SecondaryIndex
from repro.storage.directory import BlockDirectory

__all__ = [
    "AccessPlan",
    "Explain",
    "ValueIndex",
    "explain",
    "plan",
]

ValueIndex = Union[ExtendibleHashIndex, SecondaryIndex]


class AccessPlan(NamedTuple):
    """One access path and the blocks it reads."""

    path: str  # "primary" | "secondary:X" | "hash:X" | "scan"
    block_ids: List[int]
    #: The leading-attribute predicate the primary cut was taken for;
    #: the block loop slices each block by it.  ``None`` on other paths.
    leading: Optional[BoundPredicate]


def plan(
    bound: Sequence[BoundPredicate],
    mapper: OrdinalMapper,
    directory: BlockDirectory,
    indexes: Sequence[ValueIndex] = (),
) -> AccessPlan:
    """The path a select takes: the first rule that applies.

    ``indexes`` lists hash indexes before secondary indexes, so a hash
    probe wins a tie on the same attribute.
    """
    leading = next((b for b in bound if b[0] == 0), None)
    if leading is not None:
        return _primary(mapper, directory, leading)
    probes = _index_plans(bound, directory, indexes)
    if probes:
        return min(probes, key=lambda p: len(p.block_ids))
    return _scan(directory)


def _primary(
    mapper: OrdinalMapper, directory: BlockDirectory, leading: BoundPredicate
) -> AccessPlan:
    lo, hi = leading_ordinal_range(mapper, leading[1], leading[2])
    cover = directory.cover(lo, hi)
    block_ids = list(directory.ids[cover.start : cover.stop])
    return AccessPlan("primary", block_ids, leading)


def _index_plans(
    bound: Sequence[BoundPredicate],
    directory: BlockDirectory,
    indexes: Sequence[ValueIndex],
) -> List[AccessPlan]:
    """One probe per applicable index, in predicate then index order.

    An index lists a value's blocks by id; each plan reads them in
    directory order, so its rows come back in phi order like every
    other path's, even after splits put higher ids mid-file.
    """
    plans = []
    for pos, lo, hi in bound:
        for index in indexes:
            if index.position != pos:
                continue
            if isinstance(index, ExtendibleHashIndex):
                if lo == hi:
                    plans.append(
                        AccessPlan(
                            f"hash:{index.attribute}", index.lookup(lo), None
                        )
                    )
            else:
                plans.append(
                    AccessPlan(
                        f"secondary:{index.attribute}",
                        index.range_lookup(lo, hi),
                        None,
                    )
                )
    if not plans:
        return plans
    rank = {block_id: i for i, block_id in enumerate(directory.ids)}
    return [
        p._replace(block_ids=sorted(p.block_ids, key=rank.__getitem__))
        for p in plans
    ]


def _scan(directory: BlockDirectory) -> AccessPlan:
    return AccessPlan("scan", list(directory.ids), None)


@dataclass(frozen=True)
class Explain:
    """EXPLAIN: every applicable path, its exact ``N`` and its price.

    ``plans`` are listed cheapest first; ``chosen`` indexes the one
    :func:`plan` picks, which the rules choose, not the price.
    """

    query: RangeQuery
    plans: List[AccessPlan]
    costs_ms: List[float]
    chosen: int

    def __str__(self) -> str:
        lines = [f"EXPLAIN {self.query!r}"]
        for i, (p, cost) in enumerate(zip(self.plans, self.costs_ms)):
            marker = "->" if i == self.chosen else "  "
            lines.append(
                f"  {marker} {p.path:<20s} N = {len(p.block_ids):6d}   "
                f"C = {cost:10.1f} ms"
            )
        return "\n".join(lines)


def explain(
    query: RangeQuery,
    bound: Sequence[BoundPredicate],
    mapper: OrdinalMapper,
    directory: BlockDirectory,
    indexes: Sequence[ValueIndex] = (),
    *,
    compressed: bool,
) -> Explain:
    """Every applicable path, priced as :func:`simulate_workload` would.

    ``t_cpu`` is the HP 9000/735's ``t2`` for a compressed table and
    its ``t3`` for a heap table.  A scan reads no index, so its ``I`` is
    zero; every other path pays the paper's index search time.
    """
    # Imported here: repro.perf imports the db layer.
    from repro.perf.costmodel import index_search_time_s, response_time_s
    from repro.perf.machines import HP_9000_735

    chosen = plan(bound, mapper, directory, indexes)
    leading = next((b for b in bound if b[0] == 0), None)
    plans = (
        [_primary(mapper, directory, leading)] if leading is not None else []
    )
    plans += _index_plans(bound, directory, indexes)
    plans.append(_scan(directory))
    t_cpu = HP_9000_735.t2_ms if compressed else HP_9000_735.t3_ms
    index_s = index_search_time_s(len(directory))

    def cost_ms(p: AccessPlan) -> float:
        i_s = 0.0 if p.path == "scan" else index_s
        return 1000.0 * response_time_s(
            i_s, len(p.block_ids), cpu_ms_per_block=t_cpu
        )

    # Sorting is stable: equal prices keep rule order.
    ranked = sorted(plans, key=cost_ms)
    return Explain(
        query=query,
        plans=ranked,
        costs_ms=[cost_ms(p) for p in ranked],
        chosen=ranked.index(chosen),
    )
