"""Equi-joins over compressed tables.

"Standard database operations" (the paper's Section 4 promise) includes
joins.  Two classic algorithms are provided, both operating directly on
AVQ-coded storage — blocks decode on demand, never the whole relation
at once:

* :func:`index_nested_loop_join` — scan the outer table block by block;
  for each distinct outer join value, plan the inner read with the
  inner table's planner (its secondary or hash index on the join
  attribute, or the clustered cut when that attribute leads) and read
  only matching blocks.  The right choice when the inner table is
  indexed and the outer side is small or filtered.
* :func:`block_nested_loop_join` — for each outer block, scan the inner
  table once, joining in memory.  No index needed; ``O(B_outer *
  B_inner)`` block reads, which the result's counters make visible.

Every block is read through its table's block loop
(``Table._read_blocks``): checksum, quarantine and the degraded-read
policy apply as for a select, except that a quarantined block raises
under every policy, because a join result cannot name what it left
out.  Results are ordinal tuples ``outer + inner`` over a combined
schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.db.planner import plan
from repro.db.query import BoundPredicate
from repro.db.table import Table
from repro.errors import QueryError
from repro.relational.schema import Attribute, Schema

__all__ = ["JoinResult", "index_nested_loop_join", "block_nested_loop_join"]


@dataclass
class JoinResult:
    """Joined tuples plus access statistics."""

    schema: Schema
    tuples: List[Tuple[int, ...]]
    outer_blocks_read: int
    inner_blocks_read: int
    index_probes: int
    algorithm: str

    @property
    def cardinality(self) -> int:
        """Number of joined rows."""
        return len(self.tuples)


def _combined_schema(outer: Table, inner: Table) -> Schema:
    attrs = []
    for a in outer.schema.attributes:
        attrs.append(Attribute(f"{outer.name}.{a.name}", a.domain))
    for a in inner.schema.attributes:
        attrs.append(Attribute(f"{inner.name}.{a.name}", a.domain))
    return Schema(attrs)


def _check_join_compatible(
    outer: Table, outer_attr: str, inner: Table, inner_attr: str
) -> Tuple[int, int]:
    opos = outer.schema.position(outer_attr)
    ipos = inner.schema.position(inner_attr)
    osize = outer.schema.domain_sizes[opos]
    isize = inner.schema.domain_sizes[ipos]
    if osize != isize:
        raise QueryError(
            f"join attributes have different domain sizes: "
            f"{outer_attr}({osize}) vs {inner_attr}({isize}); ordinal "
            "equality would not mean value equality"
        )
    return opos, ipos


def _read(
    table: Table,
    block_ids: Sequence[int],
    bound: Sequence[BoundPredicate] = (),
    leading: Optional[BoundPredicate] = None,
) -> List[Tuple[int, ...]]:
    """The matching rows of ``block_ids``, through the block loop."""
    return table._read_blocks(
        block_ids, table._current_payload, bound, leading, allow_skip=False
    ).rows


def _outer_blocks(
    outer: Table, opos: int
) -> Iterator[Dict[int, List[Tuple[int, ...]]]]:
    """Each outer block's tuples, grouped by join value."""
    for block_id in outer.storage.block_ids:
        by_value: Dict[int, List[Tuple[int, ...]]] = {}
        for t in _read(outer, [block_id]):
            by_value.setdefault(t[opos], []).append(t)
        yield by_value


def index_nested_loop_join(
    outer: Table,
    outer_attr: str,
    inner: Table,
    inner_attr: str,
) -> JoinResult:
    """Equi-join probing the inner table's index per outer tuple.

    The inner table must have a secondary or hash index on
    ``inner_attr``.  Each outer block probes once per distinct join
    value: the inner planner's blocks for ``inner_attr == value``.
    """
    opos, ipos = _check_join_compatible(outer, outer_attr, inner, inner_attr)
    if (
        inner_attr not in inner.hash_indices
        and inner_attr not in inner.secondary_indices
    ):
        raise QueryError(
            f"index_nested_loop_join needs an index on "
            f"{inner.name}.{inner_attr}"
        )

    schema = _combined_schema(outer, inner)
    out: List[Tuple[int, ...]] = []
    outer_blocks = 0
    inner_blocks = 0
    probes = 0

    directory = inner._directory()
    indexes = inner._value_indices()
    for by_value in _outer_blocks(outer, opos):
        outer_blocks += 1
        for value, group in by_value.items():
            probes += 1
            bound = [(ipos, value, value)]
            chosen = plan(bound, inner.schema.mapper, directory, indexes)
            inner_blocks += len(chosen.block_ids)
            for inner_tuple in _read(
                inner, chosen.block_ids, bound, chosen.leading
            ):
                for outer_tuple in group:
                    out.append(outer_tuple + inner_tuple)
    return JoinResult(
        schema=schema,
        tuples=out,
        outer_blocks_read=outer_blocks,
        inner_blocks_read=inner_blocks,
        index_probes=probes,
        algorithm="index-nested-loop",
    )


def block_nested_loop_join(
    outer: Table,
    outer_attr: str,
    inner: Table,
    inner_attr: str,
) -> JoinResult:
    """Equi-join scanning the inner table once per outer block."""
    opos, ipos = _check_join_compatible(outer, outer_attr, inner, inner_attr)
    schema = _combined_schema(outer, inner)
    out: List[Tuple[int, ...]] = []
    outer_blocks = 0
    inner_blocks = 0

    for by_value in _outer_blocks(outer, opos):
        outer_blocks += 1
        for block_id in inner.storage.block_ids:
            inner_blocks += 1
            for inner_tuple in _read(inner, [block_id]):
                group = by_value.get(inner_tuple[ipos])
                if group:
                    for outer_tuple in group:
                        out.append(outer_tuple + inner_tuple)
    return JoinResult(
        schema=schema,
        tuples=out,
        outer_blocks_read=outer_blocks,
        inner_blocks_read=inner_blocks,
        index_probes=0,
        algorithm="block-nested-loop",
    )
