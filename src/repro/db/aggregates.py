"""Aggregate queries over compressed relations, with block pruning.

The authors' companion work (the cited "Physical Storage Model for
Efficient Statistical Query Processing") targets statistical databases,
where the common query is an *aggregate* over a range, not a tuple
fetch.  This module runs COUNT / SUM / MIN / MAX / AVG over an
AVQ-compressed table and exploits the compressed layout twice:

* the candidate block set comes from the table's one planner, as for
  tuple selection (value-index buckets or the clustered directory
  cut), so untouched blocks are never read — let alone decoded — and
  the blocks that are read go through the table's one block loop;
* when the aggregate target *is* the clustering prefix and the
  predicate covers whole blocks, MIN/MAX/COUNT can be answered from the
  block directory (first/last ordinal, tuple count) without decoding
  the block at all — the compressed analogue of "answering from the
  index".

Results carry the same counters as :class:`~repro.db.query.QueryResult`
so the pruning is observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.db.planner import plan
from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.errors import QueryError
from repro.relational.domain import IntegerRangeDomain
from repro.storage.directory import DirectoryEntry

__all__ = ["AggregateResult", "aggregate"]

_SUPPORTED = ("count", "sum", "min", "max", "avg")


@dataclass
class AggregateResult:
    """One aggregate answer plus its access statistics."""

    function: str
    attribute: Optional[str]
    value: Optional[float]
    tuples_matched: int
    blocks_read: int
    blocks_answered_from_directory: int
    access_path: str


def aggregate(
    table: Table,
    function: str,
    attribute: Optional[str],
    query: RangeQuery,
) -> AggregateResult:
    """Compute ``function(attribute)`` over the tuples matching ``query``.

    ``COUNT`` accepts ``attribute=None``.  Aggregation runs over the
    stored ordinals; for :class:`~repro.relational.domain.IntegerRangeDomain`
    attributes the result is shifted back to application values (an
    ordinal is ``value - lo``), so SUM/AVG/MIN/MAX read naturally.  For
    other domain types the ordinal is returned as-is (an "average
    department" has no meaning anyway; MIN/MAX ordinals can be decoded
    through the domain by the caller).
    """
    function = function.lower()
    if function not in _SUPPORTED:
        raise QueryError(
            f"unsupported aggregate {function!r}; supported: {_SUPPORTED}"
        )
    if function != "count" and attribute is None:
        raise QueryError(f"{function} requires an attribute")

    schema = table.schema
    position = schema.position(attribute) if attribute is not None else None
    bound = [p.bind(schema) for p in query.predicates]
    directory = table._directory()
    chosen = plan(bound, schema.mapper, directory, table._value_indices())

    # A block answers from the directory when every predicate is on the
    # leading attribute and covers the block's whole leading range, and
    # the target is COUNT or the leading attribute itself: its min/max
    # over a block are the leading digits of the first/last ordinals.
    entries: Dict[int, DirectoryEntry] = {}
    if all(b[0] == 0 for b in bound) and (
        function == "count" or (function in ("min", "max") and position == 0)
    ):
        entries = {entry[0]: entry for entry in directory}
    w0 = schema.mapper.weights[0]
    count = 0
    values: List[int] = []
    to_read = []
    for block_id in chosen.block_ids:
        entry = entries.get(block_id)
        if entry is not None:
            first, last = entry[1] // w0, entry[2] // w0
            if all(lo <= first and last <= hi for _, lo, hi in bound):
                count += entry[3]
                values += (first, last)
                continue
        to_read.append(block_id)

    # The other blocks go through the table's block loop.  A
    # quarantined block raises under every policy: an aggregate cannot
    # name the blocks it left out.
    rows = table._read_blocks(
        to_read, table._current_payload, bound, chosen.leading,
        allow_skip=False,
    ).rows
    count += len(rows)
    total = 0
    if position is not None:
        matched = [t[position] for t in rows]
        total = sum(matched)
        values += matched

    shift = 0
    if position is not None:
        domain = schema.attribute(attribute).domain
        if isinstance(domain, IntegerRangeDomain):
            shift = domain.lo

    value: Optional[float]
    if function == "count":
        value = float(count)
    elif count == 0:
        value = None
    elif function == "sum":
        value = float(total + count * shift)
    elif function == "min":
        value = float(min(values) + shift)
    elif function == "max":
        value = float(max(values) + shift)
    else:  # avg
        value = total / count + shift

    return AggregateResult(
        function=function,
        attribute=attribute,
        value=value,
        tuples_matched=count,
        blocks_read=len(to_read),
        blocks_answered_from_directory=len(chosen.block_ids) - len(to_read),
        access_path=chosen.path,
    )
