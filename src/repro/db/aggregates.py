"""Aggregate queries over compressed relations, with block pruning.

The authors' companion work (the cited "Physical Storage Model for
Efficient Statistical Query Processing") targets statistical databases,
where the common query is an *aggregate* over a range, not a tuple
fetch.  This module runs COUNT / SUM / MIN / MAX / AVG over an
AVQ-compressed table and exploits the compressed layout twice:

* the candidate block set comes from the same access-path machinery as
  tuple selection (secondary-index buckets or the clustered primary
  range), so untouched blocks are never read — let alone decoded;
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
from typing import Optional

from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.errors import QueryError
from repro.storage.avqfile import AVQFile

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

    candidates, access_path = _candidate_blocks(table, query, bound)

    directory_hits = 0
    blocks_read = 0
    count = 0
    total = 0
    minimum: Optional[int] = None
    maximum: Optional[int] = None

    storage = table.storage
    full_block_prunable = (
        isinstance(storage, AVQFile)
        and function in ("count", "min", "max")
        and _whole_block_coverage_possible(table, bound, position, function)
    )
    id_to_position = (
        {bid: pos for pos, bid in enumerate(storage.block_ids)}
        if full_block_prunable
        else {}
    )

    for block_id in candidates:
        if full_block_prunable:
            answered = _try_directory_answer(
                table, id_to_position.get(block_id), bound, function
            )
            if answered is not None:
                block_count, block_min, block_max = answered
                count += block_count
                if block_min is not None:
                    minimum = block_min if minimum is None else min(minimum, block_min)
                if block_max is not None:
                    maximum = block_max if maximum is None else max(maximum, block_max)
                directory_hits += 1
                continue
        tuples = table._read_block_id(block_id)
        blocks_read += 1
        for t in tuples:
            if all(lo <= t[pos] <= hi for pos, lo, hi in bound):
                count += 1
                if position is not None:
                    v = t[position]
                    total += v
                    minimum = v if minimum is None else min(minimum, v)
                    maximum = v if maximum is None else max(maximum, v)

    shift = 0
    if position is not None:
        from repro.relational.domain import IntegerRangeDomain

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
        value = None if minimum is None else float(minimum + shift)
    elif function == "max":
        value = None if maximum is None else float(maximum + shift)
    else:  # avg
        value = total / count + shift

    return AggregateResult(
        function=function,
        attribute=attribute,
        value=value,
        tuples_matched=count,
        blocks_read=blocks_read,
        blocks_answered_from_directory=directory_hits,
        access_path=access_path,
    )


def _candidate_blocks(table: Table, query: RangeQuery, bound):
    """Reuse the Table's access-path choice to get candidate block ids."""
    result = None
    if not query.predicates:
        return [bid for bid, _ in _block_ids(table)], "scan"
    leading = next((b for b in bound if b[0] == 0), None)
    if leading is not None:
        _, lo, hi = leading
        weights = table.schema.mapper.weights
        block_ids = table.primary_index.range_blocks(
            lo * weights[0], (hi + 1) * weights[0] - 1
        )
        return block_ids, "primary"
    best = None
    for pred, (pos, lo, hi) in zip(query.predicates, bound):
        idx = table.secondary_indices.get(pred.attribute)
        if idx is not None:
            cand = idx.range_lookup(lo, hi)
            if best is None or len(cand) < len(best[0]):
                best = (cand, f"secondary:{pred.attribute}")
        if lo == hi:
            hidx = table.hash_indices.get(pred.attribute)
            if hidx is not None:
                cand = hidx.lookup(lo)
                if best is None or len(cand) < len(best[0]):
                    best = (cand, f"hash:{pred.attribute}")
    if best is not None:
        return best
    return [bid for bid, _ in _block_ids(table)], "scan"


def _block_ids(table: Table):
    storage = table.storage
    for position in range(storage.num_blocks):
        yield storage.block_ids[position], position


def _whole_block_coverage_possible(table, bound, position, function) -> bool:
    """Directory answers need: predicate on the leading attribute only,
    and the aggregate target to be the leading attribute (its min/max
    over a block follow from the block's first/last ordinals) or COUNT."""
    if any(pos != 0 for pos, _, _ in bound):
        return False
    if function == "count":
        return True
    return position == 0


def _try_directory_answer(table, pos_index, bound, function):
    """Answer one block from the directory if its whole ordinal range
    satisfies the (leading-attribute) predicate; else ``None``."""
    if pos_index is None:
        return None
    storage: AVQFile = table.storage
    first, last = storage.block_range(pos_index)
    w0 = table.schema.mapper.weights[0]
    lead_first = first // w0
    lead_last = last // w0
    for _, lo, hi in bound:  # all bound entries are on attribute 0 here
        if not (lo <= lead_first and lead_last <= hi):
            return None
    count = storage.block_tuple_count(pos_index)
    if function == "count":
        return count, None, None
    # min/max of the leading attribute over the block
    return count, lead_first, lead_last
