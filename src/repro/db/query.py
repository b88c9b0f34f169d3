"""Query descriptions and results for the Section 5.3 range queries.

The paper's evaluation query is ``sigma_{a <= A_k <= b}(R)``: a single
attribute range selection.  :class:`RangeQuery` generalises slightly to a
conjunction of ranges; :class:`QueryResult` carries both the answer and
the access statistics (``N``, the number of data blocks read, is the
quantity Figure 5.8 tabulates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.obs.profile import QueryProfile
from repro.relational.algebra import RangePredicate

__all__ = ["RangeQuery", "QueryResult", "BoundPredicate", "filter_tuples"]

#: A predicate resolved against a schema: ``(position, lo, hi)``, both
#: ends inclusive and clamped to the domain (``RangePredicate.bind``).
BoundPredicate = Tuple[int, int, int]


@dataclass(frozen=True)
class RangeQuery:
    """A conjunctive range selection over named attributes."""

    predicates: Tuple[RangePredicate, ...]

    def __init__(self, predicates: Sequence[RangePredicate]):
        object.__setattr__(self, "predicates", tuple(predicates))

    @classmethod
    def between(cls, attribute: str, lo: int, hi: int) -> "RangeQuery":
        """The paper's ``sigma_{lo <= attribute <= hi}`` query."""
        return cls([RangePredicate(attribute, lo, hi)])

    @classmethod
    def equals(cls, attribute: str, value: int) -> "RangeQuery":
        """Point selection ``sigma_{attribute = value}``."""
        return cls([RangePredicate(attribute, value, value)])

    def __repr__(self) -> str:
        parts = " AND ".join(
            f"{p.lo} <= {p.attribute} <= {p.hi}" for p in self.predicates
        )
        return f"RangeQuery({parts})"


@dataclass
class QueryResult:
    """Tuples returned by a query plus its access statistics."""

    tuples: List[Tuple[int, ...]]
    blocks_read: int
    tuples_examined: int
    access_path: str
    io_ms: float = 0.0
    index_probes: int = 0
    candidate_blocks: List[int] = field(default_factory=list)
    #: Quarantined blocks the query omitted under the ``"skip"``
    #: degraded-read policy (docs/INTEGRITY.md).  Non-empty means the
    #: answer may be incomplete — callers must check :attr:`degraded`
    #: before trusting cardinalities.
    skipped_blocks: List[int] = field(default_factory=list)
    #: The EXPLAIN-ANALYZE-style access breakdown (docs/OBSERVABILITY.md).
    #: Built from always-on stats deltas, so it is present whether or not
    #: the global metrics registry is enabled.
    profile: Optional[QueryProfile] = None

    @property
    def degraded(self) -> bool:
        """Whether corrupt blocks were skipped (answer may be partial)."""
        return bool(self.skipped_blocks)

    @property
    def cardinality(self) -> int:
        """Number of tuples in the answer."""
        return len(self.tuples)

    @property
    def selectivity(self) -> float:
        """Answer tuples per examined tuple (1.0 for a perfect access path)."""
        if self.tuples_examined == 0:
            return 0.0
        return len(self.tuples) / self.tuples_examined


def filter_tuples(
    tuples: Iterable[Tuple[int, ...]], bound: Sequence[BoundPredicate]
) -> List[Tuple[int, ...]]:
    """The tuples satisfying every bound predicate, in input order.

    The one per-tuple conjunctive test every tuple-at-a-time executor
    shares (live selects, full scans, and the snapshot's scalar
    fallback).
    """
    return [
        t for t in tuples if all(lo <= t[pos] <= hi for pos, lo, hi in bound)
    ]
