"""Attribute histograms: equi-width bucket counts and selectivity.

:class:`AttributeHistogram` counts one attribute's ordinal values in
equi-width buckets and answers range-selectivity estimates; ``repro
stats`` reports them.  The planner needs no estimate: it asks the
directory and the value indexes for exact candidate sets.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import QueryError

__all__ = ["AttributeHistogram"]


class AttributeHistogram:
    """Equi-width histogram over one attribute's ordinal domain."""

    def __init__(self, domain_size: int, num_buckets: int = 32):
        if domain_size < 1:
            raise QueryError(f"domain size must be >= 1, got {domain_size}")
        if num_buckets < 1:
            raise QueryError(f"bucket count must be >= 1, got {num_buckets}")
        self._domain_size = domain_size
        self._num_buckets = min(num_buckets, domain_size)
        self._counts = [0] * self._num_buckets
        self._total = 0
        self._distinct: set = set()
        self._track_distinct = domain_size <= 1 << 16

    def _bucket_of(self, value: int) -> int:
        return value * self._num_buckets // self._domain_size

    def add(self, value: int) -> None:
        """Record one occurrence of ``value``."""
        if not 0 <= value < self._domain_size:
            raise QueryError(
                f"value {value} outside domain of size {self._domain_size}"
            )
        self._counts[self._bucket_of(value)] += 1
        self._total += 1
        if self._track_distinct:
            self._distinct.add(value)

    @property
    def total(self) -> int:
        """Values recorded."""
        return self._total

    @property
    def num_buckets(self) -> int:
        """Histogram resolution."""
        return self._num_buckets

    def distinct_values(self) -> int:
        """Observed distinct values (estimated for very wide domains)."""
        if self._track_distinct:
            return len(self._distinct)
        # birthday-style lower bound: non-empty buckets
        return sum(1 for c in self._counts if c)

    def _bucket_bounds(self, b: int) -> Tuple[int, int]:
        """[lo, hi] ordinal range covered by bucket ``b`` (inclusive)."""
        lo = -(-b * self._domain_size // self._num_buckets)
        hi = -(-(b + 1) * self._domain_size // self._num_buckets) - 1
        return lo, hi

    def estimate_count(self, lo: int, hi: int) -> float:
        """Expected tuples with ``lo <= value <= hi`` (inclusive).

        Whole buckets contribute their full count; partially covered
        buckets contribute pro-rata (the uniform-within-bucket
        assumption).
        """
        if lo > hi or self._total == 0:
            return 0.0
        lo = max(0, lo)
        hi = min(self._domain_size - 1, hi)
        if lo > hi:
            return 0.0
        estimate = 0.0
        for b in range(self._bucket_of(lo), self._bucket_of(hi) + 1):
            b_lo, b_hi = self._bucket_bounds(b)
            if b_hi < b_lo:
                continue
            overlap_lo = max(lo, b_lo)
            overlap_hi = min(hi, b_hi)
            if overlap_hi < overlap_lo:
                continue
            fraction = (overlap_hi - overlap_lo + 1) / (b_hi - b_lo + 1)
            estimate += self._counts[b] * fraction
        return estimate

    def estimate_selectivity(self, lo: int, hi: int) -> float:
        """Fraction of tuples in ``[lo, hi]``."""
        if self._total == 0:
            return 0.0
        return self.estimate_count(lo, hi) / self._total
