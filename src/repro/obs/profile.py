"""Per-query I/O profiles: EXPLAIN ANALYZE for the Section 5.3 queries.

Figure 5.8's metric is ``N`` — data blocks accessed per range query.
:class:`QueryProfile` captures exactly that for every *live* query, plus
the Figure 5.9 stage decomposition (I/O time, decode time, filter time)
and the cache story (raw-payload and ordinal-cache hits), so any single
``table.select`` can be explained the way the paper explains its
averages.

The profile is built from **deltas of the always-on stats objects**
(:class:`~repro.storage.disk.DiskStats`,
:class:`~repro.storage.buffer.BufferStats`), not from the global
registry — so profiles work with observability disabled, and the test
suite can cross-check ``profile.blocks_read`` against the disk counters
directly (Fig 5.8 parity).  When the global registry *is* enabled, the
query path additionally publishes the same numbers as ``query.*``
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # circular at type level only (storage imports obs)
    from repro.storage.buffer import BufferStats
    from repro.storage.disk import DiskStats

__all__ = ["QueryProfile", "QueryProfiler"]


@dataclass
class QueryProfile:
    """Access-cost breakdown of one executed query.

    ``blocks_read`` counts *disk* block reads (the Figure 5.8 ``N``):
    buffer-pool hits do not move it, which is the honest accounting —
    a warm cache is precisely the absence of block accesses.
    ``stages`` holds wall-clock milliseconds per stage (``fetch_decode``
    — block fetch plus AVQ decode; ``filter`` — predicate evaluation).
    ``decoded_hits``/``decoded_misses`` count this query's blocks that
    the table's ordinal cache answered or had to decode (both 0 on a
    table without one).
    """

    access_path: str
    candidate_blocks: int
    blocks_read: int
    bytes_read: int
    io_ms: float
    cache_hits: int
    cache_misses: int
    decoded_hits: int
    decoded_misses: int
    tuples_examined: int
    matched: int
    skipped_blocks: int
    stages: Dict[str, float] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        """Summed stage time (wall clock, not simulated I/O)."""
        return sum(self.stages.values())

    @property
    def cache_hit_rate(self) -> float:
        """Raw-payload hit fraction (0.0 with no pool traffic)."""
        accesses = self.cache_hits + self.cache_misses
        if accesses == 0:
            return 0.0
        return self.cache_hits / accesses

    def as_dict(self) -> Dict[str, object]:
        """The profile as one plain dict (JSONL/report feed)."""
        return {
            "access_path": self.access_path,
            "candidate_blocks": self.candidate_blocks,
            "blocks_read": self.blocks_read,
            "bytes_read": self.bytes_read,
            "io_ms": self.io_ms,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "decoded_hits": self.decoded_hits,
            "decoded_misses": self.decoded_misses,
            "tuples_examined": self.tuples_examined,
            "matched": self.matched,
            "skipped_blocks": self.skipped_blocks,
            "stages": dict(self.stages),
        }

    def explain(self) -> str:
        """A multi-line EXPLAIN-ANALYZE-style rendering."""
        lines = [
            f"access path: {self.access_path}",
            f"blocks: {self.blocks_read} read of "
            f"{self.candidate_blocks} candidates "
            f"(N = {self.blocks_read}, {self.bytes_read:,} bytes)",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses"
            f" raw, {self.decoded_hits} hits / {self.decoded_misses} "
            f"misses decoded",
            f"tuples: {self.matched} matched of "
            f"{self.tuples_examined} examined",
            f"simulated I/O: {self.io_ms:.2f} ms",
        ]
        if self.stages:
            stages = ", ".join(
                f"{name} {ms:.3f} ms" for name, ms in self.stages.items()
            )
            lines.append(f"stages: {stages}")
        if self.skipped_blocks:
            lines.append(
                f"DEGRADED: {self.skipped_blocks} quarantined block(s) "
                f"skipped"
            )
        return "\n".join(lines)


class QueryProfiler:
    """Brackets one query execution and derives its profile from deltas.

    Snapshot the stats objects at construction, run the query, then call
    :meth:`finish` with the query-shaped facts (access path, candidate
    and match counts, stage times).  The disk/buffer numbers are the
    *deltas* since construction, so concurrent-free single-threaded use
    attributes exactly this query's I/O to this profile.
    """

    def __init__(
        self,
        disk_stats: "DiskStats",
        buffer_stats: Optional["BufferStats"] = None,
    ) -> None:
        self._disk = disk_stats
        self._buffer = buffer_stats
        self._blocks_read0 = disk_stats.blocks_read
        self._bytes_read0 = disk_stats.bytes_read
        self._elapsed0 = disk_stats.elapsed_ms
        if buffer_stats is not None:
            self._hits0 = buffer_stats.hits
            self._misses0 = buffer_stats.misses
        else:
            self._hits0 = self._misses0 = 0

    def finish(
        self,
        *,
        access_path: str,
        candidate_blocks: int,
        tuples_examined: int,
        matched: int,
        skipped_blocks: int = 0,
        decoded_hits: int = 0,
        decoded_misses: int = 0,
        stages: Optional[Dict[str, float]] = None,
    ) -> QueryProfile:
        """Close the bracket and build the profile.

        The decoded-block counts come from the caller, which counted
        its own ordinal-cache traffic; the raw-payload counts are pool
        deltas.
        """
        buffer = self._buffer
        if buffer is not None:
            cache_hits = buffer.hits - self._hits0
            cache_misses = buffer.misses - self._misses0
        else:
            cache_hits = cache_misses = 0
        return QueryProfile(
            access_path=access_path,
            candidate_blocks=candidate_blocks,
            blocks_read=self._disk.blocks_read - self._blocks_read0,
            bytes_read=self._disk.bytes_read - self._bytes_read0,
            io_ms=self._disk.elapsed_ms - self._elapsed0,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            decoded_hits=decoded_hits,
            decoded_misses=decoded_misses,
            tuples_examined=tuples_examined,
            matched=matched,
            skipped_blocks=skipped_blocks,
            stages=dict(stages) if stages else {},
        )
