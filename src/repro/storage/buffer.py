"""An LRU buffer pool over the simulated disk.

Database engines never read blocks straight off the disk for every
access; a buffer pool absorbs re-reads.  The pool is deliberately simple
— block-id keyed, LRU eviction, hit/miss counters — because the paper's
response-time experiments assume cold reads (every block access costs
``t1``); the pool exists so the query engine is honest about when a block
access is a *repeat* access, and so examples can show the warm-cache
behaviour of a compressed relation (more tuples per cached block means a
higher tuple hit rate for the same pool size).

For a *compressed* relation a repeat access still pays the decode cost
``t2`` even when the raw payload is resident.  Decoded blocks are cached
one layer up, by the table's ordinal cache
(:class:`repro.db.snapshot.OrdinalCache`), whose version check is the
payload itself, so the pool needs no invalidation hook for it.

The pool is **latched**: one reentrant lock serializes LRU reordering,
eviction, and stats updates, so the concurrent serving layer's reader
threads (:mod:`repro.server`) can share a pool without corrupting
eviction state or double-counting stats.  Single-threaded callers pay
one uncontended RLock acquire per access.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

from repro.errors import StorageError
from repro.obs import runtime as _obs
from repro.obs.snapshot import snapshot_dataclass
from repro.storage.disk import SimulatedDisk

if TYPE_CHECKING:  # circular at type level only
    from repro.storage.integrity import QuarantineSet

__all__ = ["BufferPool", "BufferStats"]

#: Type of the integrity check a pool runs on every payload it admits:
#: ``(block_id, payload)``, raising
#: :class:`~repro.errors.CorruptionError` on damage.
Verifier = Callable[[int, bytes], None]


@dataclass
class BufferStats:
    """Hit/miss counters for a buffer pool.

    ``hits``/``misses`` count raw-payload accesses through
    :meth:`BufferPool.get`.  ``evictions`` is a *lifetime* tally of
    cache churn: :meth:`reset` zeroes the hit/miss window but
    deliberately leaves it standing, so a caller that resets between
    measurement phases still sees how much eviction pressure the whole
    run generated.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total raw-payload get() calls served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served without disk I/O (0.0 when fresh)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """All counters plus derived rates, under stable keys.

        The derived ``hit_rate`` is included so a snapshot taken right
        after :meth:`reset` reads 0.0 — never a division error — and
        exporters need no recomputation.
        """
        out = snapshot_dataclass(self)
        out["hit_rate"] = self.hit_rate
        return out

    def reset(self) -> None:
        """Zero the hit/miss window; the eviction count survives.

        Evictions measure lifetime cache pressure, not a per-phase rate —
        zeroing them with the window would silently understate churn in
        any experiment that resets between warm-up and measurement.
        """
        self.hits = 0
        self.misses = 0


class BufferPool:
    """Fixed-capacity LRU cache of raw block payloads."""

    def __init__(self, disk: SimulatedDisk, capacity: int):
        if capacity < 1:
            raise StorageError(f"buffer pool capacity must be >= 1, got {capacity}")
        self._disk = disk
        self._capacity = capacity
        self._frames: "OrderedDict[int, bytes]" = OrderedDict()
        self._verifier: Optional[Verifier] = None
        self._quarantine: Optional["QuarantineSet"] = None
        #: The serving layer's shared-structure inventory
        #: (docs/SERVING.md) lists this latch alongside the R010
        #: module-level registry.
        self._latch = threading.RLock()
        self.stats = BufferStats()

    @property
    def capacity(self) -> int:
        """Maximum blocks held."""
        return self._capacity

    @property
    def resident(self) -> int:
        """Blocks currently cached."""
        return len(self._frames)

    @property
    def latch(self) -> "threading.RLock":
        """The pool's lock (reentrant).

        Exposed so callers that need a multi-step atomic view (the
        hammer tests, the serving layer's stats snapshots) can hold it
        across several reads.
        """
        return self._latch

    def get(self, block_id: int) -> bytes:
        """Return a block's payload, reading from disk only on a miss.

        A quarantined block is refused outright — even on a cache hit,
        because a block quarantined *after* being cached may hold the
        pre-corruption payload, and serving it would mask the fault the
        quarantine exists to surface.  Freshly read payloads run through
        the attached verifier before being cached, so a corrupt payload
        is never admitted to a frame.
        """
        with self._latch:
            self.check_quarantine(block_id)
            reg = _obs.REGISTRY
            cached = self._frames.get(block_id)
            if cached is not None:
                self._frames.move_to_end(block_id)
                self.stats.hits += 1
                if reg is not None:
                    reg.inc("buffer.hits")
                return cached
            payload = self._disk.read_block(block_id)
            if self._verifier is not None:
                self._verifier(block_id, payload)
            self.stats.misses += 1
            if reg is not None:
                reg.inc("buffer.misses")
            self._frames[block_id] = payload
            if len(self._frames) > self._capacity:
                self._frames.popitem(last=False)
                self.stats.evictions += 1
                if reg is not None:
                    reg.inc("buffer.evictions")
            return payload

    def attach_verifier(self, verifier: Verifier) -> None:
        """Run ``verifier(block_id, payload)`` on every payload admitted.

        :class:`~repro.db.table.Table` attaches the storage file's
        checksum check here, so a rotted payload raises
        :class:`~repro.errors.CorruptionError` at the pool boundary
        instead of decoding into garbage downstream.
        """
        self._verifier = verifier

    def attach_quarantine(self, quarantine: "QuarantineSet") -> None:
        """Refuse quarantined block ids on every :meth:`get`.

        Attaching also has no retroactive effect on resident frames —
        the integrity layer invalidates a block when it quarantines it.
        """
        self._quarantine = quarantine

    def check_quarantine(self, block_id: int) -> None:
        """Raise :class:`~repro.errors.QuarantinedBlockError` if barred.

        A no-op when no quarantine set is attached.
        """
        if self._quarantine is not None:
            self._quarantine.check(block_id)

    def invalidate(self, block_id: int) -> None:
        """Drop a block from the pool (after it was rewritten on disk)."""
        with self._latch:
            self._frames.pop(block_id, None)

    def clear(self) -> None:
        """Empty the pool (counters are kept; use ``stats.reset()``)."""
        with self._latch:
            self._frames.clear()
