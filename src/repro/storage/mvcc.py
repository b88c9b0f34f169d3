"""Block-version MVCC: snapshot-isolation reads over one AVQ file.

The serving layer (:mod:`repro.server`) runs many concurrent readers
against a table a single writer is mutating.  Readers must never see a
*mixed* state — half the blocks from before a mutation and half from
after — so reads happen against **snapshots**: a frozen block directory
plus, per block, the payload that was committed when the snapshot was
taken.

The scheme is copy-before-write at block granularity, sequenced by a
**commit sequence number** (csn):

* The writer, before overwriting a block, *stashes* the committed
  payload here as an **open** version (:meth:`BlockVersionStore.stash`).
* At each commit boundary — transaction commit or abort on a durable
  table, every top-level mutation otherwise — the writer *publishes*
  (:meth:`publish`): open versions are sealed with ``death_csn = csn+1``,
  the csn advances, and the committed directory is replaced.  A version
  sealed with death csn ``D`` is the payload visible to every snapshot
  ``S < D``.
* A reader takes a :meth:`snapshot` — the current csn plus the committed
  directory, pinned against garbage collection — and resolves each block
  through :meth:`read`: the oldest stashed version that outlives the
  snapshot wins; with none, the block has not been rewritten since the
  snapshot and the *current* payload (read through the caller's latched
  buffer pool) is the right one.

Block ids make this safe: :class:`~repro.storage.disk.SimulatedDisk`
allocates ids monotonically and never reuses them, so a block id in a
stale directory always denotes the block the snapshot meant.

:meth:`read` is deliberately race-tolerant.  The fallback disk read runs
*outside* the store lock (serialising simulated I/O under it would
flatten reader concurrency), so a writer may stash-and-overwrite while
the fallback is in flight.  The reader re-checks the stash afterwards
and prefers it: the stash is written before the overwrite, so a reader
that saw no stash on the re-check is guaranteed its fallback bytes
pre-date any overwrite.  The same re-check answers a fallback whose
checksum verification tripped on such a race.

Everything here is latched; the store is shared by one writer and any
number of reader threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CorruptionError, StorageError
from repro.obs import runtime as _obs

__all__ = ["BlockVersionStore", "SnapshotHandle", "VersionStoreStats"]

#: One directory entry: ``(block_id, first_ordinal, last_ordinal, count)``
#: — the shape :meth:`AVQFile.directory_entries` produces.
DirectoryEntry = Tuple[int, int, int, int]


@dataclass
class _Version:
    """One stashed pre-image of a block.

    ``death_csn is None`` while open (the current on-disk payload is an
    uncommitted overwrite); sealed to the publishing csn, after which the
    payload serves every snapshot ``S < death_csn``.
    """

    payload: bytes
    death_csn: Optional[int] = None


@dataclass
class VersionStoreStats:
    """Counters for stash/publish/read traffic (monotonic)."""

    stashed: int = 0
    published: int = 0
    snapshots_taken: int = 0
    reads_from_stash: int = 0
    reads_from_current: int = 0
    versions_pruned: int = 0


@dataclass(frozen=True)
class SnapshotHandle:
    """A pinned snapshot: csn plus the directory committed at that csn.

    Obtained from :meth:`BlockVersionStore.snapshot`; must be passed back
    to :meth:`BlockVersionStore.release` (the db layer's
    ``TableSnapshot`` wraps that in a context manager).  ``firsts`` is
    the directory's first-ordinal column, ascending because blocks are
    phi-clustered — the key a reader bisects to plan without scanning
    the directory.  It is computed once per epoch, not per snapshot.
    """

    csn: int
    directory: Tuple[DirectoryEntry, ...]
    firsts: Tuple[int, ...]


def _first_ordinals(
    directory: Tuple[DirectoryEntry, ...],
) -> Tuple[int, ...]:
    return tuple(entry[1] for entry in directory)


class BlockVersionStore:
    """Latched store of superseded block payloads, keyed by block id."""

    def __init__(self, directory: List[DirectoryEntry]):
        self._lock = threading.RLock()
        self._csn = 0
        self._versions: Dict[int, List[_Version]] = {}
        self._committed: Tuple[DirectoryEntry, ...] = tuple(directory)
        self._firsts = _first_ordinals(self._committed)
        #: csn -> number of unreleased snapshots pinned at it.
        self._pinned: Dict[int, int] = {}
        self.stats = VersionStoreStats()

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------

    @property
    def csn(self) -> int:
        """The current commit sequence number."""
        with self._lock:
            return self._csn

    def committed_directory(self) -> Tuple[DirectoryEntry, ...]:
        """The directory as of the last publish."""
        with self._lock:
            return self._committed

    def stash(self, block_id: int, loader: Callable[[], bytes]) -> bool:
        """Preserve a block's committed payload before it is overwritten.

        ``loader`` is invoked (under the store lock, before the caller's
        overwrite) only when the block has no open version yet — a block
        rewritten twice in one transaction keeps its first pre-image,
        which is the committed one.  Returns whether a version was
        actually stashed.
        """
        with self._lock:
            chain = self._versions.setdefault(block_id, [])
            if chain and chain[-1].death_csn is None:
                return False  # already preserved for this epoch
            chain.append(_Version(payload=loader()))
            self.stats.stashed += 1
            reg = _obs.REGISTRY
            if reg is not None:
                reg.inc("mvcc.stashed")
            return True

    def publish(self, directory: List[DirectoryEntry]) -> int:
        """Commit boundary: seal open versions and adopt ``directory``.

        Advances the csn only when something actually changed (an open
        version exists, or the directory differs) — a no-op mutation
        creates no new epoch for readers to distinguish.  Returns the
        csn current after the call.
        """
        with self._lock:
            entries = tuple(directory)
            open_versions = [
                chain[-1]
                for chain in self._versions.values()
                if chain and chain[-1].death_csn is None
            ]
            if not open_versions and entries == self._committed:
                return self._csn
            self._csn += 1
            for version in open_versions:
                version.death_csn = self._csn
            self._committed = entries
            self._firsts = _first_ordinals(entries)
            self.stats.published += 1
            reg = _obs.REGISTRY
            if reg is not None:
                reg.inc("mvcc.published")
                reg.set_gauge("mvcc.csn", float(self._csn))
            self._prune_locked()
            return self._csn

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------

    def snapshot(self) -> SnapshotHandle:
        """Pin the current committed state and return its handle."""
        with self._lock:
            self._pinned[self._csn] = self._pinned.get(self._csn, 0) + 1
            self.stats.snapshots_taken += 1
            reg = _obs.REGISTRY
            if reg is not None:
                reg.inc("mvcc.snapshots")
                reg.set_gauge("mvcc.pinned", float(self.pinned_snapshots))
            return SnapshotHandle(
                csn=self._csn, directory=self._committed, firsts=self._firsts
            )

    def release(self, handle: SnapshotHandle) -> None:
        """Unpin a snapshot; versions nobody can see any more are pruned."""
        with self._lock:
            count = self._pinned.get(handle.csn)
            if count is None:
                raise StorageError(
                    f"snapshot at csn {handle.csn} is not pinned"
                )
            if count == 1:
                del self._pinned[handle.csn]
            else:
                self._pinned[handle.csn] = count - 1
            self._prune_locked()
            reg = _obs.REGISTRY
            if reg is not None:
                reg.set_gauge("mvcc.pinned", float(self.pinned_snapshots))

    def read(
        self,
        block_id: int,
        snapshot_csn: int,
        fallback: Callable[[], bytes],
    ) -> bytes:
        """The payload of ``block_id`` as of ``snapshot_csn``.

        Resolution order: stashed version outliving the snapshot, else
        the current payload via ``fallback`` (the caller's latched
        pool/disk read), re-checking the stash afterwards to close the
        read-vs-overwrite race described in the module docstring.
        """
        with self._lock:
            payload = self._visible_locked(block_id, snapshot_csn)
            if payload is not None:
                self._count_read(from_stash=True)
                return payload
        try:
            current = fallback()
        except CorruptionError:
            # A checksum-verified fallback also trips when a writer
            # overwrites the block mid-read (bytes and recorded CRC from
            # different versions).  The writer stashed first, so the
            # stash answers that case; without one the damage is real.
            with self._lock:
                payload = self._visible_locked(block_id, snapshot_csn)
                if payload is None:
                    raise
                self._count_read(from_stash=True)
                return payload
        with self._lock:
            payload = self._visible_locked(block_id, snapshot_csn)
            if payload is not None:
                self._count_read(from_stash=True)
                return payload
            self._count_read(from_stash=False)
            return current

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def version_count(self) -> int:
        """Stashed payloads currently retained."""
        with self._lock:
            return sum(len(chain) for chain in self._versions.values())

    @property
    def pinned_snapshots(self) -> int:
        """Unreleased snapshots across all csns."""
        return sum(self._pinned.values())

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------

    def _visible_locked(
        self, block_id: int, snapshot_csn: int
    ) -> Optional[bytes]:
        chain = self._versions.get(block_id)
        if not chain:
            return None
        for version in chain:  # oldest first; deaths ascend
            if version.death_csn is None or version.death_csn > snapshot_csn:
                return version.payload
        return None

    def _count_read(self, *, from_stash: bool) -> None:
        if from_stash:
            self.stats.reads_from_stash += 1
        else:
            self.stats.reads_from_current += 1

    def _prune_locked(self) -> None:
        """Drop versions no live or future snapshot can see.

        A version sealed at death csn ``D`` serves snapshots ``S < D``;
        once every pinned snapshot (and the current csn, which is where
        new snapshots start) is ``>= D``, it is garbage.
        """
        floor = min(self._pinned, default=self._csn)
        floor = min(floor, self._csn)
        dead_keys: List[int] = []
        for block_id, chain in self._versions.items():
            kept = [
                v
                for v in chain
                if v.death_csn is None or v.death_csn > floor
            ]
            pruned = len(chain) - len(kept)
            if pruned:
                self.stats.versions_pruned += pruned
                if kept:
                    self._versions[block_id] = kept
                else:
                    dead_keys.append(block_id)
        for block_id in dead_keys:
            del self._versions[block_id]
