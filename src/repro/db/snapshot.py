"""Frozen read-only views of a table — the reader half of MVCC.

A :class:`TableSnapshot` is what :meth:`repro.db.table.Table.read_snapshot`
hands out: the block directory committed at one csn, pinned in the
table's :class:`~repro.storage.mvcc.BlockVersionStore` so the payloads
it references outlive any concurrent writer.  Every read resolves
through the store (stashed pre-image first, current payload as the
fallback), so a snapshot never observes half of a mutation — the
property the serving layer's reader threads rely on (docs/SERVING.md).

Snapshots deliberately do **not** reuse the table's live indices; those
track the *current* state.  Instead they plan from their own frozen
directory: bisecting the ``(first, last)`` phi-ordinal ranges (the
store keys each epoch's first ordinals once) gives the same
contiguous-run pruning the primary index would for a leading-attribute
predicate, and a point probe finds its one covering block the same way.

On an MVCC-enabled vector-codec table every snapshot, every reader
thread and the table's own live selects share the table's one
:class:`OrdinalCache`: ``block_id -> (payload, read-only int64 ordinal
array)``.  Its version check is the payload itself.  Each read still
fetches the block (a snapshot through the version store), so the bytes
are CRC-verified (or come from the stash, which only keeps verified
bytes); an entry answers only when its payload equals those bytes.
Decode is a pure function of the payload, so equal bytes mean an equal
array, whichever snapshot or block version asked.  Rot at rest changes
the stored bytes, fails the fetch's CRC check, is quarantined and never
reaches the cache; a rewritten block's new payload simply misses.

A snapshot pins superseded block versions, so it must be closed;
``with table.read_snapshot() as snap: ...`` is the idiomatic form.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.vectorized import VectorizedBlockCodec
from repro.db.query import (
    BoundPredicate,
    QueryResult,
    RangeQuery,
    leading_ordinal_range,
)
from repro.errors import QueryError
from repro.obs import runtime as _obs
from repro.storage.mvcc import BlockVersionStore, SnapshotHandle

__all__ = ["OrdinalCache", "TableSnapshot"]


class TableSnapshot:
    """One pinned, consistent, read-only view of a table's committed state."""

    def __init__(
        self,
        table,  # repro.db.table.Table; untyped to break the import cycle
        store: BlockVersionStore,
        handle: SnapshotHandle,
    ) -> None:
        self._table = table
        self._store = store
        self._handle = handle
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def csn(self) -> int:
        """The commit sequence number this snapshot observes."""
        return self._handle.csn

    @property
    def num_blocks(self) -> int:
        """Blocks in the snapshot's directory."""
        return len(self._handle.directory)

    @property
    def num_tuples(self) -> int:
        """Tuples stored as of the snapshot (from the frozen directory)."""
        return sum(entry[3] for entry in self._handle.directory)

    @property
    def closed(self) -> bool:
        """Whether the snapshot has been released."""
        return self._closed

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def select(
        self,
        query: RangeQuery,
        *,
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> QueryResult:
        """Execute a conjunctive range query against the frozen state.

        Planning mirrors the live table's first preference: a predicate
        on the leading attribute bisects the frozen directory to the
        contiguous run of entries whose ordinal range overlaps it;
        anything else scans every entry.  Results are ordinal tuples in
        phi order, exactly as :meth:`Table.select` returns them.

        The blocks are then read by the table's one block loop
        (:meth:`Table._read_blocks`), the same one live selects use:
        each payload comes from the version store at this snapshot's
        csn, under the same quarantine check, checksum guard,
        degraded-read policy and filter as a live read (docs/SERVING.md).
        The one difference: a snapshot never repairs.  Under the
        ``"repair"`` policy a corrupt block is quarantined and raises
        :class:`~repro.errors.QuarantinedBlockError`, because only the
        table's writer may write storage.

        ``should_cancel`` is the cooperative cancellation hook the
        serving layer threads in (docs/SERVING.md): it is polled before
        every block read, and when it returns ``True`` the select
        aborts with :class:`~repro.errors.QueryCancelled` instead of
        finishing work whose deadline has already fired.  Cancellation
        is block-granular — a read that is *inside* a stalled disk
        access cannot be interrupted, but it stops at the next boundary.
        """
        self._require_open()
        table = self._table
        bound = [p.bind(table.schema) for p in query.predicates]
        leading = next((b for b in bound if b[0] == 0), None)
        directory = self._handle.directory
        if leading is not None:
            lo, hi = leading_ordinal_range(
                table.schema.mapper, leading[1], leading[2]
            )
            start = self._first_overlapping(lo)
            stop = bisect_right(self._handle.firsts, hi)
            directory = directory[start:stop]
            access_path = "snapshot-directory"
        else:
            access_path = "snapshot-scan"
        candidates = [entry[0] for entry in directory]
        with _obs.span(
            "snapshot.select",
            table=table.name,
            csn=self.csn,
            candidates=len(candidates),
            codec_path=table._codec_path(),
            filter_path="tuple" if table._array_codec() is None else "array",
        ):
            scan = table._read_blocks(
                candidates,
                self._read_payload,
                bound,
                leading,
                repair=False,
                should_cancel=should_cancel,
            )
        return QueryResult(
            tuples=scan.rows,
            blocks_read=len(candidates) - len(scan.skipped),
            tuples_examined=scan.examined,
            access_path=access_path,
            candidate_blocks=candidates,
            skipped_blocks=scan.skipped,
        )

    def scan(self) -> List[Tuple[int, ...]]:
        """Every tuple as of the snapshot, in phi-cluster order."""
        return self.select(RangeQuery([])).tuples

    def contains(self, values: Sequence[int]) -> bool:
        """Point probe against the frozen state.

        Reads its one covering block through the same guarded fetch as
        :meth:`select`, so a corrupt or quarantined block raises rather
        than answering "absent".
        """
        self._require_open()
        t = tuple(int(v) for v in values)
        mapper = self._table.schema.mapper
        mapper.validate(t)
        entry = self._covering_entry(mapper.phi(t))
        if entry is None:
            return False
        payload = self._table._fetch_guarded(
            entry[0], self._read_payload, repair=False
        )
        return t in self._table.storage.decode_payload(payload)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the pin; superseded versions become collectable."""
        if self._closed:
            return
        self._closed = True
        self._store.release(self._handle)

    def __enter__(self) -> "TableSnapshot":
        self._require_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise QueryError("snapshot is closed")

    def _first_overlapping(self, ordinal: int) -> int:
        """Index of the first directory entry whose ``last >= ordinal``.

        Entries are phi-clustered (``last[i] <= first[i + 1]``), so only
        the last entry starting below ``ordinal`` can end at or past it
        while starting before it; every later entry starts at or past it.
        """
        index = max(bisect_left(self._handle.firsts, ordinal) - 1, 0)
        directory = self._handle.directory
        if index < len(directory) and directory[index][2] < ordinal:
            index += 1
        return index

    def _covering_entry(
        self, ordinal: int
    ) -> Optional[Tuple[int, int, int, int]]:
        index = self._first_overlapping(ordinal)
        directory = self._handle.directory
        if index < len(directory) and directory[index][1] <= ordinal:
            return directory[index]
        return None

    def _read_payload(self, block_id: int) -> bytes:
        return self._store.read(
            block_id,
            self._handle.csn,
            lambda: self._table._current_payload(block_id),
        )


class OrdinalCache:
    """Decoded ordinal arrays of one table's blocks, shared by every select.

    One entry per block id, ``(payload, ordinals)``: the last read wins.
    :meth:`ordinals` answers from an entry only when its payload equals
    the bytes the caller just fetched and verified, so an entry can
    never stand in for another block version, and a fetch that raised
    never reaches the cache.  Arrays are read-only, so every reader may
    share them.

    The hit path takes no lock: a dict lookup and a bytes compare, which
    usually ends at the identity check because the disk hands out the
    stored ``bytes`` object itself.  Two reader threads that miss on
    the same block both decode it; the later store wins.  Stores and
    :meth:`retain` share one lock so pruning never iterates a dict that
    another thread is growing.  Each thread counts its hits and misses
    in its own tally, so the counts are exact without a lock.
    """

    def __init__(self, codec: VectorizedBlockCodec) -> None:
        self.codec = codec
        self._entries: Dict[int, Tuple[bytes, np.ndarray]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        #: One ``[hits, misses]`` per thread that ever read; only its
        #: owner writes it.
        self._tallies: List[List[int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        """Reads answered from an entry, over all threads."""
        return sum(tally[0] for tally in list(self._tallies))

    @property
    def misses(self) -> int:
        """Reads that decoded, over all threads."""
        return sum(tally[1] for tally in list(self._tallies))

    def _tally(self) -> List[int]:
        tally: Optional[List[int]] = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = [0, 0]
            with self._lock:
                self._tallies.append(tally)
        return tally

    def ordinals(self, block_id: int, payload: bytes) -> np.ndarray:
        """``payload``'s sorted ordinal array, decoding only on a miss.

        ``payload`` must be verified bytes of ``block_id``: a decode
        error propagates and stores nothing.
        """
        reg = _obs.REGISTRY
        entry = self._entries.get(block_id)
        if entry is not None and entry[0] == payload:
            self._tally()[0] += 1
            if reg is not None:
                reg.inc("snapshot.ordinal_cache_hits")
            return entry[1]
        ordinals = _decode_ordinals(self.codec, payload)
        if reg is not None:
            reg.inc("snapshot.ordinal_cache_misses")
        ordinals.setflags(write=False)
        with self._lock:
            self._entries[block_id] = (payload, ordinals)
        self._tally()[1] += 1
        return ordinals

    def tally(self) -> Tuple[int, int]:
        """The calling thread's ``(hits, misses)`` so far.

        A select takes this before and after its blocks: the difference
        is exactly its own hits and misses, whatever other threads did.
        """
        tally = self._tally()
        return tally[0], tally[1]

    def retain(self, directory: Iterable[Tuple[int, int, int, int]]) -> None:
        """Drop entries whose block id left ``directory`` (a publish)."""
        live = {entry[0] for entry in directory}
        with self._lock:
            for block_id in [b for b in self._entries if b not in live]:
                del self._entries[block_id]


def _decode_ordinals(vec: VectorizedBlockCodec, payload: bytes) -> np.ndarray:
    """One block's sorted ordinal array, decoded and counted.

    The counters :meth:`BlockCodec.decode_ordinals` keeps, which this
    direct call to the vector codec would otherwise bypass.
    """
    reg = _obs.REGISTRY
    t0 = _obs.now_ms() if reg is not None else 0.0
    ordinals = vec.decode_ordinals_array(payload)
    if reg is not None:
        reg.inc("codec.ordinal_decodes")
        reg.inc("codec.vector_decodes")
        reg.observe("codec.decode_ms", _obs.now_ms() - t0)
    return ordinals


def _filter_array(
    vec: VectorizedBlockCodec,
    ordinals: np.ndarray,
    ordinal_range: Optional[Tuple[int, int]],
    masked: Sequence[BoundPredicate],
    out: List[Tuple[int, ...]],
) -> int:
    """Filter one block in ordinal space; append matches, return its size.

    ``ordinals`` is the block's sorted ordinal array.  ``ordinal_range``
    is the leading predicate's inclusive range, cut as one slice of it;
    each ``masked`` predicate is then a vector test on its attribute's
    digit.  Only the surviving ordinals are inverted into tuples, in phi
    order.
    """
    size = int(ordinals.size)
    if ordinal_range is not None:
        lo = int(np.searchsorted(ordinals, ordinal_range[0], side="left"))
        hi = int(np.searchsorted(ordinals, ordinal_range[1], side="right"))
        ordinals = ordinals[lo:hi]
    if masked and ordinals.size:
        keep = np.ones(ordinals.size, dtype=bool)
        for pos, lo_value, hi_value in masked:
            values = vec.attribute_values(ordinals, pos)
            keep &= (values >= lo_value) & (values <= hi_value)
        ordinals = ordinals[keep]
    if ordinals.size:
        out.extend(map(tuple, vec.phi_inverse_rows(ordinals).tolist()))
    return size
