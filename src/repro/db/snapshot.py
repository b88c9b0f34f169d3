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

On a vector-codec table every snapshot, and every reader thread, shares
the table's one :class:`OrdinalCache`: ``block_id -> (payload, read-only
int64 ordinal array)``.  Its version check is the payload itself.  Each
read still fetches the block through the version store, so the bytes
are CRC-verified (or come from the stash, which only keeps verified
bytes); an entry answers only when its payload equals those bytes.
Decode is a pure function of the payload, so equal bytes mean an equal
array, whichever snapshot or block version asked.  Rot at rest changes
the stored bytes, fails the fetch's CRC check and never reaches the
cache; a rewritten block's new payload simply misses.

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
    filter_tuples,
)
from repro.errors import QueryCancelled, QueryError
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

        Filtering is array-native when the table has an
        :class:`OrdinalCache` (docs/SERVING.md): each block's sorted
        ordinal array comes from the cache, a leading-attribute range
        becomes one ``searchsorted`` slice (phi is monotone inside a
        block), every other predicate a vector mask over that
        attribute's digit, and tuples are built only for the survivors.
        Other codecs keep the tuple-at-a-time filter.  Either way
        ``tuples_examined`` counts every tuple of every block read.

        ``should_cancel`` is the cooperative cancellation hook the
        serving layer threads in (docs/SERVING.md): it is polled before
        every block read, and when it returns ``True`` the select
        aborts with :class:`~repro.errors.QueryCancelled` instead of
        finishing work whose deadline has already fired.  Cancellation
        is block-granular — a read that is *inside* a stalled disk
        access cannot be interrupted, but it stops at the next boundary.
        """
        self._require_open()
        bound = [p.bind(self._table.schema) for p in query.predicates]
        leading = next((b for b in bound if b[0] == 0), None)
        directory = self._handle.directory
        ordinal_range: Optional[Tuple[int, int]] = None
        if leading is not None:
            w = self._table.schema.mapper.weights[0]
            ordinal_range = (leading[1] * w, (leading[2] + 1) * w - 1)
            start = self._first_overlapping(ordinal_range[0])
            stop = bisect_right(self._handle.firsts, ordinal_range[1])
            candidates = directory[start:stop]
            access_path = "snapshot-directory"
        else:
            candidates = directory
            access_path = "snapshot-scan"
        cache = self._table.ordinal_cache
        # The leading predicate becomes the slice; every other one —
        # including a second predicate on the leading attribute — is
        # masked.
        masked = [b for b in bound if b is not leading]
        out: List[Tuple[int, ...]] = []
        examined = 0
        with _obs.span(
            "snapshot.select",
            table=self._table.name,
            csn=self.csn,
            candidates=len(candidates),
            codec_path=self._table._codec_path(),
            filter_path="tuple" if cache is None else "array",
        ):
            for block_id, _first, _last, _count in candidates:
                if should_cancel is not None and should_cancel():
                    raise QueryCancelled(
                        f"select on {self._table.name!r} cancelled at "
                        f"block {block_id} (csn {self.csn})"
                    )
                payload = self._read_payload(block_id)
                if cache is None:
                    tuples = self._table.storage.decode_payload(payload)
                    examined += len(tuples)
                    out.extend(filter_tuples(tuples, bound))
                else:
                    examined += _filter_array(
                        cache.codec,
                        cache.ordinals(block_id, payload),
                        ordinal_range,
                        masked,
                        out,
                    )
        return QueryResult(
            tuples=out,
            blocks_read=len(candidates),
            tuples_examined=examined,
            access_path=access_path,
            candidate_blocks=[e[0] for e in candidates],
        )

    def scan(self) -> List[Tuple[int, ...]]:
        """Every tuple as of the snapshot, in phi-cluster order."""
        return self.select(RangeQuery([])).tuples

    def contains(self, values: Sequence[int]) -> bool:
        """Point probe against the frozen state."""
        self._require_open()
        t = tuple(int(v) for v in values)
        mapper = self._table.schema.mapper
        mapper.validate(t)
        ordinal = mapper.phi(t)
        entry = self._covering_entry(ordinal)
        if entry is None:
            return False
        return t in self._read_tuples(entry[0])

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

    def _read_tuples(self, block_id: int) -> List[Tuple[int, ...]]:
        return self._table.storage.decode_payload(self._read_payload(block_id))


class OrdinalCache:
    """Decoded ordinal arrays of one table's blocks, shared by snapshots.

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
        t0 = _obs.now_ms() if reg is not None else 0.0
        ordinals = self.codec.decode_ordinals_array(payload)
        if reg is not None:
            # The counters BlockCodec.decode_ordinals keeps, which this
            # direct call bypasses.
            reg.inc("codec.ordinal_decodes")
            reg.inc("codec.vector_decodes")
            reg.observe("codec.decode_ms", _obs.now_ms() - t0)
            reg.inc("snapshot.ordinal_cache_misses")
        ordinals.setflags(write=False)
        with self._lock:
            self._entries[block_id] = (payload, ordinals)
        self._tally()[1] += 1
        return ordinals

    def retain(self, directory: Iterable[Tuple[int, int, int, int]]) -> None:
        """Drop entries whose block id left ``directory`` (a publish)."""
        live = {entry[0] for entry in directory}
        with self._lock:
            for block_id in [b for b in self._entries if b not in live]:
                del self._entries[block_id]


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
