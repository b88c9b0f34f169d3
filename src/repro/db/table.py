"""The table facade: storage plus indices plus Section 4 operations.

A :class:`Table` ties together one stored relation (AVQ-coded or plain
heap), the whole-tuple primary index of Figure 4.4, and any number of
Figure 4.5 secondary indices.  It exposes the operations Section 4
discusses:

* ``select`` — range queries with automatic access-path choice
  (primary-index clustered scan for the leading attribute, secondary
  index where one exists, full scan otherwise);
* ``insert`` / ``delete`` / ``update`` — Section 4.2 mutations, confined
  to the affected block, with all indices maintained incrementally.

Mutations require compressed storage (the heap baseline is built once
per experiment and queried read-only, as in the paper).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.codec import BlockCodec
from repro.errors import (
    CorruptionError,
    QuarantinedBlockError,
    QueryCancelled,
    QueryError,
)
from repro.db.query import (
    BoundPredicate,
    QueryResult,
    RangeQuery,
    filter_tuples,
    leading_ordinal_range,
)
from repro.db.snapshot import (
    OrdinalCache,
    TableSnapshot,
    _decode_ordinals,
    _filter_array,
)
from repro.obs import runtime as _obs
from repro.obs.profile import QueryProfile, QueryProfiler
from repro.index.hashindex import ExtendibleHashIndex
from repro.index.primary import PrimaryIndex, TupleOrdinalIndex
from repro.index.secondary import SecondaryIndex
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.integrity import (
    IntegrityManager,
    IntegrityReport,
    RepairEngine,
    RepairOutcome,
    ScrubReport,
)
from repro.storage.wal import RecoveryReport, WriteAheadLog, recover

if TYPE_CHECKING:  # circular at type level only
    from repro.core.vectorized import VectorizedBlockCodec
    from repro.storage.buffer import BufferPool
    from repro.storage.mvcc import BlockVersionStore

__all__ = ["Table"]

StorageFile = Union[AVQFile, HeapFile]

_T = TypeVar("_T")


class _BlockScan(NamedTuple):
    """What :meth:`Table._read_blocks` hands back to its caller."""

    rows: List[Tuple[int, ...]]
    examined: int
    skipped: List[int]
    fetch_ms: float
    filter_ms: float
    #: This select's ordinal-cache hits and misses (0 without a cache).
    cache_hits: int
    cache_misses: int


class Table:
    """A stored, indexed relation supporting queries and mutations."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        storage: StorageFile,
        *,
        index_order: int = 32,
        buffer_capacity: Optional[int] = None,
        wal: Optional[WriteAheadLog] = None,
        degraded_reads: str = "raise",
        tuple_index: bool = False,
    ):
        if not name:
            raise QueryError("table name must be non-empty")
        if wal is not None and not isinstance(storage, AVQFile):
            raise QueryError(
                "durability requires compressed storage (heap tables "
                "are read-only baselines)"
            )
        self._name = name
        self._schema = schema
        self._storage = storage
        self._index_order = index_order
        self._wal = wal
        self._active_tid: Optional[int] = None
        self._last_recovery: Optional[RecoveryReport] = None
        self._mvcc: Optional["BlockVersionStore"] = None
        self._ordinals: Optional["OrdinalCache"] = None
        self._buffer: Optional["BufferPool"] = None
        if buffer_capacity is not None:
            from repro.storage.buffer import BufferPool

            self._buffer = BufferPool(storage._disk, buffer_capacity)
        self._primary = PrimaryIndex.build(
            schema.mapper, storage.directory(), order=index_order
        )
        self._secondaries: Dict[str, SecondaryIndex] = {}
        self._hash_indices: Dict[str, ExtendibleHashIndex] = {}
        self._tuple_index: Optional[TupleOrdinalIndex] = None
        self._integrity: Optional[IntegrityManager] = None
        if isinstance(storage, AVQFile):
            if tuple_index:
                self._tuple_index = self._build_tuple_index(storage)
            self._integrity = IntegrityManager(
                storage, policy=degraded_reads, pool=self._buffer
            )
            self._refresh_repair_engine()
        elif degraded_reads != "raise" or tuple_index:
            raise QueryError(
                "online integrity requires compressed storage (heap "
                "tables are read-only baselines)"
            )

    def _build_tuple_index(self, storage: AVQFile) -> TupleOrdinalIndex:
        """Index every stored tuple (one block read per block)."""
        return TupleOrdinalIndex.build(
            (
                (storage.block_id_at(p), storage.read_block_ordinals(p))
                for p in range(storage.num_blocks)
            ),
            order=self._index_order,
        )

    def _refresh_repair_engine(self) -> None:
        """(Re)wire the repair engine to the current index set."""
        if self._integrity is None or not isinstance(
            self._storage, AVQFile
        ):
            return
        self._integrity.attach_repair_engine(
            RepairEngine(
                self._storage,
                tuple_index=self._tuple_index,
                wal=self._wal,
                secondaries=list(self._secondaries.values()),
            )
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_relation(
        cls,
        name: str,
        relation: Relation,
        disk: SimulatedDisk,
        *,
        compressed: bool = True,
        codec: Optional[BlockCodec] = None,
        index_order: int = 32,
        secondary_on: Sequence[str] = (),
        buffer_capacity: Optional[int] = None,
        durable_path: Optional[str] = None,
        wal_sync: bool = True,
        degraded_reads: str = "raise",
        tuple_index: bool = False,
    ) -> "Table":
        """Materialise a relation and build the requested indices.

        ``durable_path`` opens a write-ahead log at that path: every
        mutation is logged, transaction commit forces the log, and
        :meth:`open` recovers the table after a crash (see
        docs/RECOVERY.md).  The freshly built table is immediately
        checkpointed, so it is recoverable from the first moment.
        ``wal_sync=False`` downgrades log forces to flush-only (commits
        then survive process crashes but not OS crashes) — an escape
        hatch for tests and benchmarks.

        ``degraded_reads`` sets the corruption policy ("raise", "skip",
        or "repair") and ``tuple_index`` builds the tuple-level primary
        index that makes blocks repairable without a WAL — see
        docs/INTEGRITY.md.
        """
        if durable_path is not None and not compressed:
            raise QueryError(
                "durability requires compressed storage (heap tables "
                "are read-only baselines)"
            )
        if compressed:
            storage: StorageFile = AVQFile.build(relation, disk, codec=codec)
        else:
            if codec is not None:
                raise QueryError("codec is only meaningful for compressed tables")
            storage = HeapFile.build(relation, disk, sort=True)
        wal: Optional[WriteAheadLog] = None
        if durable_path is not None:
            wal = WriteAheadLog.create(
                durable_path,
                relation.schema,
                codec=storage.codec,
                block_size=disk.block_size,
                injector=getattr(disk, "injector", None),
                sync=wal_sync,
            )
            try:
                wal.checkpoint(relation.phi_ordinals())
                wal.write_clean(storage.directory_entries_checked())
            except BaseException:
                wal.close()
                raise
        table = cls(
            name,
            relation.schema,
            storage,
            index_order=index_order,
            buffer_capacity=buffer_capacity,
            wal=wal,
            degraded_reads=degraded_reads,
            tuple_index=tuple_index,
        )
        for attr in secondary_on:
            table.create_secondary_index(attr)
        return table

    @classmethod
    def open(
        cls,
        name: str,
        disk: SimulatedDisk,
        wal: Union[str, WriteAheadLog],
        *,
        index_order: int = 32,
        secondary_on: Sequence[str] = (),
        buffer_capacity: Optional[int] = None,
        wal_sync: bool = True,
        degraded_reads: str = "raise",
        tuple_index: bool = False,
    ) -> "Table":
        """Open a durable table from its disk and write-ahead log.

        Recovery runs first (:func:`repro.storage.wal.recover`): a
        cleanly closed table re-adopts its blocks untouched; after a
        crash, committed-but-unflushed mutations are replayed and
        uncommitted ones discarded, onto fresh blocks.  All indices are
        rebuilt from the recovered storage.  The report is available as
        :attr:`last_recovery`.
        """
        if isinstance(wal, str):
            wal = WriteAheadLog.open(
                wal,
                injector=getattr(disk, "injector", None),
                sync=wal_sync,
            )
        storage, report = recover(disk, wal)
        table = cls(
            name,
            storage.schema,
            storage,
            index_order=index_order,
            buffer_capacity=buffer_capacity,
            wal=wal,
            degraded_reads=degraded_reads,
            tuple_index=tuple_index,
        )
        table._last_recovery = report
        for attr in secondary_on:
            table.create_secondary_index(attr)
        return table

    def create_secondary_index(self, attribute: str) -> SecondaryIndex:
        """Build (or return) the Figure 4.5 secondary index on ``attribute``."""
        existing = self._secondaries.get(attribute)
        if existing is not None:
            return existing
        position = self._schema.position(attribute)
        idx = SecondaryIndex.build(
            attribute,
            position,
            self._storage.iter_blocks(),
            order=self._index_order,
        )
        self._secondaries[attribute] = idx
        self._refresh_repair_engine()
        return idx

    def create_hash_index(self, attribute: str) -> ExtendibleHashIndex:
        """Build (or return) an extendible hash index on ``attribute``.

        The paper's Section 4 allows hashing as an alternative access
        method; hash indices serve equality predicates in O(1) probes but
        cannot answer range predicates.
        """
        existing = self._hash_indices.get(attribute)
        if existing is not None:
            return existing
        position = self._schema.position(attribute)
        idx = ExtendibleHashIndex.build(
            attribute, position, self._storage.iter_blocks()
        )
        self._hash_indices[attribute] = idx
        return idx

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Table name."""
        return self._name

    @property
    def schema(self) -> Schema:
        """The table's schema."""
        return self._schema

    @property
    def storage(self) -> StorageFile:
        """The underlying storage file (AVQ or heap)."""
        return self._storage

    @property
    def compressed(self) -> bool:
        """Whether the table is AVQ-coded."""
        return isinstance(self._storage, AVQFile)

    @property
    def primary_index(self) -> PrimaryIndex:
        """The whole-tuple primary index."""
        return self._primary

    @property
    def secondary_indices(self) -> Dict[str, SecondaryIndex]:
        """Secondary indices by attribute name."""
        return dict(self._secondaries)

    @property
    def hash_indices(self) -> Dict[str, ExtendibleHashIndex]:
        """Hash indices by attribute name."""
        return dict(self._hash_indices)

    def _value_indices(self):
        """All value-to-block indices that need mutation maintenance."""
        yield from self._secondaries.values()
        yield from self._hash_indices.values()

    @property
    def num_tuples(self) -> int:
        """Tuples stored."""
        return self._storage.num_tuples

    @property
    def num_blocks(self) -> int:
        """Data blocks occupied."""
        return self._storage.num_blocks

    def __len__(self) -> int:
        return self.num_tuples

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def select(self, query: RangeQuery) -> QueryResult:
        """Execute a conjunctive range query, choosing an access path.

        Path choice, in order of preference:

        1. A predicate on the *leading* attribute uses the primary index:
           the relation is phi-clustered, so matching tuples occupy one
           contiguous run of blocks.
        2. Any predicate attribute with a secondary index uses the index
           with the smallest candidate block set.
        3. Otherwise, full scan.
        """
        if not query.predicates:
            return self._scan_all()
        bound = [p.bind(self._schema) for p in query.predicates]

        leading = next((b for b in bound if b[0] == 0), None)
        if leading is not None:
            return self._select_clustered(leading, bound)

        best: Optional[Tuple[List[int], str]] = None
        for pred, (pos, lo, hi) in zip(query.predicates, bound):
            if lo == hi:
                hidx = self._hash_indices.get(pred.attribute)
                if hidx is not None:
                    candidates = hidx.lookup(lo)
                    if best is None or len(candidates) < len(best[0]):
                        best = (candidates, f"hash:{pred.attribute}")
            idx = self._secondaries.get(pred.attribute)
            if idx is None:
                continue
            candidates = idx.range_lookup(lo, hi)
            if best is None or len(candidates) < len(best[0]):
                best = (candidates, f"secondary:{pred.attribute}")
        if best is not None:
            return self._filter_blocks(
                best[0], bound, access_path=best[1]
            )
        return self._scan_all(bound)

    def _select_clustered(self, leading, bound) -> QueryResult:
        lo, hi = leading_ordinal_range(
            self._schema.mapper, leading[1], leading[2]
        )
        block_ids = self._primary.range_blocks(lo, hi)
        return self._filter_blocks(
            block_ids, bound, access_path="primary", leading=leading
        )

    def _read_block_id(self, block_id: int):
        """Fetch and decode one block to tuples, integrity-guarded."""
        return self._storage.decode_payload(
            self._fetch_guarded(block_id, self._current_payload)
        )

    def _fetch_guarded(
        self,
        block_id: int,
        source: Callable[[int], bytes],
        *,
        repair: bool = True,
    ) -> bytes:
        """``source(block_id)`` behind the quarantine and integrity guard.

        A quarantined id is refused before any bytes move, and a fetch
        that trips corruption quarantines the block and applies the
        degraded-read policy (see :meth:`_guarded`).  ``repair=False``
        is the reader-thread form: the "repair" policy then quarantines
        and raises like "raise", because only the writer writes storage.
        """
        if self._integrity is not None:
            self._integrity.check(block_id, repair=repair)
        return self._guarded(lambda: source(block_id), repair=repair)

    def _guarded(self, read: Callable[[], _T], *, repair: bool = True) -> _T:
        """Run a read under the integrity policy, retrying after repair.

        A :class:`~repro.errors.CorruptionError` quarantines the block;
        under the "repair" policy :meth:`IntegrityManager.resolve`
        returns only after a *verified* repair, so the single retry
        reads healthy bytes.  Under any other policy resolve raises
        :class:`~repro.errors.QuarantinedBlockError` — query loops
        catch it per block when the policy is "skip"; everything else
        (point probes, mutations) lets it surface, because corrupt data
        must never be silently absent.
        """
        integ = self._integrity
        if integ is None:
            return read()
        try:
            return read()
        except CorruptionError as exc:
            integ.resolve(exc, repair=repair)
            return read()

    def _skip_degraded(self) -> bool:
        """Whether query loops may omit quarantined blocks."""
        return self._integrity is not None and self._integrity.policy == "skip"

    @property
    def buffer_pool(self):
        """The table's buffer pool, or ``None`` when unbuffered."""
        return self._buffer

    # ------------------------------------------------------------------
    # Snapshot reads (MVCC, docs/SERVING.md)
    # ------------------------------------------------------------------

    @property
    def mvcc(self) -> Optional["BlockVersionStore"]:
        """The block-version store, or ``None`` until :meth:`enable_mvcc`."""
        return self._mvcc

    def enable_mvcc(self) -> "BlockVersionStore":
        """Turn on snapshot-isolation reads for this table.

        Idempotent.  After enabling, every block rewrite stashes the
        committed pre-image and every commit boundary publishes a new
        version epoch, so :meth:`read_snapshot` hands out consistent
        frozen views while a writer keeps mutating.  On a durable table
        the commit boundary is transaction commit/abort; otherwise each
        top-level mutation publishes (statement-level consistency).

        A table whose vector codec can decode also gets its
        :attr:`ordinal_cache`, which every select reads through.
        """
        storage = self._require_avq("enable_mvcc")
        if self._mvcc is None:
            from repro.storage.mvcc import BlockVersionStore

            self._mvcc = BlockVersionStore(storage.directory_entries())
            vec = self._array_codec()
            if vec is not None:
                self._ordinals = OrdinalCache(vec)
        return self._mvcc

    @property
    def ordinal_cache(self) -> Optional[OrdinalCache]:
        """Decoded ordinal arrays shared by every select, or ``None``.

        Present once :meth:`enable_mvcc` ran on a table whose vector
        codec can decode.  Without it such a table decodes every block
        it reads; scalar-codec and heap tables filter tuples instead.
        """
        return self._ordinals

    def _array_codec(self) -> Optional["VectorizedBlockCodec"]:
        """The vector codec selects decode and filter ordinals with.

        ``None`` for heap tables, scalar-codec tables and vector codecs
        whose decode is not provably safe; those filter tuples.
        """
        if self._ordinals is not None:
            return self._ordinals.codec
        codec = getattr(self._storage, "codec", None)
        vec = getattr(codec, "vector_codec", None)
        if vec is not None and vec.decode_supported:
            return vec
        return None

    def read_snapshot(self) -> "TableSnapshot":
        """A pinned, consistent read-only view of the committed state.

        Requires :meth:`enable_mvcc`.  The returned snapshot is safe to
        query from any thread while this table keeps mutating; callers
        must :meth:`~repro.db.snapshot.TableSnapshot.close` it (it is a
        context manager) so superseded block versions can be reclaimed.
        """
        if self._mvcc is None:
            raise QueryError(
                "snapshot reads require enable_mvcc() on this table"
            )
        return TableSnapshot(self, self._mvcc, self._mvcc.snapshot())

    def _current_payload(self, block_id: int) -> bytes:
        """The latest on-disk payload, checksum-verified.

        Through the latched pool when present (it verifies on
        admission), else straight from disk and verified here, so rot
        surfaces as :class:`~repro.errors.CorruptionError` instead of
        reaching a reader — or the MVCC stash — as bytes.  Heap blocks
        carry no checksum.
        """
        if self._buffer is not None:
            return self._buffer.get(block_id)
        payload = self._disk().read_block(block_id)
        if isinstance(self._storage, AVQFile):
            self._storage.verify_payload(block_id, payload)
        return payload

    def _mvcc_stash(self, block_id: int) -> None:
        """Preserve a block's committed payload before rewriting it."""
        if self._mvcc is not None:
            self._mvcc.stash(
                block_id, lambda: self._current_payload(block_id)
            )

    def _mvcc_publish(self) -> None:
        """Seal the current epoch at a commit boundary."""
        if self._mvcc is not None and isinstance(self._storage, AVQFile):
            entries = self._storage.directory_entries()
            self._mvcc.publish(entries)
            if self._ordinals is not None:
                self._ordinals.retain(entries)

    def _read_blocks(
        self,
        block_ids: Sequence[int],
        source: Callable[[int], bytes],
        bound: Sequence[BoundPredicate],
        leading: Optional[BoundPredicate] = None,
        *,
        repair: bool = True,
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> _BlockScan:
        """The one block loop behind every select, live or snapshot.

        For each block id, in order: poll ``should_cancel``; fetch the
        payload from ``source`` behind the quarantine check and the
        integrity guard (:meth:`_fetch_guarded`); decode it; filter it.
        A table with an :attr:`ordinal_cache` decodes through it, any
        other decode-capable vector codec decodes to an ordinal array
        directly, and both filter in ordinal space (``leading``, the
        leading-attribute predicate, becomes one slice).  Scalar-codec
        and heap tables decode tuples and run :func:`filter_tuples`.
        Under the "skip" policy a quarantined block is listed in
        ``skipped`` instead of raising.  ``fetch_ms`` covers fetch and
        decode, ``filter_ms`` the filter (the Eq. 5.7 ``t1`` and
        ``t_cpu`` terms, as far as the wall clock separates them).
        """
        cache = self._ordinals
        vec = self._array_codec()
        ordinal_range = None
        if leading is not None:
            ordinal_range = leading_ordinal_range(
                self._schema.mapper, leading[1], leading[2]
            )
        masked = [b for b in bound if b is not leading]
        skip = self._skip_degraded()
        tally0 = cache.tally() if cache is not None else (0, 0)
        out: List[Tuple[int, ...]] = []
        examined = 0
        skipped: List[int] = []
        fetch_ms = filter_ms = 0.0
        t0 = _obs.now_ms()
        for block_id in block_ids:
            if should_cancel is not None and should_cancel():
                raise QueryCancelled(
                    f"select on {self._name!r} cancelled at block "
                    f"{block_id}"
                )
            try:
                payload = self._fetch_guarded(block_id, source, repair=repair)
            except QuarantinedBlockError:
                if not skip:
                    raise
                skipped.append(block_id)
                continue
            if vec is None:
                tuples = self._storage.decode_payload(payload)
                t1 = _obs.now_ms()
                examined += len(tuples)
                out.extend(filter_tuples(tuples, bound))
            else:
                if cache is not None:
                    ordinals = cache.ordinals(block_id, payload)
                else:
                    ordinals = _decode_ordinals(vec, payload)
                t1 = _obs.now_ms()
                examined += _filter_array(
                    vec, ordinals, ordinal_range, masked, out
                )
            t2 = _obs.now_ms()
            fetch_ms += t1 - t0
            filter_ms += t2 - t1
            t0 = t2
        fetch_ms += _obs.now_ms() - t0
        tally = cache.tally() if cache is not None else (0, 0)
        return _BlockScan(
            rows=out,
            examined=examined,
            skipped=skipped,
            fetch_ms=fetch_ms,
            filter_ms=filter_ms,
            cache_hits=tally[0] - tally0[0],
            cache_misses=tally[1] - tally0[1],
        )

    def _filter_blocks(
        self, block_ids, bound, *, access_path, leading=None
    ) -> QueryResult:
        disk = self._disk()
        start_ms = disk.stats.elapsed_ms
        profiler = QueryProfiler(
            disk.stats,
            self._buffer.stats if self._buffer is not None else None,
        )
        with _obs.span(
            "query.select",
            table=self._name,
            access_path=access_path,
            candidates=len(block_ids),
            codec_path=self._codec_path(),
        ):
            scan = self._read_blocks(
                block_ids, self._current_payload, bound, leading
            )
        profile = profiler.finish(
            access_path=access_path,
            candidate_blocks=len(block_ids),
            tuples_examined=scan.examined,
            matched=len(scan.rows),
            skipped_blocks=len(scan.skipped),
            decoded_hits=scan.cache_hits,
            decoded_misses=scan.cache_misses,
            stages={"fetch_decode": scan.fetch_ms, "filter": scan.filter_ms},
        )
        self._publish_query_metrics(profile)
        return QueryResult(
            tuples=scan.rows,
            blocks_read=len(block_ids) - len(scan.skipped),
            tuples_examined=scan.examined,
            access_path=access_path,
            io_ms=disk.stats.elapsed_ms - start_ms,
            candidate_blocks=list(block_ids),
            skipped_blocks=scan.skipped,
            profile=profile,
        )

    def _scan_all(self, bound=()) -> QueryResult:
        # A full scan visits every block by id through the same block
        # loop as any other select; a scan lists no candidate blocks.
        result = self._filter_blocks(
            self._storage.block_ids, bound, access_path="scan"
        )
        result.candidate_blocks = []
        return result

    def _codec_path(self) -> str:
        """Which decode implementation this table's reads run through."""
        codec = getattr(self._storage, "codec", None)
        if codec is not None and getattr(codec, "vectorized", False):
            return "vector"
        return "scalar"

    def _publish_query_metrics(self, profile: QueryProfile) -> None:
        """Mirror one query's profile into the registry when enabled."""
        reg = _obs.REGISTRY
        if reg is None:
            return
        reg.inc("query.count")
        reg.inc("query.blocks_read", profile.blocks_read)
        reg.inc("query.tuples_examined", profile.tuples_examined)
        reg.inc("query.matched", profile.matched)
        reg.observe("query.io_ms", profile.io_ms)
        reg.observe(
            "query.fetch_decode_ms", profile.stages.get("fetch_decode", 0.0)
        )
        reg.observe("query.filter_ms", profile.stages.get("filter", 0.0))

    def _disk(self) -> SimulatedDisk:
        return self._storage._disk  # shared within the package

    # ------------------------------------------------------------------
    # Durability (write-ahead log)
    # ------------------------------------------------------------------

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The table's write-ahead log, or ``None`` when not durable."""
        return self._wal

    @property
    def durable(self) -> bool:
        """Whether mutations are protected by a write-ahead log."""
        return self._wal is not None

    @property
    def last_recovery(self):
        """The :class:`~repro.storage.wal.RecoveryReport` from
        :meth:`open`, or ``None`` for a freshly built table."""
        return self._last_recovery

    def begin_wal_transaction(self) -> Optional[int]:
        """Start a logged transaction; returns its id (``None`` if not
        durable).

        Durable tables are single-writer: starting a second transaction
        while one is active is an error (its log records would
        interleave under distinct tids but its mutations would not).
        """
        if self._wal is None:
            return None
        if self._active_tid is not None:
            raise QueryError(
                "a durable transaction is already active on this table"
            )
        self._active_tid = self._wal.begin()
        return self._active_tid

    def commit_wal_transaction(self, tid: int) -> None:
        """Log COMMIT and force the log; the transaction is now durable."""
        self._require_wal_txn(tid).commit(tid)
        self._active_tid = None
        self._mvcc_publish()

    def abort_wal_transaction(self, tid: int) -> None:
        """Log ABORT (recovery would have discarded the txn anyway).

        Also a version-epoch boundary: rollback restored the logical
        content but may have left a different physical block layout
        (splits do not merge back), so snapshot readers need a fresh
        directory.
        """
        self._require_wal_txn(tid).abort(tid)
        self._active_tid = None
        self._mvcc_publish()

    def _require_wal_txn(self, tid: int) -> WriteAheadLog:
        if self._wal is None:
            raise QueryError("table has no write-ahead log")
        if tid != self._active_tid:
            raise QueryError(
                f"transaction {tid} is not this table's active "
                f"transaction ({self._active_tid})"
            )
        return self._wal

    def _wal_log(self, op: str, ordinal: int) -> None:
        """Log one applied mutation.

        Inside a transaction the record rides under the active tid and
        stays buffered until commit forces.  Outside one, the mutation
        is its own committed transaction (autocommit), forced before
        returning — so a plain ``table.insert`` is durable the moment it
        returns.
        """
        if self._wal is None:
            return
        tid = self._active_tid
        if tid is None:
            tid = self._wal.begin()
            self._log_op(tid, op, ordinal)
            self._wal.commit(tid)
        else:
            self._log_op(tid, op, ordinal)

    def _log_op(self, tid: int, op: str, ordinal: int) -> None:
        if self._wal is None:  # pragma: no cover - guarded by callers
            raise QueryError("table has no write-ahead log")
        if op == "insert":
            self._wal.log_insert(tid, ordinal)
        else:
            self._wal.log_delete(tid, ordinal)

    def _wal_ensure_dirty(self) -> None:
        """The write-ahead step proper, before any data-block mutation.

        While the durable log ends in CLEAN, recovery would re-adopt
        the recorded block directory verbatim — so the marker must be
        durably superseded *before* the first block changes, or a torn
        data write could hide behind a still-clean log.
        """
        if self._wal is not None:
            self._wal.ensure_dirty()

    def checkpoint(self) -> None:
        """Write a full logical image plus clean marker to the log.

        Bounds replay work at the next open; immediately afterwards a
        reopen attaches the current blocks without any rebuilding.
        Forbidden while a transaction is active — the image must hold
        committed state only.
        """
        storage = self._require_avq("checkpoint")
        if self._wal is None:
            raise QueryError("checkpoint requires a durable table")
        if self._active_tid is not None:
            raise QueryError(
                "cannot checkpoint while a transaction is active"
            )
        self._wal.checkpoint(storage.all_ordinals())
        self._wal.write_clean(storage.directory_entries_checked())

    def close(self) -> None:
        """Cleanly shut the table down (checkpoint + close the log).

        After close, reopening via :meth:`open` is a byte-for-byte
        no-op on the disk.  A non-durable table has nothing to close.
        """
        if self._wal is None:
            return
        self.checkpoint()
        self._wal.close()

    # ------------------------------------------------------------------
    # Online integrity (docs/INTEGRITY.md)
    # ------------------------------------------------------------------

    @property
    def integrity(self) -> Optional[IntegrityManager]:
        """The table's integrity manager (``None`` for heap baselines)."""
        return self._integrity

    @property
    def quarantined_blocks(self) -> List[int]:
        """Disk ids currently quarantined as corrupt (empty when healthy)."""
        if self._integrity is None:
            return []
        return self._integrity.quarantine.block_ids()

    @property
    def tuple_ordinal_index(self) -> Optional[TupleOrdinalIndex]:
        """The tuple-level primary index, when built (``tuple_index=True``)."""
        return self._tuple_index

    def scrub(
        self,
        *,
        max_blocks: Optional[int] = None,
        backfill: bool = False,
    ) -> ScrubReport:
        """Verify the next ``max_blocks`` blocks (resumable; see Scrubber).

        Damage found is quarantined and purged from the caches; the
        report lists every finding.  ``backfill=True`` records checksums
        for blocks adopted from a pre-checksum directory.
        """
        integ = self._require_integrity("scrub")
        return integ.scrub(max_blocks=max_blocks, backfill=backfill)

    def fsck(
        self, *, repair: bool = False, backfill: bool = False
    ) -> IntegrityReport:
        """Full-file check, optionally repairing what can be proven.

        Scrubs every block from position 0, quarantining damage; with
        ``repair=True``, each damaged block is fed to the repair engine
        and released only after byte-verified reconstruction.  Blocks no
        source can prove stay quarantined — listed as unrepairable,
        never silently returned.
        """
        integ = self._require_integrity("fsck")
        return integ.fsck(repair=repair, backfill=backfill)

    def repair_block(self, position: int) -> RepairOutcome:
        """Repair one block by position; raises if it cannot be proven."""
        integ = self._require_integrity("repair_block")
        return integ.repair_block(position)

    def _require_integrity(self, op: str) -> IntegrityManager:
        if self._integrity is None:
            raise QueryError(
                f"{op} requires compressed storage; heap tables are "
                "read-only baselines"
            )
        return self._integrity

    # ------------------------------------------------------------------
    # Mutations (Section 4.2)
    # ------------------------------------------------------------------

    def insert(self, values: Sequence[int]) -> None:
        """Insert one ordinal tuple, maintaining every index.

        Under the "repair" policy, an insert that lands on a corrupt
        block repairs it first; under any other policy the corruption
        surfaces — mutations never skip (see :meth:`_guarded`).
        """
        storage = self._require_avq("insert")
        t = tuple(int(v) for v in values)
        self._schema.mapper.validate(t)
        ordinal = self._schema.mapper.phi(t)
        self._guarded(lambda: self._insert_impl(storage, t, ordinal))
        if self._active_tid is None:
            # Top-level mutation = its own commit boundary (autocommit,
            # mirroring the WAL's); inside a durable transaction the
            # epoch publishes at commit/abort instead.
            self._mvcc_publish()

    def _insert_impl(
        self, storage: AVQFile, t: Tuple[int, ...], ordinal: int
    ) -> None:
        self._wal_ensure_dirty()

        if storage.num_blocks == 0:
            storage.insert(t)
            block_id = storage.block_ids[0]
            self._primary.add_block(storage.block_range(0)[0], block_id)
            for idx in self._value_indices():
                idx.add(t[idx.position], block_id)
            if self._tuple_index is not None:
                self._tuple_index.add(ordinal, block_id)
            self._wal_log("insert", ordinal)
            return

        pos = storage.block_of_ordinal(ordinal)
        old_min = storage.block_range(pos)[0]
        old_id = storage.block_ids[pos]
        if self._integrity is not None:
            self._integrity.check(old_id)
        self._mvcc_stash(old_id)
        has_value_indices = bool(self._secondaries or self._hash_indices)
        old_tuples = storage.read_block(pos) if has_value_indices else None
        blocks_before = storage.num_blocks

        storage.insert(t)
        if self._buffer is not None:
            self._buffer.invalidate(old_id)

        new_min = storage.block_range(pos)[0]
        if new_min != old_min:
            self._primary.move_block(old_min, new_min, old_id)
        split = storage.num_blocks > blocks_before
        if split:
            new_id = storage.block_ids[pos + 1]
            self._primary.add_block(storage.block_range(pos + 1)[0], new_id)
        if self._tuple_index is not None:
            # Provisionally file the new tuple under the old block, then
            # migrate every occurrence the split moved right — covers
            # the inserted tuple landing on either side.
            self._tuple_index.add(ordinal, old_id)
            if split:
                for moved in storage.read_block_ordinals(pos + 1):
                    self._tuple_index.reassign(
                        moved, old_id, storage.block_ids[pos + 1]
                    )
        if has_value_indices:
            new_left = storage.read_block(pos)
            new_right = storage.read_block(pos + 1) if split else []
            for idx in self._value_indices():
                idx.reindex_block(old_id, old_tuples, new_left)
                if split:
                    idx.reindex_block(storage.block_ids[pos + 1], [], new_right)
        self._wal_log("insert", ordinal)

    def delete(self, values: Sequence[int]) -> bool:
        """Delete one occurrence of a tuple; returns whether it existed.

        Integrity-guarded like :meth:`insert`: corruption on the target
        block is repaired (under "repair") or surfaced, never skipped —
        a delete that silently missed a stored tuple would corrupt the
        logical state on top of the physical damage.
        """
        storage = self._require_avq("delete")
        t = tuple(int(v) for v in values)
        self._schema.mapper.validate(t)
        ordinal = self._schema.mapper.phi(t)
        removed = self._guarded(
            lambda: self._delete_impl(storage, t, ordinal)
        )
        if self._active_tid is None:
            self._mvcc_publish()
        return removed

    def _delete_impl(
        self, storage: AVQFile, t: Tuple[int, ...], ordinal: int
    ) -> bool:
        if storage.num_blocks == 0:
            return False

        pos = storage.block_of_ordinal(ordinal)
        old_min = storage.block_range(pos)[0]
        old_id = storage.block_ids[pos]
        if self._integrity is not None:
            self._integrity.check(old_id)
        self._mvcc_stash(old_id)
        has_value_indices = bool(self._secondaries or self._hash_indices)
        old_tuples = storage.read_block(pos) if has_value_indices else None
        blocks_before = storage.num_blocks

        self._wal_ensure_dirty()
        if not storage.delete(t):
            return False
        if self._buffer is not None:
            self._buffer.invalidate(old_id)
        if self._tuple_index is not None:
            self._tuple_index.remove(ordinal, old_id)

        removed = storage.num_blocks < blocks_before
        if removed:
            self._primary.remove_block(old_min)
            if has_value_indices:
                for idx in self._value_indices():
                    idx.reindex_block(old_id, old_tuples, [])
            self._wal_log("delete", ordinal)
            return True

        new_min = storage.block_range(pos)[0]
        if new_min != old_min:
            self._primary.move_block(old_min, new_min, old_id)
        if has_value_indices:
            new_tuples = storage.read_block(pos)
            for idx in self._value_indices():
                idx.reindex_block(old_id, old_tuples, new_tuples)
        self._wal_log("delete", ordinal)
        return True

    def update(self, old: Sequence[int], new: Sequence[int]) -> bool:
        """Section 4.2: modification as deletion plus insertion."""
        if not self.delete(old):
            return False
        self.insert(new)
        return True

    def contains(self, values: Sequence[int]) -> bool:
        """Point probe: whether this exact tuple is stored.

        Compressed tables answer via the early-exit difference-stream
        walk (one block read, no reconstruction); heap tables decode the
        one candidate block.
        """
        t = tuple(int(v) for v in values)
        self._schema.mapper.validate(t)
        storage = self._storage
        if isinstance(storage, AVQFile):
            return self._guarded(lambda: self._contains_impl(storage, t))
        if storage.num_blocks == 0:
            return False
        pos = storage.block_of_ordinal(self._schema.mapper.phi(t))
        return t in storage.read_block(pos)

    def _contains_impl(self, storage: AVQFile, t: Tuple[int, ...]) -> bool:
        ordinal = self._schema.mapper.phi(t)
        pos = storage.covering_block_of_ordinal(ordinal)
        if pos is None:
            return False
        if self._integrity is not None:
            # A probe must never answer "absent" from a quarantined
            # block — refuse (or repair) before looking.
            self._integrity.check(storage.block_id_at(pos))
        return storage.contains_ordinal(ordinal)

    def delete_where(self, query: RangeQuery) -> int:
        """Delete every tuple matching ``query``; returns the count.

        Matching tuples are collected first (deleting while scanning
        would shift blocks under the scan), then removed one by one so
        all index maintenance runs through the ordinary delete path.
        """
        self._require_avq("delete_where")
        victims = self.select(query).tuples
        deleted = 0
        for t in victims:
            if self.delete(t):
                deleted += 1
        return deleted

    def compact(self) -> int:
        """Repack fragmented storage (after churn); returns blocks saved.

        All indices are rebuilt against the new block layout, and the
        buffer pool (if any) is emptied — every cached payload is stale.
        """
        storage = self._require_avq("compact")
        saved = storage.compact()
        self._primary = PrimaryIndex.build(
            self._schema.mapper, storage.directory(), order=self._index_order
        )
        rebuilt_secondaries = {}
        for name in self._secondaries:
            rebuilt_secondaries[name] = SecondaryIndex.build(
                name,
                self._schema.position(name),
                storage.iter_blocks(),
                order=self._index_order,
            )
        self._secondaries = rebuilt_secondaries
        rebuilt_hashes = {}
        for name in self._hash_indices:
            rebuilt_hashes[name] = ExtendibleHashIndex.build(
                name, self._schema.position(name), storage.iter_blocks()
            )
        self._hash_indices = rebuilt_hashes
        if self._tuple_index is not None:
            self._tuple_index = self._build_tuple_index(storage)
        self._refresh_repair_engine()
        if self._buffer is not None:
            self._buffer.clear()
        # Compaction abandons the old blocks (their bytes stay on the
        # simulated disk), so pinned snapshots keep reading them; new
        # snapshots need the repacked directory, hence a fresh epoch.
        self._mvcc_publish()
        return saved

    def _require_avq(self, op: str) -> AVQFile:
        if not isinstance(self._storage, AVQFile):
            raise QueryError(
                f"{op} requires compressed storage; heap tables are "
                "read-only baselines"
            )
        return self._storage
