"""The table facade: storage plus indices plus Section 4 operations.

A :class:`Table` ties together one stored relation (AVQ-coded or plain
heap), its block directory, and any number of Figure 4.5 secondary
and hash indices.  It exposes the operations Section 4 discusses:

* ``select`` — range queries with automatic access-path choice by the
  one planner (:mod:`repro.db.planner`): the clustered directory cut
  for the leading attribute, a value index where one exists, full scan
  otherwise;
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
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.codec import BlockCodec
from repro.errors import (
    CorruptionError,
    QuarantinedBlockError,
    QueryCancelled,
    QueryError,
)
from repro.db.planner import Explain, ValueIndex, explain, plan
from repro.db.query import (
    BoundPredicate,
    QueryResult,
    RangeQuery,
    filter_tuples,
    leading_ordinal_range,
)
from repro.db.snapshot import OrdinalCache, TableSnapshot, _filter_array
from repro.obs import runtime as _obs
from repro.obs.profile import QueryProfile, QueryProfiler
from repro.index.hashindex import ExtendibleHashIndex
from repro.index.primary import TupleOrdinalIndex
from repro.index.secondary import SecondaryIndex
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.storage.avqfile import AVQFile, BlockRewrite, OrdinalReader, Span
from repro.storage.directory import BlockDirectory
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
    from repro.storage.buffer import BufferPool
    from repro.storage.mvcc import BlockVersionStore

__all__ = ["Table"]

StorageFile = Union[AVQFile, HeapFile]


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
        self._heap_directory = BlockDirectory()
        self._secondaries: Dict[str, SecondaryIndex] = {}
        self._hash_indices: Dict[str, ExtendibleHashIndex] = {}
        self._tuple_index: Optional[TupleOrdinalIndex] = None
        self._integrity: Optional[IntegrityManager] = None
        #: Whether reads decode ordinal arrays and filter them; the
        #: rest (spaces above 2**61, heap tables) filter tuples.
        self._arrays = (
            isinstance(storage, AVQFile) and storage.codec.mapper.fits_int64
        )
        if isinstance(storage, AVQFile):
            self._integrity = IntegrityManager(
                storage, policy=degraded_reads, pool=self._buffer
            )
            self._refresh_repair_engine()
            if tuple_index:
                self._tuple_index = TupleOrdinalIndex.build(
                    self._blocks(), order=index_order
                )
                self._refresh_repair_engine()
        elif degraded_reads != "raise" or tuple_index:
            raise QueryError(
                "online integrity requires compressed storage (heap "
                "tables are read-only baselines)"
            )
        else:
            # The directory's cut and probes assume phi-clustered blocks.
            if not storage._sort:  # shared within the package
                raise QueryError("heap tables need a phi-sorted heap file")
            # Heap tables never mutate: one pass keys their directory.
            phi = schema.mapper.phi
            self._heap_directory = BlockDirectory.of(
                [
                    (block_id, phi(tuples[0]), phi(tuples[-1]), len(tuples))
                    for block_id, tuples in storage.iter_blocks()
                ]
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
            attribute, position, self._block_tuples(), order=self._index_order
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
            attribute, position, self._block_tuples()
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
    def secondary_indices(self) -> Dict[str, SecondaryIndex]:
        """Secondary indices by attribute name."""
        return dict(self._secondaries)

    @property
    def hash_indices(self) -> Dict[str, ExtendibleHashIndex]:
        """Hash indices by attribute name."""
        return dict(self._hash_indices)

    def _value_indices(self) -> List[ValueIndex]:
        """Every value-to-block index: hash indices first, so the planner
        tries a hash probe before a secondary one on the same attribute."""
        return [*self._hash_indices.values(), *self._secondaries.values()]

    def _directory(self) -> BlockDirectory:
        """The block directory live reads plan over (not a copy)."""
        if isinstance(self._storage, AVQFile):
            return self._storage.block_directory
        return self._heap_directory

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

        The one planner (:func:`repro.db.planner.plan`) picks the path
        over the live directory and this table's value indices: the
        clustered cut for a leading-attribute predicate, else the value
        index with the fewest candidate blocks, else a full scan.
        """
        bound = [p.bind(self._schema) for p in query.predicates]
        chosen = plan(
            bound,
            self._schema.mapper,
            self._directory(),
            self._value_indices(),
        )
        disk = self._disk()
        start_ms = disk.stats.elapsed_ms
        profiler = QueryProfiler(
            disk.stats,
            self._buffer.stats if self._buffer is not None else None,
        )
        with _obs.span(
            "query.select",
            table=self._name,
            access_path=chosen.path,
            candidates=len(chosen.block_ids),
            codec_path=self._codec_path(),
        ):
            scan = self._read_blocks(
                chosen.block_ids, self._current_payload, bound, chosen.leading
            )
        profile = profiler.finish(
            access_path=chosen.path,
            candidate_blocks=len(chosen.block_ids),
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
            blocks_read=len(chosen.block_ids) - len(scan.skipped),
            tuples_examined=scan.examined,
            access_path=chosen.path,
            io_ms=disk.stats.elapsed_ms - start_ms,
            candidate_blocks=chosen.block_ids,
            skipped_blocks=scan.skipped,
            profile=profile,
        )

    def explain(self, query: RangeQuery) -> Explain:
        """EXPLAIN: every applicable path with its exact ``N`` and its
        Equation 5.7 cost, the one :meth:`select` takes marked."""
        return explain(
            query,
            [p.bind(self._schema) for p in query.predicates],
            self._schema.mapper,
            self._directory(),
            self._value_indices(),
            compressed=self.compressed,
        )

    def _fetch_guarded(
        self,
        block_id: int,
        source: Callable[[int], bytes],
        *,
        repair: bool = True,
    ) -> bytes:
        """``source(block_id)`` behind the quarantine and integrity guard.

        A quarantined id is refused before any bytes move.  A
        :class:`~repro.errors.CorruptionError` quarantines the block;
        under the "repair" policy :meth:`IntegrityManager.resolve`
        returns only after a *verified* repair, so the single retry
        reads healthy bytes.  Under any other policy resolve raises
        :class:`~repro.errors.QuarantinedBlockError` — query loops
        catch it per block when the policy is "skip"; everything else
        (point probes, mutations) lets it surface, because corrupt data
        must never be silently absent.  ``repair=False`` is the
        reader-thread form: the "repair" policy then quarantines and
        raises like "raise", because only the writer writes storage.
        """
        integ = self._integrity
        if integ is None:
            return source(block_id)
        integ.check(block_id, repair=repair)
        try:
            return source(block_id)
        except CorruptionError as exc:
            integ.resolve(exc, repair=repair)
            return source(block_id)

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

        A table whose ordinal space fits int64 also gets its
        :attr:`ordinal_cache`, which every read goes through.
        """
        storage = self._require_avq("enable_mvcc")
        if self._mvcc is None:
            from repro.storage.mvcc import BlockVersionStore

            self._mvcc = BlockVersionStore(storage.block_directory)
            if self._arrays:
                self._ordinals = OrdinalCache(storage.codec)
        return self._mvcc

    @property
    def ordinal_cache(self) -> Optional[OrdinalCache]:
        """Decoded ordinal arrays shared by every select, or ``None``.

        Present once :meth:`enable_mvcc` ran on a table whose ordinal
        space fits int64, whatever its codec.  Without it such a table
        decodes every block it reads; tables over wider spaces and heap
        tables filter tuples instead.
        """
        return self._ordinals

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

    def _mvcc_publish(self) -> None:
        """Seal the current epoch at a commit boundary."""
        if self._mvcc is not None and isinstance(self._storage, AVQFile):
            directory = self._storage.block_directory
            self._mvcc.publish(directory)
            if self._ordinals is not None:
                self._ordinals.retain(directory)

    def _read_blocks(
        self,
        block_ids: Sequence[int],
        source: Callable[[int], bytes],
        bound: Sequence[BoundPredicate],
        leading: Optional[BoundPredicate] = None,
        *,
        repair: bool = True,
        should_cancel: Optional[Callable[[], bool]] = None,
        allow_skip: bool = True,
    ) -> _BlockScan:
        """The one block loop behind every select, live or snapshot.

        For each block id, in order: poll ``should_cancel``; fetch the
        payload from ``source`` behind the quarantine check and the
        integrity guard (:meth:`_fetch_guarded`); decode it; filter it.
        A table whose ordinal space fits int64 decodes an ordinal array
        (:meth:`_decode`) and filters it in ordinal space (``leading``,
        the leading-attribute predicate, becomes one slice).  Tables
        over wider spaces and heap tables decode tuples and run
        :func:`filter_tuples`.
        Under the "skip" policy a quarantined block is listed in
        ``skipped`` instead of raising, unless ``allow_skip`` is false:
        an answer that cannot name what it left out (an aggregate, a
        join, a point probe) raises under every policy.  ``fetch_ms``
        covers fetch and decode, ``filter_ms`` the filter (the Eq. 5.7
        ``t1`` and ``t_cpu`` terms, as far as the wall clock separates
        them).
        """
        cache = self._ordinals
        mapper = self._schema.mapper
        ordinal_range = None
        if leading is not None:
            ordinal_range = leading_ordinal_range(mapper, leading[1], leading[2])
        masked = [b for b in bound if b is not leading]
        skip = allow_skip and self._skip_degraded()
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
            if self._arrays:
                ordinals = self._decode(block_id, payload)
                t1 = _obs.now_ms()
                examined += _filter_array(
                    mapper, ordinals, ordinal_range, masked, out
                )
            else:
                tuples = self._storage.decode_payload(payload)
                t1 = _obs.now_ms()
                examined += len(tuples)
                out.extend(filter_tuples(tuples, bound))
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

    def _decode(self, block_id: int, payload: bytes) -> np.ndarray:
        """A fetched block's sorted ordinal array (int64 tables only):
        through the :attr:`ordinal_cache` when the table has one, else
        the codec's one counted array decode."""
        if self._ordinals is not None:
            return self._ordinals.ordinals(block_id, payload)
        return self._require_avq("decode").codec.decode_ordinals_array(payload)

    def _read_ordinals(self, block_id: int) -> Tuple[bytes, List[int]]:
        """One block's verified payload and sorted ordinals, read behind
        the guard (:meth:`_fetch_guarded`) like a select's: how every
        mutation and whole-file read reads a block."""
        payload = self._fetch_guarded(block_id, self._current_payload)
        ordinals: List[int]
        if self._arrays:
            ordinals = self._decode(block_id, payload).tolist()
        else:
            ordinals = self._require_avq("decode").codec.decode_ordinals(
                payload
            )
        return payload, ordinals

    def _blocks(self) -> Iterator[Tuple[int, List[int]]]:
        """Every block's id and sorted ordinals, in phi order, each read
        by :meth:`_read_ordinals`: the whole-file read behind
        checkpoints and index builds."""
        for block_id in list(self._directory().ids):
            yield block_id, self._read_ordinals(block_id)[1]

    def _block_tuples(self) -> Iterator[Tuple[int, List[Tuple[int, ...]]]]:
        """Every block's id and phi-ordered tuples (index builds)."""
        if not isinstance(self._storage, AVQFile):
            return self._storage.iter_blocks()
        mapper = self._schema.mapper
        return (
            (block_id, mapper.phi_inverse_many(ordinals))
            for block_id, ordinals in self._blocks()
        )

    def _codec_path(self) -> str:
        """Which decoder this table's reads run through: its codec's
        :attr:`~repro.core.codec.BlockCodec.decode_path`, or
        ``"scalar"`` for heap files."""
        if isinstance(self._storage, AVQFile):
            return self._storage.codec.decode_path
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
        wal = self._wal
        if wal is None:
            return
        tid = self._active_tid
        if tid is None:
            tid = wal.begin()
        (wal.log_insert if op == "insert" else wal.log_delete)(tid, ordinal)
        if self._active_tid is None:
            wal.commit(tid)

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
        self._wal.checkpoint(
            [o for _, ordinals in self._blocks() for o in ordinals]
        )
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
        surfaces — mutations never skip (see :meth:`_fetch_guarded`).
        """
        storage = self._require_avq("insert")
        ordinal = self._ordinal_of(values)
        self._mutate(
            lambda read: storage.insert_span(ordinal, read),
            ("insert", ordinal),
        )

    def delete(self, values: Sequence[int]) -> bool:
        """Delete one occurrence of a tuple; returns whether it existed.

        Integrity-guarded like :meth:`insert`: corruption on the target
        block is repaired (under "repair") or surfaced, never skipped —
        a delete that silently missed a stored tuple would corrupt the
        logical state on top of the physical damage.  An absent tuple
        writes, stashes and logs nothing.
        """
        storage = self._require_avq("delete")
        ordinal = self._ordinal_of(values)
        change = self._mutate(
            lambda read: storage.delete_span(ordinal, read),
            ("delete", ordinal),
        )
        return change is not None

    def _ordinal_of(self, values: Sequence[int]) -> int:
        t = tuple(int(v) for v in values)
        self._schema.mapper.validate(t)
        return self._schema.mapper.phi(t)

    def _mutate(
        self,
        choose: Callable[[OrdinalReader], Optional[Span]],
        logged: Optional[Tuple[str, int]] = None,
    ) -> Optional[BlockRewrite]:
        """Make a span choice over guarded reads and apply its rewrite.

        The one place a mutation touches storage.  Each block the
        choice reads is fetched once (:meth:`_fetch_guarded`) and
        decoded through the :attr:`ordinal_cache` when the table has
        one.  Only when the choice writes, in order: mark the WAL
        dirty, stash the fetched payloads, rewrite, drop the old ids
        from the buffer pool, move the tuple-index entries whose block
        changed, reindex every old or new block in the value indices,
        log ``logged`` to the WAL, and publish a version epoch unless a
        durable transaction is open (it publishes at commit or abort).
        An old id's ordinal-cache entry stays: it is payload-checked,
        so it only answers for the pre-image the stash serves.
        """
        storage = self._require_avq("mutate")
        fetched: Dict[int, bytes] = {}

        def read(position: int) -> List[int]:
            block_id = storage.block_id_at(position)
            fetched[block_id], ordinals = self._read_ordinals(block_id)
            return ordinals

        span = choose(read)
        if span is None:
            return None
        self._wal_ensure_dirty()
        if self._mvcc is not None:
            for block_id, payload in fetched.items():
                self._mvcc.stash(block_id, lambda p=payload: p)
        change = storage.rewrite(*span)
        if self._buffer is not None:
            for block_id in change.old_ids:
                self._buffer.invalidate(block_id)
        if self._tuple_index is not None:
            self._tuple_index.move(
                zip(change.old_ids, change.old_runs),
                zip(change.new_ids, change.new_runs),
            )
        indices = self._value_indices()
        if indices:
            old = dict(zip(change.old_ids, change.old_runs))
            new = dict(zip(change.new_ids, change.new_runs))
            mapper = self._schema.mapper
            for block_id in dict.fromkeys(change.old_ids + change.new_ids):
                before = mapper.phi_inverse_many(old.get(block_id, ()))
                after = mapper.phi_inverse_many(new.get(block_id, ()))
                for idx in indices:
                    idx.reindex_block(block_id, before, after)
        if logged is not None:
            self._wal_log(*logged)
        if self._active_tid is None:
            self._mvcc_publish()
        return change

    def update(self, old: Sequence[int], new: Sequence[int]) -> bool:
        """Section 4.2: modification as deletion plus insertion."""
        if not self.delete(old):
            return False
        self.insert(new)
        return True

    def contains(self, values: Sequence[int]) -> bool:
        """Point probe: whether this exact tuple is stored.

        Reads the one block the directory says can hold it, through the
        same guarded fetch, decode and filter as :meth:`select`; a
        tuple outside every block's range costs no read.
        """
        return self._probe(self._directory(), values, self._current_payload)

    def _probe(
        self,
        directory: BlockDirectory,
        values: Sequence[int],
        source: Callable[[int], bytes],
        *,
        repair: bool = True,
    ) -> bool:
        """Whether ``values`` is stored in ``directory``'s blocks.

        A corrupt or quarantined block raises rather than answering
        "absent", under every policy.
        """
        t = tuple(int(v) for v in values)
        self._schema.mapper.validate(t)
        position = directory.covering(self._schema.mapper.phi(t))
        if position is None:
            return False
        bound = [(pos, v, v) for pos, v in enumerate(t)]
        scan = self._read_blocks(
            [directory.ids[position]], source, bound, bound[0], repair=repair,
            allow_skip=False,
        )
        return bool(scan.rows)

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
        """Repack fragmented storage in place (after churn); returns
        blocks saved.

        One rewrite of every block (:meth:`AVQFile.compact_span`),
        applied like any mutation (:meth:`_mutate`): pinned snapshots
        read the stashed old blocks, the buffer pool drops them, and
        the indices move only what changed.
        """
        storage = self._require_avq("compact")
        blocks_before = storage.num_blocks
        self._mutate(storage.compact_span)
        if self._ordinals is not None:
            # Every entry is now a pre-image: drop the whole decoded
            # copy of the old file rather than keep it for stash reads.
            self._ordinals.clear()
        return blocks_before - storage.num_blocks

    def _require_avq(self, op: str) -> AVQFile:
        if not isinstance(self._storage, AVQFile):
            raise QueryError(
                f"{op} requires compressed storage; heap tables are "
                "read-only baselines"
            )
        return self._storage
