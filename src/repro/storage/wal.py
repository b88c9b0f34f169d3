"""Write-ahead logging and crash recovery for durable tables.

The paper's Section 4 mutations are block-local and eager: an insert
re-codes the affected block in place.  That is fast, but a crash between
(or worse, *during*) block writes leaves the file arbitrarily damaged —
and difference coding amplifies a torn block write into every tuple
behind the tear.  This module adds the classic cure:

* an **append-only, CRC-framed redo/undo log** on the real filesystem,
  reusing the container framing conventions of :mod:`repro.io.format`
  (big-endian fixed-width fields, CRC32 over every body, schema and
  codec configuration in a JSON header);
* a **logical checkpoint** record carrying the full phi-ordinal image of
  the table — mutations between checkpoints are logged as logical
  operations (``insert ordinal`` / ``delete ordinal``), which compose
  with block splits for free, exactly like the logical undo of
  :mod:`repro.db.transactions`;
* :func:`recover` — on open, replay the last checkpoint image plus every
  *committed* operation after it, discard uncommitted ones, and rewrite
  the data blocks from scratch.  Post-crash block contents are never
  trusted: a torn write may have left a decodable-looking prefix.

Durability protocol (write-ahead in the only sense that matters for
redo-from-image recovery):

1. operations append to an in-memory tail (the "OS cache");
2. ``commit`` appends a COMMIT record and **forces** the tail to the
   file — only then does commit return;
3. a crash discards the unforced tail; a torn force leaves a torn log
   tail, which recovery truncates at the last CRC-valid record.

A force is ``write + flush + os.fsync``: flush alone only moves the
tail into the OS page cache, so a machine crash (as opposed to a mere
process crash) could still lose a "committed" transaction.  The
``sync=False`` escape hatch downgrades a force to flush-only for tests
and benchmarks that model process crashes via the fault injector and
do not want to pay the fsync on every commit.

A clean close writes CHECKPOINT + CLEAN (the CLEAN record carries the
physical block directory); re-opening a log whose *final* record is
CLEAN attaches the existing blocks without rewriting anything —
recovery of a cleanly closed table is a byte-for-byte no-op.

The CLEAN optimisation makes the clean→dirty transition the one place
where logging must truly happen *ahead* of the data write: while the
durable log ends in CLEAN, recovery will trust the recorded directory,
so the first data-block mutation after a clean state must be preceded
by :meth:`WriteAheadLog.ensure_dirty` — forcing at least one record so
a crash that tears the data write also invalidates the CLEAN marker.
(If that force itself is torn away, no data write has happened yet and
the CLEAN directory is still accurate — correct either way.)

Checkpoints are forbidden while a transaction is open: the image must
contain committed state only.

All file formats here are fuzz-tested: any byte flip in a log record is
detected (CRC reject, or clean truncation at the last valid record) —
see ``tests/io/test_corruption_fuzz.py``.
"""

from __future__ import annotations

import json
import os
import zlib
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import IO, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.codec import BlockCodec
from repro.errors import StorageError, WALError
from repro.obs import runtime as _obs
from repro.obs.snapshot import snapshot_dataclass
from repro.io.schema_json import schema_from_dict, schema_to_dict
from repro.relational.schema import Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultInjector

__all__ = [
    "REC_ABORT",
    "REC_BEGIN",
    "REC_CHECKPOINT",
    "REC_CLEAN",
    "REC_COMMIT",
    "REC_DELETE",
    "REC_INSERT",
    "LogImage",
    "RecoveryReport",
    "WALHeader",
    "WALRecord",
    "WALStats",
    "WriteAheadLog",
    "committed_ordinals",
    "read_log",
    "recover",
    "replay_records",
]

_MAGIC = b"AVQW"
_VERSION = 1

#: Record types (one byte on the wire).
REC_BEGIN = 1
REC_INSERT = 2
REC_DELETE = 3
REC_COMMIT = 4
REC_ABORT = 5
REC_CHECKPOINT = 6
REC_CLEAN = 7

_OP_TYPES = (REC_INSERT, REC_DELETE)
_TID_TYPES = (REC_BEGIN, REC_INSERT, REC_DELETE, REC_COMMIT, REC_ABORT)

#: Directory entry carried by a CLEAN record:
#: ``(block_id, first_ordinal, last_ordinal, tuple_count)``, optionally
#: extended with a fifth element — the block payload's CRC32 (or
#: ``None`` when unknown) — so clean shutdown round-trips checksums and
#: a reattached table can verify reads immediately.  Four-element
#: entries (pre-checksum logs) remain decodable forever.
DirectoryEntry = Union[
    Tuple[int, int, int, int],
    Tuple[int, int, int, int, Optional[int]],
]


@dataclass(frozen=True)
class WALRecord:
    """One decoded log record.

    Only the fields relevant to ``rtype`` are meaningful: ``tid`` for
    transaction records, ``ordinal`` for operations, ``ordinals`` for a
    checkpoint image, ``directory`` for a CLEAN record.
    """

    rtype: int
    tid: int = 0
    ordinal: int = 0
    ordinals: Tuple[int, ...] = ()
    directory: Tuple[DirectoryEntry, ...] = ()


@dataclass(frozen=True)
class WALHeader:
    """The log's self-description (mirrors the container header)."""

    schema: Schema
    chained: bool
    representative: str
    block_size: int

    def make_codec(self) -> BlockCodec:
        """The block codec the logged table was coded with."""
        return BlockCodec(
            self.schema.domain_sizes,
            chained=self.chained,
            representative=self.representative,
        )


@dataclass
class WALStats:
    """Counters for one log, in the ``DiskStats``/``BufferStats`` mould."""

    records_appended: int = 0
    bytes_durable: int = 0
    forces: int = 0
    begins: int = 0
    commits: int = 0
    aborts: int = 0
    checkpoints: int = 0

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """All counters as one flat mapping (key-stable; see tests)."""
        return snapshot_dataclass(self)

    def reset(self) -> None:
        """Zero all counters."""
        self.records_appended = 0
        self.bytes_durable = 0
        self.forces = 0
        self.begins = 0
        self.commits = 0
        self.aborts = 0
        self.checkpoints = 0


@dataclass(frozen=True)
class LogImage:
    """The logical state a log prefix proves: replay's output."""

    ordinals: List[int]
    clean: bool
    directory: Tuple[DirectoryEntry, ...]
    committed_txns: int
    discarded_txns: int
    replayed_ops: int


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover` found and did."""

    clean: bool
    records_scanned: int
    truncated_at: Optional[int]
    committed_txns: int
    discarded_txns: int
    replayed_ops: int
    tuples: int
    blocks_rebuilt: int


# ----------------------------------------------------------------------
# Record encoding / decoding
# ----------------------------------------------------------------------


def _encode_uint(value: int) -> bytes:
    """Length-prefixed big-endian unsigned int (arbitrary precision).

    Ordinals can exceed 64 bits for wide schemas (the container format
    stores them as decimal strings for the same reason), so the wire
    form is ``u16 length`` followed by minimal big-endian bytes.
    """
    if value < 0:
        raise WALError(f"cannot encode negative value {value}")
    width = (value.bit_length() + 7) // 8
    return width.to_bytes(2, "big") + value.to_bytes(width, "big")


def _decode_uint(body: bytes, off: int) -> Tuple[int, int]:
    if off + 2 > len(body):
        raise WALError("record body too short for a uint length prefix")
    width = int.from_bytes(body[off : off + 2], "big")
    off += 2
    if off + width > len(body):
        raise WALError("record body too short for its uint payload")
    return int.from_bytes(body[off : off + width], "big"), off + width


def _encode_record(record: WALRecord) -> bytes:
    body = bytes([record.rtype])
    if record.rtype in _TID_TYPES:
        body += record.tid.to_bytes(8, "big")
    if record.rtype in _OP_TYPES:
        body += _encode_uint(record.ordinal)
    elif record.rtype == REC_CHECKPOINT:
        image = json.dumps(
            [str(o) for o in record.ordinals], separators=(",", ":")
        )
        body += zlib.compress(image.encode("ascii"))
    elif record.rtype == REC_CLEAN:
        rows: List[List[object]] = []
        for entry in record.directory:
            row: List[object] = [
                entry[0], str(entry[1]), str(entry[2]), entry[3]
            ]
            if len(entry) == 5:
                row.append(entry[4])
            rows.append(row)
        listing = json.dumps(rows, separators=(",", ":"))
        body += zlib.compress(listing.encode("ascii"))
    return (
        len(body).to_bytes(4, "big") + body + zlib.crc32(body).to_bytes(4, "big")
    )


def _decode_body(body: bytes) -> WALRecord:
    """Decode a CRC-valid record body; :class:`WALError` if impossible.

    A CRC-valid body that fails to decode indicates writer corruption
    (the CRC already rules out crash damage and bit rot), so this raises
    rather than truncating.
    """
    if not body:
        raise WALError("empty record body")
    rtype = body[0]
    off = 1
    if rtype in _TID_TYPES:
        if len(body) < 9:
            raise WALError("record body too short for a transaction id")
        tid = int.from_bytes(body[1:9], "big")
        off = 9
        if rtype in _OP_TYPES:
            ordinal, off = _decode_uint(body, off)
            _require_exact(body, off)
            return WALRecord(rtype=rtype, tid=tid, ordinal=ordinal)
        _require_exact(body, off)
        return WALRecord(rtype=rtype, tid=tid)
    if rtype == REC_CHECKPOINT:
        return WALRecord(
            rtype=rtype, ordinals=tuple(_decode_json_ints(body[off:]))
        )
    if rtype == REC_CLEAN:
        return WALRecord(
            rtype=rtype, directory=_decode_directory(body[off:])
        )
    raise WALError(f"unknown record type {rtype}")


def _require_exact(body: bytes, off: int) -> None:
    if off != len(body):
        raise WALError(
            f"record body has {len(body) - off} trailing bytes"
        )


def _decode_json_ints(blob: bytes) -> List[int]:
    try:
        listing = json.loads(zlib.decompress(blob).decode("ascii"))
        return [int(item) for item in listing]
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError,
            TypeError, ValueError) as exc:
        raise WALError("malformed checkpoint image") from exc


def _decode_directory(blob: bytes) -> Tuple[DirectoryEntry, ...]:
    try:
        listing = json.loads(zlib.decompress(blob).decode("ascii"))
        entries: List[DirectoryEntry] = []
        for row in listing:
            if len(row) not in (4, 5):
                raise WALError(
                    f"clean-shutdown directory row has {len(row)} "
                    "fields, expected 4 or 5"
                )
            base = (int(row[0]), int(row[1]), int(row[2]), int(row[3]))
            if len(row) == 5:
                crc = None if row[4] is None else int(row[4])
                entries.append(base + (crc,))
            else:
                entries.append(base)
        return tuple(entries)
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError,
            TypeError, ValueError) as exc:
        raise WALError("malformed clean-shutdown directory") from exc


# ----------------------------------------------------------------------
# Reading a log file
# ----------------------------------------------------------------------


def read_log(
    path: str,
) -> Tuple[WALHeader, List[WALRecord], Optional[int], int]:
    """Parse a log file into its valid prefix.

    Returns ``(header, records, truncated_at, valid_end)``.  A torn or
    corrupt tail does not raise: scanning stops at the first frame whose
    length, bytes, or CRC do not check out, and ``truncated_at`` is that
    frame's byte offset (``None`` for a log that ends exactly on a
    record boundary).  ``valid_end`` is the offset one past the last
    valid record — the append point after tail repair.

    Header damage *does* raise: without the schema the log is
    unusable, and the header is CRC-protected so any flip is detected.
    """
    with open(path, "rb") as f:
        data = f.read()
    header, off = _parse_header(path, data)

    records: List[WALRecord] = []
    truncated: Optional[int] = None
    while off < len(data):
        if off + 4 > len(data):
            truncated = off
            break
        body_len = int.from_bytes(data[off : off + 4], "big")
        end = off + 4 + body_len + 4
        if body_len < 1 or end > len(data):
            truncated = off
            break
        body = data[off + 4 : off + 4 + body_len]
        crc = int.from_bytes(data[end - 4 : end], "big")
        if zlib.crc32(body) != crc:
            truncated = off
            break
        records.append(_decode_body(body))
        off = end
    valid_end = off if truncated is None else truncated
    return header, records, truncated, valid_end


def committed_ordinals(path: str) -> List[int]:
    """The ascending ordinals a log file's committed image holds:
    :func:`read_log`'s valid prefix through :func:`replay_records`."""
    _header, records, _truncated, _end = read_log(path)
    return replay_records(records).ordinals


def _parse_header(path: str, data: bytes) -> Tuple[WALHeader, int]:
    if data[:4] != _MAGIC:
        raise StorageError(
            f"{path}: not a write-ahead log (magic {data[:4]!r})"
        )
    version = int.from_bytes(data[4:6], "big")
    if version != _VERSION:
        raise StorageError(f"{path}: unsupported log version {version}")
    if len(data) < 10:
        raise StorageError(f"{path}: truncated log header")
    header_len = int.from_bytes(data[6:10], "big")
    end = 10 + header_len + 4
    if end > len(data):
        raise StorageError(f"{path}: truncated log header")
    raw = data[10 : 10 + header_len]
    crc = int.from_bytes(data[end - 4 : end], "big")
    if zlib.crc32(raw) != crc:
        raise WALError(f"{path}: log header failed its checksum")
    try:
        header = json.loads(raw.decode("utf-8"))
        schema = schema_from_dict(header["schema"])
        codec_cfg = header["codec"]
        parsed = WALHeader(
            schema=schema,
            chained=bool(codec_cfg["chained"]),
            representative=str(codec_cfg["representative"]),
            block_size=int(header["block_size"]),
        )
    except (KeyError, TypeError, ValueError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        raise WALError(f"{path}: malformed log header") from exc
    return parsed, end


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------


def replay_records(records: Sequence[WALRecord]) -> LogImage:
    """Compute the logical table state a record sequence proves.

    Start from the last CHECKPOINT image (empty if none survived),
    apply every operation after it whose transaction has a COMMIT record
    anywhere in the log, in log order; ignore operations of transactions
    that never committed (crash-discard and explicit abort look the
    same).  The result is ``clean`` when the final record is CLEAN —
    meaning the on-disk blocks match the image exactly and carry the
    recorded physical directory.
    """
    committed = {r.tid for r in records if r.rtype == REC_COMMIT}
    begun = {r.tid for r in records if r.rtype == REC_BEGIN}
    ckpt_idx: Optional[int] = None
    for i, r in enumerate(records):
        if r.rtype == REC_CHECKPOINT:
            ckpt_idx = i

    image: List[int] = []
    start = 0
    if ckpt_idx is not None:
        image = list(records[ckpt_idx].ordinals)
        start = ckpt_idx + 1

    replayed = 0
    for r in records[start:]:
        if r.rtype == REC_INSERT and r.tid in committed:
            insort(image, r.ordinal)
            replayed += 1
        elif r.rtype == REC_DELETE and r.tid in committed:
            i = bisect_left(image, r.ordinal)
            if i >= len(image) or image[i] != r.ordinal:
                raise WALError(
                    f"committed delete of ordinal {r.ordinal} (txn "
                    f"{r.tid}) finds no such tuple in the replayed image"
                )
            image.pop(i)
            replayed += 1

    clean = bool(records) and records[-1].rtype == REC_CLEAN
    directory = records[-1].directory if clean else ()
    return LogImage(
        ordinals=image,
        clean=clean,
        directory=directory,
        committed_txns=len(committed),
        discarded_txns=len(begun - committed),
        replayed_ops=replayed,
    )


# ----------------------------------------------------------------------
# The log object
# ----------------------------------------------------------------------


class WriteAheadLog:
    """An append-only, CRC-framed transaction log on the filesystem.

    Records appended through :meth:`log_insert` / :meth:`log_delete` /
    :meth:`begin` buffer in an in-memory tail; :meth:`force` makes the
    tail durable (one injected "write", so crash points can tear the
    log mid-force).  :meth:`commit` forces; :meth:`abort` does not —
    recovery discards by default, so abort records are advisory.
    """

    def __init__(
        self,
        path: str,
        header: WALHeader,
        *,
        injector: Optional[FaultInjector] = None,
        sync: bool = True,
        _file: Optional[IO[bytes]] = None,
        _next_tid: int = 1,
    ):
        self._path = path
        self._header = header
        self._injector = injector
        self._sync = sync
        self._file = _file if _file is not None else open(path, "ab")
        self._pending = bytearray()
        self._next_tid = _next_tid
        self._closed = False
        self._clean_on_disk = False
        self.stats = WALStats()
        #: Parse results from :meth:`open` (empty for a created log).
        self.records_at_open: Tuple[WALRecord, ...] = ()
        self.truncated_at_open: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        schema: Schema,
        *,
        codec: Optional[BlockCodec] = None,
        block_size: int,
        injector: Optional[FaultInjector] = None,
        sync: bool = True,
    ) -> "WriteAheadLog":
        """Start a fresh log: header only, no records yet.

        The header write is part of table *setup*, not the logged
        workload, so it bypasses fault injection (a table that failed to
        create has nothing to recover).  ``sync=False`` downgrades every
        force to flush-only (see the module docstring) — commits then
        survive process crashes but not OS crashes.
        """
        codec = codec or BlockCodec(schema.domain_sizes)
        if not isinstance(codec, BlockCodec):
            raise StorageError(
                "a WAL header describes only BlockCodec codecs, not "
                f"{type(codec).__name__}"
            )
        header = WALHeader(
            schema=schema,
            chained=codec.chained,
            representative=codec.representative_strategy,
            block_size=block_size,
        )
        header_json = json.dumps(
            {
                "schema": schema_to_dict(schema),
                "codec": {
                    "chained": header.chained,
                    "representative": header.representative,
                },
                "block_size": block_size,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        f = open(path, "wb")
        try:
            f.write(_MAGIC)
            f.write(_VERSION.to_bytes(2, "big"))
            f.write(len(header_json).to_bytes(4, "big"))
            f.write(header_json)
            f.write(zlib.crc32(header_json).to_bytes(4, "big"))
            f.flush()
        except BaseException:
            f.close()
            raise
        return cls(path, header, injector=injector, sync=sync, _file=f)

    @classmethod
    def open(
        cls,
        path: str,
        *,
        injector: Optional[FaultInjector] = None,
        sync: bool = True,
    ) -> "WriteAheadLog":
        """Open an existing log for append, repairing any torn tail.

        The valid record prefix is parsed (and kept on
        ``records_at_open`` for :func:`recover`); bytes past the last
        CRC-valid record — a torn force — are truncated away so new
        appends land on a clean boundary.
        """
        header, records, truncated, valid_end = read_log(path)
        if truncated is not None:
            with open(path, "r+b") as repair:
                repair.truncate(valid_end)
        tids = [r.tid for r in records if r.rtype in _TID_TYPES]
        wal = cls(
            path,
            header,
            injector=injector,
            sync=sync,
            _next_tid=max(tids) + 1 if tids else 1,
        )
        wal.records_at_open = tuple(records)
        wal.truncated_at_open = truncated
        wal._clean_on_disk = bool(records) and records[-1].rtype == REC_CLEAN
        return wal

    def close(self) -> None:
        """Flush any pending tail and release the file handle.

        Does *not* write CHECKPOINT/CLEAN — that is
        :meth:`repro.db.table.Table.close`'s job, which knows the block
        directory.
        """
        if self._closed:
            return
        self.force()
        self._file.close()
        self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def path(self) -> str:
        """Filesystem path of the log."""
        return self._path

    @property
    def header(self) -> WALHeader:
        """The log's schema/codec/block-size self-description."""
        return self._header

    @property
    def pending_bytes(self) -> int:
        """Bytes appended but not yet forced (lost in a crash)."""
        return len(self._pending)

    @property
    def sync(self) -> bool:
        """Whether a force fsyncs (True) or merely flushes (False)."""
        return self._sync

    @property
    def clean_on_disk(self) -> bool:
        """Whether the durable log currently ends in a CLEAN record.

        While true, recovery would attach the recorded block directory
        verbatim — so data blocks must not be mutated until
        :meth:`ensure_dirty` has invalidated the marker.
        """
        return self._clean_on_disk

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def begin(self) -> int:
        """Allocate a transaction id and log BEGIN; returns the tid."""
        tid = self._next_tid
        self._next_tid += 1
        self._append(WALRecord(rtype=REC_BEGIN, tid=tid))
        self.stats.begins += 1
        reg = _obs.REGISTRY
        if reg is not None:
            reg.inc("wal.begins")
        return tid

    def log_insert(self, tid: int, ordinal: int) -> None:
        """Log one insert under ``tid`` (buffered until the next force)."""
        self._append(WALRecord(rtype=REC_INSERT, tid=tid, ordinal=ordinal))

    def log_delete(self, tid: int, ordinal: int) -> None:
        """Log one delete under ``tid`` (buffered until the next force)."""
        self._append(WALRecord(rtype=REC_DELETE, tid=tid, ordinal=ordinal))

    def commit(self, tid: int) -> None:
        """Log COMMIT and force; when this returns, the txn is durable."""
        self._append(WALRecord(rtype=REC_COMMIT, tid=tid))
        self.stats.commits += 1
        reg = _obs.REGISTRY
        if reg is not None:
            reg.inc("wal.commits")
        self.force()

    def abort(self, tid: int) -> None:
        """Log ABORT (advisory: recovery discards uncommitted anyway)."""
        self._append(WALRecord(rtype=REC_ABORT, tid=tid))
        self.stats.aborts += 1
        reg = _obs.REGISTRY
        if reg is not None:
            reg.inc("wal.aborts")

    def checkpoint(self, ordinals: Iterable[int]) -> None:
        """Log a full logical image and force it."""
        self._append(
            WALRecord(rtype=REC_CHECKPOINT, ordinals=tuple(ordinals))
        )
        self.stats.checkpoints += 1
        reg = _obs.REGISTRY
        if reg is not None:
            reg.inc("wal.checkpoints")
        self.force()

    def write_clean(self, directory: Iterable[DirectoryEntry]) -> None:
        """Log the physical directory as a clean-shutdown marker.

        Valid only while it remains the *final* record: any later append
        supersedes it, and recovery falls back to checkpoint replay.
        """
        self._append(
            WALRecord(rtype=REC_CLEAN, directory=tuple(directory))
        )
        self.force()
        self._clean_on_disk = True

    def ensure_dirty(self) -> None:
        """Durably supersede a CLEAN marker before the first data write.

        Forces the pending tail — typically the transaction's BEGIN; if
        nothing is pending, a marker BEGIN (a transaction that never
        commits, which recovery discards) is appended first.  After
        this, any crash makes recovery rebuild from the checkpoint
        image instead of trusting a directory whose blocks are about to
        change.  If the force itself is torn away the log still ends in
        CLEAN, but then no data block has changed yet and the recorded
        directory is still accurate.  A no-op when the log is already
        dirty.
        """
        if not self._clean_on_disk:
            return
        if not self._pending:
            self.begin()
        self.force()

    def force(self) -> None:
        """Make the pending tail durable (one injectable write).

        A torn force persists a prefix of the tail — recovery's
        truncation rule turns that into "the unforced records never
        happened", which is exactly the crash semantics commit relies
        on.  Unless ``sync=False`` was requested, the force fsyncs:
        flush alone leaves the tail in the OS page cache, where a
        machine crash would discard it after commit already returned.
        """
        if self._closed:
            raise StorageError(f"{self._path}: log is closed")
        if not self._pending:
            return
        payload = bytes(self._pending)
        crash = False
        if self._injector is not None:
            payload_opt = self._injector.filter_write(payload)
            crash = self._injector.crashed
            payload = payload_opt if payload_opt is not None else b""
        if payload:
            self._file.write(payload)
            self._file.flush()
            if self._sync:
                os.fsync(self._file.fileno())
            self.stats.bytes_durable += len(payload)
        self._pending.clear()
        self._clean_on_disk = False
        self.stats.forces += 1
        reg = _obs.REGISTRY
        if reg is not None:
            reg.inc("wal.forces")
            reg.inc("wal.bytes_durable", len(payload))
        if crash and self._injector is not None:
            self._injector.raise_crash()

    def _append(self, record: WALRecord) -> None:
        if self._closed:
            raise StorageError(f"{self._path}: log is closed")
        self._pending += _encode_record(record)
        self.stats.records_appended += 1
        reg = _obs.REGISTRY
        if reg is not None:
            reg.inc("wal.records_appended")


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------


def recover(
    disk: SimulatedDisk,
    wal: Union[str, WriteAheadLog],
) -> Tuple[AVQFile, RecoveryReport]:
    """Bring a table's storage to a consistent, durable state.

    ``wal`` may be a path (opened here, tail-repaired, and left closed
    after recovery completes) or an already-open :class:`WriteAheadLog`
    (used by :meth:`repro.db.table.Table.open`, which keeps appending to
    it afterwards).

    *Clean log* (final record is CLEAN): attach the recorded block
    directory — zero disk I/O, zero log appends, byte-for-byte no-op.

    *Anything else*: rebuild.  The logical image (last checkpoint plus
    committed operations) is repacked onto fresh blocks — post-crash
    block contents are never read, because a torn write can leave
    plausible-looking garbage — and the log is re-based with a new
    CHECKPOINT + CLEAN pair so an immediately repeated open is clean.
    """
    owns_wal = isinstance(wal, str)
    log = WriteAheadLog.open(wal) if isinstance(wal, str) else wal
    try:
        with _obs.span("wal.recover") as sp:
            image = replay_records(log.records_at_open)
            codec = log.header.make_codec()
            schema = log.header.schema
            if image.clean:
                storage = AVQFile.attach(
                    schema, disk, image.directory, codec=codec
                )
                blocks_rebuilt = 0
            else:
                storage = AVQFile.from_ordinals(
                    schema, disk, image.ordinals, codec=codec
                )
                blocks_rebuilt = storage.num_blocks
                log.checkpoint(image.ordinals)
                log.write_clean(storage.directory_entries_checked())
            if sp is not None:
                sp.set_attribute("clean", image.clean)
                sp.set_attribute("replayed_ops", image.replayed_ops)
                sp.set_attribute("blocks_rebuilt", blocks_rebuilt)
        reg = _obs.REGISTRY
        if reg is not None:
            reg.inc("wal.recoveries")
            reg.inc("wal.replayed_ops", image.replayed_ops)
            reg.inc("wal.blocks_rebuilt", blocks_rebuilt)
        report = RecoveryReport(
            clean=image.clean,
            records_scanned=len(log.records_at_open),
            truncated_at=log.truncated_at_open,
            committed_txns=image.committed_txns,
            discarded_txns=image.discarded_txns,
            replayed_ops=image.replayed_ops,
            tuples=storage.num_tuples,
            blocks_rebuilt=blocks_rebuilt,
        )
    finally:
        if owns_wal:
            log.close()
    return storage, report
