"""AVQ-coded relation storage: blocks of losslessly quantized tuples.

The coded counterpart of :class:`~repro.storage.heapfile.HeapFile`.  A
relation is phi-sorted, greedily packed (Section 3.3), block-coded
(Section 3.4) and written to a simulated disk.  The file keeps a small
in-memory :class:`~repro.storage.directory.BlockDirectory` of each
block's first and last ordinal — the same information the primary index
of Figure 4.4 holds — so that point and range lookups touch only the
blocks that can contain matches.

Section 4.2 confines every update to the affected block: decode it,
edit it, re-encode it, split it on overflow.  Here that is one
primitive, :meth:`AVQFile.rewrite`, which replaces the blocks at
directory positions ``[lo, hi)`` by one block per sorted ordinal run
(a run that overflows a block is cut in half: the split).  Insert,
delete, compact and restore are span choices worked out from the old
blocks' ordinals (``insert_span``, ``delete_span``, ``compact_span``);
:class:`~repro.db.table.Table` makes the same choices over its guarded
reads and applies the returned :class:`BlockRewrite` to its indices,
buffer pool and version store in one place.
"""

from __future__ import annotations

import bisect
import zlib
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.codec import BlockCodec
from repro.errors import BlockOverflowError, CorruptionError, RepairError, StorageError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.storage.directory import BlockDirectory
from repro.storage.disk import SimulatedDisk
from repro.storage.packer import pack_ordinals

__all__ = ["AVQFile", "BlockRewrite", "OrdinalReader", "Span"]

#: ``position -> sorted ordinals`` of one block: how a span choice reads.
OrdinalReader = Callable[[int], Sequence[int]]


class Span(NamedTuple):
    """A span choice: replace the blocks at ``[lo, hi)``, whose decoded
    ordinals are ``old_runs``, by one block per run of ``runs``."""

    lo: int
    hi: int
    runs: Sequence[Sequence[int]]
    old_runs: Sequence[Sequence[int]]


class BlockRewrite(NamedTuple):
    """What one :meth:`AVQFile.rewrite` changed."""

    old_ids: Tuple[int, ...]
    old_runs: Tuple[Sequence[int], ...]
    new_ids: Tuple[int, ...]
    new_runs: Tuple[Sequence[int], ...]


class AVQFile:
    """A phi-clustered, AVQ-compressed relation on a simulated disk."""

    def __init__(
        self,
        schema: Schema,
        disk: SimulatedDisk,
        *,
        codec: Optional[BlockCodec] = None,
    ):
        self._schema = schema
        self._disk = disk
        self._codec = codec or BlockCodec(schema.domain_sizes)
        if self._codec.mapper.domain_sizes != schema.domain_sizes:
            raise StorageError("codec domain sizes do not match the schema")
        #: The directory every read plans over; :meth:`rewrite` edits it.
        self._directory = BlockDirectory([], [], [], [])
        #: CRC32 of each block's payload as last written, keyed by the
        #: stable disk id (positions shift; ids do not).  ``None`` for a
        #: block adopted from a pre-checksum directory — a scrub
        #: backfills it (docs/INTEGRITY.md).
        self._crc_by_id: Dict[int, Optional[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        relation: Relation,
        disk: SimulatedDisk,
        *,
        codec: Optional[BlockCodec] = None,
    ) -> "AVQFile":
        """Sort, pack, code, and write a relation to ``disk``.

        Packing is :func:`~repro.storage.packer.pack_ordinals` and each
        run is encoded by :meth:`BlockCodec.encode_ordinals`; the codec
        alone picks the vector or scalar packer and encoder, and the
        output is byte-identical either way (property-tested in
        ``tests/core/test_fastpack.py``).
        """
        return cls.from_ordinals(
            relation.schema, disk, relation.phi_ordinals(), codec=codec
        )

    @classmethod
    def from_ordinals(
        cls,
        schema: Schema,
        disk: SimulatedDisk,
        ordinals: Sequence[int],
        *,
        codec: Optional[BlockCodec] = None,
    ) -> "AVQFile":
        """Materialise a file from an already-sorted phi-ordinal sequence.

        The crash-recovery path (:func:`repro.storage.wal.recover`):
        the replayed logical image is repacked onto *fresh* blocks —
        whatever the old blocks hold after a crash is never trusted.
        ``ordinals`` must be sorted ascending (duplicates allowed).
        """
        f = cls(schema, disk, codec=codec)
        runs = pack_ordinals(f.codec, ordinals, disk.block_size).blocks
        f.rewrite(0, 0, runs)
        return f

    @classmethod
    def attach(
        cls,
        schema: Schema,
        disk: SimulatedDisk,
        directory: Sequence[Sequence[int]],
        *,
        codec: Optional[BlockCodec] = None,
    ) -> "AVQFile":
        """Re-adopt existing blocks from a recorded physical directory.

        The clean-shutdown path: each entry is ``(block_id,
        first_ordinal, last_ordinal, tuple_count)`` — optionally with a
        trailing payload CRC32 — exactly as
        :meth:`directory_entries_checked` reported it.  No block is read
        or written — reopening a cleanly closed file is a byte-for-byte
        no-op; :meth:`verify_directory` remains the paranoid check.
        Entries without a CRC (a pre-checksum directory) adopt with
        unknown checksums, which a scrub backfills.
        """
        f = cls(schema, disk, codec=codec)
        for entry in directory:
            if len(entry) not in (4, 5):
                raise StorageError(
                    f"attach: directory entry has {len(entry)} fields, "
                    "expected 4 or 5"
                )
            crc = entry[4] if len(entry) == 5 else None
            f._crc_by_id[entry[0]] = None if crc is None else int(crc)
        f._directory.replace(0, 0, directory)
        f._directory.check("attach")
        return f

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """Schema of the stored relation."""
        return self._schema

    @property
    def codec(self) -> BlockCodec:
        """The block codec used for coding and decoding."""
        return self._codec

    @property
    def num_blocks(self) -> int:
        """Blocks occupied on disk — the coded ``N`` of Figure 5.8."""
        return len(self._directory.ids)

    @property
    def num_tuples(self) -> int:
        """Tuples stored across all blocks."""
        return sum(self._directory.counts)

    @property
    def block_ids(self) -> List[int]:
        """Disk block ids in phi-cluster order."""
        return list(self._directory.ids)

    def block_id_at(self, position: int) -> int:
        """Disk block id of the ``position``-th block (no list copy)."""
        self._check_position(position)
        return self._directory.ids[position]

    def block_range(self, position: int) -> Tuple[int, int]:
        """(first, last) phi ordinal stored in the ``position``-th block."""
        self._check_position(position)
        return self._directory.firsts[position], self._directory.lasts[position]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def read_block(self, position: int) -> List[Tuple[int, ...]]:
        """Read and decode one block (``t1`` I/O plus ``t2`` decode)."""
        return self._codec.decode_block(self.read_payload(position))

    def read_block_ordinals(self, position: int) -> List[int]:
        """Read one block, decoding only to phi ordinals."""
        return self._codec.decode_ordinals(self.read_payload(position))

    def read_payload(self, position: int) -> bytes:
        """Read one block's raw payload, checksum-verified.

        Every decode path funnels through here (or through
        :meth:`verify_payload` for id-keyed reads), so bit rot at rest
        surfaces as :class:`~repro.errors.CorruptionError` *before* the
        damaged bytes reach the codec — a chained difference stream
        decodes single-bit damage into arbitrarily wrong tuples, so the
        checksum is the only honest detector.
        """
        self._check_position(position)
        block_id = self._directory.ids[position]
        payload = self._disk.read_block(block_id)
        self.verify_payload(block_id, payload)
        return payload

    def read_block_id(self, block_id: int) -> List[Tuple[int, ...]]:
        """Read and decode a block by its stable disk id.

        Indices store disk ids (they survive block splits, unlike
        positions); this is the access path a query takes after an index
        probe.  Checksum-verified like :meth:`read_payload`.
        """
        payload = self._disk.read_block(block_id)
        self.verify_payload(block_id, payload)
        return self._codec.decode_block(payload)

    def verify_payload(self, block_id: int, payload: bytes) -> None:
        """Check a payload against the block's recorded checksum.

        A no-op for blocks adopted from a pre-checksum directory (their
        recorded CRC is unknown until a scrub backfills it) and for ids
        this file does not own — the buffer pool attaches this method as
        its admission verifier, and the pool may also cache foreign
        blocks (e.g. the WAL's).
        """
        expected = self._crc_by_id.get(block_id)
        if expected is None:
            return
        if zlib.crc32(payload) != expected:
            raise CorruptionError(
                f"payload checksum mismatch on disk block {block_id}",
                block_id=block_id,
                position=self.position_of_id(block_id),
                detected_by="crc32",
            )

    def position_of_id(self, block_id: int) -> Optional[int]:
        """Current position of a disk id, or ``None`` if not in this file."""
        try:
            return self._directory.ids.index(block_id)
        except ValueError:
            return None

    def decode_payload(self, payload: bytes) -> List[Tuple[int, ...]]:
        """Decode a raw block payload (no I/O) — the buffer-pool path."""
        return self._codec.decode_block(payload)

    def scan(self) -> Iterator[Tuple[int, ...]]:
        """Full relation scan in phi order."""
        for position in range(self.num_blocks):
            yield from self.read_block(position)

    def iter_blocks(self) -> Iterator[Tuple[int, List[Tuple[int, ...]]]]:
        """Yield ``(block_id, tuples)`` for every block, in phi order."""
        for position in range(self.num_blocks):
            yield self._directory.ids[position], self.read_block(position)

    @property
    def block_directory(self) -> BlockDirectory:
        """The live directory: every read and mutation asks its rules.

        Its columns are this file's own lists, so it changes with every
        mutation; :meth:`BlockDirectory.frozen` takes a stable copy.
        """
        return self._directory

    def directory_entries_checked(
        self,
    ) -> List[Tuple[int, int, int, int, Optional[int]]]:
        """Directory entries with each block's payload CRC32 appended.

        ``(block_id, first, last, count, crc32)`` per block; the CRC is
        ``None`` only for blocks adopted from a pre-checksum directory
        and not yet scrub-backfilled.  :meth:`attach` accepts these
        entries directly, so a clean shutdown round-trips checksums
        through the WAL's CLEAN record.
        """
        return [
            (*entry, self._crc_by_id[entry[0]]) for entry in self._directory
        ]

    def block_crc(self, position: int) -> Optional[int]:
        """Recorded payload CRC32 of the ``position``-th block.

        ``None`` means unknown (pre-checksum adoption), not "no check" —
        a scrub backfills it once the payload proves decode-clean.
        """
        self._check_position(position)
        return self._crc_by_id.get(self._directory.ids[position])

    def set_block_crc(self, position: int, crc: int) -> None:
        """Record a backfilled checksum for a pre-checksum block.

        Only the scrubber calls this, and only after proving the payload
        decodes to exactly what the directory claims — blessing bytes
        that were never checksum-verified requires that decode proof.
        """
        self._check_position(position)
        self._crc_by_id[self._directory.ids[position]] = int(crc)

    def all_ordinals(self) -> List[int]:
        """Every stored phi ordinal, ascending (one read per block).

        The checkpoint feed: the complete logical image of the file.
        """
        out: List[int] = []
        for position in range(self.num_blocks):
            out.extend(self.read_block_ordinals(position))
        return out

    def block_of_ordinal(self, ordinal: int) -> Optional[int]:
        """Position of the block an insert of ``ordinal`` goes to.

        :meth:`BlockDirectory.placement`; ``None`` for an empty file.
        """
        if not self._directory.ids:
            return None
        return self._directory.placement(ordinal)

    # ------------------------------------------------------------------
    # Mutation (Section 4.2): one rewrite, chosen spans
    # ------------------------------------------------------------------

    def rewrite(
        self,
        lo: int,
        hi: int,
        runs: Sequence[Sequence[int]],
        old_runs: Sequence[Sequence[int]] = (),
    ) -> BlockRewrite:
        """Replace the blocks at positions ``[lo, hi)`` by one block per run.

        The only code that writes blocks.  Every run is encoded before
        anything is written; a run that overflows a block is cut in
        half (the split).  Run ``k`` then overwrites the span's
        ``k``-th old block, extra runs get fresh blocks in order, and
        old blocks left over are retired (the simulated disk does not
        reclaim them).  ``old_runs``, the span's decoded ordinals, pass
        through to the record.
        """
        encoded: List[Tuple[Sequence[int], bytes]] = []
        for run in runs:
            try:
                encoded.append((run, self.encode_payload(run)))
            except BlockOverflowError:
                mid = len(run) // 2
                for half in (run[:mid], run[mid:]):
                    encoded.append((half, self.encode_payload(half)))
        directory = self._directory
        old_ids = tuple(directory.ids[lo:hi])
        new_ids: List[int] = []
        for k, (run, payload) in enumerate(encoded):
            if k < len(old_ids):
                block_id = old_ids[k]
                self._disk.write_block(block_id, payload)
            else:
                block_id = self._disk.append_block(payload)
            self._crc_by_id[block_id] = zlib.crc32(payload)
            new_ids.append(block_id)
        for block_id in old_ids[len(encoded):]:
            del self._crc_by_id[block_id]
        new_runs = tuple(run for run, _ in encoded)
        directory.replace(
            lo,
            hi,
            [
                (b, int(r[0]), int(r[-1]), len(r))
                for b, r in zip(new_ids, new_runs)
            ],
        )
        return BlockRewrite(old_ids, tuple(old_runs), tuple(new_ids), new_runs)

    def insert_span(self, ordinal: int, read: OrdinalReader) -> Span:
        """An insert of ``ordinal``: merged into the block
        :meth:`BlockDirectory.placement` picks, or a first block."""
        if not self._directory.ids:
            return Span(0, 0, [[ordinal]], [])
        pos = self._directory.placement(ordinal)
        old = read(pos)
        run = list(old)
        bisect.insort(run, ordinal)
        return Span(pos, pos + 1, [run], [old])

    def delete_span(self, ordinal: int, read: OrdinalReader) -> Optional[Span]:
        """A delete of one ``ordinal`` from its covering block (the block
        goes when it was the last tuple), or ``None`` when it is absent;
        outside every block's range that costs no read."""
        pos = self._directory.covering(ordinal)
        if pos is None:
            return None
        old = read(pos)
        at = bisect.bisect_left(old, ordinal)
        if at == len(old) or old[at] != ordinal:
            return None
        run = [*old[:at], *old[at + 1 :]]
        return Span(pos, pos + 1, [run] if run else [], [old])

    def compact_span(self, read: OrdinalReader) -> Span:
        """The whole file, repacked at maximal fill (Section 3.3)."""
        old = [read(position) for position in range(self.num_blocks)]
        flat = [o for run in old for o in run]
        runs = pack_ordinals(self._codec, flat, self._disk.block_size).blocks
        return Span(0, len(old), runs, old)

    def insert(self, values: Sequence[int]) -> int:
        """Insert one ordinal tuple; returns the block position updated."""
        span = self.insert_span(
            self._schema.mapper.phi(values), self.read_block_ordinals
        )
        self.rewrite(*span)
        return span.lo

    def delete(self, values: Sequence[int]) -> bool:
        """Delete one occurrence of a tuple; returns whether it was found."""
        span = self.delete_span(
            self._schema.mapper.phi(values), self.read_block_ordinals
        )
        if span is None:
            return False
        self.rewrite(*span)
        return True

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def encode_payload(self, ordinals: Sequence[int]) -> bytes:
        """Encode a sorted ordinal run as every block write does.

        :meth:`rewrite` encodes each run through this, and the repair
        engine uses it to re-encode a candidate tuple set and compare
        its CRC against the directory's recorded checksum — the codec
        is deterministic, so a CRC match on the re-encoding is
        byte-identity with what was originally written.
        """
        return self._codec.encode_ordinals(
            ordinals, capacity=self._disk.block_size
        )

    def restore_block(
        self, position: int, ordinals: Sequence[int], payload: bytes
    ) -> None:
        """Rewrite one block with the contents repair proved, then verify.

        The repair contract (docs/INTEGRITY.md): ``ordinals`` must be
        the block its directory entry records — repair reconstructs
        what *was* there, never something new — and the written bytes
        are read back and compared with ``payload``, the proven
        encoding, before the block is considered healthy.  Any failure raises
        :class:`~repro.errors.RepairError` and the block stays suspect.
        """
        self._check_position(position)
        block_id = self._directory.ids[position]
        reason = self._directory.disagreement(position, ordinals)
        if reason is not None:
            raise RepairError(
                f"restored tuple set contradicts the directory for "
                f"block {position}: {reason}",
                block_id=block_id,
                position=position,
                detected_by="directory",
            )
        self.rewrite(position, position + 1, [ordinals])
        reread = self._disk.read_block(block_id)
        if reread != payload:
            raise RepairError(
                f"repaired block {position} did not read back "
                "byte-identical",
                block_id=block_id,
                position=position,
                detected_by="reread",
            )

    def verify_directory(self) -> None:
        """Check the in-memory directory against the blocks on disk.

        Re-reads every block and confirms it is the one its entry
        records (:meth:`BlockDirectory.disagreement`) and that the
        blocks are in phi order (:meth:`BlockDirectory.check`), raising
        :class:`~repro.errors.StorageError` on the first inconsistency;
        the tuple total is the directory's counts, so it adds up too.
        Mutation tests run this after split-heavy workloads to prove the
        Section 4.2 bookkeeping never drifts.
        """
        for position in range(self.num_blocks):
            ordinals = self.read_block_ordinals(position)
            reason = self._directory.disagreement(position, ordinals)
            if reason is not None:
                raise StorageError(f"block {position} {reason}")
        self._directory.check("verify_directory")

    def utilisation(self) -> float:
        """Mean payload fraction of the file's blocks.

        Mutation churn fragments blocks (splits leave two half-full
        blocks; deletes leave slack); this is the number
        :meth:`compact` restores.
        """
        if not self._directory.ids:
            return 0.0
        used = 0
        for position in range(self.num_blocks):
            ordinals = self.read_block_ordinals(position)
            used += self._codec.encoded_size_of_ordinals(ordinals)
        return used / (self.num_blocks * self._disk.block_size)

    def compact(self) -> int:
        """Repack the whole file at maximal fill, in place; returns
        blocks saved (:meth:`compact_span`)."""
        change = self.rewrite(*self.compact_span(self.read_block_ordinals))
        return len(change.old_ids) - len(change.new_ids)

    def _check_position(self, position: int) -> None:
        if not 0 <= position < len(self._directory.ids):
            raise StorageError(
                f"AVQ file has {len(self._directory.ids)} blocks, "
                f"no position {position}"
            )
