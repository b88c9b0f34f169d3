"""AVQ-coded relation storage: blocks of losslessly quantized tuples.

The coded counterpart of :class:`~repro.storage.heapfile.HeapFile`.  A
relation is phi-sorted, greedily packed (Section 3.3), block-coded
(Section 3.4) and written to a simulated disk.  The file keeps a small
in-memory directory of each block's first and last ordinal — the same
information the primary index of Figure 4.4 holds — so that point and
range lookups touch only the blocks that can contain matches.

Tuple insertion and deletion follow Section 4.2: locate the block, decode
it, apply the change, re-encode.  Changes are confined to the affected
block; an insertion that overflows the block splits it in two, exactly as
a clustered file would.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.codec import BlockCodec
from repro.errors import BlockOverflowError, CorruptionError, RepairError, StorageError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.storage.disk import SimulatedDisk
from repro.storage.packer import pack_runs

__all__ = ["AVQFile"]


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
        self._block_ids: List[int] = []
        self._block_min: List[int] = []   # first ordinal in each block
        self._block_max: List[int] = []   # last ordinal in each block
        self._block_count: List[int] = []
        #: CRC32 of each block's payload as last written, keyed by the
        #: stable disk id (positions shift; ids do not).  ``None`` for a
        #: block adopted from a pre-checksum directory — a scrub
        #: backfills it (docs/INTEGRITY.md).
        self._crc_by_id: Dict[int, Optional[int]] = {}
        self._num_tuples = 0

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

        Packing takes the numpy boundary scan whenever
        :func:`~repro.core.vectorized.numpy_packer_for` allows it, and
        the default codec configuration (chained, median representative)
        takes the vectorised encode path when the ordinal space fits
        int64; the output is byte-identical to the scalar path
        (property-tested in ``tests/core/test_fastpack.py``).
        """
        f = cls(relation.schema, disk, codec=codec)
        ordinals = relation.phi_ordinals()
        if not ordinals:
            return f
        runs = f._pack_runs(ordinals)
        # Duck-typed alternative codecs (e.g. GolombBlockCodec) have no
        # vectorised companion; they take the scalar loop below.
        vec = getattr(f._codec, "vector_codec", None)
        if vec is not None:
            for run in runs:
                f._append_encoded(run, vec.encode_run(run, disk.block_size))
            return f
        for run in runs:
            f._append_run(run)
        return f

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
        if not ordinals:
            return f
        for run in f._pack_runs(ordinals):
            f._append_run(run)
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
        prev_max: Optional[int] = None
        for entry in directory:
            if len(entry) not in (4, 5):
                raise StorageError(
                    f"attach: directory entry has {len(entry)} fields, "
                    "expected 4 or 5"
                )
            block_id, first, last, count = (
                entry[0], entry[1], entry[2], entry[3]
            )
            crc = entry[4] if len(entry) == 5 else None
            if count < 1 or last < first:
                raise StorageError(
                    f"attach: impossible directory entry for block "
                    f"{block_id} ([{first}, {last}], {count} tuples)"
                )
            if prev_max is not None and first <= prev_max:
                raise StorageError(
                    f"attach: block {block_id} min {first} does not "
                    f"follow previous block max {prev_max}"
                )
            prev_max = last
            f._block_ids.append(block_id)
            f._block_min.append(first)
            f._block_max.append(last)
            f._block_count.append(count)
            f._crc_by_id[block_id] = None if crc is None else int(crc)
            f._num_tuples += count
        return f

    def _pack_runs(self, ordinals: Sequence[int]) -> List[Sequence[int]]:
        """Greedy Section 3.3 packing of sorted ordinals into block runs."""
        return pack_runs(self._codec, ordinals, self._disk.block_size)

    def _append_run(self, ordinals: Sequence[int]) -> None:
        self._append_encoded(ordinals, self._encode_ordinals(ordinals))

    def _append_encoded(
        self, ordinals: Sequence[int], payload: bytes
    ) -> None:
        """Append a run whose payload was already encoded."""
        block_id = self._disk.append_block(payload)
        self._block_ids.append(block_id)
        self._block_min.append(ordinals[0])
        self._block_max.append(ordinals[-1])
        self._block_count.append(len(ordinals))
        self._crc_by_id[block_id] = zlib.crc32(payload)
        self._num_tuples += len(ordinals)

    def _write_payload(self, block_id: int, payload: bytes) -> None:
        """Rewrite one block, keeping its recorded checksum current."""
        self._disk.write_block(block_id, payload)
        self._crc_by_id[block_id] = zlib.crc32(payload)

    def _encode_ordinals(self, ordinals: Sequence[int]) -> bytes:
        # Mutation paths always hold sorted ordinals, so a codec that
        # can encode runs directly skips the phi_inverse -> phi round
        # trip (vectorised when eligible, byte-identical either way).
        # Duck-typed codecs without that method expand to tuples first.
        encode_ordinals = getattr(self._codec, "encode_ordinals", None)
        if encode_ordinals is not None:
            return encode_ordinals(ordinals, capacity=self._disk.block_size)
        tuples = [self._codec.mapper.phi_inverse(o) for o in ordinals]
        return self._codec.encode_block(tuples, capacity=self._disk.block_size)

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
        return len(self._block_ids)

    @property
    def num_tuples(self) -> int:
        """Tuples stored across all blocks."""
        return self._num_tuples

    @property
    def block_ids(self) -> List[int]:
        """Disk block ids in phi-cluster order."""
        return list(self._block_ids)

    def block_id_at(self, position: int) -> int:
        """Disk block id of the ``position``-th block (no list copy)."""
        self._check_position(position)
        return self._block_ids[position]

    def block_range(self, position: int) -> Tuple[int, int]:
        """(first, last) phi ordinal stored in the ``position``-th block."""
        self._check_position(position)
        return self._block_min[position], self._block_max[position]

    def block_tuple_count(self, position: int) -> int:
        """Number of tuples in the ``position``-th block."""
        self._check_position(position)
        return self._block_count[position]

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
        block_id = self._block_ids[position]
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
            return self._block_ids.index(block_id)
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
            yield self._block_ids[position], self.read_block(position)

    def directory(self) -> List[Tuple[int, int]]:
        """``(first_ordinal, block_id)`` per block — primary-index feed."""
        return list(zip(self._block_min, self._block_ids))

    def directory_entries(self) -> List[Tuple[int, int, int, int]]:
        """``(block_id, first, last, count)`` per block, in phi order.

        The full physical directory — what a clean-shutdown WAL record
        stores so :meth:`attach` can re-adopt the blocks without I/O.
        """
        return list(
            zip(
                self._block_ids,
                self._block_min,
                self._block_max,
                self._block_count,
            )
        )

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
            (
                block_id,
                self._block_min[i],
                self._block_max[i],
                self._block_count[i],
                self._crc_by_id[block_id],
            )
            for i, block_id in enumerate(self._block_ids)
        ]

    def block_crc(self, position: int) -> Optional[int]:
        """Recorded payload CRC32 of the ``position``-th block.

        ``None`` means unknown (pre-checksum adoption), not "no check" —
        a scrub backfills it once the payload proves decode-clean.
        """
        self._check_position(position)
        return self._crc_by_id.get(self._block_ids[position])

    def set_block_crc(self, position: int, crc: int) -> None:
        """Record a backfilled checksum for a pre-checksum block.

        Only the scrubber calls this, and only after proving the payload
        decodes to exactly what the directory claims — blessing bytes
        that were never checksum-verified requires that decode proof.
        """
        self._check_position(position)
        self._crc_by_id[self._block_ids[position]] = int(crc)

    def all_ordinals(self) -> List[int]:
        """Every stored phi ordinal, ascending (one read per block).

        The checkpoint feed: the complete logical image of the file.
        """
        out: List[int] = []
        for position in range(self.num_blocks):
            out.extend(self.read_block_ordinals(position))
        return out

    def block_of_ordinal(self, ordinal: int) -> Optional[int]:
        """Directory lookup: position of the block covering ``ordinal``.

        Returns the unique block whose [min, max] range the ordinal falls
        into, or the block it *would* belong to if inserted (the block with
        the greatest min <= ordinal, else block 0).  ``None`` for an empty
        file.
        """
        if not self._block_ids:
            return None
        pos = bisect.bisect_right(self._block_min, ordinal) - 1
        if pos < 0:
            # Ordinal sorts below the first block's minimum; without this
            # guard the raw bisect result (-1) would silently index the
            # *last* block.  Such an ordinal belongs in block 0.
            return 0
        return pos

    def covering_block_of_ordinal(self, ordinal: int) -> Optional[int]:
        """Position of the block whose [min, max] range holds ``ordinal``.

        Unlike :meth:`block_of_ordinal` (which answers "where would this
        ordinal go?"), this answers "where could it already *be*?" —
        ``None`` when the ordinal falls outside every block's range, so
        point probes and deletes can skip the disk read entirely.
        """
        if not self._block_ids:
            return None
        pos = bisect.bisect_right(self._block_min, ordinal) - 1
        if pos < 0:
            return None
        if ordinal > self._block_max[pos]:
            return None
        return pos

    def contains_ordinal(self, ordinal: int) -> bool:
        """Point probe: whether a tuple with this phi ordinal is stored.

        Reads one block and walks its difference stream with early exit
        (:meth:`~repro.core.codec.BlockCodec.probe_block`) — no full
        block reconstruction.  Ordinals outside every block's range are
        answered from the in-memory directory with no I/O at all.
        """
        pos = self.covering_block_of_ordinal(ordinal)
        if pos is None:
            return False
        payload = self.read_payload(pos)
        probe = getattr(self._codec, "probe_block", None)
        if probe is not None:
            return probe(payload, ordinal)
        return ordinal in self._codec.decode_ordinals(payload)

    def blocks_overlapping(self, lo: int, hi: int) -> List[int]:
        """Positions of blocks whose ordinal range intersects [lo, hi]."""
        if lo > hi or not self._block_ids:
            return []
        start = self.block_of_ordinal(lo)
        out = []
        for pos in range(start, self.num_blocks):
            if self._block_min[pos] > hi:
                break
            if self._block_max[pos] >= lo:
                out.append(pos)
        return out

    # ------------------------------------------------------------------
    # Mutation (Section 4.2)
    # ------------------------------------------------------------------

    def insert(self, values: Sequence[int]) -> int:
        """Insert one ordinal tuple; returns the block position updated.

        The change is confined to the affected block (re-coded in place);
        a block that can no longer hold its tuples is split in two.
        """
        ordinal = self._schema.mapper.phi(values)
        if not self._block_ids:
            self._append_run([ordinal])
            return 0
        pos = self.block_of_ordinal(ordinal)
        ordinals = self.read_block_ordinals(pos)
        bisect.insort(ordinals, ordinal)
        try:
            payload = self._encode_ordinals(ordinals)
        except BlockOverflowError:
            self._split_block(pos, ordinals)
            return pos
        self._write_payload(self._block_ids[pos], payload)
        self._block_min[pos] = ordinals[0]
        self._block_max[pos] = ordinals[-1]
        self._block_count[pos] = len(ordinals)
        self._num_tuples += 1
        return pos

    def _split_block(self, position: int, ordinals: List[int]) -> None:
        """Replace one overfull block with two half-full ones."""
        mid = len(ordinals) // 2
        left, right = ordinals[:mid], ordinals[mid:]
        self._write_payload(
            self._block_ids[position], self._encode_ordinals(left)
        )
        right_payload = self._encode_ordinals(right)
        right_id = self._disk.append_block(right_payload)
        self._crc_by_id[right_id] = zlib.crc32(right_payload)
        self._block_min[position] = left[0]
        self._block_max[position] = left[-1]
        self._block_count[position] = len(left)
        self._block_ids.insert(position + 1, right_id)
        self._block_min.insert(position + 1, right[0])
        self._block_max.insert(position + 1, right[-1])
        self._block_count.insert(position + 1, len(right))
        self._num_tuples += 1

    def delete(self, values: Sequence[int]) -> bool:
        """Delete one occurrence of a tuple; returns whether it was found."""
        ordinal = self._schema.mapper.phi(values)
        pos = self.covering_block_of_ordinal(ordinal)
        if pos is None:
            # Outside every block's range: the directory alone proves the
            # tuple is absent, so don't pay a block read to find out.
            return False
        ordinals = self.read_block_ordinals(pos)
        idx = bisect.bisect_left(ordinals, ordinal)
        if idx >= len(ordinals) or ordinals[idx] != ordinal:
            return False
        ordinals.pop(idx)
        if not ordinals:
            self._crc_by_id.pop(self._block_ids[pos], None)
            self._block_ids.pop(pos)
            self._block_min.pop(pos)
            self._block_max.pop(pos)
            self._block_count.pop(pos)
        else:
            payload = self._encode_ordinals(ordinals)
            self._write_payload(self._block_ids[pos], payload)
            self._block_min[pos] = ordinals[0]
            self._block_max[pos] = ordinals[-1]
            self._block_count[pos] = len(ordinals)
        self._num_tuples -= 1
        return True

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def encode_payload(self, ordinals: Sequence[int]) -> bytes:
        """Encode a sorted ordinal run exactly as a block write would.

        The repair engine uses this to re-encode a candidate tuple set
        and compare its CRC against the directory's recorded checksum —
        the codec is deterministic, so a CRC match on the re-encoding is
        byte-identity with what was originally written.
        """
        return self._encode_ordinals(ordinals)

    def restore_block(
        self, position: int, ordinals: Sequence[int], payload: bytes
    ) -> None:
        """Overwrite one block with a repaired payload, then verify it.

        The repair contract (docs/INTEGRITY.md): ``ordinals`` must match
        the directory's recorded range and count for the block — repair
        reconstructs what *was* there, never something new — and the
        written bytes are read back and compared before the block is
        considered healthy.  Any failure raises
        :class:`~repro.errors.RepairError` and the block stays suspect.
        """
        self._check_position(position)
        block_id = self._block_ids[position]
        if (
            not ordinals
            or ordinals[0] != self._block_min[position]
            or ordinals[-1] != self._block_max[position]
            or len(ordinals) != self._block_count[position]
        ):
            raise RepairError(
                f"restored tuple set contradicts the directory for "
                f"block {position} (expected [{self._block_min[position]}, "
                f"{self._block_max[position]}], "
                f"{self._block_count[position]} tuples)",
                block_id=block_id,
                position=position,
                detected_by="directory",
            )
        self._write_payload(block_id, payload)
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

        Re-reads every block and confirms the cached min/max/count match
        the decoded contents, that block ranges are disjoint and sorted,
        and that the tuple total adds up — raising
        :class:`~repro.errors.StorageError` on the first inconsistency.
        Mutation tests run this after split-heavy workloads to prove the
        Section 4.2 bookkeeping never drifts.
        """
        total = 0
        prev_max: Optional[int] = None
        for position in range(self.num_blocks):
            ordinals = self.read_block_ordinals(position)
            if not ordinals:
                raise StorageError(f"block {position} decoded to no tuples")
            if ordinals[0] != self._block_min[position]:
                raise StorageError(
                    f"block {position} min is {ordinals[0]}, "
                    f"directory says {self._block_min[position]}"
                )
            if ordinals[-1] != self._block_max[position]:
                raise StorageError(
                    f"block {position} max is {ordinals[-1]}, "
                    f"directory says {self._block_max[position]}"
                )
            if len(ordinals) != self._block_count[position]:
                raise StorageError(
                    f"block {position} holds {len(ordinals)} tuples, "
                    f"directory says {self._block_count[position]}"
                )
            if prev_max is not None and ordinals[0] <= prev_max:
                raise StorageError(
                    f"block {position} min {ordinals[0]} does not follow "
                    f"previous block max {prev_max}"
                )
            prev_max = ordinals[-1]
            total += len(ordinals)
        if total != self._num_tuples:
            raise StorageError(
                f"blocks hold {total} tuples, file claims {self._num_tuples}"
            )

    def utilisation(self) -> float:
        """Mean payload fraction of the file's blocks.

        Mutation churn fragments blocks (splits leave two half-full
        blocks; deletes leave slack); this is the number
        :meth:`compact` restores.
        """
        if not self._block_ids:
            return 0.0
        used = 0
        for position in range(self.num_blocks):
            ordinals = self.read_block_ordinals(position)
            used += self._codec.encoded_size_of_ordinals(ordinals)
        return used / (self.num_blocks * self._disk.block_size)

    def compact(self) -> int:
        """Repack the whole file at maximal fill; returns blocks saved.

        Reads every block once, re-runs the greedy Section 3.3 packing
        over the full ordinal sequence, and rewrites the file onto fresh
        blocks.  Old blocks are abandoned (the simulated disk does not
        reclaim space; a real implementation would free them).
        """
        from repro.storage.packer import pack_ordinals

        ordinals: List[int] = []
        for position in range(self.num_blocks):
            ordinals.extend(self.read_block_ordinals(position))
        old_blocks = self.num_blocks

        partition = pack_ordinals(self._codec, ordinals, self._disk.block_size)
        self._block_ids = []
        self._block_min = []
        self._block_max = []
        self._block_count = []
        self._crc_by_id = {}
        self._num_tuples = 0
        for run in partition.blocks:
            self._append_run(run)
        return old_blocks - self.num_blocks

    def _check_position(self, position: int) -> None:
        if not 0 <= position < len(self._block_ids):
            raise StorageError(
                f"AVQ file has {len(self._block_ids)} blocks, "
                f"no position {position}"
            )
