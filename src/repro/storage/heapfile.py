"""Uncompressed fixed-width tuple storage — the "no coding" baseline.

The paper's uncoded comparator stores domain-mapped tuples at their fixed
byte width, packed back-to-back into disk blocks.  Like the coded
relation, the heap file is phi-clustered by default (the paper's Figure
5.8 shows the uncoded relation answering a clustered-attribute query with
far fewer blocks than an unclustered one, so it too is sorted).

Extraction of tuples from a raw block is the paper's ``t3`` — included in
the coded relation's decode time ``t2``, and measured separately here.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.core.runlength import TupleLayout
from repro.errors import StorageError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.storage.disk import SimulatedDisk

__all__ = ["HeapFile"]


class HeapFile:
    """Fixed-width, phi-clustered, uncompressed relation storage.

    Each block holds ``floor(block_size / m)`` tuples of ``m`` bytes,
    preceded by a 2-byte tuple count (blocks at the relation's tail may be
    partially filled).
    """

    _COUNT_BYTES = 2

    def __init__(
        self,
        schema: Schema,
        disk: SimulatedDisk,
        *,
        sort: bool = True,
        min_field_bytes: int = 1,
    ):
        self._schema = schema
        self._disk = disk
        self._layout = TupleLayout(
            schema.domain_sizes, min_field_bytes=min_field_bytes
        )
        self._sort = sort
        self._block_ids: List[int] = []
        self._num_tuples = 0
        capacity = (disk.block_size - self._COUNT_BYTES) // self._layout.tuple_bytes
        if capacity < 1:
            raise StorageError(
                f"block size {disk.block_size} holds no "
                f"{self._layout.tuple_bytes}-byte tuples"
            )
        self._capacity = capacity

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        relation: Relation,
        disk: SimulatedDisk,
        *,
        sort: bool = True,
        min_field_bytes: int = 1,
    ) -> "HeapFile":
        """Materialise a relation into heap blocks on ``disk``.

        ``min_field_bytes=2`` stores attributes at natural int16-style
        widths — the paper's uncoded layout (see DESIGN.md).
        """
        hf = cls(relation.schema, disk, sort=sort, min_field_bytes=min_field_bytes)
        tuples = relation.sorted_by_phi() if sort else list(relation)
        for start in range(0, len(tuples), hf._capacity):
            hf._write_block(tuples[start : start + hf._capacity])
        hf._num_tuples = len(tuples)
        return hf

    def _write_block(self, tuples: Sequence[Tuple[int, ...]]) -> None:
        payload = len(tuples).to_bytes(self._COUNT_BYTES, "big") + b"".join(
            self._layout.tuple_to_bytes(t) for t in tuples
        )
        self._block_ids.append(self._disk.append_block(payload))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """Schema of the stored relation."""
        return self._schema

    @property
    def num_blocks(self) -> int:
        """Blocks occupied on disk — the uncoded ``N`` denominator."""
        return len(self._block_ids)

    @property
    def num_tuples(self) -> int:
        """Tuples stored."""
        return self._num_tuples

    @property
    def tuples_per_block(self) -> int:
        """Fixed capacity of a full block."""
        return self._capacity

    @property
    def block_ids(self) -> List[int]:
        """Disk block ids, in phi-cluster order."""
        return list(self._block_ids)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def read_block(self, position: int) -> List[Tuple[int, ...]]:
        """Read and extract the tuples of the ``position``-th block.

        The extraction loop is the ``t3`` operation of Section 5.3.2.
        """
        payload = self._disk.read_block(self._block_id_at(position))
        return self.extract(payload)

    def extract(self, payload: bytes) -> List[Tuple[int, ...]]:
        """Parse a raw heap block into tuples (``t3``, no I/O charged)."""
        count = int.from_bytes(payload[: self._COUNT_BYTES], "big")
        m = self._layout.tuple_bytes
        needed = self._COUNT_BYTES + count * m
        if count > self._capacity or len(payload) < needed:
            raise StorageError("corrupt heap block")
        out = []
        pos = self._COUNT_BYTES
        for _ in range(count):
            out.append(self._layout.tuple_from_bytes(payload[pos : pos + m]))
            pos += m
        return out

    def read_block_id(self, block_id: int) -> List[Tuple[int, ...]]:
        """Read and extract a block by its stable disk id."""
        return self.extract(self._disk.read_block(block_id))

    def decode_payload(self, payload: bytes) -> List[Tuple[int, ...]]:
        """Extract a raw block payload (no I/O) — the buffer-pool path."""
        return self.extract(payload)

    def scan(self) -> Iterator[Tuple[int, ...]]:
        """Full relation scan, block by block."""
        for position in range(self.num_blocks):
            yield from self.read_block(position)

    def iter_blocks(self) -> Iterator[Tuple[int, List[Tuple[int, ...]]]]:
        """Yield ``(block_id, tuples)`` for every block, in storage order."""
        for position in range(self.num_blocks):
            yield self._block_ids[position], self.read_block(position)

    def _block_id_at(self, position: int) -> int:
        try:
            return self._block_ids[position]
        except IndexError:
            raise StorageError(
                f"heap file has {self.num_blocks} blocks, no position {position}"
            )
