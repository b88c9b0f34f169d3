"""External merge sort and bounded-memory bulk loading.

The Section 3.2 re-ordering sorts the *whole relation* by phi — trivial
in memory at paper scale, but a real deployment loads relations larger
than RAM.  This module supplies the standard solution:

* :func:`external_sort_ordinals` — run formation (sort chunks of at most
  ``memory_budget`` ordinals) with runs spilled to the simulated disk as
  fixed-width blocks, then a k-way heap merge streaming the sorted
  sequence back;
* :func:`bulk_load` — sort externally, then stream the sorted ordinals
  chunk by chunk through the packer and codec into a fresh
  :class:`~repro.storage.avqfile.AVQFile`, never holding more than one
  chunk plus one open block in memory.

Spill I/O is charged to the disk like any other block access, so the
cost of loading shows up in the stats — a real bulk load pays it too.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.core.bitutils import byte_width
from repro.core.codec import BlockCodec
from repro.errors import StorageError
from repro.relational.schema import Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk
from repro.storage.packer import pack_ordinals

__all__ = ["external_sort_ordinals", "bulk_load"]


class _RunWriter:
    """Spills one sorted run to the disk as fixed-width ordinal blocks."""

    def __init__(self, disk: SimulatedDisk, ordinal_bytes: int):
        self._disk = disk
        self._width = ordinal_bytes
        self._per_block = max(1, disk.block_size // ordinal_bytes)
        self.block_ids: List[int] = []
        self.count = 0

    def write_run(self, ordinals: List[int]) -> None:
        for start in range(0, len(ordinals), self._per_block):
            chunk = ordinals[start : start + self._per_block]
            payload = b"".join(
                o.to_bytes(self._width, "big") for o in chunk
            )
            self.block_ids.append(self._disk.append_block(payload))
            self.count += len(chunk)


def _read_run(
    disk: SimulatedDisk, block_ids: List[int], ordinal_bytes: int
) -> Iterator[int]:
    """Stream a spilled run back, one block in memory at a time."""
    for block_id in block_ids:
        payload = disk.read_block(block_id)
        for start in range(0, len(payload), ordinal_bytes):
            chunk = payload[start : start + ordinal_bytes]
            if len(chunk) == ordinal_bytes:
                yield int.from_bytes(chunk, "big")


def external_sort_ordinals(
    ordinals: Iterable[int],
    *,
    memory_budget: int,
    spill_disk: SimulatedDisk,
    max_ordinal: int,
) -> Iterator[int]:
    """Sort an ordinal stream using at most ``memory_budget`` in memory.

    ``max_ordinal`` sizes the fixed-width spill encoding (pass
    ``mapper.space_size - 1``).  Small inputs never spill; large inputs
    form ceil(n / budget) runs and heap-merge them.
    """
    if memory_budget < 1:
        raise StorageError(f"memory budget must be >= 1, got {memory_budget}")
    width = byte_width(max_ordinal)

    runs: List[List[int]] = []  # spilled run block-id lists
    writer_width = width
    buffer: List[int] = []

    def spill():
        buffer.sort()
        writer = _RunWriter(spill_disk, writer_width)
        writer.write_run(buffer)
        runs.append(writer.block_ids)
        buffer.clear()

    for o in ordinals:
        if o < 0 or o > max_ordinal:
            raise StorageError(f"ordinal {o} outside [0, {max_ordinal}]")
        buffer.append(o)
        if len(buffer) >= memory_budget:
            spill()

    if not runs:
        buffer.sort()
        yield from buffer
        return
    if buffer:
        spill()

    streams = [_read_run(spill_disk, ids, writer_width) for ids in runs]
    yield from heapq.merge(*streams)


def bulk_load(
    schema: Schema,
    tuples: Iterable,
    data_disk: SimulatedDisk,
    *,
    memory_budget: int = 100_000,
    spill_disk: Optional[SimulatedDisk] = None,
    codec: Optional[BlockCodec] = None,
) -> AVQFile:
    """Build an AVQ file from a tuple stream with bounded memory.

    ``tuples`` may be any iterable of ordinal tuples (a generator reading
    a source file, for instance).  Sorting spills to ``spill_disk`` (its
    own scratch disk by default).  The phi-sorted stream is packed
    (:func:`~repro.storage.packer.pack_ordinals`) ``memory_budget``
    ordinals at a time and coded onto ``data_disk``; each chunk's last,
    still-open block is carried into the next chunk.  A chained greedy
    boundary depends only on the ordinals before it, so the file is
    byte-identical to :meth:`AVQFile.build
    <repro.storage.avqfile.AVQFile.build>`.
    """
    codec = codec or BlockCodec(schema.domain_sizes)
    if not isinstance(codec, BlockCodec) or not codec.chained:
        raise StorageError(
            "bulk loading requires a chained BlockCodec (its boundaries "
            "depend only on the ordinals before them)"
        )
    if codec.mapper.domain_sizes != schema.domain_sizes:
        raise StorageError("codec domain sizes do not match the schema")
    if spill_disk is None:
        spill_disk = SimulatedDisk(block_size=data_disk.block_size)

    mapper = schema.mapper
    sorted_ordinals = external_sort_ordinals(
        (mapper.phi(t) for t in tuples),
        memory_budget=memory_budget,
        spill_disk=spill_disk,
        max_ordinal=mapper.space_size - 1,
    )

    out = AVQFile(schema, data_disk, codec=codec)
    carry: Sequence[int] = []
    while True:
        chunk = list(islice(sorted_ordinals, memory_budget))
        if not chunk:
            break
        *runs, carry = pack_ordinals(
            codec, [*carry, *chunk], data_disk.block_size
        ).blocks
        out.rewrite(out.num_blocks, out.num_blocks, runs)
    if len(carry):
        out.rewrite(out.num_blocks, out.num_blocks, [carry])
    return out
