"""Block partitioning with minimal slack (Sections 3.3 and 3.4).

The paper: "The number of tuples allocated to a block before coding must
be suitably fixed so as to minimize this [unused] space."  Because the
chained AVQ encoding of a phi-ordered run of tuples has an exactly
incremental size (header + representative + one RLE-coded gap per extra
tuple), the greedy maximal fill is optimal for a given tuple order: each
block takes tuples until the next one would overflow.

:func:`pack_ordinals` implements that fill; :func:`pack_relation` is the
relation-level wrapper.  Both return the partition plus a
:class:`PackStats` summary (block count, slack, utilisation) used by the
compression-efficiency experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.core.codec import HEADER_BYTES, BlockCodec
from repro.core.vectorized import numpy_packer_for
from repro.errors import BlockOverflowError, StorageError
from repro.obs import runtime as _obs
from repro.obs.snapshot import snapshot_dataclass
from repro.relational.relation import Relation
from repro.storage.block import DEFAULT_BLOCK_SIZE

__all__ = [
    "PackStats",
    "PackedPartition",
    "pack_ordinals",
    "pack_relation",
    "pack_runs",
]


@dataclass(frozen=True)
class PackStats:
    """Fill summary for a packed partition."""

    num_blocks: int
    num_tuples: int
    payload_bytes: int
    block_size: int

    @property
    def total_bytes(self) -> int:
        """Bytes occupied on disk: blocks times block size."""
        return self.num_blocks * self.block_size

    @property
    def slack_bytes(self) -> int:
        """Unused bytes across all blocks."""
        return self.total_bytes - self.payload_bytes

    @property
    def utilisation(self) -> float:
        """Mean fraction of each block occupied by payload."""
        if self.num_blocks == 0:
            return 0.0
        return self.payload_bytes / self.total_bytes

    @property
    def tuples_per_block(self) -> float:
        """Average tuples stored per block."""
        if self.num_blocks == 0:
            return 0.0
        return self.num_tuples / self.num_blocks

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """Fields plus derived sizes/rates, under stable keys.

        PackStats is frozen — a one-shot summary of a finished pack, not
        a live counter set — so it implements the snapshot protocol's
        ``as_dict`` without a ``reset``.
        """
        out = snapshot_dataclass(self)
        out["total_bytes"] = self.total_bytes
        out["slack_bytes"] = self.slack_bytes
        out["utilisation"] = self.utilisation
        out["tuples_per_block"] = self.tuples_per_block
        return out


@dataclass(frozen=True)
class PackedPartition:
    """The Section 3.3 partition: per-block ordinal runs plus statistics.

    ``blocks[k]`` is the ascending list of phi ordinals stored in block
    ``B_{k+1}``; consecutive blocks cover consecutive ordinal ranges, which
    is what makes the primary index's whole-tuple search keys work.
    """

    blocks: List[List[int]]
    stats: PackStats


def pack_ordinals(
    codec: BlockCodec,
    sorted_ordinals: Sequence[int],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> PackedPartition:
    """Greedily fill blocks with a phi-ordered run of tuple ordinals.

    ``sorted_ordinals`` must be ascending (ties allowed — duplicate
    tuples).  Raises :class:`~repro.errors.StorageError` when even a
    single tuple cannot fit a block, which only happens for absurdly
    small block sizes.
    """
    min_block = getattr(
        codec, "min_block_bytes", HEADER_BYTES + codec.tuple_bytes
    )
    if block_size < min_block:
        raise StorageError(
            f"block size {block_size} cannot hold even one tuple "
            f"(needs {min_block} bytes)"
        )
    for i in range(1, len(sorted_ordinals)):
        if sorted_ordinals[i] < sorted_ordinals[i - 1]:
            raise StorageError("pack_ordinals requires ascending ordinals")

    blocks: List[List[int]] = []
    payload_bytes = 0

    if codec.chained:
        # Exact incremental fill: block size = header + m + sum of gap costs.
        current: List[int] = []
        current_size = 0
        for ordinal in sorted_ordinals:
            if not current:
                current = [ordinal]
                current_size = min_block
                continue
            cost = codec.incremental_gap_cost(ordinal - current[-1])
            if current_size + cost <= block_size:
                current.append(ordinal)
                current_size += cost
            else:
                blocks.append(current)
                payload_bytes += current_size
                current = [ordinal]
                current_size = min_block
        if current:
            blocks.append(current)
            payload_bytes += current_size
    else:
        # Unchained sizes are not incremental (they depend on the moving
        # representative) and not even strictly monotone in prefix length
        # (a median shift can shrink several stored differences at once).
        # Bisection still yields a valid fill — every emitted block is
        # size-checked — at O(u log u) evaluations instead of O(u^2); it
        # may occasionally stop one tuple short of the true maximum, which
        # only costs a sliver of slack in this ablation-only code path.
        start = 0
        n = len(sorted_ordinals)
        while start < n:
            lo, hi = 1, n - start  # lo tuples always "fit" (forced minimum)
            while lo < hi:
                mid = (lo + hi + 1) // 2
                size = codec.encoded_size_of_ordinals(
                    sorted_ordinals[start : start + mid]
                )
                if size <= block_size:
                    lo = mid
                else:
                    hi = mid - 1
            run = list(sorted_ordinals[start : start + lo])
            size = codec.encoded_size_of_ordinals(run)
            if size > block_size:
                raise BlockOverflowError(
                    "a single tuple's unchained encoding exceeds the block size"
                )
            blocks.append(run)
            payload_bytes += size
            start += lo

    stats = PackStats(
        num_blocks=len(blocks),
        num_tuples=len(sorted_ordinals),
        payload_bytes=payload_bytes,
        block_size=block_size,
    )
    reg = _obs.REGISTRY
    if reg is not None:
        reg.inc("pack.blocks", stats.num_blocks)
        reg.inc("pack.tuples", stats.num_tuples)
        reg.inc("pack.payload_bytes", stats.payload_bytes)
        reg.set_gauge("pack.utilisation", stats.utilisation)
    return PackedPartition(blocks=blocks, stats=stats)


def pack_runs(
    codec: BlockCodec,
    sorted_ordinals: Sequence[int],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> List[Sequence[int]]:
    """Per-block ordinal runs only, taking the numpy packer if it applies.

    The partition is identical to :func:`pack_ordinals`; codecs that
    pass :func:`~repro.core.vectorized.numpy_packer_for` (chained, int64
    ordinal space) skip the per-tuple Python loop.
    """
    if not sorted_ordinals:
        return []
    packer = numpy_packer_for(codec)
    if packer is None:
        return list(pack_ordinals(codec, sorted_ordinals, block_size).blocks)
    arr = np.asarray(sorted_ordinals, dtype=np.int64)
    return [
        sorted_ordinals[start:end]
        for start, end in packer.pack_boundaries(arr, block_size)
    ]


def pack_relation(
    relation: Relation,
    *,
    codec: BlockCodec = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> PackedPartition:
    """Sort a relation by phi (Section 3.2) and pack it into blocks.

    A codec built from the relation's schema is used unless one is given
    (give one to run the chaining or representative ablations).
    """
    if codec is None:
        codec = BlockCodec(relation.schema.domain_sizes)
    return pack_ordinals(codec, relation.phi_ordinals(), block_size)
