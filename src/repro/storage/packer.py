"""Block partitioning with minimal slack (Sections 3.3 and 3.4).

The paper: "The number of tuples allocated to a block before coding must
be suitably fixed so as to minimize this [unused] space."  Because the
chained AVQ encoding of a phi-ordered run of tuples has an exactly
incremental size (header + representative + one RLE-coded gap per extra
tuple), the greedy maximal fill is optimal for a given tuple order: each
block takes tuples until the next one would overflow.

:func:`pack_ordinals` is the one packing call: the codec picks the
boundaries (:meth:`~repro.core.codec.BlockCodec.pack_boundaries`) and
the packer returns the partition plus a :class:`PackStats` summary
(block count, slack, utilisation) used by the compression-efficiency
experiments, counting ``pack.*`` on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Union

import numpy as np

from repro.errors import StorageError
from repro.obs import runtime as _obs
from repro.obs.snapshot import snapshot_dataclass
from repro.storage.block import DEFAULT_BLOCK_SIZE

if TYPE_CHECKING:
    from repro.core.codec import BlockCodec
    from repro.core.golomb import GolombBlockCodec

__all__ = [
    "PackStats",
    "PackedPartition",
    "pack_ordinals",
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

    ``blocks[k]`` holds the ascending phi ordinals stored in block
    ``B_{k+1}`` — an int64 array slice where the codec packed in numpy,
    a list of Python ints otherwise; consecutive blocks cover
    consecutive ordinal ranges, which is what makes the primary index's
    whole-tuple search keys work.
    """

    blocks: List[Sequence[int]]
    stats: PackStats


def pack_ordinals(
    codec: Union["BlockCodec", "GolombBlockCodec"],
    sorted_ordinals: Sequence[int],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> PackedPartition:
    """Greedily fill blocks with a phi-ordered run of tuple ordinals.

    ``sorted_ordinals`` must be ascending (ties allowed — duplicate
    tuples).  The codec picks every boundary; raises
    :class:`~repro.errors.StorageError` when a single tuple cannot fit
    a block, which only happens for absurdly small block sizes.
    """
    ordinals: Sequence[int]
    if codec.pack_path == "vector":
        ordinals = np.asarray(sorted_ordinals, dtype=np.int64)
        descending = bool((ordinals[1:] < ordinals[:-1]).any())
    else:
        ordinals = (
            sorted_ordinals.tolist()
            if isinstance(sorted_ordinals, np.ndarray)
            else list(sorted_ordinals)
        )
        descending = any(b < a for a, b in zip(ordinals, ordinals[1:]))
    if descending:
        raise StorageError("pack_ordinals requires ascending ordinals")
    boundaries = codec.pack_boundaries(ordinals, block_size)
    oversize = [size for _, _, size in boundaries if size > block_size]
    if oversize:
        raise StorageError(
            f"block size {block_size} cannot hold even one tuple "
            f"(needs {oversize[0]} bytes)"
        )
    blocks = [ordinals[s:e] for s, e, _ in boundaries]
    stats = PackStats(
        num_blocks=len(blocks),
        num_tuples=len(ordinals),
        payload_bytes=sum(size for _, _, size in boundaries),
        block_size=block_size,
    )
    reg = _obs.REGISTRY
    if reg is not None:
        reg.inc("pack.blocks", stats.num_blocks)
        reg.inc("pack.tuples", stats.num_tuples)
        reg.inc("pack.payload_bytes", stats.payload_bytes)
        reg.set_gauge("pack.utilisation", stats.utilisation)
    return PackedPartition(blocks=blocks, stats=stats)
