"""AVQ wrapped in the baseline interface, for uniform comparisons."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.baselines.base import BaselineCodec
from repro.core.codec import BlockCodec
from repro.relational.relation import Relation
from repro.storage.block import DEFAULT_BLOCK_SIZE
from repro.storage.packer import pack_ordinals

__all__ = ["AVQBaseline"]


class AVQBaseline(BaselineCodec):
    """The full Section 3.4 pipeline behind the comparison interface."""

    name = "avq"

    def __init__(
        self,
        domain_sizes: Sequence[int],
        *,
        codec: Optional[BlockCodec] = None,
    ):
        self._codec = codec or BlockCodec(domain_sizes)

    @property
    def codec(self) -> BlockCodec:
        """The underlying block codec."""
        return self._codec

    def encode_block(self, tuples: Sequence[Tuple[int, ...]]) -> bytes:
        return self._codec.encode_block(tuples)

    def decode_block(self, data: bytes) -> List[Tuple[int, ...]]:
        return self._codec.decode_block(data)

    def tuple_order(self, relation: Relation) -> List[Tuple[int, ...]]:
        return relation.sorted_by_phi()

    def encoded_tuple_size(self, values: Sequence[int]) -> int:
        # Context-dependent (gap to the neighbour); not usable standalone.
        raise NotImplementedError(
            "AVQ tuple size depends on its neighbours; use blocks_needed"
        )

    def blocks_needed(
        self, relation: Relation, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> int:
        partition = pack_ordinals(
            self._codec, relation.phi_ordinals(), block_size
        )
        return partition.stats.num_blocks
