"""Golomb-Rice coding of tuple differences — the bit-granular extension.

The paper cites Golomb's run-length codes [4] but applies run-length
coding at byte granularity.  A natural question the paper leaves open is
how much the byte granularity costs; this module answers it by coding
the same chained gap sequence with Golomb-Rice codes:

* a gap ``g`` is split as ``q = g >> k`` and ``r = g & (2^k - 1)``;
* ``q`` is written in unary, ``r`` in ``k`` binary bits;
* the Rice parameter ``k`` is chosen per block from the mean gap
  (``k ~ log2(mean)``, the standard near-optimal choice for
  geometrically distributed gaps — which uniform tuples produce).

:class:`GolombBlockCodec` mirrors :class:`~repro.core.codec.BlockCodec`'s
interface (encode/decode a block of tuples, exact predicted sizes, block
boundaries) so the two slot into the same packer and benches.  Block
layout::

    count u (2 bytes) ‖ rice k (1 byte) ‖ bit length (4 bytes)
    ‖ rep tuple (m bytes) ‖ Rice-coded gaps (bit stream)

The representative is the *first* tuple here: with chained gaps the
anchor position does not affect size, and anchoring at the front makes
decode a single forward prefix-sum.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.bits import BitReader, BitWriter
from repro.core.codec import Boundary, _bisect_boundaries
from repro.core.phi import OrdinalMapper
from repro.core.runlength import TupleLayout
from repro.errors import BlockOverflowError, CodecError, DomainError

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = ["GolombBlockCodec", "choose_rice_parameter"]

#: Header: tuple count (2) + rice parameter (1) + payload bit length (4).
GOLOMB_HEADER_BYTES = 7

#: Hard cap keeping pathological unary runs bounded.
_MAX_RICE_K = 63


def choose_rice_parameter(gaps: Sequence[int]) -> int:
    """Near-optimal Rice ``k`` for a gap sample: ``floor(log2(mean))``.

    Zero-mean (all-duplicate) blocks get ``k = 0``; the unary part then
    costs one bit per gap.
    """
    if not gaps:
        return 0
    mean = sum(gaps) / len(gaps)
    if mean < 1.0:
        return 0
    return min(_MAX_RICE_K, max(0, int(mean).bit_length() - 1))


class GolombBlockCodec:
    """Bit-granular AVQ variant: chained gaps, Rice-coded.

    Although the stored differences are chained gaps, the per-block Rice
    parameter depends on the whole block's gap distribution, so sizes
    are not incrementally computable: :meth:`pack_boundaries` bisects.
    """

    #: Every decode runs the scalar bit reader.
    decode_path = "scalar"
    #: Packing works over Python ints (bisection).
    pack_path = "scalar"

    def __init__(self, domain_sizes: Sequence[int]) -> None:
        self._mapper = OrdinalMapper(domain_sizes)
        self._layout = TupleLayout(domain_sizes)

    @property
    def mapper(self) -> OrdinalMapper:
        """The phi bijection for this codec's domains."""
        return self._mapper

    @property
    def tuple_bytes(self) -> int:
        """``m`` — byte width of the raw anchor tuple."""
        return self._layout.tuple_bytes

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    @staticmethod
    def _gap_bits(gap: int, k: int) -> int:
        return (gap >> k) + 1 + k

    def encoded_size_of_ordinals(self, sorted_ordinals: Sequence[int]) -> int:
        """Exact encoded bytes for a block holding these (ascending) tuples."""
        u = len(sorted_ordinals)
        if u == 0:
            raise CodecError("cannot size an empty block")
        gaps = [
            sorted_ordinals[i + 1] - sorted_ordinals[i] for i in range(u - 1)
        ]
        k = choose_rice_parameter(gaps)
        bits = sum(self._gap_bits(g, k) for g in gaps)
        return GOLOMB_HEADER_BYTES + self._layout.tuple_bytes + (bits + 7) // 8

    def pack_boundaries(
        self, sorted_ordinals: Sequence[int], block_size: int
    ) -> List[Boundary]:
        """Greedy fill by bisection: ``(start, end, encoded_size)`` per
        block."""
        return _bisect_boundaries(
            self.encoded_size_of_ordinals, sorted_ordinals, block_size
        )

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def encode_block(
        self,
        tuples: Sequence[Sequence[int]],
        capacity: Optional[int] = None,
    ) -> bytes:
        """Encode a block; raises on overflow when ``capacity`` is given."""
        return self.encode_ordinals(
            sorted(self._mapper.phi(t) for t in tuples), capacity
        )

    def encode_ordinals(
        self,
        sorted_ordinals: Sequence[int],
        capacity: Optional[int] = None,
    ) -> bytes:
        """Encode an ascending phi-ordinal run (the block-write hook)."""
        u = len(sorted_ordinals)
        if u == 0:
            raise CodecError("cannot encode an empty block")
        if u > 0xFFFF:
            raise CodecError(f"block of {u} tuples exceeds the count field")
        gaps = [
            sorted_ordinals[i + 1] - sorted_ordinals[i] for i in range(u - 1)
        ]
        k = choose_rice_parameter(gaps)

        writer = BitWriter()
        for g in gaps:
            writer.write_unary(g >> k)
            writer.write_bits(g & ((1 << k) - 1), k)
        payload = writer.getvalue()

        out = bytearray()
        out += u.to_bytes(2, "big")
        out.append(k)
        out += writer.bit_length.to_bytes(4, "big")
        out += self._layout.tuple_to_bytes(
            self._mapper.phi_inverse(sorted_ordinals[0])
        )
        out += payload
        if capacity is not None and len(out) > capacity:
            raise BlockOverflowError(
                f"{u} tuples Rice-encode to {len(out)} bytes > {capacity}"
            )
        return bytes(out)

    def decode_block(self, data: bytes) -> List[Tuple[int, ...]]:
        """Exact inverse of :meth:`encode_block`."""
        return [self._mapper.phi_inverse(o) for o in self.decode_ordinals(data)]

    def decode_ordinals_array(self, data: bytes) -> "NDArray[np.int64]":
        """A block's sorted ordinals as an int64 array (the array-read
        hook; the space must fit int64)."""
        if not self._mapper.fits_int64:
            raise DomainError(
                "ordinal space exceeds int64; use decode_ordinals"
            )
        return np.asarray(self.decode_ordinals(data), dtype=np.int64)

    def decode_ordinals(self, data: bytes) -> List[int]:
        """Decode a block to its sorted phi ordinals."""
        if len(data) < GOLOMB_HEADER_BYTES:
            raise CodecError("corrupt Golomb block: short header")
        u = int.from_bytes(data[0:2], "big")
        if u == 0:
            raise CodecError("corrupt Golomb block: zero tuple count")
        k = data[2]
        if k > _MAX_RICE_K:
            raise CodecError(f"corrupt Golomb block: rice parameter {k}")
        bit_length = int.from_bytes(data[3:7], "big")
        m = self._layout.tuple_bytes
        if len(data) < GOLOMB_HEADER_BYTES + m:
            raise CodecError("corrupt Golomb block: missing anchor tuple")
        anchor = self._layout.tuple_from_bytes(
            data[GOLOMB_HEADER_BYTES : GOLOMB_HEADER_BYTES + m]
        )
        ordinal = self._mapper.phi(anchor)

        payload = data[GOLOMB_HEADER_BYTES + m :]
        if bit_length > len(payload) * 8:
            raise CodecError("corrupt Golomb block: truncated bit stream")
        reader = BitReader(payload, bit_length)
        out = [ordinal]
        for _ in range(u - 1):
            q = reader.read_unary()
            r = reader.read_bits(k)
            ordinal += (q << k) | r
            if ordinal >= self._mapper.space_size:
                raise CodecError(
                    "corrupt Golomb block: ordinal outside tuple space"
                )
            out.append(ordinal)
        return out
