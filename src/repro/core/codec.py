"""The AVQ block codec: the full Section 3.4 coding pipeline.

A block of tuples is coded in four stages, exactly following the paper:

1. **Order** — tuples are sorted by their ``phi`` ordinal (Section 3.2).
2. **Difference** — the middle tuple becomes the block's *representative*;
   every other tuple is replaced by an ordinal difference (Definition 2.1,
   with the codeword omitted because the representative is stored in the
   block itself).
3. **Chain** — differences are reduced further by differencing each tuple
   against its neighbour toward the representative (Example 3.3), turning
   them into consecutive gaps.
4. **Run-length code** — each difference is rendered as a fixed-width tuple
   byte string whose leading zero bytes are replaced by a one-byte count
   (Section 3.4 / Figure 3.3 Table (d)).

The serialised block layout is::

    +----------------+------------------+----------------+------------------+
    | tuple count u  | rep index        | rep tuple      | u-1 RLE diffs    |
    | (2 bytes)      | (2 bytes)        | (m bytes, raw) | (count ‖ tail)*  |
    +----------------+------------------+----------------+------------------+

The paper stores no explicit count or representative position (its decoder
"repeats until all the differences are read" and the representative is
always the middle).  We add a four-byte header so that (a) blocks with
trailing slack decode unambiguously and (b) the ablation strategies that
move the representative remain decodable.  The overhead is 4 bytes per
8 KiB block — under 0.05 %.

Because chained differences are exactly the *consecutive gaps* between
phi-ordered tuples, the encoded size of a block is independent of where the
representative sits; :meth:`BlockCodec.encoded_size_of_ordinals` exploits
this to let the packer compute fill levels without materialising bytes.
:meth:`BlockCodec.pack_boundaries` is the one Section 3.3 greedy fill:
the codec alone picks the numpy walk, the scalar incremental fill (the
oracle) or bisection (unchained sizes are not incremental).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.phi import OrdinalMapper
from repro.core.representative import get_strategy
from repro.core.runlength import TupleLayout, rle_decode, rle_encode
from repro.core.stream import StreamReader, StreamWriter
from repro.errors import BlockOverflowError, CodecError, DomainError
from repro.obs import runtime as _obs

if TYPE_CHECKING:  # imported lazily at runtime to break the cycle
    from numpy.typing import NDArray

    from repro.core.vectorized import VectorizedBlockCodec

__all__ = ["BlockCodec", "HEADER_BYTES"]

#: Bytes of block header: 2 for the tuple count, 2 for the representative index.
HEADER_BYTES = 4

#: Maximum tuples per block, bounded by the 2-byte count field.
MAX_TUPLES_PER_BLOCK = 0xFFFF

#: One packed block: ``(start, end, encoded_size)`` over the input run.
Boundary = Tuple[int, int, int]


class BlockCodec:
    """Losslessly encode and decode blocks of tuples with AVQ.

    Parameters
    ----------
    domain_sizes:
        The ``|A_i|`` sizes of the relation's attribute domains (after the
        Section 3.1 domain mapping; all values are ordinals in these domains).
    chained:
        Apply the Example 3.3 chaining optimisation (the paper's default).
        Disable for the ablation benchmark only.
    representative:
        Name of the representative-selection strategy; ``"median"`` is the
        paper's choice.
    vectorized:
        Whether to run the numpy whole-block fast path
        (:mod:`repro.core.vectorized`).  ``None`` (the default)
        auto-selects it whenever it is byte-identical to the scalar
        path — chained differences, median representative, ordinal
        space within int64 (numpy packing needs no median);
        ``False`` forces the exact scalar path everywhere, packing
        included (the knob docs/PERFORMANCE.md documents); ``True``
        demands the fast path and raises
        :class:`~repro.errors.DomainError` for ineligible
        configurations.

    Examples
    --------
    >>> codec = BlockCodec([8, 16, 64, 64, 64])
    >>> block = [(3, 8, 32, 25, 19), (3, 8, 32, 34, 12), (3, 8, 36, 39, 35),
    ...          (3, 9, 24, 32, 0), (3, 9, 26, 27, 37)]
    >>> data = codec.encode_block(block)
    >>> codec.decode_block(data) == sorted(block)
    True
    """

    def __init__(
        self,
        domain_sizes: Sequence[int],
        *,
        chained: bool = True,
        representative: str = "median",
        vectorized: Optional[bool] = None,
    ) -> None:
        self._mapper = OrdinalMapper(domain_sizes)
        self._layout = TupleLayout(domain_sizes)
        self._chained = chained
        self._strategy_name = representative
        self._strategy = get_strategy(representative)
        self._vector: Optional["VectorizedBlockCodec"] = None
        #: The vector codec when its decode is overflow-safe too.
        self._vector_decode: Optional["VectorizedBlockCodec"] = None
        #: The numpy boundary walk: any chained codec over an int64
        #: space, since the representative does not change its sizes.
        self._packer: Optional["VectorizedBlockCodec"] = None
        if vectorized is not False:
            # Runtime import: repro.core.vectorized imports this module
            # for the block-layout constants.
            from repro.core.vectorized import (
                VectorizedBlockCodec,
                vectorized_codec_for,
            )

            self._vector = vectorized_codec_for(self)
            self._packer = self._vector
            if self._packer is None and chained and self._mapper.fits_int64:
                self._packer = VectorizedBlockCodec(domain_sizes)
            if vectorized is True and self._vector is None:
                raise DomainError(
                    "vectorized=True requires chained differences, the "
                    "median representative, and an ordinal space that "
                    "fits int64"
                )
            if self._vector is not None and self._vector.decode_supported:
                self._vector_decode = self._vector

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def mapper(self) -> OrdinalMapper:
        """The phi bijection for this codec's domains."""
        return self._mapper

    @property
    def layout(self) -> TupleLayout:
        """Fixed-width byte layout of one tuple."""
        return self._layout

    @property
    def tuple_bytes(self) -> int:
        """``m`` — the byte width of one uncompressed tuple."""
        return self._layout.tuple_bytes

    @property
    def chained(self) -> bool:
        """Whether the Example 3.3 chaining optimisation is enabled."""
        return self._chained

    @property
    def representative_strategy(self) -> str:
        """Name of the representative-selection strategy in use."""
        return self._strategy_name

    @property
    def vectorized(self) -> bool:
        """Whether the numpy whole-block encode fast path is active."""
        return self._vector is not None

    @property
    def vector_codec(self) -> Optional["VectorizedBlockCodec"]:
        """The attached vectorised companion codec, or ``None``.

        Present exactly when :attr:`vectorized` is true.  Note the
        companion may still decline *decoding* for schemas whose corrupt
        payloads could overflow int64 digit reassembly — check its
        ``decode_supported`` before decoding through it directly (this
        class's decode methods do).
        """
        return self._vector

    @property
    def decode_path(self) -> str:
        """``"vector"`` or ``"scalar"``: the decoder every decode runs."""
        return "scalar" if self._vector_decode is None else "vector"

    @property
    def pack_path(self) -> str:
        """``"vector"`` when :meth:`pack_boundaries` walks in numpy over
        int64 ordinals, else ``"scalar"`` (Python ints)."""
        return "scalar" if self._packer is None else "vector"

    # ------------------------------------------------------------------
    # Difference computation
    # ------------------------------------------------------------------

    def _differences(self, ordinals: Sequence[int], rep: int) -> List[int]:
        """Per-tuple stored differences, in block order, skipping ``rep``.

        With chaining each entry is the gap to the neighbour toward the
        representative; without it, the direct distance to the
        representative.  All entries are non-negative by construction.
        """
        diffs: List[int] = []
        for i in range(len(ordinals)):
            if i == rep:
                continue
            if self._chained:
                if i < rep:
                    diffs.append(ordinals[i + 1] - ordinals[i])
                else:
                    diffs.append(ordinals[i] - ordinals[i - 1])
            else:
                diffs.append(abs(ordinals[i] - ordinals[rep]))
        return diffs

    # ------------------------------------------------------------------
    # Size accounting and packing (no bytes materialised)
    # ------------------------------------------------------------------

    def pack_boundaries(
        self, sorted_ordinals: Sequence[int], block_size: int
    ) -> List[Boundary]:
        """The Section 3.3 greedy fill: ``(start, end, encoded_size)`` per
        block, each taking tuples until the next would overflow (a
        block over ``block_size`` is one tuple that fits no block).

        The codec alone picks how: the numpy walk when
        :attr:`pack_path` is ``"vector"``, else the scalar incremental
        fill (chained; the oracle), else bisection (unchained sizes
        depend on the representative).  Everything else packs through
        :func:`repro.storage.packer.pack_ordinals`, which checks the
        order and the sizes.
        """
        if self._packer is not None:
            return self._packer.pack_boundaries(sorted_ordinals, block_size)
        if not self._chained:
            return _bisect_boundaries(
                self.encoded_size_of_ordinals, sorted_ordinals, block_size
            )
        boundaries: List[Boundary] = []
        base = HEADER_BYTES + self.tuple_bytes
        start, size = 0, base
        for i in range(1, len(sorted_ordinals)):
            gap = sorted_ordinals[i] - sorted_ordinals[i - 1]
            cost = self.incremental_gap_cost(gap)
            if size + cost <= block_size:
                size += cost
            else:
                boundaries.append((start, i, size))
                start, size = i, base
        if len(sorted_ordinals):
            boundaries.append((start, len(sorted_ordinals), size))
        return boundaries

    def encoded_size_of_ordinals(self, sorted_ordinals: Sequence[int]) -> int:
        """Exact encoded size in bytes of a block holding these tuples.

        ``sorted_ordinals`` must be ascending.  With chaining enabled the
        result does not depend on the representative position (the stored
        differences are exactly the u-1 consecutive gaps); without chaining
        the configured strategy is applied.
        """
        u = len(sorted_ordinals)
        if u == 0:
            raise CodecError("cannot size an empty block")
        rep = self._strategy(sorted_ordinals)
        size = HEADER_BYTES + self._layout.tuple_bytes
        for diff in self._differences(sorted_ordinals, rep):
            size += self._rle_size(diff)
        return size

    def incremental_gap_cost(self, gap: int) -> int:
        """Bytes added to a chained block by appending a tuple ``gap`` past the last.

        Only meaningful for ``chained=True`` codecs, where block size is the
        header plus the representative plus one RLE-coded entry per gap.
        """
        if not self._chained:
            raise CodecError(
                "incremental sizing requires chained differencing"
            )
        return self._rle_size(gap)

    def _rle_size(self, diff: int) -> int:
        """Size of one RLE-coded difference: count byte plus non-zero tail."""
        raw = self._layout.tuple_to_bytes(self._mapper.phi_inverse(diff))
        zeros = 0
        for b in raw:
            if b:
                break
            zeros += 1
        return 1 + len(raw) - zeros

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode_block(
        self,
        tuples: Sequence[Sequence[int]],
        capacity: Optional[int] = None,
    ) -> bytes:
        """Encode a set of tuples into one AVQ block.

        The tuples need not be pre-sorted; the codec orders them by ``phi``
        (Section 3.2) before differencing.  When ``capacity`` is given, an
        encoding larger than it raises
        :class:`~repro.errors.BlockOverflowError`.
        """
        u = len(tuples)
        if u == 0:
            raise CodecError("cannot encode an empty block")
        if u > MAX_TUPLES_PER_BLOCK:
            raise CodecError(
                f"block holds {u} tuples; the 2-byte count field allows at "
                f"most {MAX_TUPLES_PER_BLOCK}"
            )
        t0 = _obs.now_ms() if _obs.REGISTRY is not None else 0.0
        if self._vector is not None:
            # None here means the input needs the scalar path's precise
            # per-tuple validation errors; fall through to produce them.
            vec_payload = self._vector.try_encode_block(tuples, capacity)
            if vec_payload is not None:
                return _encoded(t0, u, vec_payload, "codec.vector_encodes")
        ordinals = sorted(self._mapper.phi(t) for t in tuples)
        rep = self._strategy(ordinals)

        writer = StreamWriter(capacity)
        try:
            writer.write_uint(u, 2)
            writer.write_uint(rep, 2)
            writer.write(
                self._layout.tuple_to_bytes(self._mapper.phi_inverse(ordinals[rep]))
            )
            for diff in self._differences(ordinals, rep):
                writer.write(rle_encode(self._layout, self._mapper.phi_inverse(diff)))
        except BlockOverflowError:
            raise BlockOverflowError(
                f"{u} tuples encode to more than {capacity} bytes"
            )
        return _encoded(t0, u, writer.getvalue(), "codec.scalar_encodes")

    def encode_ordinals(
        self,
        sorted_ordinals: Sequence[int],
        capacity: Optional[int] = None,
    ) -> bytes:
        """Encode an *ascending* phi-ordinal run directly into one block.

        The no-tuple-expansion twin of :meth:`encode_block` for callers
        that already hold sorted ordinals (block writes, repair, bulk
        load, the container writer): on the vectorised path the
        ``phi_inverse`` → ``phi`` round trip is skipped entirely.
        Byte-identical to ``encode_block`` over the same tuples;
        ``sorted_ordinals`` (a list or, from a numpy pack, an int64
        array) must be ascending and in ``[0, ||R||)``.
        """
        if self._vector is None:
            mapper = self._mapper
            tuples = [mapper.phi_inverse(int(o)) for o in sorted_ordinals]
            return self.encode_block(tuples, capacity=capacity)
        t0 = _obs.now_ms() if _obs.REGISTRY is not None else 0.0
        payload = self._vector.encode_run(sorted_ordinals, capacity)
        return _encoded(
            t0, len(sorted_ordinals), payload, "codec.vector_encodes"
        )

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode_block(self, data: bytes) -> List[Tuple[int, ...]]:
        """Decode one AVQ block back into its phi-ordered tuples.

        The inverse of :meth:`encode_block`; Theorem 2.1 guarantees the
        original tuples are recovered exactly.  Trailing slack bytes beyond
        the encoded payload are ignored, matching on-disk blocks.
        """
        t0 = _obs.now_ms() if _obs.REGISTRY is not None else 0.0
        if self._vector_decode is not None:
            tuples = self._vector_decode.decode_block(data)
        else:
            tuples = [
                self._mapper.phi_inverse(o) for o in self._scalar_ordinals(data)
            ]
        _decoded(t0, self._vector_decode is not None, tuples=len(tuples))
        return tuples

    def decode_ordinals(self, data: bytes) -> List[int]:
        """Like :meth:`decode_block` but stop at ordinals (no tuple expansion).

        Index probes only need phi values, so skipping the final
        ``phi_inverse`` saves most of the decode cost for those callers.
        """
        t0 = _obs.now_ms() if _obs.REGISTRY is not None else 0.0
        if self._vector_decode is not None:
            ordinals = self._vector_decode.decode_ordinals(data)
        else:
            ordinals = self._scalar_ordinals(data)
        _decoded(t0, self._vector_decode is not None)
        return ordinals

    def decode_ordinals_array(self, data: bytes) -> "NDArray[np.int64]":
        """One block's sorted ordinals as an int64 array, counted.

        The one array decode every int64 reader calls (selects, the
        ordinal cache, mutations, the container reader): the vector
        decoder where it is overflow-safe, else the scalar decode and
        one ``np.asarray``.  Counted like :meth:`decode_ordinals`.
        Spaces above 2**61 raise :class:`~repro.errors.DomainError`;
        their readers use :meth:`decode_ordinals`.
        """
        if not self._mapper.fits_int64:
            raise DomainError(
                "ordinal space exceeds int64; use decode_ordinals"
            )
        t0 = _obs.now_ms() if _obs.REGISTRY is not None else 0.0
        if self._vector_decode is not None:
            ordinals = self._vector_decode.decode_ordinals_array(data)
        else:
            ordinals = np.asarray(self._scalar_ordinals(data), dtype=np.int64)
        _decoded(t0, self._vector_decode is not None)
        return ordinals

    def _scalar_ordinals(self, data: bytes) -> List[int]:
        """The specification decode: a payload to its sorted ordinals."""
        reader = StreamReader(data)
        u = reader.read_uint(2)
        if u == 0:
            raise CodecError("corrupt block: zero tuple count")
        rep = reader.read_uint(2)
        if rep >= u:
            raise CodecError(f"corrupt block: representative {rep} >= count {u}")
        m = self._layout.tuple_bytes
        rep_tuple = self._layout.tuple_from_bytes(reader.read(m))
        rep_ordinal = self._mapper.phi(rep_tuple)
        diffs: List[int] = []
        for _ in range(u - 1):
            count = reader.read_uint(1)
            if count > m:
                raise CodecError(f"corrupt block: run length {count} > tuple width {m}")
            tail = reader.read(m - count)
            diffs.append(
                self._mapper.phi_unchecked(rle_decode(self._layout, count, tail))
            )
        return self._reconstruct_ordinals(u, rep, rep_ordinal, diffs)

    def _reconstruct_ordinals(
        self, u: int, rep: int, rep_ordinal: int, diffs: List[int]
    ) -> List[int]:
        """Rebuild the sorted ordinal sequence from the stored differences."""
        ordinals: List[Optional[int]] = [None] * u
        ordinals[rep] = rep_ordinal
        before = diffs[:rep]          # entries for positions 0 .. rep-1
        after = diffs[rep:]           # entries for positions rep+1 .. u-1
        if self._chained:
            for i in range(rep - 1, -1, -1):
                ordinals[i] = ordinals[i + 1] - before[i]
            for j, diff in enumerate(after):
                i = rep + 1 + j
                ordinals[i] = ordinals[i - 1] + diff
        else:
            for i in range(rep):
                ordinals[i] = rep_ordinal - before[i]
            for j, diff in enumerate(after):
                ordinals[rep + 1 + j] = rep_ordinal + diff
        result = [o for o in ordinals if o is not None]
        if len(result) != u:
            raise CodecError("corrupt block: reconstruction left gaps")
        for o in result:
            if not 0 <= o < self._mapper.space_size:
                raise CodecError(
                    f"corrupt block: reconstructed ordinal {o} outside tuple space"
                )
        return result


def _bisect_boundaries(
    size_of: Callable[[Sequence[int]], int],
    sorted_ordinals: Sequence[int],
    block_size: int,
) -> List[Boundary]:
    """Greedy fill for whole-block sizes (unchained, Rice-coded).

    Such sizes are not even monotone in prefix length (a median shift
    or a new Rice parameter can shrink a block), so each block's length
    is bisected, O(u log u) sizings instead of O(u^2); a block may stop
    a tuple short of the maximum, a sliver of slack in ablation codecs.
    """
    boundaries: List[Boundary] = []
    start = 0
    n = len(sorted_ordinals)
    while start < n:
        lo, hi = 1, n - start  # lo tuples always "fit" (forced minimum)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if size_of(sorted_ordinals[start : start + mid]) <= block_size:
                lo = mid
            else:
                hi = mid - 1
        size = size_of(sorted_ordinals[start : start + lo])
        boundaries.append((start, start + lo, size))
        start += lo
    return boundaries


def _encoded(t0: float, u: int, payload: bytes, counter: str) -> bytes:
    """Count one block encode of ``u`` tuples when metrics are on, under
    ``counter`` (the vector or scalar one) too, and pass it through."""
    reg = _obs.REGISTRY
    if reg is not None:
        reg.inc("codec.blocks_encoded")
        reg.inc("codec.tuples_encoded", u)
        reg.inc("codec.bytes_encoded", len(payload))
        reg.inc(counter)
        reg.observe("codec.encode_ms", _obs.now_ms() - t0)
    return payload


def _decoded(t0: float, vector: bool, *, tuples: Optional[int] = None) -> None:
    """Count one decode when metrics are on: a block decode when
    ``tuples`` is given, else an ordinal decode."""
    reg = _obs.REGISTRY
    if reg is None:
        return
    if tuples is None:
        reg.inc("codec.ordinal_decodes")
    else:
        reg.inc("codec.blocks_decoded")
        reg.inc("codec.tuples_decoded", tuples)
    reg.inc("codec.vector_decodes" if vector else "codec.scalar_decodes")
    reg.observe("codec.decode_ms", _obs.now_ms() - t0)
