"""The vectorised numpy block codec: whole-block AVQ coding as array ops.

A :class:`VectorizedBlockCodec` runs every stage of the Section 3.4
block pipeline — batch ``phi``/``phi⁻¹`` (the mapper's array methods,
:mod:`repro.core.phi`), gap sizing and greedy block packing,
median-representative selection, difference chaining, and
leading-zero-byte RLE rendering *and parsing* — as numpy array ops over
a whole block.

Every byte it emits is **identical** to the scalar
:class:`~repro.core.codec.BlockCodec` (the differential suite in
``tests/core/test_vectorized_differential.py`` proves this across
random schemas), and every payload it accepts decodes to exactly the
tuples the scalar decoder would produce — or raises the same error
class where the scalar decoder would raise.

Sizing rests on one observation: the chained encoding of a gap costs
``1 + m - leading_zero_bytes(gap)`` bytes, and the leading-zero-byte
count is a step function of the gap value.  Precomputing the ``m``
thresholds at construction turns per-gap costing into one
``numpy.searchsorted`` and greedy packing into a cumulative-sum walk.

The decoder's interesting problem is that RLE entries have
*data-dependent* lengths (``1 + m - count`` bytes), so entry offsets
form a chain that looks inherently sequential.  It is vectorised here
with pointer doubling (list ranking): one array op computes
"offset after the next entry" for *every* byte position at once, and
``log2(u)`` squarings of that jump table enumerate all ``u - 1`` entry
offsets without a per-entry Python loop.

Two rules decide where the numpy paths apply; schemas outside them
transparently keep the exact scalar path:

* **Packing** (chosen by :meth:`BlockCodec.pack_boundaries
  <repro.core.codec.BlockCodec.pack_boundaries>`): chained differences
  over an ordinal space that fits ``int64``, unless the codec was built
  with ``vectorized=False``.  The representative does not change a
  chained block's size.
* **Coding** (:func:`vectorized_codec_for`): the packing rule plus the
  paper's median representative.  Decoding additionally requires that
  no corrupt byte pattern can overflow ``int64`` during difference
  reassembly (checked exactly, in Python integers, at construction).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

import numpy as np

from repro.core.codec import HEADER_BYTES, MAX_TUPLES_PER_BLOCK
from repro.core.phi import OrdinalMapper
from repro.core.runlength import TupleLayout
from repro.errors import BlockOverflowError, CodecError, DomainError

if TYPE_CHECKING:  # circular at type level only
    from repro.core.codec import BlockCodec

__all__ = [
    "VectorizedBlockCodec",
    "vectorized_codec_for",
]


class VectorizedBlockCodec:
    """Array-at-a-time implementation of the full AVQ block codec.

    Parameters
    ----------
    domain_sizes:
        The ``|A_i|`` attribute domain sizes, exactly as for
        :class:`~repro.core.codec.BlockCodec`.  Raises
        :class:`~repro.errors.DomainError` when the ordinal space does
        not fit int64 — callers are expected to fall back to the scalar
        codec (use :func:`vectorized_codec_for` for that chooser).

    Examples
    --------
    >>> v = VectorizedBlockCodec([8, 16, 64, 64, 64])
    >>> run = np.array([11, 99, 100, 2345, 80000], dtype=np.int64)
    >>> list(v.decode_ordinals_array(v.encode_run(run))) == list(run)
    True
    """

    def __init__(self, domain_sizes: Sequence[int]) -> None:
        self._mapper = OrdinalMapper(domain_sizes)
        if not self._mapper.fits_int64:
            raise DomainError(
                "ordinal space exceeds int64; use the exact scalar codec"
            )
        self._layout = TupleLayout(domain_sizes)
        # Per output byte column of the fixed-width rendering: the phi
        # weight and domain size of its attribute, the right-shift that
        # selects this byte of the field, and the byte's multiplier in
        # the mixed-radix value (weight times the byte's power of 256),
        # so a rendering r satisfies  value == r @ byte_weights.
        self._col_weight: List[int] = []
        self._col_size: List[int] = []
        self._col_shift: List[int] = []
        mults: List[int] = []
        # Gap thresholds, most-significant byte first: the first p bytes
        # of a gap's rendering are zero exactly when the gap is below the
        # p-th entry, min(256**(bytes of the field still uncovered) *
        # weight, capacity of this field and all later ones).
        thresholds: List[int] = []
        for size, weight, width in zip(
            self._mapper.domain_sizes,
            self._mapper.weights,
            self._layout.field_widths,
        ):
            for b in range(width):
                shift = 8 * (width - 1 - b)
                self._col_weight.append(weight)
                self._col_size.append(size)
                self._col_shift.append(shift)
                mults.append(weight << shift)
                thresholds.append(min(weight << shift, size * weight))
        # Descending by construction; stored ascending for searchsorted.
        self._thresholds = np.asarray(thresholds[::-1], dtype=np.int64)
        # Corrupt payloads can carry arbitrary bytes, so the reassembly
        # r @ byte_weights must be overflow-free for *any* uint8 matrix,
        # not just valid renderings.  The exact worst case (all bytes
        # 0xFF) is computed in Python integers; when it does not fit a
        # signed 64-bit value the vectorised decoder cannot distinguish
        # a wrapped product from a genuine ordinal and decoding must
        # stay scalar (the scalar path uses unbounded Python ints).
        worst = sum(255 * m for m in mults)
        self._decode_safe = worst < (1 << 63)
        self._byte_weights = np.asarray(mults, dtype=np.int64)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def mapper(self) -> OrdinalMapper:
        """The exact phi bijection for these domains."""
        return self._mapper

    @property
    def layout(self) -> TupleLayout:
        """Fixed-width byte layout of one tuple."""
        return self._layout

    @property
    def tuple_bytes(self) -> int:
        """``m`` — byte width of one uncompressed tuple."""
        return self._layout.tuple_bytes

    @property
    def decode_supported(self) -> bool:
        """Whether vectorised decoding is overflow-safe for this schema.

        Encoding is always available once construction succeeds; see the
        constructor notes for why very large ordinal spaces must decode
        through the scalar path.
        """
        return self._decode_safe

    # ------------------------------------------------------------------
    # Sizing and packing
    # ------------------------------------------------------------------

    def leading_zero_bytes(self, gaps: np.ndarray) -> np.ndarray:
        """Leading zero bytes of each gap's fixed-width rendering.

        A step function of the gap value, so one ``searchsorted`` over
        the constructor's threshold table counts them for every gap.
        """
        gaps = np.asarray(gaps, dtype=np.int64)
        if gaps.size and (
            gaps.min() < 0 or gaps.max() >= self._mapper.space_size
        ):
            raise DomainError("gap outside the ordinal space")
        # zeros(gap) = number of thresholds strictly greater than gap
        return len(self._thresholds) - np.searchsorted(
            self._thresholds, gaps, side="right"
        )

    def rle_costs(self, gaps: np.ndarray) -> np.ndarray:
        """Per-gap encoded cost: count byte plus non-zero tail bytes."""
        return 1 + self._layout.tuple_bytes - self.leading_zero_bytes(gaps)

    def pack_boundaries(
        self,
        sorted_ordinals: Union[np.ndarray, Sequence[int]],
        block_size: int,
    ) -> List[Tuple[int, int, int]]:
        """Greedy maximal-fill blocks, identical to the scalar fill.

        Returns ``[(start, end, encoded_size), ...]`` over
        ``sorted_ordinals``.  Each block's size is ``HEADER_BYTES + m +
        sum(rle_costs of its gaps)`` — the first tuple of a block
        contributes no gap — so packing is a ``searchsorted`` walk over
        the cumulative gap costs.  Valid for any chained codec over
        these domains; reached through :meth:`BlockCodec.pack_boundaries
        <repro.core.codec.BlockCodec.pack_boundaries>`, and the packer
        checks the order and the sizes.
        """
        ordinals = np.asarray(sorted_ordinals, dtype=np.int64)
        n = len(ordinals)
        if n == 0:
            return []
        # cumulative cost of gaps: C[k] = sum of gap costs[:k]
        cumulative = np.concatenate(
            [[0], np.cumsum(self.rle_costs(np.diff(ordinals)))]
        )
        base = HEADER_BYTES + self._layout.tuple_bytes
        budget = block_size - base  # gap bytes allowed per block

        boundaries: List[Tuple[int, int, int]] = []
        start = 0
        while start < n:
            # the largest end whose gaps start..end-2 fit the budget
            limit = cumulative[start] + budget
            end = int(np.searchsorted(cumulative, limit, side="right"))
            end = max(start + 1, min(end, n))
            size = base + int(cumulative[end - 1] - cumulative[start])
            boundaries.append((start, end, size))
            start = end
        return boundaries

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode_run(
        self,
        sorted_ordinals: Union[np.ndarray, Sequence[int]],
        capacity: Optional[int] = None,
    ) -> bytes:
        """Encode one ascending phi-ordinal run into a block payload.

        Byte-identical to ``BlockCodec.encode_block`` over the same
        tuples (chained differences, median representative).
        """
        run = np.asarray(sorted_ordinals, dtype=np.int64)
        u = int(run.size)
        if u == 0:
            raise CodecError("cannot encode an empty block")
        if u > MAX_TUPLES_PER_BLOCK:
            raise CodecError(
                f"block holds {u} tuples; the 2-byte count field allows at "
                f"most {MAX_TUPLES_PER_BLOCK}"
            )
        payload = self._render_run(run, u)
        if capacity is not None and len(payload) > capacity:
            raise BlockOverflowError(
                f"{u} tuples encode to more than {capacity} bytes"
            )
        return payload

    def _render_bytes(self, values: np.ndarray) -> np.ndarray:
        """``(n, m)`` uint8 matrix: fixed-width rendering of ordinals."""
        out = np.empty((len(values), self._layout.tuple_bytes), dtype=np.uint8)
        for col, (weight, size, shift) in enumerate(
            zip(self._col_weight, self._col_size, self._col_shift)
        ):
            digit = (values // weight) % size
            out[:, col] = (digit >> shift) & 0xFF
        return out

    def _render_run(self, run: np.ndarray, u: int) -> bytes:
        """The payload bytes of a non-empty ascending run.

        Every gap's mixed-radix digits, fixed-width fields and
        leading-zero elision are computed at once on ``(u - 1, m)``
        uint8 matrices, then scattered into the output buffer with index
        arithmetic.
        """
        m = self._layout.tuple_bytes
        rep = (u - 1) // 2
        rep_bytes = self._render_bytes(run[rep : rep + 1])[0]
        if u == 1:
            header = u.to_bytes(2, "big") + rep.to_bytes(2, "big")
            return header + rep_bytes.tobytes()

        gaps = np.diff(run)
        zeros = self.leading_zero_bytes(gaps)
        tail_len = m - zeros
        matrix = self._render_bytes(gaps)

        entry_len = 1 + tail_len
        base = HEADER_BYTES + m
        out = np.zeros(base + int(entry_len.sum()), dtype=np.uint8)
        out[0] = (u >> 8) & 0xFF
        out[1] = u & 0xFF
        out[2] = (rep >> 8) & 0xFF
        out[3] = rep & 0xFF
        out[HEADER_BYTES:base] = rep_bytes

        entry_off = base + np.concatenate(
            [[0], np.cumsum(entry_len)[:-1]]
        ).astype(np.int64)
        out[entry_off] = zeros.astype(np.uint8)

        total_tail = int(tail_len.sum())
        if total_tail:
            row_idx = np.repeat(np.arange(u - 1), tail_len)
            starts = np.concatenate([[0], np.cumsum(tail_len)[:-1]])
            seq = np.arange(total_tail) - np.repeat(starts, tail_len)
            col_idx = np.repeat(zeros, tail_len) + seq
            dest = np.repeat(entry_off + 1, tail_len) + seq
            out[dest] = matrix[row_idx, col_idx]
        return out.tobytes()

    def encode_tuples(
        self,
        rows: np.ndarray,
        capacity: Optional[int] = None,
    ) -> bytes:
        """Encode a ``(u, n)`` tuple array: batch phi, sort, encode.

        The array analogue of ``BlockCodec.encode_block`` — rows need
        not be pre-sorted.
        """
        ordinals = self._mapper.phi_array(rows)
        ordinals.sort()
        return self.encode_run(ordinals, capacity)

    def try_encode_block(
        self,
        tuples: Sequence[Sequence[int]],
        capacity: Optional[int] = None,
    ) -> Optional[bytes]:
        """Encode python tuples, or ``None`` when the scalar path must run.

        The :class:`~repro.core.codec.BlockCodec` delegation hook: a
        clean rectangular in-domain input encodes here (byte-identical
        to the scalar encoder); anything that would make the scalar
        encoder raise its precise per-tuple ``DomainError`` — ragged
        rows, out-of-domain values, non-integers — returns ``None`` so
        the caller re-runs the scalar path and surfaces the exact error.
        :class:`~repro.errors.BlockOverflowError` (a property of the
        *encoding*, not the input) propagates normally.
        """
        try:
            ordinals = self._mapper.phi_array(
                np.asarray(tuples, dtype=np.int64)
            )
        except (DomainError, ValueError, TypeError, OverflowError):
            return None
        ordinals.sort()
        return self.encode_run(ordinals, capacity)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode_ordinals_array(self, data: bytes) -> np.ndarray:
        """Decode one payload to its ascending phi ordinals (int64 array)."""
        u, rep, rep_ordinal, diffs = self._parse_payload(data)
        space = self._mapper.space_size
        out = np.empty(u, dtype=np.int64)
        out[rep] = rep_ordinal
        if u > 1:
            # Any difference >= ||R|| must fail: on the after side the
            # running ordinal can only grow past the space; on the
            # before side it can only go negative.  Rejecting up front
            # (the scalar decoder rejects at the range check below)
            # also caps every chained step below 2**61, which makes the
            # int64 cumulative sums provably wrap-free whenever all
            # intermediate ordinals pass the final range check.
            if int(diffs.max()) >= space:
                raise CodecError(
                    "corrupt block: reconstructed ordinal outside tuple space"
                )
            before = diffs[:rep]
            after = diffs[rep:]
            if before.size:
                # o_i = o_rep - (d_i + ... + d_{rep-1}): reversed cumsum
                out[:rep] = rep_ordinal - np.cumsum(before[::-1])[::-1]
            if after.size:
                out[rep + 1 :] = rep_ordinal + np.cumsum(after)
            if int(out.min()) < 0 or int(out.max()) >= space:
                raise CodecError(
                    "corrupt block: reconstructed ordinal outside tuple space"
                )
        return out

    def decode_tuples_array(self, data: bytes) -> np.ndarray:
        """Decode one payload to its ``(u, n)`` tuple array, phi-ordered."""
        return self._mapper.phi_inverse_array(self.decode_ordinals_array(data))

    def decode_block(self, data: bytes) -> List[Tuple[int, ...]]:
        """Decode one payload to tuples — drop-in for the scalar decoder."""
        rows = self.decode_tuples_array(data)
        return [tuple(r) for r in rows.tolist()]

    def decode_ordinals(self, data: bytes) -> List[int]:
        """Decode one payload to a plain list of phi ordinals."""
        out: List[int] = self.decode_ordinals_array(data).tolist()
        return out

    # ------------------------------------------------------------------
    # Payload parsing (the vectorised half the scalar codec lacked)
    # ------------------------------------------------------------------

    def _parse_payload(
        self, data: bytes
    ) -> Tuple[int, int, int, np.ndarray]:
        """Parse header, representative, and all RLE differences.

        Returns ``(u, rep_index, rep_ordinal, diffs)`` where ``diffs``
        holds the ``u - 1`` stored difference values in stream order.
        Raises exactly where the scalar decoder raises: CodecError for
        structural damage, DomainError for an out-of-domain
        representative.
        """
        if not self._decode_safe:
            raise CodecError(
                "vectorised decode unsupported for this schema (digit "
                "reassembly could overflow int64); use the scalar decoder"
            )
        m = self._layout.tuple_bytes
        if len(data) < HEADER_BYTES:
            # The scalar decoder reads the count and representative as
            # two 2-byte reads; report the same shortfall it would.
            short = len(data) if len(data) < 2 else len(data) - 2
            raise CodecError(
                f"stream truncated: wanted 2 bytes, only {short} remain"
            )
        u = int.from_bytes(data[0:2], "big")
        if u == 0:
            raise CodecError("corrupt block: zero tuple count")
        rep = int.from_bytes(data[2:4], "big")
        if rep >= u:
            raise CodecError(
                f"corrupt block: representative {rep} >= count {u}"
            )
        if len(data) < HEADER_BYTES + m:
            raise CodecError(
                f"stream truncated: wanted {m} bytes, only "
                f"{len(data) - HEADER_BYTES} remain"
            )
        # One tuple: scalar-validated exactly like the scalar decoder
        # (phi raises DomainError on an out-of-domain representative).
        rep_tuple = self._layout.tuple_from_bytes(
            data[HEADER_BYTES : HEADER_BYTES + m]
        )
        rep_ordinal = self._mapper.phi(rep_tuple)
        k = u - 1
        if k == 0:
            return u, rep, rep_ordinal, np.empty(0, dtype=np.int64)

        base = HEADER_BYTES + m
        # Entries are at most 1 + m bytes each; slicing the body to that
        # bound keeps tiny blocks with large trailing slack cheap.
        limit = min(len(data), base + k * (1 + m))
        body = np.frombuffer(data, dtype=np.uint8, count=limit - base, offset=base)
        nbody = int(body.size)
        if nbody == 0:
            raise CodecError("stream truncated: wanted 1 bytes, only 0 remain")
        offsets = self._entry_offsets(body, k, m)
        counts = body[offsets].astype(np.int64)
        if int(counts.max()) > m:
            raise CodecError(
                f"corrupt block: run length {int(counts.max())} > "
                f"tuple width {m}"
            )
        tail_len = m - counts
        last_end = int(offsets[-1]) + 1 + int(tail_len[-1])
        if last_end > nbody:
            raise CodecError(
                f"stream truncated: wanted {int(tail_len[-1])} bytes, only "
                f"{nbody - int(offsets[-1]) - 1} remain"
            )
        diffs = self._gather_diffs(body, offsets, counts, tail_len, k, m)
        return u, rep, rep_ordinal, diffs

    def _entry_offsets(
        self, body: np.ndarray, k: int, m: int
    ) -> np.ndarray:
        """Offsets of all ``k`` RLE entries inside ``body``, vectorised.

        Entry lengths are data-dependent (``1 + m - count``), so the
        offset chain is ranked by pointer doubling: ``jump[p]`` holds
        the offset one entry past ``p`` (clamped to the absorbing
        sentinel ``len(body)``), and squaring the table ``log2(k)``
        times enumerates the whole chain with no per-entry Python loop.
        A truncated stream walks into the sentinel and is rejected; a
        corrupt count (> m) is stepped over minimally here and rejected
        by the caller's count check.
        """
        nbody = int(body.size)
        step = 1 + m - body.astype(np.int64)
        np.maximum(step, 1, out=step)  # corrupt counts: caller rejects
        jump = np.arange(nbody, dtype=np.int64) + step
        np.minimum(jump, nbody, out=jump)
        jump = np.append(jump, nbody)  # absorbing end sentinel
        offsets = np.empty(k, dtype=np.int64)
        offsets[0] = 0
        filled = 1
        while filled < k:
            take = min(filled, k - filled)
            # jump currently advances `filled` entries in one hop
            offsets[filled : filled + take] = jump[offsets[:take]]
            filled += take
            if filled < k:
                jump = jump[jump]  # double the hop length
        if int(offsets[-1]) >= nbody:
            raise CodecError(
                "stream truncated: wanted 1 bytes, only 0 remain"
            )
        return offsets

    def _gather_diffs(
        self,
        body: np.ndarray,
        offsets: np.ndarray,
        counts: np.ndarray,
        tail_len: np.ndarray,
        k: int,
        m: int,
    ) -> np.ndarray:
        """Reassemble difference values from the RLE tails, vectorised.

        Scatters every tail byte into a right-aligned ``(k, m)`` uint8
        matrix (leading zeros implicit) and contracts it against the
        per-column byte weights — the exact inverse of
        the encoder's :meth:`_render_bytes`.
        """
        matrix = np.zeros((k, m), dtype=np.uint8)
        total_tail = int(tail_len.sum())
        if total_tail:
            row_idx = np.repeat(np.arange(k), tail_len)
            starts = np.concatenate(
                [[0], np.cumsum(tail_len)[:-1]]
            ).astype(np.int64)
            seq = np.arange(total_tail, dtype=np.int64) - np.repeat(
                starts, tail_len
            )
            col_idx = np.repeat(counts, tail_len) + seq
            src = np.repeat(offsets + 1, tail_len) + seq
            matrix[row_idx, col_idx] = body[src]
        # Overflow-free by the constructor's worst-case bound (all-0xFF
        # bytes still fit int64), so wrapped products cannot masquerade
        # as in-space ordinals.
        return matrix.astype(np.int64) @ self._byte_weights


def vectorized_codec_for(
    codec: "BlockCodec",
) -> Optional[VectorizedBlockCodec]:
    """The chooser: a vectorised companion for ``codec``, or ``None``.

    Eligibility is the paper's default configuration (chained
    differences, median representative) over an ordinal space that fits
    safely in int64 — the packing rule plus the median.
    Anything else (ablation strategies, un-chained differencing, wide
    schemas) keeps the exact scalar path.
    """
    if not (
        codec.chained
        and codec.representative_strategy == "median"
        and codec.mapper.fits_int64
    ):
        return None
    try:
        return VectorizedBlockCodec(codec.mapper.domain_sizes)
    except DomainError:  # pragma: no cover - fits_int64 already screened
        return None
