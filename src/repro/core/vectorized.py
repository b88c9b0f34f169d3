"""The vectorised numpy block codec: whole-block AVQ coding as array ops.

:mod:`repro.core.fastpack` proved the approach for the *encode* half of
the Section 3.4 pipeline (gap sizing, packing, RLE rendering); this
module completes it into a full codec.  A
:class:`VectorizedBlockCodec` runs every stage of the block pipeline —
batch mixed-radix ``phi``/``phi⁻¹`` over ``(u, n)`` tuple arrays,
median-representative selection, difference chaining, and
leading-zero-byte RLE rendering *and parsing* — as numpy array ops over
a whole block, plus many-blocks-at-once entry points
(:meth:`~VectorizedBlockCodec.encode_runs`,
:meth:`~VectorizedBlockCodec.decode_blocks`) that compose with the
:class:`~repro.core.parallel.ParallelBlockCodec` worker fan-out.

Every byte it emits is **identical** to the scalar
:class:`~repro.core.codec.BlockCodec` (the differential suite in
``tests/core/test_vectorized_differential.py`` proves this across
random schemas), and every payload it accepts decodes to exactly the
tuples the scalar decoder would produce — or raises the same error
class where the scalar decoder would raise.

The decoder's interesting problem is that RLE entries have
*data-dependent* lengths (``1 + m - count`` bytes), so entry offsets
form a chain that looks inherently sequential.  It is vectorised here
with pointer doubling (parallel list ranking): one array op computes
"offset after the next entry" for *every* byte position at once, and
``log2(u)`` squarings of that jump table enumerate all ``u - 1`` entry
offsets without a per-entry Python loop.

Eligibility follows the established ``fastpack`` fallback rule: the
ordinal space must fit comfortably in ``int64`` and the codec must be
the paper's default configuration (chained differences, median
representative).  Decoding additionally requires that no corrupt byte
pattern can overflow ``int64`` during difference reassembly (checked
exactly, in Python integers, at construction); schemas outside these
bounds transparently keep the exact scalar path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

import numpy as np

from repro.core.codec import HEADER_BYTES, MAX_TUPLES_PER_BLOCK
from repro.core.fastpack import FastBlockEncoder, FastGapSizer
from repro.core.phi import OrdinalMapper
from repro.core.runlength import TupleLayout
from repro.errors import BlockOverflowError, CodecError, DomainError

if TYPE_CHECKING:  # circular at type level only
    from repro.core.codec import BlockCodec

__all__ = ["VectorizedBlockCodec", "vectorized_codec_for"]


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
        self._sizer = FastGapSizer(domain_sizes)
        self._encoder = FastBlockEncoder(domain_sizes)
        # Decode-side byte weights: output byte column -> its multiplier
        # in the mixed-radix value (field phi weight times the byte's
        # power of 256 inside the field).  A fixed-width rendering r
        # then satisfies  value == r @ byte_weights.
        mults: List[int] = []
        for weight, width in zip(
            self._mapper.weights, self._layout.field_widths
        ):
            for b in range(width):
                mults.append(weight * (256 ** (width - 1 - b)))
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
        self._np_weights = np.asarray(self._mapper.weights, dtype=np.int64)
        self._np_sizes = np.asarray(self._mapper.domain_sizes, dtype=np.int64)

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
    # Batch phi / phi inverse
    # ------------------------------------------------------------------

    def phi_rows(self, rows: np.ndarray) -> np.ndarray:
        """Batch Equation 2.2 over a ``(u, n)`` int array, validated.

        Raises :class:`~repro.errors.DomainError` on shape mismatch or
        out-of-domain values, mirroring ``OrdinalMapper.phi`` row-wise.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self._mapper.arity:
            raise DomainError(
                f"expected shape (u, {self._mapper.arity}), got {rows.shape}"
            )
        if rows.size and ((rows < 0).any() or (rows >= self._np_sizes).any()):
            raise DomainError("array contains out-of-domain attribute values")
        return rows @ self._np_weights

    def phi_inverse_rows(self, ordinals: np.ndarray) -> np.ndarray:
        """Batch Equations 2.3–2.5: ordinals back to a ``(u, n)`` array."""
        ordinals = np.asarray(ordinals, dtype=np.int64)
        if ordinals.size and (
            ordinals.min() < 0 or ordinals.max() >= self._mapper.space_size
        ):
            raise DomainError("array contains out-of-space ordinals")
        out = np.empty(
            (ordinals.shape[0], self._mapper.arity), dtype=np.int64
        )
        remainder = ordinals
        for i, w in enumerate(self._mapper.weights):
            out[:, i], remainder = np.divmod(remainder, w)
        return out

    def attribute_values(
        self, ordinals: np.ndarray, position: int
    ) -> np.ndarray:
        """One attribute column of ``ordinals``, without the full inverse.

        The mixed-radix digit ``(o // weights[position]) %
        domain_sizes[position]`` — column ``position`` of
        :meth:`phi_inverse_rows`, so a predicate on one attribute can be
        tested as a vector mask before any tuple is built.
        """
        weight = self._np_weights[position]
        return (ordinals // weight) % self._np_sizes[position]

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    def encoded_size_of_run(
        self, sorted_ordinals: Union[np.ndarray, Sequence[int]]
    ) -> int:
        """Exact encoded byte size of one ascending run, no bytes built.

        Agrees with ``BlockCodec.encoded_size_of_ordinals`` (and with
        ``len(encode_run(...))``) for every run — property-tested in
        ``tests/core/test_phi.py``.
        """
        run = np.asarray(sorted_ordinals, dtype=np.int64)
        if run.size == 0:
            raise CodecError("cannot size an empty block")
        base = HEADER_BYTES + self._layout.tuple_bytes
        if run.size == 1:
            return base
        return base + int(self._sizer.rle_costs(np.diff(run)).sum())

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
        payload = self._encoder.encode_run(run)
        if capacity is not None and len(payload) > capacity:
            raise BlockOverflowError(
                f"{u} tuples encode to more than {capacity} bytes"
            )
        return payload

    def encode_runs(
        self,
        runs: Sequence[Union[np.ndarray, Sequence[int]]],
        capacity: Optional[int] = None,
    ) -> List[bytes]:
        """Encode many ascending runs — the batch entry point.

        Index-aligned with ``runs``; composes with the
        :class:`~repro.core.parallel.ParallelBlockCodec` chunk fan-out
        (each worker calls this over its chunk).
        """
        return [self.encode_run(run, capacity) for run in runs]

    def encode_tuples(
        self,
        rows: np.ndarray,
        capacity: Optional[int] = None,
    ) -> bytes:
        """Encode a ``(u, n)`` tuple array: batch phi, sort, encode.

        The array analogue of ``BlockCodec.encode_block`` — rows need
        not be pre-sorted.
        """
        ordinals = self.phi_rows(rows)
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
            rows = np.asarray(tuples, dtype=np.int64)
            ordinals = self.phi_rows(rows)
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
        return self.phi_inverse_rows(self.decode_ordinals_array(data))

    def decode_block(self, data: bytes) -> List[Tuple[int, ...]]:
        """Decode one payload to tuples — drop-in for the scalar decoder."""
        rows = self.decode_tuples_array(data)
        return [tuple(r) for r in rows.tolist()]

    def decode_ordinals(self, data: bytes) -> List[int]:
        """Decode one payload to a plain list of phi ordinals."""
        out: List[int] = self.decode_ordinals_array(data).tolist()
        return out

    def decode_blocks(
        self, payloads: Sequence[bytes]
    ) -> List[List[Tuple[int, ...]]]:
        """Decode many payloads — the batch entry point (index-aligned)."""
        return [self.decode_block(p) for p in payloads]

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
        ``FastBlockEncoder``'s rendering.
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

    Eligibility is the established ``fastpack`` fallback rule — the
    paper's default configuration (chained differences, median
    representative) over an ordinal space that fits safely in int64.
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
