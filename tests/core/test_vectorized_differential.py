"""Differential fuzzing: the vectorised codec against the scalar codec.

The vectorised path is gated on *byte identity* — every payload it
emits must equal the scalar encoder's output bit for bit, and every
payload it parses must yield exactly the scalar decoder's tuples (or
raise the same error class).  This suite drives both implementations
over hypothesis-generated schemas (1–8 attributes, mixed
cardinalities), random runs, adversarial corruptions, and the edge
blocks the format treats specially.

The scalar reference is always ``BlockCodec(sizes, vectorized=False)``:
the default constructor now delegates to the vectorised codec, so
comparing against it would be tautological.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.codec import BlockCodec
from repro.core.phi import OrdinalMapper
from repro.core.vectorized import VectorizedBlockCodec
from repro.errors import CodecError, DomainError

#: Schemas the parametrised edge tests run over: the paper's Figure 2.2
#: domains, the Figure 5.7 shape, odd byte widths, and binary domains.
EDGE_SCHEMAS = [
    [8, 16, 64, 64, 64],
    [4] * 15,
    [300, 5, 70000],
    [2, 2, 2],
    [1 << 12] * 4,
]


@st.composite
def schema_and_run(draw, min_tuples=1, max_tuples=40):
    """A random int64-safe schema plus a sorted ordinal run over it."""
    sizes = draw(st.lists(st.integers(2, 200), min_size=1, max_size=8))
    mapper = OrdinalMapper(sizes)
    assume(mapper.fits_int64)
    ordinals = draw(
        st.lists(
            st.integers(0, mapper.space_size - 1),
            min_size=min_tuples,
            max_size=max_tuples,
        )
    )
    return sizes, sorted(ordinals)


def scalar_reference(sizes):
    codec = BlockCodec(sizes, vectorized=False)
    assert codec.vectorized is False
    return codec


class TestEncodeByteIdentity:
    @given(schema_and_run())
    @settings(max_examples=120, deadline=None)
    def test_every_entry_point_matches_scalar_bytes(self, case):
        sizes, ordinals = case
        scalar = scalar_reference(sizes)
        vec = VectorizedBlockCodec(sizes)
        tuples = [scalar.mapper.phi_inverse(o) for o in ordinals]
        expected = scalar.encode_block(tuples)
        assert vec.encode_run(ordinals) == expected
        assert vec.encode_tuples(np.asarray(tuples, dtype=np.int64)) == expected
        assert vec.try_encode_block(tuples) == expected

    @given(schema_and_run())
    @settings(max_examples=120, deadline=None)
    def test_delegating_codec_matches_forced_scalar(self, case):
        """The user-facing wiring: default BlockCodec == vectorized=False."""
        sizes, ordinals = case
        scalar = scalar_reference(sizes)
        fast = BlockCodec(sizes)
        tuples = [scalar.mapper.phi_inverse(o) for o in ordinals]
        payload = scalar.encode_block(tuples)
        assert fast.encode_block(tuples) == payload
        assert fast.encode_ordinals(ordinals) == payload
        assert fast.decode_block(payload) == scalar.decode_block(payload)
        assert fast.decode_ordinals(payload) == scalar.decode_ordinals(payload)

    @given(schema_and_run())
    @settings(max_examples=120, deadline=None)
    def test_round_trip_tuple_identity(self, case):
        sizes, ordinals = case
        scalar = scalar_reference(sizes)
        vec = VectorizedBlockCodec(sizes)
        payload = vec.encode_run(ordinals)
        expected = scalar.decode_block(payload)
        assert vec.decode_block(payload) == expected
        assert vec.decode_ordinals(payload) == ordinals
        np.testing.assert_array_equal(
            vec.decode_ordinals_array(payload),
            np.asarray(ordinals, dtype=np.int64),
        )

    @given(schema_and_run(), st.integers(0, 64))
    @settings(max_examples=80, deadline=None)
    def test_trailing_slack_tolerated_like_scalar(self, case, slack):
        """Block payloads are padded to the block size; both decoders
        must ignore trailing zero slack identically."""
        sizes, ordinals = case
        scalar = scalar_reference(sizes)
        vec = VectorizedBlockCodec(sizes)
        padded = vec.encode_run(ordinals) + b"\x00" * slack
        assert vec.decode_ordinals(padded) == scalar.decode_ordinals(padded)


class TestCorruptionDifferential:
    """Same payload, same damage — same error class (or same tuples)."""

    @staticmethod
    def _outcome(decode, payload):
        try:
            return ("ok", decode(payload))
        except CodecError:
            return ("CodecError", None)
        except DomainError:
            return ("DomainError", None)

    @given(schema_and_run(max_tuples=20), st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_payload_parity(self, case, data):
        sizes, ordinals = case
        scalar = scalar_reference(sizes)
        vec = VectorizedBlockCodec(sizes)
        payload = bytearray(vec.encode_run(ordinals))
        mode = data.draw(
            st.sampled_from(["flip", "truncate", "extend"]), label="mode"
        )
        if mode == "flip":
            pos = data.draw(
                st.integers(0, len(payload) - 1), label="pos"
            )
            payload[pos] ^= data.draw(st.integers(1, 255), label="xor")
        elif mode == "truncate":
            keep = data.draw(st.integers(0, len(payload) - 1), label="keep")
            payload = payload[:keep]
        else:
            extra = data.draw(
                st.binary(min_size=1, max_size=16), label="extra"
            )
            payload = payload + extra
        blob = bytes(payload)
        want = self._outcome(scalar.decode_ordinals, blob)
        got = self._outcome(vec.decode_ordinals, blob)
        assert got == want

    @pytest.mark.parametrize("sizes", EDGE_SCHEMAS)
    def test_structural_damage_messages_match_scalar(self, sizes):
        """The hand-built corruptions raise with the scalar's exact text."""
        scalar = scalar_reference(sizes)
        vec = VectorizedBlockCodec(sizes)
        m = vec.tuple_bytes
        good = vec.encode_run([0, 1, 2])
        cases = [
            b"\x00\x00" + good[2:],          # zero tuple count
            b"\x00\x03\x00\x09" + good[4:],  # representative >= count
            good[: 4 + m - 1],               # truncated representative
            b"",                             # empty stream
        ]
        for blob in cases:
            with pytest.raises(CodecError) as scalar_err:
                scalar.decode_block(blob)
            with pytest.raises(CodecError) as vec_err:
                vec.decode_block(blob)
            assert str(vec_err.value) == str(scalar_err.value)


class TestEdgeBlocks:
    @pytest.mark.parametrize("sizes", EDGE_SCHEMAS)
    def test_empty_block_rejected(self, sizes):
        vec = VectorizedBlockCodec(sizes)
        with pytest.raises(CodecError):
            vec.encode_run([])
        with pytest.raises(CodecError):
            vec.encoded_size_of_run([])

    @pytest.mark.parametrize("sizes", EDGE_SCHEMAS)
    def test_single_tuple_block(self, sizes):
        scalar = scalar_reference(sizes)
        vec = VectorizedBlockCodec(sizes)
        mid = vec.mapper.space_size // 2
        payload = vec.encode_run([mid])
        assert payload == scalar.encode_block(
            [scalar.mapper.phi_inverse(mid)]
        )
        assert vec.decode_ordinals(payload) == [mid]

    @pytest.mark.parametrize("sizes", EDGE_SCHEMAS)
    def test_all_equal_tuples(self, sizes):
        """Duplicate ordinals produce zero gaps — fully elided tails."""
        scalar = scalar_reference(sizes)
        vec = VectorizedBlockCodec(sizes)
        run = [7 % vec.mapper.space_size] * 9
        tuples = [scalar.mapper.phi_inverse(o) for o in run]
        payload = vec.encode_run(run)
        assert payload == scalar.encode_block(tuples)
        assert vec.decode_ordinals(payload) == run

    @pytest.mark.parametrize("sizes", EDGE_SCHEMAS)
    def test_maximal_gap(self, sizes):
        """One gap spanning the whole ordinal space."""
        scalar = scalar_reference(sizes)
        vec = VectorizedBlockCodec(sizes)
        run = [0, vec.mapper.space_size - 1]
        payload = vec.encode_run(run)
        assert payload == scalar.encode_block(
            [scalar.mapper.phi_inverse(o) for o in run]
        )
        assert vec.decode_ordinals(payload) == run

    def test_int64_boundary_space_encodes_identically(self):
        """Space of exactly 2**61 is the last vectorisable schema."""
        sizes = [1 << 31, 1 << 30]
        mapper = OrdinalMapper(sizes)
        assert mapper.space_size == 1 << 61
        assert mapper.fits_int64
        scalar = scalar_reference(sizes)
        vec = VectorizedBlockCodec(sizes)
        run = [0, 1, (1 << 61) - 2, (1 << 61) - 1]
        payload = vec.encode_run(run)
        assert payload == scalar.encode_block(
            [scalar.mapper.phi_inverse(o) for o in run]
        )
        # Reassembly weights for this schema stay under 2**63 even for
        # all-0xFF corruption, so the decode path is available too.
        assert vec.decode_supported
        assert vec.decode_ordinals(payload) == run

    def test_beyond_int64_boundary_refuses_construction(self):
        sizes = [1 << 31, 1 << 31]  # space 2**62 > the 2**61 bound
        with pytest.raises(DomainError):
            VectorizedBlockCodec(sizes)

    def test_decode_unsafe_schema_encodes_but_refuses_decode(self):
        """Wide single-byte schemas can overflow digit reassembly under
        corruption; encoding stays byte-identical while decoding defers
        to the scalar path (and the delegating codec does so silently)."""
        sizes = [2] * 61  # space 2**61 fits; 61 weighted bytes do not
        scalar = scalar_reference(sizes)
        vec = VectorizedBlockCodec(sizes)
        assert not vec.decode_supported
        run = [0, 5, 1 << 60]
        tuples = [scalar.mapper.phi_inverse(o) for o in run]
        payload = vec.encode_run(run)
        assert payload == scalar.encode_block(tuples)
        with pytest.raises(CodecError):
            vec.decode_block(payload)
        fast = BlockCodec(sizes)
        assert fast.vectorized
        assert fast.decode_block(payload) == scalar.decode_block(payload)
