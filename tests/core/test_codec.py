"""Unit tests for the AVQ block codec, anchored on the paper's Figure 3.3."""

import random

import pytest

from repro.core.codec import HEADER_BYTES, BlockCodec
from repro.core.phi import OrdinalMapper
from repro.errors import BlockOverflowError, CodecError
from repro.storage.packer import pack_ordinals

PAPER_DOMAINS = [8, 16, 64, 64, 64]

# Block 4 of Figure 2.2 Table (c) == Figure 3.3 Table (a).
PAPER_BLOCK = [
    (3, 8, 32, 25, 19),
    (3, 8, 32, 34, 12),
    (3, 8, 36, 39, 35),  # representative (middle of five)
    (3, 9, 24, 32, 0),
    (3, 9, 26, 27, 37),
]


@pytest.fixture
def codec():
    return BlockCodec(PAPER_DOMAINS)


class TestPaperWorkedExample:
    """Figure 3.3: the exact byte stream the paper prints for block 4."""

    def test_stream_matches_paper(self, codec):
        data = codec.encode_block(PAPER_BLOCK)
        # Strip our 4-byte header; the rest must be the paper's stream
        #   3 08 36 39 35 | 3 08 57 | 2 04 05 23 | 2 51 56 29 | 2 01 59 37
        payload = data[HEADER_BYTES:]
        expected = bytes(
            [3, 8, 36, 39, 35]  # representative tuple, raw
            + [3, 8, 57]        # (0,00,00,08,57): 3 leading zeros
            + [2, 4, 5, 23]     # (0,00,04,05,23): 2 leading zeros
            + [2, 51, 56, 29]   # (0,00,51,56,29)
            + [2, 1, 59, 37]    # (0,00,01,59,37)
        )
        assert payload == expected

    def test_header_contents(self, codec):
        data = codec.encode_block(PAPER_BLOCK)
        assert int.from_bytes(data[0:2], "big") == 5   # tuple count
        assert int.from_bytes(data[2:4], "big") == 2   # median index

    def test_round_trip(self, codec):
        data = codec.encode_block(PAPER_BLOCK)
        assert codec.decode_block(data) == sorted(PAPER_BLOCK)

    def test_unsorted_input_is_sorted_by_codec(self, codec):
        shuffled = [PAPER_BLOCK[i] for i in (4, 0, 2, 3, 1)]
        assert codec.decode_block(codec.encode_block(shuffled)) == sorted(PAPER_BLOCK)

    def test_unchained_differences_match_figure_33b(self):
        """Figure 3.3 Table (b): direct differences from the representative."""
        codec = BlockCodec(PAPER_DOMAINS, chained=False)
        mapper = OrdinalMapper(PAPER_DOMAINS)
        ordinals = sorted(mapper.phi(t) for t in PAPER_BLOCK)
        diffs = codec._differences(ordinals, 2)
        assert diffs == [17296, 16727, 212509, 220418]
        # and these render as the paper's difference tuples
        assert mapper.phi_inverse(17296) == (0, 0, 4, 14, 16)
        assert mapper.phi_inverse(220418) == (0, 0, 53, 52, 2)

    def test_chained_differences_match_figure_33c(self, codec):
        mapper = OrdinalMapper(PAPER_DOMAINS)
        ordinals = sorted(mapper.phi(t) for t in PAPER_BLOCK)
        diffs = codec._differences(ordinals, 2)
        assert diffs == [569, 16727, 212509, 7909]


class TestRoundTripVariants:
    @pytest.mark.parametrize("chained", [True, False])
    @pytest.mark.parametrize(
        "strategy", ["median", "first", "last", "nearest-mean"]
    )
    def test_all_configurations_round_trip(self, chained, strategy):
        codec = BlockCodec(PAPER_DOMAINS, chained=chained, representative=strategy)
        data = codec.encode_block(PAPER_BLOCK)
        assert codec.decode_block(data) == sorted(PAPER_BLOCK)

    def test_single_tuple_block(self, codec):
        data = codec.encode_block([(1, 2, 3, 4, 5)])
        assert codec.decode_block(data) == [(1, 2, 3, 4, 5)]
        assert len(data) == HEADER_BYTES + 5

    def test_two_tuple_block(self, codec):
        block = [(0, 0, 0, 0, 1), (7, 15, 63, 63, 63)]
        assert codec.decode_block(codec.encode_block(block)) == sorted(block)

    def test_duplicate_tuples(self, codec):
        block = [(1, 2, 3, 4, 5)] * 4 + [(1, 2, 3, 4, 6)]
        assert codec.decode_block(codec.encode_block(block)) == sorted(block)

    def test_extreme_corner_tuples(self, codec):
        block = [(0, 0, 0, 0, 0), (7, 15, 63, 63, 63)]
        assert codec.decode_block(codec.encode_block(block)) == sorted(block)

    def test_wide_domains_round_trip(self):
        codec = BlockCodec([100000, 3, 70000])
        block = [(99999, 2, 69999), (0, 0, 0), (50000, 1, 12345), (123, 2, 456)]
        assert codec.decode_block(codec.encode_block(block)) == sorted(
            block, key=codec.mapper.phi
        )

    def test_trailing_slack_is_ignored(self, codec):
        data = codec.encode_block(PAPER_BLOCK)
        padded = data + bytes(100)
        assert codec.decode_block(padded) == sorted(PAPER_BLOCK)

    def test_decode_ordinals_matches_decode_block(self, codec):
        data = codec.encode_block(PAPER_BLOCK)
        mapper = codec.mapper
        assert codec.decode_ordinals(data) == [
            mapper.phi(t) for t in codec.decode_block(data)
        ]


class TestSizing:
    def test_encoded_size_of_ordinals_is_exact(self, codec):
        ordinals = sorted(codec.mapper.phi(t) for t in PAPER_BLOCK)
        assert codec.encoded_size_of_ordinals(ordinals) == len(
            codec.encode_block(PAPER_BLOCK)
        )

    def test_size_is_representative_independent_when_chained(self):
        ordinals = [10, 500, 700, 900000, 900001]
        sizes = set()
        for strategy in ("median", "first", "last", "nearest-mean"):
            codec = BlockCodec(PAPER_DOMAINS, representative=strategy)
            sizes.add(codec.encoded_size_of_ordinals(ordinals))
        assert len(sizes) == 1

    def test_capacity_enforced(self, codec):
        with pytest.raises(BlockOverflowError):
            codec.encode_block(PAPER_BLOCK, capacity=10)

    def test_capacity_exact_fit_succeeds(self, codec):
        size = len(codec.encode_block(PAPER_BLOCK))
        data = codec.encode_block(PAPER_BLOCK, capacity=size)
        assert len(data) == size

    def test_compression_versus_fixed_width(self, codec):
        """The coded block must beat u * m fixed-width storage on paper data."""
        data = codec.encode_block(PAPER_BLOCK)
        assert len(data) < len(PAPER_BLOCK) * codec.tuple_bytes

    def test_incremental_gap_cost(self, codec):
        # gap 569 renders as (0,0,0,8,57): 1 count byte + 2 tail bytes
        assert codec.incremental_gap_cost(569) == 3
        # gap 0 is all zeros: count byte only
        assert codec.incremental_gap_cost(0) == 1

    def test_incremental_gap_cost_requires_chaining(self):
        codec = BlockCodec(PAPER_DOMAINS, chained=False)
        with pytest.raises(CodecError):
            codec.incremental_gap_cost(1)


class TestErrorHandling:
    def test_empty_block_rejected(self, codec):
        with pytest.raises(CodecError):
            codec.encode_block([])
        with pytest.raises(CodecError):
            codec.encoded_size_of_ordinals([])

    def test_truncated_stream_rejected(self, codec):
        data = codec.encode_block(PAPER_BLOCK)
        with pytest.raises(CodecError):
            codec.decode_block(data[: len(data) - 3])

    def test_zero_count_rejected(self, codec):
        with pytest.raises(CodecError):
            codec.decode_block(bytes(10))

    def test_bad_representative_index_rejected(self, codec):
        data = bytearray(codec.encode_block(PAPER_BLOCK))
        data[2:4] = (99).to_bytes(2, "big")  # rep index 99 >= count 5
        with pytest.raises(CodecError):
            codec.decode_block(bytes(data))

    def test_bad_run_length_rejected(self, codec):
        data = bytearray(codec.encode_block(PAPER_BLOCK))
        data[HEADER_BYTES + 5] = 200  # first count byte: 200 > m == 5
        with pytest.raises(CodecError):
            codec.decode_block(bytes(data))

    def test_out_of_domain_tuple_rejected(self, codec):
        with pytest.raises(Exception):
            codec.encode_block([(99, 0, 0, 0, 0)])


def packed_relation(sizes, n, seed, block_size=512, **config):
    """A random relation over ``sizes``, sorted and packed into runs."""
    codec = BlockCodec(sizes, **config)
    rng = random.Random(seed)
    ordinals = sorted(rng.randrange(codec.mapper.space_size) for _ in range(n))
    return codec, ordinals, pack_ordinals(codec, ordinals, block_size).blocks


class TestPackedRelations:
    """Whole relations, block by block: what a container build does."""

    @pytest.mark.parametrize("vectorized", [None, False])
    @pytest.mark.parametrize("chained", [True, False])
    def test_decode_of_encode_recovers_relation(self, chained, vectorized):
        codec, ordinals, runs = packed_relation(
            [8, 16, 64, 64], 2000, seed=3, chained=chained,
            vectorized=vectorized,
        )
        payloads = [codec.encode_ordinals(run, capacity=512) for run in runs]
        assert all(len(p) <= 512 for p in payloads)
        tuples = [t for p in payloads for t in codec.decode_block(p)]
        assert tuples == [codec.mapper.phi_inverse(o) for o in ordinals]
        assert [o for p in payloads for o in codec.decode_ordinals(p)] == (
            ordinals
        )

    def test_encode_ordinals_matches_encode_block(self):
        # A non-median strategy packs in numpy but encodes on the
        # scalar path; both entry points must agree byte for byte.
        codec, _, runs = packed_relation(
            [12, 12, 12], 1200, seed=5, representative="first"
        )
        for run in runs:
            tuples = codec.mapper.phi_inverse_many(run)
            assert codec.encode_ordinals(run) == codec.encode_block(tuples)

    @pytest.mark.parametrize("vectorized", [None, False])
    def test_capacity_overflow_raises(self, vectorized):
        codec, ordinals, _ = packed_relation(
            [64, 64, 64], 800, seed=21, vectorized=vectorized
        )
        with pytest.raises(BlockOverflowError):
            codec.encode_ordinals(ordinals, capacity=64)

    @pytest.mark.parametrize("vectorized", [None, False])
    def test_empty_run_rejected(self, vectorized):
        codec = BlockCodec([4, 4], vectorized=vectorized)
        with pytest.raises(CodecError):
            codec.encode_ordinals([])
