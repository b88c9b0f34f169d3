"""Unit tests for the comparison coders."""

import random

import pytest

from repro.baselines.avq import AVQBaseline
from repro.baselines.nocoding import NaturalWidthBaseline, NoCodingBaseline
from repro.baselines.rawrle import RawRLEBaseline, SortedRLEBaseline
from repro.errors import CodecError
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema

DOMAINS = [8, 16, 64, 64, 64]


@pytest.fixture
def relation():
    schema = Schema(
        [
            Attribute("a", IntegerRangeDomain(0, 7)),
            Attribute("b", IntegerRangeDomain(0, 15)),
            Attribute("c", IntegerRangeDomain(0, 63)),
            Attribute("d", IntegerRangeDomain(0, 63)),
            Attribute("e", IntegerRangeDomain(0, 63)),
        ]
    )
    rng = random.Random(3)
    return Relation(
        schema,
        [
            (rng.randrange(8), rng.randrange(16), rng.randrange(64),
             rng.randrange(64), rng.randrange(64))
            for _ in range(2000)
        ],
    )


ALL_BASELINES = [
    NoCodingBaseline,
    NaturalWidthBaseline,
    RawRLEBaseline,
    SortedRLEBaseline,
    AVQBaseline,
]


class TestLosslessness:
    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_block_round_trip(self, cls):
        codec = cls(DOMAINS)
        block = [(1, 2, 3, 4, 5), (0, 0, 0, 0, 1), (7, 15, 63, 63, 63)]
        decoded = codec.decode_block(codec.encode_block(block))
        # AVQ sorts within the block; order-preserving coders do not
        assert sorted(decoded) == sorted(block)

    @pytest.mark.parametrize("cls", [NoCodingBaseline, RawRLEBaseline])
    def test_order_preserved_for_sequential_coders(self, cls):
        codec = cls(DOMAINS)
        block = [(7, 0, 0, 0, 0), (0, 0, 0, 0, 1)]
        assert codec.decode_block(codec.encode_block(block)) == block

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_empty_block_rejected(self, cls):
        with pytest.raises(CodecError):
            cls(DOMAINS).encode_block([])


class TestSizeOrdering:
    def test_avq_is_smallest_on_random_relation(self, relation):
        sizes = relation.schema.domain_sizes
        block_size = 1024
        counts = {
            cls.name: cls(sizes).blocks_needed(relation, block_size)
            for cls in ALL_BASELINES
        }
        assert counts["avq"] <= counts["raw-rle"]
        assert counts["avq"] <= counts["no-coding"]
        assert counts["no-coding"] <= counts["natural-width"]

    def test_natural_width_is_double_packed_here(self, relation):
        """All five domains fit one byte, so natural width is exactly 2x."""
        sizes = relation.schema.domain_sizes
        packed = NoCodingBaseline(sizes)
        natural = NaturalWidthBaseline(sizes)
        assert natural.encoded_tuple_size((0,) * 5) == 2 * packed.encoded_tuple_size(
            (0,) * 5
        )

    def test_sorted_rle_equals_raw_rle_in_size(self, relation):
        """Sorting alone creates no leading zeros (see module docstring)."""
        sizes = relation.schema.domain_sizes
        raw = RawRLEBaseline(sizes).blocks_needed(relation, 1024)
        sorted_ = SortedRLEBaseline(sizes).blocks_needed(relation, 1024)
        assert abs(raw - sorted_) <= 1

    def test_compressed_bytes_is_blocks_times_size(self, relation):
        sizes = relation.schema.domain_sizes
        base = NoCodingBaseline(sizes)
        assert base.compressed_bytes(relation, 1024) == (
            base.blocks_needed(relation, 1024) * 1024
        )


class TestBlocksNeeded:
    def test_no_coding_matches_arithmetic(self, relation):
        sizes = relation.schema.domain_sizes
        base = NoCodingBaseline(sizes)
        per_block = (1024 - 2) // 5
        expected = -(-len(relation) // per_block)
        assert base.blocks_needed(relation, 1024) == expected

    def test_tiny_block_rejected(self, relation):
        sizes = relation.schema.domain_sizes
        with pytest.raises(CodecError):
            NoCodingBaseline(sizes).blocks_needed(relation, 2)
        with pytest.raises(CodecError):
            NoCodingBaseline(sizes).blocks_needed(relation, 6)

    def test_avq_blocks_match_packer(self, relation):
        from repro.core.codec import BlockCodec
        from repro.storage.packer import pack_ordinals

        sizes = relation.schema.domain_sizes
        avq = AVQBaseline(sizes)
        assert avq.blocks_needed(relation, 1024) == pack_ordinals(
            BlockCodec(sizes, vectorized=False), relation.phi_ordinals(), 1024
        ).stats.num_blocks

    def test_avq_tuple_size_is_context_dependent(self):
        with pytest.raises(NotImplementedError):
            AVQBaseline(DOMAINS).encoded_tuple_size((0, 0, 0, 0, 0))
