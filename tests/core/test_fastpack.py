"""The numpy gap sizer, packer and encoder must agree exactly with the
scalar codec and packer (:mod:`repro.core.vectorized`)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import BlockCodec
from repro.core.runlength import TupleLayout
from repro.core.vectorized import VectorizedBlockCodec, numpy_packer_for
from repro.errors import DomainError, StorageError
from repro.storage.packer import pack_ordinals, pack_runs


def pack_boundaries(ordinals, sizes, block_size):
    return VectorizedBlockCodec(sizes).pack_boundaries(
        np.asarray(ordinals), block_size
    )


def encode_relation(ordinals, sizes, block_size):
    """Pack and encode a whole phi-sorted relation on the numpy path."""
    vec = VectorizedBlockCodec(sizes)
    arr = np.asarray(ordinals, dtype=np.int64)
    return [
        vec.encode_run(arr[s:e])
        for s, e in vec.pack_boundaries(arr, block_size)
    ]


def scalar_leading_zeros(layout, mapper, gap):
    raw = layout.tuple_to_bytes(mapper.phi_inverse(gap))
    count = 0
    for b in raw:
        if b:
            break
        count += 1
    return count


class TestFastGapSizer:
    @pytest.mark.parametrize(
        "sizes",
        [
            [8, 16, 64, 64, 64],
            [4] * 15,
            [300, 5, 70000],
            [2, 2, 2],
            [1 << 12] * 4,
        ],
    )
    def test_matches_scalar_leading_zeros(self, sizes):
        sizer = VectorizedBlockCodec(sizes)
        layout = TupleLayout(sizes)
        mapper = sizer.mapper
        rng = random.Random(1)
        gaps = [0, 1, mapper.space_size - 1] + [
            rng.randrange(mapper.space_size) for _ in range(500)
        ]
        fast = sizer.leading_zero_bytes(np.asarray(gaps))
        for g, f in zip(gaps, fast):
            assert f == scalar_leading_zeros(layout, mapper, g), g

    def test_rle_costs_match_codec(self):
        sizes = [8, 16, 64, 64, 64]
        sizer = VectorizedBlockCodec(sizes)
        codec = BlockCodec(sizes)
        rng = random.Random(2)
        gaps = [rng.randrange(codec.mapper.space_size) for _ in range(300)]
        fast = sizer.rle_costs(np.asarray(gaps))
        for g, f in zip(gaps, fast):
            assert f == codec.incremental_gap_cost(g)

    def test_rejects_oversized_space(self):
        with pytest.raises(DomainError):
            VectorizedBlockCodec([2**32, 2**32, 16])

    def test_rejects_out_of_space_gaps(self):
        sizer = VectorizedBlockCodec([4, 4])
        with pytest.raises(DomainError):
            sizer.leading_zero_bytes(np.array([16]))
        with pytest.raises(DomainError):
            sizer.leading_zero_bytes(np.array([-1]))


class TestFastPacking:
    @pytest.mark.parametrize("block_size", [16, 64, 256, 8192])
    def test_boundaries_match_exact_packer(self, block_size):
        sizes = [8, 16, 64, 64, 64]
        codec = BlockCodec(sizes)
        rng = random.Random(3)
        ordinals = sorted(
            rng.randrange(codec.mapper.space_size) for _ in range(2000)
        )
        exact = pack_ordinals(codec, ordinals, block_size)
        fast = pack_boundaries(ordinals, sizes, block_size)
        fast_runs = [ordinals[s:e] for s, e in fast]
        assert fast_runs == exact.blocks

    def test_blocks_needed_matches(self):
        sizes = [4] * 10
        codec = BlockCodec(sizes)
        rng = random.Random(4)
        ordinals = sorted(
            rng.randrange(codec.mapper.space_size) for _ in range(5000)
        )
        exact = pack_ordinals(codec, ordinals, 512).stats.num_blocks
        assert len(pack_boundaries(ordinals, sizes, 512)) == exact

    def test_duplicates(self):
        sizes = [8, 8]
        assert len(pack_boundaries([5] * 100, sizes, 32)) == (
            pack_ordinals(BlockCodec(sizes), [5] * 100, 32).stats.num_blocks
        )

    def test_empty_input(self):
        assert pack_boundaries(np.empty(0, np.int64), [4, 4], 64) == []

    def test_unsorted_rejected(self):
        with pytest.raises(StorageError):
            pack_boundaries(np.array([5, 3]), [4, 4], 64)

    def test_tiny_block_rejected(self):
        with pytest.raises(StorageError):
            pack_boundaries(np.array([1]), [4, 4], 4)


#: Codec configurations the boundary-identity property runs over: the
#: paper's default, a non-median representative (numpy packer, scalar
#: encoder) and an unchained ablation (scalar packer).
PACKING_CONFIGS = [
    {},
    {"representative": "first"},
    {"chained": False},
]


@given(
    st.lists(st.integers(2, 200), min_size=1, max_size=5),
    st.integers(0, 10**6),
    st.integers(24, 200),
    st.sampled_from(PACKING_CONFIGS),
)
@settings(max_examples=120, deadline=None)
def test_property_fast_equals_exact(sizes, seed, block_size, config):
    codec = BlockCodec(sizes, **config)
    rng = random.Random(seed)
    n = rng.randrange(1, 120)
    ordinals = sorted(rng.randrange(codec.mapper.space_size) for _ in range(n))
    exact = pack_ordinals(codec, ordinals, block_size)
    assert pack_runs(codec, ordinals, block_size) == exact.blocks
    packer = numpy_packer_for(codec)
    if not codec.chained:
        # Unchained sizes depend on the representative: scalar packer only.
        assert packer is None
        return
    fast = packer.pack_boundaries(np.asarray(ordinals), block_size)
    assert [ordinals[s:e] for s, e in fast] == exact.blocks


class TestFastEncoder:
    @pytest.mark.parametrize(
        "sizes",
        [[8, 16, 64, 64, 64], [4] * 10, [300, 5, 70000], [2, 2]],
    )
    def test_bytes_identical_to_scalar_codec(self, sizes):
        codec = BlockCodec(sizes)
        encoder = VectorizedBlockCodec(sizes)
        rng = random.Random(5)
        for n in (1, 2, 5, 200):
            ordinals = sorted(
                rng.randrange(codec.mapper.space_size) for _ in range(n)
            )
            tuples = [codec.mapper.phi_inverse(o) for o in ordinals]
            assert encoder.encode_run(np.asarray(ordinals)) == (
                codec.encode_block(tuples)
            )

    def test_encode_relation_matches_scalar_pipeline(self):
        sizes = [8, 16, 64, 64, 64]
        codec = BlockCodec(sizes)
        rng = random.Random(6)
        ordinals = sorted(
            rng.randrange(codec.mapper.space_size) for _ in range(3000)
        )
        fast = encode_relation(ordinals, sizes, 512)
        exact_partition = pack_ordinals(codec, ordinals, 512)
        exact = [
            codec.encode_block([codec.mapper.phi_inverse(o) for o in run])
            for run in exact_partition.blocks
        ]
        assert fast == exact

    def test_fast_encoding_decodes_with_scalar_codec(self):
        sizes = [4] * 8
        codec = BlockCodec(sizes)
        rng = random.Random(7)
        ordinals = sorted(
            rng.randrange(codec.mapper.space_size) for _ in range(1000)
        )
        blocks = encode_relation(ordinals, sizes, 256)
        decoded = [o for b in blocks for t in codec.decode_block(b)
                   for o in [codec.mapper.phi(t)]]
        assert decoded == ordinals


@given(
    st.lists(st.integers(2, 300), min_size=1, max_size=4),
    st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_property_fast_encoder_equals_scalar(sizes, seed):
    codec = BlockCodec(sizes)
    encoder = VectorizedBlockCodec(sizes)
    rng = random.Random(seed)
    n = rng.randrange(1, 60)
    ordinals = sorted(rng.randrange(codec.mapper.space_size) for _ in range(n))
    tuples = [codec.mapper.phi_inverse(o) for o in ordinals]
    assert encoder.encode_run(np.asarray(ordinals)) == codec.encode_block(tuples)
