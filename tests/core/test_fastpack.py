"""The numpy gap sizer, packer and encoder must agree exactly with the
scalar codec and packer (:mod:`repro.core.vectorized`), and
:meth:`BlockCodec.pack_boundaries` must give the same blocks whichever
path it picks."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import BlockCodec
from repro.core.golomb import GolombBlockCodec
from repro.core.runlength import TupleLayout
from repro.core.vectorized import VectorizedBlockCodec
from repro.errors import DomainError, StorageError
from repro.storage.packer import pack_ordinals
from repro.workload.generator import paper_timing_spec


def pack_boundaries(ordinals, sizes, block_size):
    """``(start, end)`` pairs of the default codec's (numpy) fill."""
    codec = BlockCodec(sizes)
    assert codec.pack_path == "vector"
    return [
        (s, e)
        for s, e, _ in codec.pack_boundaries(np.asarray(ordinals), block_size)
    ]


def encode_relation(ordinals, sizes, block_size):
    """Pack and encode a whole phi-sorted relation on the numpy path."""
    vec = VectorizedBlockCodec(sizes)
    arr = np.asarray(ordinals, dtype=np.int64)
    return [
        vec.encode_run(arr[s:e])
        for s, e, _ in vec.pack_boundaries(arr, block_size)
    ]


def as_lists(partition):
    return [[int(o) for o in run] for run in partition.blocks]


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
        exact = pack_ordinals(
            BlockCodec(sizes, vectorized=False), ordinals, block_size
        )
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
        exact = pack_ordinals(
            BlockCodec(sizes, vectorized=False), ordinals, 512
        ).stats.num_blocks
        assert len(pack_boundaries(ordinals, sizes, 512)) == exact

    def test_duplicates(self):
        sizes = [8, 8]
        scalar = BlockCodec(sizes, vectorized=False)
        assert len(pack_boundaries([5] * 100, sizes, 32)) == (
            pack_ordinals(scalar, [5] * 100, 32).stats.num_blocks
        )

    def test_empty_input(self):
        assert pack_boundaries(np.empty(0, np.int64), [4, 4], 64) == []

    def test_unsorted_rejected(self):
        with pytest.raises(StorageError):
            pack_ordinals(BlockCodec([4, 4]), np.array([5, 3]), 64)

    def test_tiny_block_rejected(self):
        with pytest.raises(StorageError):
            pack_ordinals(BlockCodec([4, 4]), np.array([1]), 4)


#: The Section 5.2 timing relation's domains (38-byte tuples): an
#: ordinal space far above 2**64, so every path is the scalar one.
SECTION_52 = list(paper_timing_spec(1).domain_sizes)

#: Codec configurations the boundary-identity property runs over, as
#: ``BlockCodec`` keyword arguments (``None`` for Golomb): the paper's
#: default (numpy fill), a non-median representative (numpy fill,
#: scalar encoder), an unchained ablation and Golomb (both bisection).
PACKING_CONFIGS = {
    "chained-median": {},
    "chained-first": {"representative": "first"},
    "unchained": {"chained": False},
    "golomb": None,
}


def _codecs(sizes, config):
    """The default-chosen codec and its forced-scalar twin (Golomb has
    one path only)."""
    if config is None:
        return GolombBlockCodec(sizes), GolombBlockCodec(sizes)
    return (
        BlockCodec(sizes, **config),
        BlockCodec(sizes, vectorized=False, **config),
    )


def _domains_near(bits, step):
    """Domains whose ordinal space is ``2**bits``, nudged by ``step``
    parts in 2**20 (the int64 boundaries: 2**61 and 2**64)."""
    return [2**20 + step] + [2**20] * (bits // 20 - 1) + [2 ** (bits % 20)]


@given(
    st.one_of(
        st.lists(st.integers(2, 200), min_size=1, max_size=5),
        st.builds(
            _domains_near,
            st.sampled_from([61, 64]),
            st.sampled_from([-1, 0, 1]),
        ),
        st.just(SECTION_52),
    ),
    st.integers(0, 10**6),
    st.integers(24, 400),
    st.sampled_from(sorted(PACKING_CONFIGS)),
)
@settings(max_examples=160, deadline=None)
def test_property_fast_equals_exact(sizes, seed, block_size, config):
    """Whatever path ``BlockCodec.pack_boundaries`` picks, the partition
    and every block's size equal the ``vectorized=False`` pack's."""
    codec, scalar = _codecs(sizes, PACKING_CONFIGS[config])
    rng = random.Random(seed)
    n = rng.randrange(1, 120)
    space = codec.mapper.space_size
    ordinals = sorted(rng.randrange(space) for _ in range(n))
    if rng.random() < 0.3:  # duplicate-heavy runs: zero gaps
        ordinals = sorted(ordinals[: max(1, n // 10)] * 10)
    try:
        exact = pack_ordinals(scalar, ordinals, block_size)
    except StorageError:  # block too small for one tuple: both refuse
        with pytest.raises(StorageError):
            pack_ordinals(codec, ordinals, block_size)
        return
    packed = pack_ordinals(codec, ordinals, block_size)
    assert as_lists(packed) == exact.blocks
    assert packed.stats == exact.stats
    assert codec.pack_boundaries(ordinals, block_size) == (
        scalar.pack_boundaries(ordinals, block_size)
    )
    numpy_walk = config.startswith("chained") and codec.mapper.fits_int64
    assert codec.pack_path == ("vector" if numpy_walk else "scalar")
    assert scalar.pack_path == "scalar"
    # Every reported size is the block's real encoded size.
    for run, (_, _, size) in zip(
        exact.blocks, scalar.pack_boundaries(ordinals, block_size)
    ):
        assert size == len(scalar.encode_ordinals(run)) <= block_size


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
