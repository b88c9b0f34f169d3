"""Benchmark: the numpy packer versus the exact scalar packer.

Both are :func:`~repro.storage.packer.pack_ordinals`; the codec picks
the path (``BlockCodec(sizes)`` walks in numpy, ``vectorized=False``
runs the scalar incremental fill).  They produce bit-identical
partitions (property-tested); this bench records the speedup that makes
the 10^5-tuple Figure 5.7 sweep cheap.
"""

import pytest

from repro.core.codec import BlockCodec
from repro.storage.packer import pack_ordinals

BLOCK_SIZE = 8192


@pytest.fixture(scope="module")
def ordinals(small_variance_relation):
    return small_variance_relation.phi_ordinals()


def test_pack_scalar(benchmark, small_variance_relation, ordinals):
    codec = BlockCodec(
        small_variance_relation.schema.domain_sizes, vectorized=False
    )
    partition = benchmark(pack_ordinals, codec, ordinals, BLOCK_SIZE)
    benchmark.extra_info["blocks"] = partition.stats.num_blocks


def test_pack_vectorised(benchmark, small_variance_relation, ordinals):
    codec = BlockCodec(small_variance_relation.schema.domain_sizes)
    assert codec.pack_path == "vector"
    partition = benchmark(pack_ordinals, codec, ordinals, BLOCK_SIZE)
    benchmark.extra_info["blocks"] = partition.stats.num_blocks


def test_fast_and_scalar_agree(small_variance_relation, ordinals):
    sizes = small_variance_relation.schema.domain_sizes
    scalar = BlockCodec(sizes, vectorized=False)
    exact = pack_ordinals(scalar, ordinals, BLOCK_SIZE)
    fast = pack_ordinals(BlockCodec(sizes), ordinals, BLOCK_SIZE)
    assert [run.tolist() for run in fast.blocks] == exact.blocks
    assert fast.stats == exact.stats
