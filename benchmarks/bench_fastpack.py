"""Benchmark: the vectorised packer versus the exact scalar packer.

Both produce bit-identical partitions (property-tested); this bench
records the speedup that makes the 10^5-tuple Figure 5.7 sweep cheap.
"""

import numpy as np
import pytest

from repro.core.codec import BlockCodec
from repro.core.vectorized import VectorizedBlockCodec
from repro.storage.packer import pack_ordinals

BLOCK_SIZE = 8192


@pytest.fixture(scope="module")
def ordinals(small_variance_relation):
    return small_variance_relation.phi_ordinals()


def test_pack_scalar(benchmark, small_variance_relation, ordinals):
    codec = BlockCodec(small_variance_relation.schema.domain_sizes)
    partition = benchmark(pack_ordinals, codec, ordinals, BLOCK_SIZE)
    benchmark.extra_info["blocks"] = partition.stats.num_blocks


def test_pack_vectorised(benchmark, small_variance_relation, ordinals):
    vec = VectorizedBlockCodec(small_variance_relation.schema.domain_sizes)
    arr = np.asarray(ordinals, dtype=np.int64)
    boundaries = benchmark(vec.pack_boundaries, arr, BLOCK_SIZE)
    benchmark.extra_info["blocks"] = len(boundaries)


def test_fast_and_scalar_agree(small_variance_relation, ordinals):
    sizes = small_variance_relation.schema.domain_sizes
    codec = BlockCodec(sizes)
    exact = pack_ordinals(codec, ordinals, BLOCK_SIZE)
    fast = VectorizedBlockCodec(sizes).pack_boundaries(
        np.asarray(ordinals, dtype=np.int64), BLOCK_SIZE
    )
    assert [ordinals[s:e] for s, e in fast] == exact.blocks
