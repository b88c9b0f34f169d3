"""Unit tests for minimal-slack block packing."""

import random

import numpy as np
import pytest

from repro.core.codec import HEADER_BYTES, BlockCodec
from repro.core.golomb import GolombBlockCodec
from repro.db.table import Table
from repro.errors import StorageError
from repro.io.format import write_avq_file
from repro.obs import runtime
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk
from repro.storage.extsort import bulk_load
from repro.storage.packer import pack_ordinals

DOMAINS = [8, 16, 64, 64, 64]


@pytest.fixture
def codec():
    return BlockCodec(DOMAINS)


def random_ordinals(codec, n, seed=0):
    rng = random.Random(seed)
    return sorted(rng.randrange(codec.mapper.space_size) for _ in range(n))


def runs_of(partition):
    """The partition's blocks as plain lists, whichever path packed."""
    return [[int(o) for o in run] for run in partition.blocks]


class TestPackOrdinals:
    def test_every_block_fits(self, codec):
        ordinals = random_ordinals(codec, 500)
        partition = pack_ordinals(codec, ordinals, block_size=256)
        for run in runs_of(partition):
            assert codec.encoded_size_of_ordinals(run) <= 256

    def test_partition_preserves_all_tuples_in_order(self, codec):
        ordinals = random_ordinals(codec, 300, seed=1)
        partition = pack_ordinals(codec, ordinals, block_size=128)
        flattened = [o for run in runs_of(partition) for o in run]
        assert flattened == ordinals

    def test_greedy_fill_is_maximal(self, codec):
        """No block could absorb the first tuple of the next block."""
        ordinals = random_ordinals(codec, 400, seed=2)
        partition = pack_ordinals(codec, ordinals, block_size=128)
        runs = runs_of(partition)
        for k in range(len(runs) - 1):
            run = runs[k]
            next_first = runs[k + 1][0]
            grown = codec.encoded_size_of_ordinals([*run, next_first])
            assert grown > 128

    def test_stats_payload_matches_encodings(self, codec):
        ordinals = random_ordinals(codec, 200, seed=3)
        partition = pack_ordinals(codec, ordinals, block_size=256)
        actual = sum(
            codec.encoded_size_of_ordinals(run) for run in runs_of(partition)
        )
        assert partition.stats.payload_bytes == actual
        assert partition.stats.num_tuples == 200
        assert partition.stats.num_blocks == len(partition.blocks)
        assert partition.stats.slack_bytes == (
            partition.stats.total_bytes - actual
        )
        assert 0 < partition.stats.utilisation <= 1

    def test_single_tuple(self, codec):
        partition = pack_ordinals(codec, [42], block_size=64)
        assert runs_of(partition) == [[42]]
        assert partition.stats.tuples_per_block == 1

    def test_duplicate_ordinals_pack_densely(self, codec):
        # 1000 identical tuples: each extra tuple costs one count byte
        partition = pack_ordinals(codec, [7] * 1000, block_size=128)
        cap = 128 - HEADER_BYTES - codec.tuple_bytes + 1
        assert runs_of(partition)[0] == [7] * cap

    def test_unsorted_input_rejected(self, codec):
        with pytest.raises(StorageError):
            pack_ordinals(codec, [5, 3], block_size=128)

    def test_too_small_block_rejected(self, codec):
        with pytest.raises(StorageError):
            pack_ordinals(codec, [1], block_size=HEADER_BYTES + codec.tuple_bytes - 1)

    def test_unchained_codec_packs_correctly(self):
        codec = BlockCodec(DOMAINS, chained=False)
        ordinals = random_ordinals(codec, 200, seed=4)
        partition = pack_ordinals(codec, ordinals, block_size=256)
        flattened = [o for run in partition.blocks for o in run]
        assert flattened == ordinals
        for run in partition.blocks:
            assert codec.encoded_size_of_ordinals(run) <= 256

    def test_empty_input(self, codec):
        partition = pack_ordinals(codec, [], block_size=128)
        assert partition.blocks == []
        assert partition.stats.num_blocks == 0
        assert partition.stats.utilisation == 0.0


class TestPackedRunTypes:
    def test_numpy_pack_hands_out_int64_slices(self, codec):
        ordinals = random_ordinals(codec, 300, seed=5)
        partition = pack_ordinals(codec, ordinals, block_size=128)
        assert codec.pack_path == "vector"
        for run in partition.blocks:
            assert isinstance(run, np.ndarray) and run.dtype == np.int64

    @pytest.mark.parametrize(
        "make",
        [
            lambda: BlockCodec(DOMAINS, vectorized=False),
            lambda: BlockCodec(DOMAINS, chained=False),
            lambda: GolombBlockCodec(DOMAINS),
            lambda: BlockCodec([2**40, 2**40]),
        ],
        ids=["forced-scalar", "unchained", "golomb", "wide"],
    )
    def test_scalar_pack_hands_out_int_lists(self, make):
        codec = make()
        ordinals = random_ordinals(codec, 200, seed=6)
        partition = pack_ordinals(codec, ordinals, 256)
        assert codec.pack_path == "scalar"
        for run in partition.blocks:
            assert type(run) is list
            assert all(type(o) is int for o in run)
        assert [o for run in partition.blocks for o in run] == ordinals

    def test_array_input_to_the_scalar_packer(self):
        codec = BlockCodec(DOMAINS, vectorized=False)
        ordinals = random_ordinals(codec, 200, seed=7)
        partition = pack_ordinals(codec, np.asarray(ordinals), 256)
        assert all(type(o) is int for run in partition.blocks for o in run)
        assert runs_of(partition) == runs_of(
            pack_ordinals(BlockCodec(DOMAINS), ordinals, 256)
        )


def _relation(n=1500, seed=11):
    schema = Schema(
        [Attribute(f"a{i}", IntegerRangeDomain(0, 63)) for i in range(5)]
    )
    rng = random.Random(seed)
    return Relation(
        schema, [tuple(rng.randrange(64) for _ in range(5)) for _ in range(n)]
    )


class TestEveryPackIsCounted:
    """``pack.blocks`` counts every block the one packer hands out, on
    the numpy path as much as on the scalar one."""

    @pytest.mark.parametrize("vectorized", [None, False])
    def test_write_avq_file(self, tmp_path, vectorized):
        rel = _relation()
        codec = BlockCodec(rel.schema.domain_sizes, vectorized=vectorized)
        with runtime.scoped() as (reg, _):
            summary = write_avq_file(
                str(tmp_path / "r.avq"), rel, block_size=512, codec=codec
            )
        assert reg.value("pack.blocks") == summary["blocks"]
        assert reg.value("pack.tuples") == len(rel)

    @pytest.mark.parametrize("vectorized", [None, False])
    def test_avqfile_build(self, vectorized):
        rel = _relation()
        codec = BlockCodec(rel.schema.domain_sizes, vectorized=vectorized)
        with runtime.scoped() as (reg, _):
            f = AVQFile.build(rel, SimulatedDisk(block_size=512), codec=codec)
        assert reg.value("pack.blocks") == f.num_blocks

    def test_table_compact(self):
        rel = _relation()
        table = Table.from_relation("t", rel, SimulatedDisk(block_size=512))
        for t in list(rel)[::3]:
            table.delete(t)
        with runtime.scoped() as (reg, _):
            table.compact()
        assert reg.value("pack.blocks") == table.storage.num_blocks

    def test_bulk_load(self):
        rel = _relation()
        with runtime.scoped() as (reg, _):
            f = bulk_load(rel.schema, iter(rel), SimulatedDisk(block_size=512))
        assert reg.value("pack.blocks") == f.num_blocks

    def test_bulk_load_counts_each_carried_block_again(self):
        """A chunked load re-packs each chunk's open last block with the
        next chunk, and each of those packs is counted."""
        rel = _relation()
        budget = 400
        chunks = -(-len(rel) // budget)
        with runtime.scoped() as (reg, _):
            f = bulk_load(
                rel.schema, iter(rel), SimulatedDisk(block_size=512),
                memory_budget=budget,
            )
        assert reg.value("pack.blocks") == f.num_blocks + chunks - 1


class TestPackRelation:
    def test_clustered_relation_packs_tighter_than_scattered(self):
        """Tuples close in phi space produce smaller gaps, hence fewer blocks."""
        schema = Schema(
            [Attribute(f"a{i}", IntegerRangeDomain(0, 63)) for i in range(5)]
        )
        rng = random.Random(9)
        clustered = Relation(
            schema,
            [(0, 0, rng.randrange(4), rng.randrange(4), rng.randrange(64))
             for _ in range(2000)],
        )
        scattered = Relation(
            schema,
            [tuple(rng.randrange(64) for _ in range(5)) for _ in range(2000)],
        )
        codec = BlockCodec(schema.domain_sizes)
        p_clustered = pack_ordinals(codec, clustered.phi_ordinals(), 512)
        p_scattered = pack_ordinals(codec, scattered.phi_ordinals(), 512)
        assert p_clustered.stats.num_blocks < p_scattered.stats.num_blocks

    def test_compression_beats_fixed_width(self):
        schema = Schema(
            [Attribute(f"a{i}", IntegerRangeDomain(0, 63)) for i in range(5)]
        )
        rng = random.Random(10)
        rel = Relation(
            schema,
            [tuple(rng.randrange(64) for _ in range(5)) for _ in range(5000)],
        )
        partition = pack_ordinals(
            BlockCodec(schema.domain_sizes), rel.phi_ordinals(), 8192
        )
        assert partition.stats.payload_bytes < rel.uncompressed_bytes()
