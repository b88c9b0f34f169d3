"""AVQFile running on the bit-granular Golomb codec end to end."""

import random

import pytest

from repro.core.codec import BlockCodec
from repro.errors import StorageError
from repro.core.golomb import GolombBlockCodec
from repro.db.table import Table
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def setup():
    schema = Schema(
        [Attribute(f"a{i}", IntegerRangeDomain(0, 3)) for i in range(12)]
    )
    rng = random.Random(4)
    rel = Relation(
        schema,
        [tuple(rng.randrange(4) for _ in range(12)) for _ in range(3000)],
    )
    return schema, rel


class TestGolombStorageEngine:
    def test_build_and_scan(self, setup):
        schema, rel = setup
        disk = SimulatedDisk(block_size=512)
        f = AVQFile.build(rel, disk, codec=GolombBlockCodec(schema.domain_sizes))
        assert list(f.scan()) == rel.sorted_by_phi()

    def test_fewer_blocks_than_byte_codec_on_tiny_domains(self, setup):
        schema, rel = setup
        golomb_disk = SimulatedDisk(block_size=512)
        byte_disk = SimulatedDisk(block_size=512)
        golomb = AVQFile.build(
            rel, golomb_disk, codec=GolombBlockCodec(schema.domain_sizes)
        )
        byte_file = AVQFile.build(
            rel, byte_disk, codec=BlockCodec(schema.domain_sizes)
        )
        assert golomb.num_blocks < byte_file.num_blocks

    def test_mutations(self, setup):
        schema, rel = setup
        disk = SimulatedDisk(block_size=512)
        f = AVQFile.build(rel, disk, codec=GolombBlockCodec(schema.domain_sizes))
        f.insert((0,) * 12)
        assert next(iter(f.scan())) == (0,) * 12
        assert f.delete((0,) * 12)
        assert f.num_tuples == 3000

    def test_contains_without_probe_support(self, setup):
        schema, rel = setup
        disk = SimulatedDisk(block_size=512)
        f = AVQFile.build(rel, disk, codec=GolombBlockCodec(schema.domain_sizes))
        table = Table("t", schema, f)
        mapper = schema.mapper
        assert table.contains(rel[0])
        present = set(rel.phi_ordinals())
        missing = next(
            o for o in range(mapper.space_size) if o not in present
        )
        assert not table.contains(mapper.phi_inverse(missing))

    def test_compaction(self, setup):
        schema, rel = setup
        disk = SimulatedDisk(block_size=512)
        f = AVQFile.build(rel, disk, codec=GolombBlockCodec(schema.domain_sizes))
        rng = random.Random(5)
        for _ in range(100):
            f.insert(tuple(rng.randrange(4) for _ in range(12)))
        before = sorted(f.scan())
        f.compact()
        assert sorted(f.scan()) == before

    def test_durable_table_refused(self, setup, tmp_path):
        """A WAL header can only describe a BlockCodec."""
        schema, rel = setup
        wal = tmp_path / "t.wal"
        with pytest.raises(StorageError, match="GolombBlockCodec"):
            Table.from_relation(
                "t",
                rel,
                SimulatedDisk(block_size=512),
                codec=GolombBlockCodec(schema.domain_sizes),
                durable_path=str(wal),
            )
        assert not wal.exists()
