"""Exhaustive single-bit rot sweeps: 100% detection, byte-identical repair.

The hard promise behind the integrity subsystem (docs/INTEGRITY.md):
*every* single-bit flip of stored payload bytes is detected by a scrub
— CRC32 guarantees it for single-bit errors — and, where a repair
source exists, the block is restored byte-identically.  The sweeps are
exhaustive over small tables/containers (every bit of every block), so
they are proofs-by-enumeration rather than samples; everything is
seeded and deterministic (lint rule R007).
"""

import zlib

import pytest

from repro.errors import ReproError
from repro.storage.disk import SimulatedDisk


def build_table(disk):
    from repro.db.table import Table
    from repro.relational.encoding import SchemaInferencer
    from repro.relational.relation import Relation

    values = [(i, i % 5, i % 3) for i in range(60)]
    schema = SchemaInferencer().infer(values, ["a", "b", "c"])
    relation = Relation.from_values(schema, values)
    return Table.from_relation(
        "sweep", relation, disk, tuple_index=True, degraded_reads="repair"
    )


def build_straddling_table(disk, wal_path):
    """Two blocks that a run of one tuple straddles, repairable from
    the write-ahead log alone (no tuple-level index)."""
    from repro.db.table import Table
    from repro.relational.encoding import SchemaInferencer
    from repro.relational.relation import Relation

    values = [(i, i % 5, i % 3) for i in range(20)] + [(3, 3, 0)] * 200
    schema = SchemaInferencer().infer(values, ["a", "b", "c"])
    relation = Relation.from_values(schema, values)
    table = Table.from_relation(
        "sweep", relation, disk, durable_path=wal_path,
        degraded_reads="repair",
    )
    (_, _, last, _), (_, first, _, _) = table.storage.block_directory
    assert last == first
    return table


class TestSimulatedDiskSweep:
    @pytest.mark.parametrize("source", ["primary-index", "wal"])
    def test_every_single_bit_flip_is_detected_and_repaired(
        self, source, tmp_path
    ):
        """Exhaustive: flip each bit of each stored payload in turn;
        the scrub must find exactly that block, and the repair engine
        must restore the exact original bytes — from the tuple-level
        index, or from the log's committed image on a table whose run
        straddles its block boundary."""
        disk = SimulatedDisk(block_size=192)
        if source == "wal":
            table = build_straddling_table(disk, str(tmp_path / "s.wal"))
        else:
            table = build_table(disk)
        assert table.num_blocks >= 2
        originals = {
            bid: disk.read_block(bid) for bid in table.storage.block_ids
        }
        flips = detected = repaired = 0
        for bid, original in originals.items():
            for bit in range(len(original) * 8):
                flips += 1
                disk.corrupt_stored(bid, bit)
                report = table.scrub()
                assert not report.clean, (
                    f"bit {bit} of block {bid} rotted silently"
                )
                assert [f.block_id for f in report.findings] == [bid]
                detected += 1
                pos = table.storage.position_of_id(bid)
                outcome = table.repair_block(pos)
                assert (outcome.source, outcome.crc_verified) == (
                    source, True
                )
                assert disk.read_block(bid) == original
                repaired += 1
                assert table.quarantined_blocks == []
        assert flips == detected == repaired
        assert flips >= 500  # the sweep is genuinely exhaustive

    def test_double_flips_in_one_block_are_detected(self):
        """CRC32 detects all 1-2 bit errors; spot the 2-bit case over a
        seeded deterministic pattern of pairs."""
        disk = SimulatedDisk(block_size=192)
        table = build_table(disk)
        bid = table.storage.block_ids[0]
        original = disk.read_block(bid)
        nbits = len(original) * 8
        pairs = [(i, (i * 37 + 11) % nbits) for i in range(0, nbits, 17)]
        for a, b in pairs:
            if a == b:
                continue
            disk.corrupt_stored(bid, a)
            disk.corrupt_stored(bid, b)
            report = table.scrub()
            assert not report.clean
            table.repair_block(table.storage.position_of_id(bid))
            assert disk.read_block(bid) == original


class TestContainerSweep:
    @pytest.fixture(scope="class")
    def container(self, tmp_path_factory):
        from repro.io.format import write_avq_file
        from repro.relational.encoding import SchemaInferencer
        from repro.relational.relation import Relation
        from repro.storage.wal import WriteAheadLog

        values = [(i, i % 5, i % 3) for i in range(60)]
        schema = SchemaInferencer().infer(values, ["a", "b", "c"])
        relation = Relation.from_values(schema, values)
        root = tmp_path_factory.mktemp("sweep")
        avq = str(root / "t.avq")
        wal = str(root / "t.wal")
        write_avq_file(avq, relation, block_size=192)
        with WriteAheadLog.create(wal, schema, block_size=192) as w:
            w.checkpoint(relation.phi_ordinals())
        return avq, wal, open(avq, "rb").read()

    def test_every_payload_bit_flip_detected_and_repaired(
        self, container, tmp_path
    ):
        """Exhaustive over the container's payload area: scrub detects
        every flip, fsck --repair restores the file byte-identically
        from the WAL."""
        import os

        from repro.io.scrub import fsck_container, scrub_container

        avq, wal, pristine = container
        header_len = int.from_bytes(pristine[6:10], "big")
        payload_start = 10 + header_len
        path = str(tmp_path / "bit.avq")
        for byte_pos in range(payload_start, len(pristine)):
            for bit in range(8):
                damaged = bytearray(pristine)
                damaged[byte_pos] ^= 1 << bit
                with open(path, "wb") as f:
                    f.write(bytes(damaged))
                report = scrub_container(path)
                assert len(report.findings) == 1, (
                    f"flip at byte {byte_pos} bit {bit} went undetected"
                )
                report = fsck_container(path, repair=True, wal_path=wal)
                assert report.healthy
                assert open(path, "rb").read() == pristine
        os.remove(path)

    def test_header_bit_flips_never_yield_wrong_tuples(self, container,
                                                       tmp_path):
        """Flips in the header either raise a library error or leave a
        consistent container — never silently different data."""
        from repro.io.format import AVQFileReader, read_avq_file

        avq, _wal, pristine = container
        expected = read_avq_file(avq).sorted_by_phi()
        header_len = int.from_bytes(pristine[6:10], "big")
        path = str(tmp_path / "hdr.avq")
        for byte_pos in range(0, 10 + header_len):
            damaged = bytearray(pristine)
            damaged[byte_pos] ^= 0x20
            with open(path, "wb") as f:
                f.write(bytes(damaged))
            try:
                with AVQFileReader(path) as reader:
                    tuples = list(reader.scan())
            except ReproError:
                continue
            assert tuples == expected

    def test_crc32_single_bit_guarantee(self):
        """The mathematical backstop: CRC32 of a payload changes under
        any single-bit flip (checked exhaustively on a real payload)."""
        payload = bytes(range(256)) * 3
        crc = zlib.crc32(payload)
        for byte_pos in range(len(payload)):
            for bit in range(8):
                damaged = bytearray(payload)
                damaged[byte_pos] ^= 1 << bit
                assert zlib.crc32(bytes(damaged)) != crc
