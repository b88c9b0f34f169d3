"""Container-level scrub/fsck: detection, WAL repair, quarantine, backfill.

Covers :mod:`repro.io.scrub` and the integrity upgrades to
:mod:`repro.io.format` — structured :class:`CorruptionError` payloads,
the header ``"quarantined"`` map, and the legacy-container checksum
backfill (docs/INTEGRITY.md).
"""

import json

import pytest

from repro.errors import CorruptionError, QuarantinedBlockError, StorageError
from repro.io.format import AVQFileReader, write_avq_file
from repro.io.scrub import backfill_checksums, fsck_container, scrub_container
from repro.relational.encoding import SchemaInferencer
from repro.relational.relation import Relation
from repro.storage.wal import WriteAheadLog


@pytest.fixture()
def container(tmp_path):
    """A 4-block container plus a WAL holding its committed image."""
    values = [(i, i % 7, i % 3) for i in range(250)]
    schema = SchemaInferencer().infer(values, ["a", "b", "c"])
    relation = Relation.from_values(schema, values)
    avq = str(tmp_path / "t.avq")
    wal = str(tmp_path / "t.wal")
    summary = write_avq_file(avq, relation, block_size=256)
    assert summary["blocks"] >= 3
    with WriteAheadLog.create(wal, schema, block_size=256) as w:
        w.checkpoint(relation.phi_ordinals())
    return avq, wal, open(avq, "rb").read()


def flip_payload_bit(path, pristine, block, bit=5):
    """Corrupt one bit inside ``block``'s payload region."""
    with AVQFileReader(path) as reader:
        entry = reader._entry(block)
        offset = entry.offset
    damaged = bytearray(pristine)
    damaged[offset + 2] ^= 1 << bit
    with open(path, "wb") as f:
        f.write(bytes(damaged))


def zero_payload(path, block):
    """Overwrite one block's payload region with zeros.

    The deterministic damage for *legacy* (CRC-less) blocks: a zeroed
    stream cannot decode to the directory's recorded first ordinal and
    tuple count, so the decode/directory checks catch it without a
    checksum.
    """
    with AVQFileReader(path) as reader:
        entry = reader._entry(block)
        offset, length = entry.offset, entry.length
    raw = bytearray(open(path, "rb").read())
    raw[offset:offset + length] = bytes(length)
    with open(path, "wb") as f:
        f.write(bytes(raw))


def strip_checksums(path):
    """Rewrite a container's header without CRCs (a legacy file)."""
    raw = open(path, "rb").read()
    header_len = int.from_bytes(raw[6:10], "big")
    header = json.loads(raw[10:10 + header_len])
    header["blocks"] = [row[:3] for row in header["blocks"]]
    hb = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(raw[:6] + len(hb).to_bytes(4, "big") + hb
                + raw[10 + header_len:])


def replace_payload(path, block, ordinals):
    """Swap one block's payload for the encoding of ``ordinals``,
    fixing up its header length (no CRC is recomputed)."""
    with AVQFileReader(path) as reader:
        entry = reader._entry(block)
        offset, length = entry.offset, entry.length
        payload = reader.codec.encode_ordinals(ordinals)
    raw = open(path, "rb").read()
    header_len = int.from_bytes(raw[6:10], "big")
    header = json.loads(raw[10:10 + header_len])
    header["blocks"][block][0] = len(payload)
    hb = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(raw[:6] + len(hb).to_bytes(4, "big") + hb
                + raw[10 + header_len:offset] + payload
                + raw[offset + length:])


class TestReaderIntegrity:
    def test_checksum_failure_carries_structured_payload(self, container):
        avq, _, pristine = container
        flip_payload_bit(avq, pristine, 1)
        with AVQFileReader(avq) as reader:
            with pytest.raises(CorruptionError) as ei:
                reader.read_block(1)
        exc = ei.value
        assert exc.path == avq
        assert exc.position == 1
        assert exc.detected_by == "crc32"
        assert exc.details()["position"] == 1
        assert "block 1" in exc.fsck_line()
        # intact blocks still read fine
        with AVQFileReader(avq) as reader:
            assert reader.read_block(0)

    def test_quarantined_block_is_never_returned(self, container):
        avq, _, pristine = container
        flip_payload_bit(avq, pristine, 2)
        fsck_container(avq, repair=True)  # no WAL: quarantines block 2
        with AVQFileReader(avq) as reader:
            assert reader.quarantined == {2: "crc32"}
            with pytest.raises(QuarantinedBlockError) as ei:
                reader.read_payload(2)
            assert ei.value.detected_by == "quarantine"
            with pytest.raises(QuarantinedBlockError):
                reader.read_block(2)
            with pytest.raises(QuarantinedBlockError):
                list(reader.scan())
            # scrub tooling may still look at the bytes
            assert reader.raw_payload(2)

    def test_header_dict_round_trips(self, container):
        avq, _, _ = container
        raw = open(avq, "rb").read()
        header_len = int.from_bytes(raw[6:10], "big")
        parsed = json.loads(raw[10:10 + header_len])
        with AVQFileReader(avq) as reader:
            assert reader.header_dict() == parsed


class TestScrubContainer:
    def test_clean_container(self, container):
        avq, _, _ = container
        report = scrub_container(avq)
        assert report.clean
        assert report.blocks_checked >= 3
        assert report.backfill_candidates == 0
        assert report.fsck_lines() == []

    def test_detects_corruption_without_modifying(self, container):
        avq, _, pristine = container
        flip_payload_bit(avq, pristine, 0)
        before = open(avq, "rb").read()
        report = scrub_container(avq)
        assert [f.position for f in report.findings] == [0]
        assert report.findings[0].detected_by == "crc32"
        assert avq in report.findings[0].fsck_line(avq)
        assert open(avq, "rb").read() == before  # scrub never writes

    def test_reports_existing_quarantine(self, container):
        avq, _, pristine = container
        flip_payload_bit(avq, pristine, 1)
        fsck_container(avq, repair=True)
        report = scrub_container(avq)
        assert [f.detected_by for f in report.findings] == ["quarantine"]


class TestFsckRepair:
    def test_repairs_byte_identically_from_wal(self, container):
        avq, wal, pristine = container
        flip_payload_bit(avq, pristine, 2)
        report = fsck_container(avq, repair=True, wal_path=wal)
        assert report.repaired == [2]
        assert report.quarantined == []
        assert report.healthy
        assert open(avq, "rb").read() == pristine

    def test_quarantines_without_a_source_then_repairs_later(
        self, container
    ):
        avq, wal, pristine = container
        flip_payload_bit(avq, pristine, 1)
        report = fsck_container(avq, repair=True)
        assert report.quarantined == [1]
        assert not report.healthy
        # second fsck, now with the WAL: releases the quarantine
        report = fsck_container(avq, repair=True, wal_path=wal)
        assert report.repaired == [1]
        assert report.healthy
        assert open(avq, "rb").read() == pristine
        with AVQFileReader(avq) as reader:
            assert reader.quarantined == {}

    def test_diverged_wal_is_rejected(self, container, tmp_path):
        """A WAL whose image disagrees with the directory cannot prove
        a repair — the block must be quarantined, not mis-restored."""
        avq, _, pristine = container
        values = [(i, 0, 0) for i in range(50)]
        schema = SchemaInferencer().infer(values, ["a", "b", "c"])
        other = Relation.from_values(schema, values)
        wrong_wal = str(tmp_path / "wrong.wal")
        with WriteAheadLog.create(wrong_wal, schema, block_size=256) as w:
            w.checkpoint(other.phi_ordinals())
        flip_payload_bit(avq, pristine, 1)
        report = fsck_container(avq, repair=True, wal_path=wrong_wal)
        assert report.repaired == []
        assert report.quarantined == [1]

    def test_fsck_noop_on_clean_container(self, container):
        avq, wal, pristine = container
        report = fsck_container(avq, repair=True, wal_path=wal)
        assert report.clean and report.healthy
        assert open(avq, "rb").read() == pristine


class TestBackfill:
    def test_legacy_container_scrubs_clean_and_backfills(self, container):
        avq, _, pristine = container
        strip_checksums(avq)
        report = scrub_container(avq)
        assert report.clean
        assert report.backfill_candidates == report.blocks_checked
        n = backfill_checksums(avq)
        assert n == report.blocks_checked
        # identical CRCs to the originally-written container
        assert open(avq, "rb").read() == pristine
        assert scrub_container(avq).backfill_candidates == 0

    def test_backfill_never_blesses_damaged_blocks(self, container):
        avq, _, pristine = container
        strip_checksums(avq)
        zero_payload(avq, 1)
        # block 1 is damaged with no CRC to catch it; the scrub's
        # decode/directory check must flag it, and backfill must skip
        # it while blessing the intact blocks
        report = fsck_container(avq, backfill=True)
        assert report.backfilled == report.blocks_checked - 1
        with AVQFileReader(avq) as reader:
            assert reader.block_crc(1) is None
            for pos in range(reader.num_blocks):
                if pos != 1:
                    assert reader.block_crc(pos) is not None

    def test_legacy_damage_is_detected_by_decode_checks(self, container):
        avq, _, pristine = container
        strip_checksums(avq)
        zero_payload(avq, 1)
        report = scrub_container(avq)
        assert len(report.findings) == 1
        assert report.findings[0].detected_by in ("decode", "directory")

    def test_legacy_block_ending_past_the_next_block(self, container):
        """A CRC-less block with the right first ordinal and count that
        ends past the next block's first is caught by the header's
        bound on its last ordinal, on scrub and on read."""
        avq, _, _ = container
        strip_checksums(avq)
        with AVQFileReader(avq) as reader:
            ordinals = reader.codec.decode_ordinals(reader.raw_payload(1))
            next_first = reader.block_directory.firsts[2]
        replace_payload(avq, 1, ordinals[:-1] + [next_first + 1])
        report = scrub_container(avq)
        assert [(f.position, f.detected_by) for f in report.findings] == [
            (1, "directory")
        ]
        message = (
            f"ends at ordinal {next_first + 1}, "
            f"past its bound {next_first}"
        )
        assert report.findings[0].message == message
        with AVQFileReader(avq) as reader:
            with pytest.raises(CorruptionError) as exc:
                reader.read_block(1)
        assert exc.value.detected_by == "directory"
        assert str(exc.value) == f"block 1 {message}"


class TestCLI:
    def run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_scrub_exit_codes(self, container, capsys):
        avq, _, pristine = container
        assert self.run("scrub", avq) == 0
        flip_payload_bit(avq, pristine, 1)
        assert self.run("scrub", avq) == 2
        out = capsys.readouterr().out
        assert "crc32" in out

    def test_fsck_repair_cycle(self, container, capsys):
        avq, wal, pristine = container
        flip_payload_bit(avq, pristine, 2)
        assert self.run("fsck", avq, "--repair", "--wal", wal) == 0
        assert open(avq, "rb").read() == pristine
        out = capsys.readouterr().out
        assert "repaired" in out

    def test_fsck_quarantines_without_wal(self, container, capsys):
        avq, _, pristine = container
        flip_payload_bit(avq, pristine, 0)
        assert self.run("fsck", avq, "--repair") == 2
        out = capsys.readouterr().out
        assert "quarantined" in out

    def test_fsck_backfill_flag(self, container, capsys):
        avq, _, _ = container
        strip_checksums(avq)
        assert self.run("fsck", avq, "--backfill-checksums") == 0
        out = capsys.readouterr().out
        assert "received" in out
        assert self.run("scrub", avq) == 0

    def test_missing_container_is_a_clean_error(self, tmp_path, capsys):
        assert self.run("scrub", str(tmp_path / "nope.avq")) == 1
        assert "error:" in capsys.readouterr().err
