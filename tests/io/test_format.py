"""Unit tests for the on-disk AVQ container format."""

import json
import random

import pytest

from repro.core.codec import BlockCodec
from repro.errors import CorruptionError, QuarantinedBlockError, StorageError
from repro.io.format import AVQFileReader, read_avq_file, write_avq_file
from repro.relational.domain import CategoricalDomain, IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema


@pytest.fixture
def relation():
    schema = Schema(
        [
            Attribute("dept", CategoricalDomain(["a", "b", "c", "d"])),
            Attribute("x", IntegerRangeDomain(0, 63)),
            Attribute("y", IntegerRangeDomain(0, 63)),
        ]
    )
    rng = random.Random(5)
    return Relation(
        schema,
        [(rng.randrange(4), rng.randrange(64), rng.randrange(64))
         for _ in range(3000)],
    )


def codecs(schema):
    """The vector codec (the default here) and the scalar one."""
    vector = BlockCodec(schema.domain_sizes)
    assert vector.vector_codec is not None and vector.vector_codec.decode_supported
    return [vector, BlockCodec(schema.domain_sizes, vectorized=False)]


def rewrite_header(path, edit):
    """Apply ``edit`` to a container's header JSON in place."""
    raw = open(path, "rb").read()
    header_len = int.from_bytes(raw[6:10], "big")
    header = json.loads(raw[10:10 + header_len])
    edit(header)
    hb = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(raw[:6] + len(hb).to_bytes(4, "big") + hb
                + raw[10 + header_len:])


class TestRoundTrip:
    def test_whole_relation_survives(self, relation, tmp_path):
        path = str(tmp_path / "data.avq")
        for codec in codecs(relation.schema):
            write_avq_file(path, relation, block_size=512, codec=codec)
            back = read_avq_file(path)
            assert list(back) == relation.sorted_by_phi()
            assert back.schema.names == relation.schema.names

    def test_summary_fields(self, relation, tmp_path):
        path = str(tmp_path / "data.avq")
        summary = write_avq_file(path, relation, block_size=512)
        assert summary["tuples"] == 3000
        assert summary["blocks"] > 1
        assert summary["payload_bytes"] < summary["file_bytes"]
        assert summary["payload_bytes"] < summary["fixed_width_bytes"]

    def test_file_smaller_than_fixed_width(self, relation, tmp_path):
        path = str(tmp_path / "data.avq")
        summary = write_avq_file(path, relation, block_size=8192)
        assert summary["file_bytes"] < summary["fixed_width_bytes"]

    def test_unchained_codec_round_trips(self, relation, tmp_path):
        path = str(tmp_path / "data.avq")
        codec = BlockCodec(relation.schema.domain_sizes, chained=False)
        write_avq_file(path, relation, block_size=512, codec=codec)
        with AVQFileReader(path) as reader:
            assert not reader.codec.chained
            assert list(reader.scan()) == relation.sorted_by_phi()
        assert list(read_avq_file(path)) == relation.sorted_by_phi()

    def test_values_decode_through_domains(self, relation, tmp_path):
        path = str(tmp_path / "data.avq")
        write_avq_file(path, relation, block_size=512)
        with AVQFileReader(path) as reader:
            first = next(reader.scan_values())
        assert first[0] in ("a", "b", "c", "d")

    def test_mismatched_codec_rejected(self, relation, tmp_path):
        with pytest.raises(StorageError):
            write_avq_file(
                str(tmp_path / "x.avq"),
                relation,
                codec=BlockCodec([2, 2]),
            )


class TestLazyAccess:
    def test_block_at_a_time(self, relation, tmp_path):
        path = str(tmp_path / "data.avq")
        write_avq_file(path, relation, block_size=512)
        expected = relation.sorted_by_phi()
        with AVQFileReader(path) as reader:
            collected = []
            for pos in range(reader.num_blocks):
                tuples = reader.read_block(pos)
                count, first = reader.block_info(pos)
                assert len(tuples) == count
                assert reader.schema.mapper.phi(tuples[0]) == first
                collected.extend(tuples)
        assert collected == expected

    def test_blocks_overlapping_is_a_correct_cover(self, relation, tmp_path):
        path = str(tmp_path / "data.avq")
        write_avq_file(path, relation, block_size=512)
        mapper = relation.schema.mapper
        lo, hi = 2000, 9000
        with AVQFileReader(path) as reader:
            cover = set(reader.blocks_overlapping(lo, hi))
            for pos in range(reader.num_blocks):
                has_match = any(
                    lo <= mapper.phi(t) <= hi for t in reader.read_block(pos)
                )
                if has_match:
                    assert pos in cover

    def test_bad_position_rejected(self, relation, tmp_path):
        path = str(tmp_path / "data.avq")
        write_avq_file(path, relation, block_size=512)
        with AVQFileReader(path) as reader:
            with pytest.raises(StorageError):
                reader.read_block(10**6)


class TestCorruptionHandling:
    def _write(self, relation, tmp_path):
        path = str(tmp_path / "data.avq")
        write_avq_file(path, relation, block_size=512)
        return path

    def test_bad_magic(self, relation, tmp_path):
        path = self._write(relation, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[0:4] = b"NOPE"
        open(path, "wb").write(bytes(data))
        with pytest.raises(StorageError):
            AVQFileReader(path)

    def test_bad_version(self, relation, tmp_path):
        path = self._write(relation, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[4:6] = (99).to_bytes(2, "big")
        open(path, "wb").write(bytes(data))
        with pytest.raises(StorageError):
            AVQFileReader(path)

    def test_truncated_header(self, relation, tmp_path):
        path = self._write(relation, tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:20])
        with pytest.raises(StorageError):
            AVQFileReader(path)

    def test_truncated_payload(self, relation, tmp_path):
        path = self._write(relation, tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-50])
        with pytest.raises(StorageError):
            AVQFileReader(path)

    def test_garbage_header_json(self, relation, tmp_path):
        path = self._write(relation, tmp_path)
        data = bytearray(open(path, "rb").read())
        header_len = int.from_bytes(data[6:10], "big")
        data[10 : 10 + header_len] = b"{" * header_len
        open(path, "wb").write(bytes(data))
        with pytest.raises(StorageError):
            AVQFileReader(path)


class TestReadBackChecks:
    """``read_avq_file`` keeps every check of the block-at-a-time reader:
    the same error class, ``detected_by`` and message on either codec."""

    def _container(self, relation, tmp_path, codec):
        path = str(tmp_path / "data.avq")
        write_avq_file(path, relation, block_size=512, codec=codec)
        with AVQFileReader(path) as reader:
            assert reader.num_blocks > 3
        return path

    def _assert_fails_like_scan(self, path, cls, detected_by, message):
        with pytest.raises(cls) as by_file:
            read_avq_file(path)
        with AVQFileReader(path) as reader:
            with pytest.raises(cls) as by_scan:
                list(reader.scan())
        for exc in (by_file.value, by_scan.value):
            assert type(exc) is cls
            assert exc.detected_by == detected_by
            assert exc.position == 2
            assert exc.path == path
            assert str(exc) == message

    @pytest.mark.parametrize("which", [0, 1], ids=["vector", "scalar"])
    def test_rotted_payload(self, relation, tmp_path, which):
        codec = codecs(relation.schema)[which]
        path = self._container(relation, tmp_path, codec)
        with AVQFileReader(path) as reader:
            offset = reader._entries[2].offset + 5
        data = bytearray(open(path, "rb").read())
        data[offset] ^= 0x10
        open(path, "wb").write(bytes(data))
        self._assert_fails_like_scan(
            path, CorruptionError, "crc32",
            "block 2 failed its checksum (corrupt payload)",
        )

    @pytest.mark.parametrize("which", [0, 1], ids=["vector", "scalar"])
    def test_quarantined_block(self, relation, tmp_path, which):
        codec = codecs(relation.schema)[which]
        path = self._container(relation, tmp_path, codec)
        rewrite_header(path, lambda h: h.update(quarantined={"2": "crc32"}))
        self._assert_fails_like_scan(
            path, QuarantinedBlockError, "quarantine",
            "block 2 is quarantined (crc32); run fsck --repair",
        )

    @pytest.mark.parametrize("which", [0, 1], ids=["vector", "scalar"])
    def test_directory_count_mismatch(self, relation, tmp_path, which):
        codec = codecs(relation.schema)[which]
        path = self._container(relation, tmp_path, codec)
        with AVQFileReader(path) as reader:
            count = reader.block_info(2)[0]

        def miscount(header):
            header["blocks"][2][1] += 1

        rewrite_header(path, miscount)
        self._assert_fails_like_scan(
            path, CorruptionError, "directory",
            f"block 2 decoded to {count} tuples, "
            f"directory says {count + 1}",
        )
