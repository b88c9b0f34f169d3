"""Corruption fuzzing: any byte flip in a container must be *detected*.

Differential coding amplifies damage — one flipped payload byte shifts
every subsequent tuple in the block — so silent mis-decoding is the
failure mode to rule out.  Every payload is CRC32-protected; header
bytes are length-checked and schema-validated.  This fuzz flips bytes
all over a valid container and requires that reading either fails with
a library error (never an arbitrary crash) or — only for flips in the
JSON header that stay parseable — produces a consistent container.
"""

import random
import zlib

import pytest

from repro.errors import ReproError
from repro.io.format import AVQFileReader, read_avq_file, write_avq_file
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.wal import WriteAheadLog, read_log


@pytest.fixture(scope="module")
def container_bytes(tmp_path_factory):
    schema = Schema(
        [Attribute(f"a{i}", IntegerRangeDomain(0, 63)) for i in range(4)]
    )
    rng = random.Random(3)
    rel = Relation(
        schema,
        [tuple(rng.randrange(64) for _ in range(4)) for _ in range(1500)],
    )
    path = tmp_path_factory.mktemp("fuzz") / "base.avq"
    write_avq_file(str(path), rel, block_size=512)
    return open(path, "rb").read(), rel


def try_read_all(path):
    """Read every tuple both ways: block by block, and through the
    column-wise ``read_avq_file``.  They must fail alike or agree."""
    try:
        with AVQFileReader(path) as reader:
            tuples = list(reader.scan())
    except ReproError as exc:
        with pytest.raises(type(exc)):
            read_avq_file(path)
        raise
    assert list(read_avq_file(path)) == tuples
    return tuples


class TestCorruptionDetection:
    def test_payload_flips_always_detected(self, container_bytes, tmp_path):
        """Flipping any payload byte must raise a ReproError (CRC)."""
        data, rel = container_bytes
        header_len = int.from_bytes(data[6:10], "big")
        payload_start = 10 + header_len
        rng = random.Random(7)
        path = str(tmp_path / "corrupt.avq")
        for _ in range(200):
            pos = rng.randrange(payload_start, len(data))
            corrupted = bytearray(data)
            corrupted[pos] ^= 1 << rng.randrange(8)
            open(path, "wb").write(bytes(corrupted))
            with pytest.raises(ReproError):
                try_read_all(path)

    def test_arbitrary_flips_never_crash_uncontrolled(
        self, container_bytes, tmp_path
    ):
        """Flips anywhere (header included) either raise a ReproError or
        leave a still-consistent container — never an arbitrary crash or
        silently wrong tuples."""
        data, rel = container_bytes
        expected = rel.sorted_by_phi()
        rng = random.Random(8)
        path = str(tmp_path / "corrupt.avq")
        silent_ok = 0
        for _ in range(300):
            pos = rng.randrange(len(data))
            corrupted = bytearray(data)
            corrupted[pos] ^= 1 << rng.randrange(8)
            open(path, "wb").write(bytes(corrupted))
            try:
                tuples = try_read_all(path)
            except ReproError:
                continue
            except (ValueError, UnicodeDecodeError) as exc:  # pragma: no cover
                pytest.fail(f"uncontrolled error {exc!r} at byte {pos}")
            # A flip that survives must not have changed the data
            # (e.g. a flip inside an unused JSON character is impossible
            # here because CRCs cover payloads and JSON parsing covers
            # the header, but count it if it happens benignly).
            assert tuples == expected
            silent_ok += 1
        # Overwhelmingly, flips must be *detected*:
        assert silent_ok <= 3

    def test_crc_actually_stored(self, container_bytes, tmp_path):
        data, _ = container_bytes
        path = str(tmp_path / "ok.avq")
        open(path, "wb").write(data)
        with AVQFileReader(path) as reader:
            entry = reader._entries[0]
            assert entry.crc32 is not None
            reader._file.seek(entry.offset)
            payload = reader._file.read(entry.length)
            assert zlib.crc32(payload) == entry.crc32


@pytest.fixture(scope="module")
def wal_bytes(tmp_path_factory):
    """A write-ahead log exercising every record type."""
    schema = Schema(
        [Attribute(f"a{i}", IntegerRangeDomain(0, 63)) for i in range(3)]
    )
    path = tmp_path_factory.mktemp("walfuzz") / "base.wal"
    wal = WriteAheadLog.create(str(path), schema, block_size=256)
    rng = random.Random(5)
    wal.checkpoint(sorted(rng.randrange(64**3) for _ in range(40)))
    for _ in range(6):
        tid = wal.begin()
        wal.log_insert(tid, rng.randrange(64**3))
        wal.log_delete(tid, rng.randrange(64**3))
        wal.commit(tid)
    tid = wal.begin()
    wal.abort(tid)
    wal.write_clean([(0, 1, 100, 12), (1, 101, 300, 9)])
    wal.close()
    data = open(path, "rb").read()
    _, records, truncated, _ = read_log(str(path))
    assert truncated is None
    return data, records


class TestWALCorruptionDetection:
    """Satellite: every byte flip in a log must be *detected* — either
    rejected outright (header damage) or handled as a clean truncation
    at the last CRC-valid record.  A flipped record must never replay
    silently."""

    def _header_end(self, data):
        header_len = int.from_bytes(data[6:10], "big")
        return 10 + header_len + 4

    def test_every_record_byte_flip_is_detected(self, wal_bytes, tmp_path):
        """Exhaustive over record bytes: a flip either raises a
        ReproError or truncates the log strictly at/before the flipped
        frame — the surviving records are an unmodified prefix."""
        data, originals = wal_bytes
        start = self._header_end(data)
        path = str(tmp_path / "corrupt.wal")
        for pos in range(start, len(data)):
            corrupted = bytearray(data)
            corrupted[pos] ^= 0x40
            open(path, "wb").write(bytes(corrupted))
            try:
                _, records, truncated, _ = read_log(path)
            except ReproError:
                continue
            # Not rejected: then it must be a clean truncation — a
            # strict prefix of the original records, nothing mutated.
            assert truncated is not None, (
                f"flip at byte {pos} was silently accepted"
            )
            assert len(records) < len(originals)
            assert records == originals[: len(records)], (
                f"flip at byte {pos} altered a replayed record"
            )

    def test_every_header_byte_flip_raises_or_parses_identically(
        self, wal_bytes, tmp_path
    ):
        """Header flips must raise a library error (the header is
        CRC-protected), never propagate damaged schema/codec config."""
        data, originals = wal_bytes
        path = str(tmp_path / "corrupt.wal")
        for pos in range(self._header_end(data)):
            corrupted = bytearray(data)
            corrupted[pos] ^= 0x40
            open(path, "wb").write(bytes(corrupted))
            with pytest.raises(ReproError):
                read_log(path)

    def test_random_multi_bit_flips_never_crash_uncontrolled(
        self, wal_bytes, tmp_path
    ):
        data, originals = wal_bytes
        rng = random.Random(13)
        path = str(tmp_path / "corrupt.wal")
        for _ in range(300):
            corrupted = bytearray(data)
            for _ in range(rng.randrange(1, 4)):
                corrupted[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            open(path, "wb").write(bytes(corrupted))
            try:
                _, records, truncated, _ = read_log(path)
            except ReproError:
                continue
            except (ValueError, KeyError, UnicodeDecodeError) as exc:
                pytest.fail(f"uncontrolled error {exc!r}")
            assert records == originals[: len(records)]

    def test_truncation_at_any_length_yields_a_prefix(self, wal_bytes,
                                                      tmp_path):
        """Torn tails of every length parse to an exact record prefix —
        the crash model behind commit's durability guarantee."""
        data, originals = wal_bytes
        start = self._header_end(data)
        path = str(tmp_path / "torn.wal")
        for end in range(start, len(data)):
            open(path, "wb").write(data[:end])
            _, records, truncated, valid_end = read_log(path)
            assert records == originals[: len(records)]
            assert valid_end <= end
            if truncated is None:
                # no torn frame: the cut landed on a record boundary
                assert valid_end == end
