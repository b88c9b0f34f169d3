"""The on-disk AVQ container format.

Everything else in :mod:`repro.storage` targets the *simulated* disk the
experiments need; this module is the practical counterpart — a real file
format so a compressed relation survives a process restart:

.. code-block:: text

    +--------+---------+------------------+----------------------------+
    | magic  | version | header JSON      | block payloads, contiguous |
    | "AVQ1" | u16     | u32 len ‖ bytes  | (lengths in the header)    |
    +--------+---------+------------------+----------------------------+

The JSON header carries the schema (via :mod:`repro.io.schema_json`),
the codec configuration, the logical block size, and a per-block
directory ``[payload_length, tuple_count, first_ordinal, crc32]``
(ordinals as decimal strings — they can exceed 64 bits for wide
schemas).  Payloads are the exact
:class:`~repro.core.codec.BlockCodec` streams, written back to back —
no slack padding, since a file has no sector alignment to respect.

Every payload is CRC32-checksummed; :meth:`AVQFileReader.read_block`
verifies before decoding, so bit rot is *detected* rather than
silently decoded into wrong tuples (differential coding would otherwise
propagate a single flipped bit into every tuple after it).  Checksum
failures raise :class:`~repro.errors.CorruptionError` with the path and
block position attached; blocks listed in the header's optional
``"quarantined"`` map (written by :mod:`repro.io.scrub`) raise
:class:`~repro.errors.QuarantinedBlockError` instead of ever returning
bytes known to be damaged (docs/INTEGRITY.md).

:class:`AVQFileReader` gives lazy, block-at-a-time access — the on-disk
analogue of the paper's localized decoding.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.codec import BlockCodec
from repro.errors import CorruptionError, QuarantinedBlockError, StorageError
from repro.io.schema_json import schema_from_dict, schema_to_dict
from repro.obs import runtime as _obs
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.storage.block import DEFAULT_BLOCK_SIZE
from repro.storage.packer import pack_runs

__all__ = ["write_avq_file", "AVQFileReader", "read_avq_file"]

_MAGIC = b"AVQ1"
_VERSION = 1


@dataclass(frozen=True)
class _BlockEntry:
    offset: int
    length: int
    tuple_count: int
    first_ordinal: int
    #: ``None`` when the directory predates checksums (len-3 entries).
    crc32: Optional[int]


def write_avq_file(
    path: str,
    relation: Relation,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    codec: Optional[BlockCodec] = None,
) -> Dict[str, int]:
    """Compress a relation into an ``.avq`` container at ``path``.

    Returns a summary dict (blocks, payload bytes, file bytes) so callers
    can report the compression achieved.
    """
    codec = codec or BlockCodec(relation.schema.domain_sizes)
    if codec.mapper.domain_sizes != relation.schema.domain_sizes:
        raise StorageError("codec domain sizes do not match the schema")
    with _obs.span("io.write_avq", path=path, tuples=len(relation)):
        summary = _write_avq_file(path, relation, codec, block_size=block_size)
    reg = _obs.REGISTRY
    if reg is not None:
        reg.inc("io.containers_written")
        reg.inc("io.blocks_written", summary["blocks"])
        reg.inc("io.payload_bytes_written", summary["payload_bytes"])
    return summary


def _write_avq_file(
    path: str,
    relation: Relation,
    codec: BlockCodec,
    *,
    block_size: int,
) -> Dict[str, int]:
    """The :func:`write_avq_file` body, minus validation and telemetry."""
    ordinals = relation.phi_ordinals()

    payloads: List[bytes] = []
    directory: List[List[Union[int, str]]] = []
    runs: Sequence[Sequence[int]]
    vec = codec.vector_codec if ordinals else None
    if vec is not None:
        import numpy as np

        arr = np.asarray(ordinals, dtype=np.int64)
        boundaries = vec.pack_boundaries(arr, block_size)
        runs = [ordinals[start:end] for start, end in boundaries]
        with _obs.span("codec.encode", blocks=len(runs), path="vector"):
            payloads = [
                vec.encode_run(arr[start:end]) for start, end in boundaries
            ]
    else:
        runs = pack_runs(codec, ordinals, block_size)
        with _obs.span("codec.encode", blocks=len(runs), path="scalar"):
            for run in runs:
                tuples = [codec.mapper.phi_inverse(o) for o in run]
                payloads.append(codec.encode_block(tuples))
    for run, payload in zip(runs, payloads):
        directory.append(
            [len(payload), len(run), str(run[0]), zlib.crc32(payload)]
        )

    header = {
        "schema": schema_to_dict(relation.schema),
        "codec": {
            "chained": codec.chained,
            "representative": codec.representative_strategy,
        },
        "block_size": block_size,
        "num_tuples": len(relation),
        "blocks": directory,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")

    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as f:
        f.write(_MAGIC)
        f.write(_VERSION.to_bytes(2, "big"))
        f.write(len(header_bytes).to_bytes(4, "big"))
        f.write(header_bytes)
        for payload in payloads:
            f.write(payload)
    os.replace(tmp_path, path)

    payload_bytes = sum(len(p) for p in payloads)
    return {
        "blocks": len(payloads),
        "tuples": len(relation),
        "payload_bytes": payload_bytes,
        "file_bytes": os.path.getsize(path),
        "fixed_width_bytes": relation.uncompressed_bytes(),
    }


class AVQFileReader:
    """Lazy block-at-a-time reader over an ``.avq`` container.

    Usable as a context manager; blocks decode independently, so random
    access never touches more than one block's payload.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        self._file = open(path, "rb")
        # Header parsing must never leak the file handle, and must not
        # leak raw environmental errors either: a short read or a
        # mis-encoded header is a storage fault, so it surfaces as
        # StorageError with the path attached (lint rule R002's
        # canonical case — the original handler here was a broad
        # ``except Exception``).
        try:
            self._parse_header()
        except (OSError, UnicodeDecodeError) as exc:
            self._file.close()
            raise StorageError(
                f"{self._path}: unreadable container header"
            ) from exc
        except Exception:
            self._file.close()
            raise

    def _parse_header(self) -> None:
        magic = self._file.read(4)
        if magic != _MAGIC:
            raise StorageError(
                f"{self._path}: not an AVQ container (magic {magic!r})"
            )
        version = int.from_bytes(self._file.read(2), "big")
        if version != _VERSION:
            raise StorageError(
                f"{self._path}: unsupported container version {version}"
            )
        header_len = int.from_bytes(self._file.read(4), "big")
        raw = self._file.read(header_len)
        if len(raw) != header_len:
            raise StorageError(f"{self._path}: truncated header")
        try:
            header = json.loads(raw.decode("utf-8"))
            self._schema = schema_from_dict(header["schema"])
            codec_cfg = header["codec"]
            self._codec = BlockCodec(
                self._schema.domain_sizes,
                chained=bool(codec_cfg["chained"]),
                representative=str(codec_cfg["representative"]),
            )
            self._block_size = int(header["block_size"])
            self._num_tuples = int(header["num_tuples"])
            directory = header["blocks"]
            # Optional fsck state: {"position": "reason"} for blocks a
            # repair could not restore (repro.io.scrub).  Absent in every
            # healthy container, ignored by pre-integrity readers.
            self._quarantined: Dict[int, str] = {
                int(pos): str(reason)
                for pos, reason in header.get("quarantined", {}).items()
            }
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise StorageError(f"{self._path}: malformed header") from exc

        self._entries: List[_BlockEntry] = []
        offset = 4 + 2 + 4 + header_len
        try:
            for entry in directory:
                length, count, first = (
                    int(entry[0]), int(entry[1]), int(entry[2])
                )
                crc = int(entry[3]) if len(entry) > 3 else None
                if length < 0 or count < 0 or first < 0:
                    raise StorageError(
                        f"{self._path}: negative directory entry"
                    )
                self._entries.append(
                    _BlockEntry(
                        offset=offset,
                        length=length,
                        tuple_count=count,
                        first_ordinal=first,
                        crc32=crc,
                    )
                )
                offset += length
        except (TypeError, ValueError, IndexError) as exc:
            raise StorageError(
                f"{self._path}: malformed block directory"
            ) from exc
        self._data_end = offset

        size = os.path.getsize(self._path)
        if size < self._data_end:
            raise StorageError(
                f"{self._path}: truncated payload area "
                f"(expected {self._data_end} bytes, file has {size})"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The stored relation's schema."""
        return self._schema

    @property
    def codec(self) -> BlockCodec:
        """The codec configuration the file was written with."""
        return self._codec

    @property
    def num_blocks(self) -> int:
        """Blocks in the container."""
        return len(self._entries)

    @property
    def num_tuples(self) -> int:
        """Total tuples stored."""
        return self._num_tuples

    @property
    def block_size(self) -> int:
        """The logical block size used at write time."""
        return self._block_size

    def block_info(self, position: int) -> Tuple[int, int]:
        """(tuple_count, first_ordinal) of a block without decoding it."""
        entry = self._entry(position)
        return entry.tuple_count, entry.first_ordinal

    def block_crc(self, position: int) -> Optional[int]:
        """Recorded CRC32 of a block's payload (``None`` pre-checksum)."""
        return self._entry(position).crc32

    @property
    def quarantined(self) -> Dict[int, str]:
        """Quarantined block positions mapped to the recorded reason."""
        return dict(self._quarantined)

    def header_dict(self) -> Dict[str, Any]:
        """The canonical header JSON object, reconstructed.

        The feed for :mod:`repro.io.scrub`'s header rewrites (checksum
        backfill, quarantine marks): mutate the returned dict and hand it
        back to the writer.  Round-trips exactly what was parsed.
        """
        header: Dict[str, Any] = {
            "schema": schema_to_dict(self._schema),
            "codec": {
                "chained": self._codec.chained,
                "representative": self._codec.representative_strategy,
            },
            "block_size": self._block_size,
            "num_tuples": self._num_tuples,
            "blocks": [
                [e.length, e.tuple_count, str(e.first_ordinal)]
                + ([] if e.crc32 is None else [e.crc32])
                for e in self._entries
            ],
        }
        if self._quarantined:
            header["quarantined"] = {
                str(pos): reason
                for pos, reason in sorted(self._quarantined.items())
            }
        return header

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def raw_payload(self, position: int) -> bytes:
        """One block's stored bytes, *unverified* and quarantine-blind.

        Strictly for integrity tooling (:mod:`repro.io.scrub`), which
        must be able to look at damaged bytes to report on them.  Every
        data path goes through :meth:`read_payload` instead.
        """
        entry = self._entry(position)
        self._file.seek(entry.offset)
        payload = self._file.read(entry.length)
        if len(payload) != entry.length:
            raise StorageError(f"{self._path}: truncated block {position}")
        return payload

    def read_payload(self, position: int) -> bytes:
        """Raw CRC-verified payload of one block, without decoding.

        :meth:`read_block` decodes what this returns; quarantined
        blocks raise instead of being read.
        """
        entry = self._entry(position)
        reason = self._quarantined.get(position)
        if reason is not None:
            raise QuarantinedBlockError(
                f"block {position} is quarantined ({reason}); "
                "run fsck --repair",
                path=self._path,
                position=position,
                detected_by="quarantine",
            )
        payload = self.raw_payload(position)
        reg = _obs.REGISTRY
        if reg is not None:
            reg.inc("io.payloads_read")
            reg.inc("io.payload_bytes_read", len(payload))
        if entry.crc32 is not None and zlib.crc32(payload) != entry.crc32:
            raise CorruptionError(
                f"block {position} failed its checksum (corrupt payload)",
                path=self._path,
                position=position,
                detected_by="crc32",
            )
        return payload

    def read_block(self, position: int) -> List[Tuple[int, ...]]:
        """Decode one block to ordinal tuples (localized, per the paper)."""
        entry = self._entry(position)
        tuples = self._codec.decode_block(self.read_payload(position))
        if len(tuples) != entry.tuple_count:
            raise CorruptionError(
                f"block {position} decoded to {len(tuples)} tuples, "
                f"directory says {entry.tuple_count}",
                path=self._path,
                position=position,
                detected_by="directory",
            )
        return tuples

    def scan(self) -> Iterator[Tuple[int, ...]]:
        """All tuples in phi order."""
        for position in range(self.num_blocks):
            yield from self.read_block(position)

    def scan_values(self) -> Iterator[Tuple[object, ...]]:
        """All tuples decoded back to application values."""
        for t in self.scan():
            yield self._schema.decode_tuple(t)

    def blocks_overlapping(self, lo: int, hi: int) -> List[int]:
        """Block positions whose ordinal range may intersect [lo, hi]."""
        if lo > hi or not self._entries:
            return []
        out = []
        for pos, entry in enumerate(self._entries):
            next_first = (
                self._entries[pos + 1].first_ordinal
                if pos + 1 < len(self._entries)
                else None
            )
            if entry.first_ordinal > hi:
                break
            if next_first is None or next_first > lo:
                out.append(pos)
        return out

    def _entry(self, position: int) -> _BlockEntry:
        if not 0 <= position < len(self._entries):
            raise StorageError(
                f"{self._path}: no block {position} "
                f"(container has {len(self._entries)})"
            )
        return self._entries[position]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the underlying file handle."""
        self._file.close()

    def __enter__(self) -> "AVQFileReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_avq_file(path: str) -> Relation:
    """Decompress a whole container back into an in-memory relation."""
    with AVQFileReader(path) as reader:
        with _obs.span(
            "codec.decode",
            blocks=reader.num_blocks,
            path="vector" if reader.codec.vectorized else "scalar",
        ):
            return Relation(reader.schema, reader.scan())
