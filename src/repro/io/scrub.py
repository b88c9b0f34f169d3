"""Offline integrity tooling for ``.avq`` containers.

The on-line integrity subsystem (:mod:`repro.storage.integrity`) guards
the simulated disk; this module is its counterpart for real container
files — the engine behind ``repro scrub`` and ``repro fsck``:

* :func:`scrub_container` — verify every block (checksum, decode,
  :meth:`~repro.storage.directory.BlockDirectory.disagreement` with
  its header entry) without modifying the file.
* :func:`fsck_container` — scrub, then optionally *repair* damaged
  blocks from a write-ahead log's committed image and *backfill*
  checksums onto legacy CRC-less directory entries.  Unrepairable
  blocks are recorded in the header's ``"quarantined"`` map so
  subsequent reads raise :class:`~repro.errors.QuarantinedBlockError`
  instead of ever returning damaged bytes.
* :func:`backfill_checksums` — the standalone legacy-container upgrade.

Repair is held to the same standard as the on-line engine
(:class:`~repro.storage.integrity.RepairEngine`): a block's share of
the log's image is accepted only when it re-encodes to the stored
length and its CRC32 matches the directory's recorded checksum — byte
identity, proven, or no repair.  Blocks written before checksums
existed therefore cannot be repaired (there is nothing to prove
identity against); they can only be quarantined, or blessed via
backfill while they still decode cleanly.

All rewrites go through :func:`repro.io.format.write_container`, the
writer :func:`~repro.io.format.write_avq_file` uses: a temp file, then
``os.replace``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import CodecError, StorageError
from repro.io.format import AVQFileReader, write_container

__all__ = [
    "ContainerFinding",
    "ContainerReport",
    "backfill_checksums",
    "fsck_container",
    "scrub_container",
]

@dataclass(frozen=True)
class ContainerFinding:
    """One damaged (or quarantined) block found by a container scan."""

    position: int
    #: ``"crc32"``, ``"decode"``, ``"directory"``, or ``"quarantine"``.
    detected_by: str
    message: str

    def fsck_line(self, path: str) -> str:
        """One report line, matching the exception format in errors.py."""
        return (
            f"{path}: block {self.position}: {self.message} "
            f"[{self.detected_by}]"
        )


@dataclass
class ContainerReport:
    """Outcome of a container scrub or fsck run."""

    path: str
    blocks_checked: int = 0
    findings: List[ContainerFinding] = field(default_factory=list)
    #: Positions restored byte-identically (fsck with a WAL source).
    repaired: List[int] = field(default_factory=list)
    #: Positions newly quarantined because no repair could be proven.
    quarantined: List[int] = field(default_factory=list)
    #: Legacy CRC-less entries that received a checksum this run.
    backfilled: int = 0
    #: CRC-less entries that still decode cleanly but were left
    #: unblessed (scrub, or fsck without ``--backfill-checksums``).
    backfill_candidates: int = 0

    @property
    def clean(self) -> bool:
        """No damage found by the scan (before any repairs)."""
        return not self.findings

    @property
    def healthy(self) -> bool:
        """Nothing is left damaged: every finding was repaired."""
        if self.quarantined:
            return False
        return all(f.position in self.repaired for f in self.findings)

    def fsck_lines(self) -> List[str]:
        """The report as ``fsck``-style lines."""
        out = [f.fsck_line(self.path) for f in self.findings]
        for pos in self.repaired:
            out.append(f"{self.path}: block {pos}: repaired (crc32 proven)")
        for pos in self.quarantined:
            out.append(
                f"{self.path}: block {pos}: quarantined (unrepairable)"
            )
        if self.backfilled:
            out.append(
                f"{self.path}: {self.backfilled} legacy block(s) received "
                "checksums"
            )
        return out


def _check_block(
    reader: AVQFileReader, position: int
) -> Optional[ContainerFinding]:
    """Verify one block's stored bytes; ``None`` when it is intact."""
    payload = reader.raw_payload(position)
    crc = reader.block_crc(position)
    if crc is not None and zlib.crc32(payload) != crc:
        return ContainerFinding(
            position, "crc32", "payload fails its recorded checksum"
        )
    try:
        ordinals = reader.codec.decode_ordinals(payload)
    except CodecError as exc:
        return ContainerFinding(
            position, "decode", f"payload is undecodable: {exc}"
        )
    reason = reader.block_directory.disagreement(position, ordinals)
    if reason is not None:
        return ContainerFinding(position, "directory", reason)
    return None


def scrub_container(path: str) -> ContainerReport:
    """Verify every block of a container; never modifies the file.

    Already-quarantined blocks are re-reported (detected_by
    ``"quarantine"``) so the operator sees outstanding damage on every
    run, not only the run that found it.
    """
    report = ContainerReport(path=path)
    with AVQFileReader(path) as reader:
        quarantined = reader.quarantined
        for position in range(reader.num_blocks):
            report.blocks_checked += 1
            reason = quarantined.get(position)
            if reason is not None:
                report.findings.append(
                    ContainerFinding(
                        position,
                        "quarantine",
                        f"already quarantined ({reason})",
                    )
                )
                continue
            finding = _check_block(reader, position)
            if finding is not None:
                report.findings.append(finding)
            elif reader.block_crc(position) is None:
                report.backfill_candidates += 1
    return report


def _repair_from_wal(
    reader: AVQFileReader,
    position: int,
    image: Sequence[int],
) -> Optional[bytes]:
    """Reconstruct one block from the WAL image; CRC-proven or ``None``.

    The candidate is the block's share of the committed image
    (:meth:`BlockDirectory.share`, counted from block 0 because the
    header records no last ordinals); it must be the block the header
    entry records, re-encode deterministically to the stored length,
    and hash to the *recorded* CRC32 — the same byte-identity gate as
    the on-line repair engine.
    """
    crc = reader.block_crc(position)
    if crc is None:
        return None  # nothing to prove byte-identity against
    directory = reader.block_directory
    ordinals = directory.share(position, image)
    if directory.disagreement(position, ordinals) is not None:
        return None  # the log has diverged from this container
    payload = reader.codec.encode_ordinals(ordinals)
    stored_length = len(reader.raw_payload(position))
    if len(payload) != stored_length or zlib.crc32(payload) != crc:
        return None
    return payload


def fsck_container(
    path: str,
    *,
    repair: bool = False,
    backfill: bool = False,
    wal_path: Optional[str] = None,
) -> ContainerReport:
    """Scrub a container and optionally repair / backfill / quarantine.

    With ``repair``, damaged blocks (including previously quarantined
    ones) are rebuilt from ``wal_path``'s committed image where byte
    identity can be proven; blocks that cannot be proven are recorded
    in the header's ``"quarantined"`` map, after which reads raise
    rather than return garbage.  With ``backfill``, intact legacy
    blocks (no recorded CRC) receive one.  The file is rewritten only
    when something actually changed.
    """
    report = scrub_container(path)
    wants_backfill = backfill and report.backfill_candidates > 0
    if (not repair or not report.findings) and not wants_backfill:
        return report

    image: List[int] = []
    if repair and report.findings and wal_path is not None:
        # Imported lazily: repro.storage.wal itself imports repro.io
        # modules, so a top-level import here would be a cycle.
        from repro.storage.wal import committed_ordinals

        image = committed_ordinals(wal_path)

    with AVQFileReader(path) as reader:
        header = reader.header_dict()
        rows: List[List[object]] = header["blocks"]
        quarantine: Dict[str, str] = dict(header.get("quarantined", {}))
        payloads = [reader.raw_payload(p) for p in range(reader.num_blocks)]
        damaged_positions = {f.position for f in report.findings}
        changed = False

        if repair:
            for finding in report.findings:
                pos = finding.position
                fixed = (
                    _repair_from_wal(reader, pos, image) if image else None
                )
                if fixed is not None:
                    payloads[pos] = fixed
                    if quarantine.pop(str(pos), None) is not None:
                        changed = True
                    report.repaired.append(pos)
                    changed = True
                elif str(pos) not in quarantine:
                    quarantine[str(pos)] = finding.detected_by
                    report.quarantined.append(pos)
                    changed = True

        if wants_backfill:
            still_quarantined = {int(k) for k in quarantine}
            for pos in range(reader.num_blocks):
                if len(rows[pos]) > 3 or pos in still_quarantined:
                    continue
                if pos in damaged_positions and pos not in report.repaired:
                    continue
                rows[pos].append(zlib.crc32(payloads[pos]))
                report.backfilled += 1
                changed = True

        if changed:
            if quarantine:
                header["quarantined"] = {
                    k: quarantine[k] for k in sorted(quarantine, key=int)
                }
            else:
                header.pop("quarantined", None)
            write_container(path, header, payloads)

    if report.repaired:
        _verify_repairs(path, report.repaired)
    return report


def _verify_repairs(path: str, positions: List[int]) -> None:
    """Re-read repaired blocks from the rewritten file (trust nothing)."""
    with AVQFileReader(path) as reader:
        for pos in positions:
            finding = _check_block(reader, pos)
            if finding is not None:
                raise StorageError(
                    f"{path}: block {pos} still damaged after repair "
                    f"({finding.message})"
                )


def backfill_checksums(path: str) -> int:
    """Add CRC32s to legacy directory entries that still decode cleanly.

    Returns the number of blocks blessed.  Damaged blocks are left
    untouched (run :func:`fsck_container` with ``repair=True`` for
    those); blessing happens only after a full decode round-trip, so a
    backfilled checksum never launders existing rot into "verified".
    """
    report = fsck_container(path, repair=False, backfill=True)
    return report.backfilled
