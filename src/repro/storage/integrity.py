"""Online integrity: scrubbing, quarantine, and index-driven self-repair.

Crash damage (:mod:`repro.storage.wal`) is loud — a torn write invalidates
the CLEAN marker and recovery rebuilds.  Bit rot is silent: a block's
stored bytes change *at rest*, the directory still looks right, and the
chained difference coding of Section 3.4 amplifies a single flipped bit
into arbitrarily many wrong tuples.  This module is the defence in depth
behind the per-read checksums of :class:`~repro.storage.avqfile.AVQFile`:

* :class:`Scrubber` — walks a file block by block, verifying checksum
  and decode round-trip against the directory, in resumable increments
  (a background scrubber never gets to stop the world);
* :class:`QuarantineSet` — corrupt blocks are isolated, not returned:
  every read path refuses a quarantined id, and the rest of the table
  stays readable;
* :class:`RepairEngine` — reconstructs a quarantined block's exact
  logical contents from redundant structure (the tuple-level primary
  index, the write-ahead log's committed image, or bounded enumeration
  over secondary indices), re-encodes them, and proves byte-identity
  against the recorded checksum before the block is declared healthy;
* :class:`IntegrityManager` — the per-table policy glue ("raise",
  "skip", or "repair" on a degraded read) that
  :class:`~repro.db.table.Table` drives.

The repair contract is strict: a restored payload must be the block
its directory entry records (first ordinal, count and last ordinal, the
one rule :meth:`~repro.storage.directory.BlockDirectory.disagreement`
every integrity path asks), must re-read byte-identically, and
— wherever a checksum was recorded — must reproduce it exactly.  A block
that cannot be proven correct stays quarantined; garbage is never
silently returned.  See docs/INTEGRITY.md for the full protocol.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    CodecError,
    CorruptionError,
    IntegrityError,
    QuarantinedBlockError,
    RepairError,
    StorageError,
)
from repro.index.primary import TupleOrdinalIndex
from repro.index.secondary import SecondaryIndex
from repro.obs import runtime as _obs
from repro.storage.avqfile import AVQFile
from repro.storage.buffer import BufferPool
from repro.storage.wal import WriteAheadLog, committed_ordinals

__all__ = [
    "DEGRADED_READ_POLICIES",
    "IntegrityManager",
    "IntegrityReport",
    "QuarantineSet",
    "RepairEngine",
    "RepairOutcome",
    "ScrubFinding",
    "ScrubReport",
    "Scrubber",
]

#: What a table does when a read hits corruption: ``"raise"`` surfaces
#: the error to the caller, ``"skip"`` lets *queries* omit the block
#: (point probes and mutations still raise — absence of evidence must
#: never read as evidence of absence), ``"repair"`` attempts an online
#: rebuild and raises only if that fails.
DEGRADED_READ_POLICIES = ("raise", "skip", "repair")

#: Secondary-index enumeration gives up past this many candidate
#: combinations — repair must stay bounded, and the checksum gate makes
#: a partial enumeration useless anyway.
_ENUMERATION_CAP = 65536


class QuarantineSet:
    """Block ids barred from every read path, with the reason why.

    Quarantine is containment, not diagnosis: once a block is listed
    here, no caller gets its bytes until a verified repair releases it.
    The set is shared between a table's buffer pool and every read path
    (live, snapshot, served), so there is exactly one authority on which
    blocks are suspect.

    Reader threads quarantine too, concurrently with the writer, so
    every mutation and every read here is one dict operation that runs
    without releasing the GIL (``setdefault``, ``pop``, ``get``, the
    C-level iteration in ``sorted``): no lock, and no reader ever sees a
    half-applied change.
    """

    def __init__(self, *, path: Optional[str] = None):
        self._path = path
        self._reasons: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._reasons)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._reasons

    def block_ids(self) -> List[int]:
        """Quarantined disk block ids, ascending."""
        return sorted(self._reasons)

    def reason_for(self, block_id: int) -> Optional[str]:
        """Why a block is quarantined, or ``None`` if it is not."""
        return self._reasons.get(block_id)

    def quarantine(self, block_id: int, reason: str) -> None:
        """Bar a block from all reads (idempotent; first reason wins).

        One ``setdefault``, so when two threads quarantine the same
        block at once exactly one reason is kept.
        """
        self._reasons.setdefault(block_id, reason)

    def release(self, block_id: int) -> None:
        """Lift the bar after a *verified* repair (no-op if absent)."""
        self._reasons.pop(block_id, None)

    def check(self, block_id: int) -> None:
        """Raise :class:`~repro.errors.QuarantinedBlockError` if barred."""
        reason = self._reasons.get(block_id)
        if reason is not None:
            raise QuarantinedBlockError(
                f"block {block_id} is quarantined: {reason}",
                path=self._path,
                block_id=block_id,
                detected_by="quarantine",
            )


@dataclass(frozen=True)
class ScrubFinding:
    """One damaged block a scrub pass discovered."""

    position: int
    block_id: int
    detected_by: str
    message: str

    def fsck_line(self) -> str:
        """The finding in ``fsck`` report shape."""
        return (
            f"block {self.position}, disk id {self.block_id}: "
            f"{self.message} [{self.detected_by}]"
        )


@dataclass
class ScrubReport:
    """What one scrub increment checked and found."""

    start_position: int
    blocks_checked: int
    complete: bool
    findings: List[ScrubFinding] = field(default_factory=list)
    backfilled: int = 0

    @property
    def clean(self) -> bool:
        """Whether every checked block verified."""
        return not self.findings

    def fsck_lines(self) -> List[str]:
        """One report line per finding (empty when clean)."""
        return [f.fsck_line() for f in self.findings]


class Scrubber:
    """Incremental verifier of an AVQ file's blocks.

    Each :meth:`scrub` call checks up to ``max_blocks`` blocks starting
    at the saved cursor, then leaves the cursor where it stopped — the
    next call resumes there, wrapping to the start after a complete
    pass.  Checks per block: payload checksum against the recorded
    CRC32, decode round-trip, and agreement of the decoded ordinals
    with the in-memory directory.  Damage is recorded as a finding and
    (when a quarantine set is attached) quarantined immediately.

    The scrubber deliberately reads the *medium*, never a cache: a
    buffer-pool copy predating the rot would pass every check while the
    stored bytes are garbage.
    """

    def __init__(
        self,
        storage: AVQFile,
        *,
        quarantine: Optional[QuarantineSet] = None,
        path: Optional[str] = None,
    ):
        self._storage = storage
        self._quarantine = quarantine
        self._path = path
        self._cursor = 0

    @property
    def cursor(self) -> int:
        """Block position the next increment starts at."""
        return self._cursor

    def reset(self) -> None:
        """Restart the scan from block 0."""
        self._cursor = 0

    def scrub(
        self,
        *,
        max_blocks: Optional[int] = None,
        backfill: bool = False,
    ) -> ScrubReport:
        """Verify the next ``max_blocks`` blocks (all remaining if ``None``).

        With ``backfill=True``, a block adopted without a checksum that
        passes the decode round-trip has its CRC32 recorded — the
        upgrade path for pre-checksum directories.  Blocks that fail
        *any* check are never blessed.
        """
        if max_blocks is not None and max_blocks < 1:
            raise StorageError(
                f"scrub increment must be >= 1 blocks, got {max_blocks}"
            )
        storage = self._storage
        if self._cursor >= storage.num_blocks:
            self._cursor = 0
        start = self._cursor
        end = storage.num_blocks
        if max_blocks is not None:
            end = min(end, start + max_blocks)
        report = ScrubReport(
            start_position=start, blocks_checked=0, complete=False
        )
        with _obs.span("scrub.pass", start=start):
            for position in range(start, end):
                finding = self._check_block(position, backfill, report)
                report.blocks_checked += 1
                if finding is not None:
                    report.findings.append(finding)
                    if self._quarantine is not None:
                        self._quarantine.quarantine(
                            finding.block_id, finding.message
                        )
        self._cursor = end
        if self._cursor >= storage.num_blocks:
            report.complete = True
            self._cursor = 0
        reg = _obs.REGISTRY
        if reg is not None:
            reg.inc("scrub.blocks_checked", report.blocks_checked)
            reg.inc("scrub.findings", len(report.findings))
            reg.inc("scrub.backfilled", report.backfilled)
            if report.complete:
                reg.inc("scrub.passes_completed")
        return report

    def _check_block(
        self, position: int, backfill: bool, report: ScrubReport
    ) -> Optional[ScrubFinding]:
        storage = self._storage
        block_id = storage.block_id_at(position)
        try:
            payload = storage.read_payload(position)
        except CorruptionError as exc:
            return ScrubFinding(
                position=position,
                block_id=block_id,
                detected_by="crc32",
                message=str(exc),
            )
        try:
            ordinals = storage.codec.decode_ordinals(payload)
        except CodecError as exc:
            return ScrubFinding(
                position=position,
                block_id=block_id,
                detected_by="decode",
                message=f"payload does not decode: {exc}",
            )
        reason = storage.block_directory.disagreement(position, ordinals)
        if reason is not None:
            return ScrubFinding(
                position=position,
                block_id=block_id,
                detected_by="directory",
                message=f"decoded contents contradict the directory: {reason}",
            )
        if backfill and storage.block_crc(position) is None:
            storage.set_block_crc(position, zlib.crc32(payload))
            report.backfilled += 1
        return None


@dataclass(frozen=True)
class RepairOutcome:
    """A successful block repair: where the truth came from."""

    position: int
    block_id: int
    source: str
    tuples: int
    crc_verified: bool


class RepairEngine:
    """Reconstructs a corrupt block from the table's redundant structure.

    Candidate sources, tried in order of trustworthiness:

    1. **Tuple-level primary index** — one entry per stored tuple with
       multiplicity; :meth:`TupleOrdinalIndex.ordinals_for_block` *is*
       the block's logical contents.
    2. **Write-ahead log** — the block's share
       (:meth:`~repro.storage.directory.BlockDirectory.share`) of the
       committed logical image (checkpoint plus committed operations):
       a run of one tuple may straddle blocks, so each block takes
       exactly its own count of the copies.
    3. **Secondary-index enumeration** — the cross product of each
       attribute's values known to occur in the block, filtered to the
       block's ordinal range.  Bounded (:data:`_ENUMERATION_CAP`) and
       duplicate-blind, so it only ever succeeds through the checksum
       gate below.

    Every candidate must be the block its directory entry records
    (:meth:`~repro.storage.directory.BlockDirectory.disagreement`),
    and — whenever the directory recorded a checksum — its
    re-encoding must reproduce that CRC32 exactly (the codec is
    deterministic, so a CRC match is byte-identity with what was
    originally written).  Sources 1 and 2 are accepted without a
    recorded checksum because they are exact logical replicas; source 3
    never is.  The restored payload is then re-read and byte-compared
    by :meth:`AVQFile.restore_block` before the block counts as
    healthy.
    """

    def __init__(
        self,
        storage: AVQFile,
        *,
        tuple_index: Optional[TupleOrdinalIndex] = None,
        wal: Optional[WriteAheadLog] = None,
        secondaries: Sequence[SecondaryIndex] = (),
    ):
        self._storage = storage
        self._tuple_index = tuple_index
        self._wal = wal
        self._secondaries = list(secondaries)
        #: ``(forced log length, committed image)`` of the last replay.
        self._image: Optional[Tuple[int, List[int]]] = None

    @property
    def sources(self) -> List[str]:
        """Names of the candidate sources this engine can consult."""
        out = []
        if self._tuple_index is not None:
            out.append("primary-index")
        if self._wal is not None:
            out.append("wal")
        if self._secondaries:
            out.append("secondary-enumeration")
        return out

    def repair(self, position: int) -> RepairOutcome:
        """Rebuild the block at ``position``; raise if no source proves it.

        On success the block's stored bytes are verified healthy and the
        outcome names the source that supplied the truth.  On failure
        the block's bytes are untouched (the engine never writes an
        unproven payload) and :class:`~repro.errors.RepairError` carries
        the structured location payload.
        """
        storage = self._storage
        block_id = storage.block_id_at(position)
        expected_crc = storage.block_crc(position)
        attempts: List[str] = []
        reg = _obs.REGISTRY
        with _obs.span("repair.block", position=position):
            for source, ordinals in self._candidates(position, block_id):
                verdict = self._prove(
                    position, ordinals, expected_crc, source
                )
                if verdict is None:
                    attempts.append(source)
                    continue
                payload, crc_verified = verdict
                storage.restore_block(position, ordinals, payload)
                if reg is not None:
                    reg.inc("repair.blocks_repaired")
                return RepairOutcome(
                    position=position,
                    block_id=block_id,
                    source=source,
                    tuples=len(ordinals),
                    crc_verified=crc_verified,
                )
            if reg is not None:
                reg.inc("repair.failures")
            tried = ", ".join(attempts) if attempts else "none available"
            raise RepairError(
                f"no source could prove block {position}'s contents "
                f"(tried: {tried})",
                block_id=block_id,
                position=position,
            )

    def _candidates(self, position: int, block_id: int):
        """Yield ``(source_name, sorted_ordinals)`` candidates in order."""
        if self._tuple_index is not None:
            yield "primary-index", self._tuple_index.ordinals_for_block(
                block_id
            )
        if self._wal is not None:
            yield "wal", self._storage.block_directory.share(
                position, self._committed_image(self._wal)
            )
        if self._secondaries:
            ordinals = self._enumerate(position, block_id)
            if ordinals is not None:
                yield "secondary-enumeration", ordinals

    def _committed_image(self, wal: WriteAheadLog) -> List[int]:
        """The log's committed image, replayed once per forced length.

        The log only grows, so while its forced length is unchanged so
        is the image: repairing many blocks replays the log once.
        """
        wal.force()
        size = os.path.getsize(wal.path)
        if self._image is None or self._image[0] != size:
            self._image = (size, committed_ordinals(wal.path))
        return self._image[1]

    def _prove(
        self,
        position: int,
        ordinals: Sequence[int],
        expected_crc: Optional[int],
        source: str,
    ) -> Optional[Tuple[bytes, bool]]:
        """Encode a candidate and decide whether it is proven correct."""
        storage = self._storage
        directory = storage.block_directory
        if directory.disagreement(position, ordinals) is not None:
            return None
        try:
            payload = storage.encode_payload(ordinals)
        except CodecError:
            return None
        if expected_crc is not None:
            if zlib.crc32(payload) != expected_crc:
                return None
            return payload, True
        # No recorded checksum to prove against: only an exact logical
        # replica is acceptable, never a blind enumeration.
        if source == "secondary-enumeration":
            return None
        return payload, False

    def _enumerate(
        self, position: int, block_id: int
    ) -> Optional[List[int]]:
        """Bounded cross-product of secondary-index values for a block.

        Positions without an index fall back to the full attribute
        domain; the leading position is additionally clamped to the
        values compatible with the block's ordinal range.  ``None``
        when the combination count exceeds the cap or no value set can
        be formed.
        """
        storage = self._storage
        mapper = storage.codec.mapper
        domain_sizes = mapper.domain_sizes
        first, last = storage.block_range(position)
        weights = mapper.weights
        value_sets: List[List[int]] = []
        total = 1
        for pos, domain in enumerate(domain_sizes):
            values: Optional[List[int]] = None
            for idx in self._secondaries:
                if idx.position == pos:
                    values = idx.values_for_block(block_id)
                    break
            if values is None:
                if pos == 0:
                    # phi is lexicographic: the leading attribute of any
                    # ordinal in [first, last] lies in this value range.
                    values = list(
                        range(first // weights[0], last // weights[0] + 1)
                    )
                else:
                    values = list(range(domain))
            if not values:
                return None
            total *= len(values)
            if total > _ENUMERATION_CAP:
                return None
            value_sets.append(values)
        ordinals: List[int] = []
        for combo in _product(value_sets):
            ordinal = mapper.phi(combo)
            if first <= ordinal <= last:
                ordinals.append(ordinal)
        ordinals.sort()
        return ordinals


def _product(value_sets: Sequence[Sequence[int]]):
    """Cartesian product without :mod:`itertools` recursion limits."""
    if not value_sets:
        return
    indices = [0] * len(value_sets)
    while True:
        yield tuple(vs[i] for vs, i in zip(value_sets, indices))
        pos = len(value_sets) - 1
        while pos >= 0:
            indices[pos] += 1
            if indices[pos] < len(value_sets[pos]):
                break
            indices[pos] = 0
            pos -= 1
        if pos < 0:
            return


@dataclass
class IntegrityReport:
    """A full ``fsck`` pass: scrub findings plus repair outcomes."""

    scrub: ScrubReport
    repaired: List[RepairOutcome] = field(default_factory=list)
    unrepairable: List[ScrubFinding] = field(default_factory=list)
    backfilled: int = 0

    @property
    def healthy(self) -> bool:
        """Whether the file ended the pass with no quarantined damage."""
        return not self.unrepairable

    def fsck_lines(self) -> List[str]:
        """Human-readable report lines, damage first."""
        lines = [f.fsck_line() for f in self.scrub.findings]
        for outcome in self.repaired:
            lines.append(
                f"block {outcome.position}, disk id {outcome.block_id}: "
                f"repaired from {outcome.source} "
                f"({outcome.tuples} tuples, "
                f"{'crc-verified' if outcome.crc_verified else 'directory-verified'})"
            )
        for finding in self.unrepairable:
            lines.append(
                f"block {finding.position}, disk id {finding.block_id}: "
                "UNREPAIRABLE - quarantined"
            )
        return lines


class IntegrityManager:
    """Per-table integrity policy: quarantine, scrubbing, and repair glue.

    One manager per table.  It owns the :class:`QuarantineSet`, wires
    the storage file's checksum verifier and the quarantine into the
    table's buffer pool, and applies the degraded-read policy when a
    read trips corruption.
    """

    def __init__(
        self,
        storage: AVQFile,
        *,
        policy: str = "raise",
        pool: Optional[BufferPool] = None,
        path: Optional[str] = None,
    ):
        if policy not in DEGRADED_READ_POLICIES:
            raise StorageError(
                f"unknown degraded-read policy {policy!r}; expected one "
                f"of {DEGRADED_READ_POLICIES}"
            )
        self._storage = storage
        self._policy = policy
        self._pool = pool
        self._quarantine = QuarantineSet(path=path)
        self._scrubber = Scrubber(
            storage, quarantine=self._quarantine, path=path
        )
        self._engine: Optional[RepairEngine] = None
        if pool is not None:
            pool.attach_verifier(storage.verify_payload)
            pool.attach_quarantine(self._quarantine)

    @property
    def policy(self) -> str:
        """The degraded-read policy ("raise", "skip", or "repair")."""
        return self._policy

    @property
    def quarantine(self) -> QuarantineSet:
        """The table's quarantine set (the single authority)."""
        return self._quarantine

    @property
    def scrubber(self) -> Scrubber:
        """The table's resumable scrubber."""
        return self._scrubber

    @property
    def repair_engine(self) -> Optional[RepairEngine]:
        """The attached repair engine, or ``None``."""
        return self._engine

    def attach_repair_engine(self, engine: RepairEngine) -> None:
        """Provide the repair sources (the table knows its indices)."""
        self._engine = engine

    def check(self, block_id: int, *, repair: bool = True) -> None:
        """Gate a read on the quarantine, honouring the repair policy.

        Under ``"repair"``, a quarantined block triggers a repair
        attempt instead of an immediate refusal; only a failed repair
        raises.  Under any other policy, or with ``repair=False`` (a
        reader thread, which must not write storage), a quarantined id
        raises :class:`~repro.errors.QuarantinedBlockError` directly.
        """
        if block_id not in self._quarantine:
            return
        if repair and self._policy == "repair" and self._engine is not None:
            position = self._storage.position_of_id(block_id)
            if position is not None:
                try:
                    self.repair_block(position)
                except IntegrityError:
                    # Unrepairable: fall through to the refusal below,
                    # chained to the repair failure.
                    self._quarantine.check(block_id)
                    raise
                return
        self._quarantine.check(block_id)

    def note_corruption(self, exc: CorruptionError) -> None:
        """Quarantine the damaged block and purge cached copies."""
        if exc.block_id is None:
            return
        self._quarantine.quarantine(exc.block_id, str(exc))
        self._invalidate(exc.block_id)

    def resolve(self, exc: CorruptionError, *, repair: bool = True) -> None:
        """Apply the degraded-read policy to a fresh corruption hit.

        Quarantines first (containment is unconditional).  Returns
        normally only when a repair succeeded — the caller retries its
        read; otherwise raises :class:`~repro.errors.QuarantinedBlockError`
        chained to the original corruption (the ``"skip"`` policy is
        honoured by *query loops*, which catch that error per block).
        ``repair=False`` never attempts a repair, as in :meth:`check`.
        """
        self.note_corruption(exc)
        if repair and self._policy == "repair" and self._engine is not None:
            position = (
                exc.position
                if exc.position is not None
                else self._storage.position_of_id(exc.block_id)
                if exc.block_id is not None
                else None
            )
            if position is not None:
                try:
                    self.repair_block(position)
                except IntegrityError as repair_exc:
                    raise self._quarantined(exc) from repair_exc
                return
        raise self._quarantined(exc) from exc

    def _quarantined(self, exc: CorruptionError) -> QuarantinedBlockError:
        return QuarantinedBlockError(
            f"block quarantined after corruption: {exc}",
            path=exc.path,
            block_id=exc.block_id,
            position=exc.position,
            detected_by="quarantine",
        )

    def repair_block(self, position: int) -> RepairOutcome:
        """Repair one block and, on success, release it from quarantine."""
        if self._engine is None:
            raise RepairError(
                "no repair engine attached to this table",
                position=position,
            )
        outcome = self._engine.repair(position)
        self._quarantine.release(outcome.block_id)
        self._invalidate(outcome.block_id)
        return outcome

    def scrub(
        self,
        *,
        max_blocks: Optional[int] = None,
        backfill: bool = False,
    ) -> ScrubReport:
        """Run one scrub increment, purging caches of anything it flags."""
        report = self._scrubber.scrub(
            max_blocks=max_blocks, backfill=backfill
        )
        for finding in report.findings:
            self._invalidate(finding.block_id)
        return report

    def fsck(
        self, *, repair: bool = False, backfill: bool = False
    ) -> IntegrityReport:
        """A complete pass: full scrub, then (optionally) repair.

        Runs the scrubber over the whole file from position 0 —
        regardless of any incremental cursor — quarantining every
        damaged block.  With ``repair=True``, each finding is then fed
        to the repair engine; blocks no source can prove stay
        quarantined and are listed as unrepairable.
        """
        self._scrubber.reset()
        scrub = self.scrub(backfill=backfill)
        report = IntegrityReport(scrub=scrub, backfilled=scrub.backfilled)
        for finding in scrub.findings:
            if not repair or self._engine is None:
                report.unrepairable.append(finding)
                continue
            position = self._storage.position_of_id(finding.block_id)
            if position is None:
                report.unrepairable.append(finding)
                continue
            try:
                report.repaired.append(self.repair_block(position))
            except IntegrityError:
                report.unrepairable.append(finding)
        return report

    def _invalidate(self, block_id: int) -> None:
        if self._pool is not None:
            self._pool.invalidate(block_id)
