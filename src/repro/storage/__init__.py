"""Storage substrate: blocks, the simulated disk, packing, and files.

* :mod:`repro.storage.block` — the 8192-byte block abstraction (Sec. 3.3)
* :mod:`repro.storage.disk` — the Section 5.3.2 disk timing model
* :mod:`repro.storage.packer` — minimal-slack block partitioning (Sec. 3.4)
* :mod:`repro.storage.heapfile` — the uncoded fixed-width baseline
* :mod:`repro.storage.avqfile` — AVQ-coded relation storage (Sec. 4.2 ops)
* :mod:`repro.storage.buffer` — an LRU buffer pool
* :mod:`repro.storage.wal` — write-ahead logging and crash recovery
* :mod:`repro.storage.faults` — fault injection (torn writes, crashes,
  bit rot, transient read faults)
* :mod:`repro.storage.integrity` — scrubbing, quarantine, block repair
"""

from repro.storage.avqfile import AVQFile
from repro.storage.block import DEFAULT_BLOCK_SIZE, Block
from repro.storage.buffer import BufferPool, BufferStats
from repro.storage.disk import DiskModel, DiskStats, SimulatedDisk
from repro.storage.extsort import bulk_load, external_sort_ordinals
from repro.storage.faults import (
    CRASH_MODES,
    FaultInjector,
    FaultStats,
    FaultyDisk,
)
from repro.storage.heapfile import HeapFile
from repro.storage.integrity import (
    DEGRADED_READ_POLICIES,
    IntegrityManager,
    IntegrityReport,
    QuarantineSet,
    RepairEngine,
    RepairOutcome,
    ScrubFinding,
    ScrubReport,
    Scrubber,
)
from repro.storage.packer import (
    PackedPartition,
    PackStats,
    pack_ordinals,
    pack_relation,
    pack_runs,
)
from repro.storage.wal import (
    LogImage,
    RecoveryReport,
    WALHeader,
    WALRecord,
    WALStats,
    WriteAheadLog,
    read_log,
    recover,
    replay_records,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "Block",
    "DiskModel",
    "DiskStats",
    "SimulatedDisk",
    "BufferPool",
    "BufferStats",
    "PackStats",
    "PackedPartition",
    "pack_ordinals",
    "pack_relation",
    "pack_runs",
    "HeapFile",
    "AVQFile",
    "external_sort_ordinals",
    "bulk_load",
    "CRASH_MODES",
    "FaultInjector",
    "FaultStats",
    "FaultyDisk",
    "DEGRADED_READ_POLICIES",
    "IntegrityManager",
    "IntegrityReport",
    "QuarantineSet",
    "RepairEngine",
    "RepairOutcome",
    "ScrubFinding",
    "ScrubReport",
    "Scrubber",
    "LogImage",
    "RecoveryReport",
    "WALHeader",
    "WALRecord",
    "WALStats",
    "WriteAheadLog",
    "read_log",
    "recover",
    "replay_records",
]
