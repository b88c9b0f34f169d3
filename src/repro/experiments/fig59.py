"""Figure 5.9: coding times and the end-to-end response-time table.

Rows 1-4 are per-block CPU costs.  The paper measured them on three
workstations; we carry those constants (:mod:`repro.perf.machines`) and
measure the same operations on *this* host with the paper's method (100
repetitions over one representative 8192-byte block of the Section 5.2
relation).

Rows 5-11 are pure arithmetic over (I, N, t1, t2, t3) — Equations 5.7
and 5.8.  :func:`paper_response_table` plugs in the paper's own constants
and regenerates its table; :func:`measured_response_table` combines the
paper's machine constants (plus the local calibration) with block counts
measured by the Figure 5.8 sweep.

Known erratum: the paper prints C2 = 6.013 s for the Sun 4/50, but its
own formula with its own constants (I = 0.283, N = 153.6, t1 = 30,
t3 = 3.70) gives 5.459 s; every other cell checks out.  We reproduce the
formula, not the typo (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.codec import BlockCodec
from repro.experiments.fig58 import (
    PAPER_AVG_CODED,
    PAPER_AVG_UNCODED,
    Fig58Result,
)
from repro.perf.costmodel import (
    PAPER_T1_MS,
    ResponseTimeRow,
    response_time_table,
)
from repro.perf.machines import PAPER_MACHINES, MachineProfile, calibrated_profile
from repro.relational.relation import Relation
from repro.storage.block import DEFAULT_BLOCK_SIZE
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.packer import pack_ordinals
from repro.workload.generator import generate_relation, paper_timing_spec

__all__ = [
    "PAPER_DATA_BLOCKS_UNCODED",
    "PAPER_DATA_BLOCKS_CODED",
    "CodecTimings",
    "measure_local_codec",
    "paper_response_table",
    "measured_response_table",
]

#: Section 5.3.1: data blocks of the uncoded and coded relation.
PAPER_DATA_BLOCKS_UNCODED = 189
PAPER_DATA_BLOCKS_CODED = 64


@dataclass(frozen=True)
class CodecTimings:
    """Locally measured per-block times (Figure 5.9 rows 1, 2, 4)."""

    profile: MachineProfile
    tuples_per_block: int
    block_bytes: int


def measure_local_codec(
    relation: Optional[Relation] = None,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    repeats: int = 100,
    num_tuples: int = 20_000,
    seed: int = 0,
) -> CodecTimings:
    """Measure block coding, decoding, and extraction on this host.

    Follows Section 5.2: the tuples of one representative block are held
    in memory, each operation runs ``repeats`` times, and the mean is
    reported.  The default relation is a scaled-down Section 5.2 relation
    (16 attributes, 38-byte tuples).
    """
    if relation is None:
        relation = generate_relation(paper_timing_spec(num_tuples, seed=seed))
    codec = BlockCodec(relation.schema.domain_sizes)
    partition = pack_ordinals(codec, relation.phi_ordinals(), block_size)
    # The middle block is representative; edge blocks may be underfull.
    run = partition.blocks[len(partition.blocks) // 2]
    tuples = codec.mapper.phi_inverse_many(run)
    encoded = codec.encode_block(tuples)

    heap_disk = SimulatedDisk(block_size=block_size)
    heap = HeapFile(relation.schema, heap_disk)
    heap_tuples = tuples[: heap.tuples_per_block]
    heap_payload = len(heap_tuples).to_bytes(2, "big") + b"".join(
        heap._layout.tuple_to_bytes(t) for t in heap_tuples
    )

    profile = calibrated_profile(
        lambda: codec.encode_block(tuples),
        lambda: codec.decode_block(encoded),
        lambda: heap.extract(heap_payload),
        name="local-python",
        repeats=repeats,
    )
    return CodecTimings(
        profile=profile,
        tuples_per_block=len(tuples),
        block_bytes=len(encoded),
    )


def paper_response_table() -> List[ResponseTimeRow]:
    """Figure 5.9 rows 5-11 regenerated from the paper's own constants.

    Matches the printed table to its rounding everywhere except the Sun
    C2 cell (the paper's internal inconsistency noted in the module
    docstring).
    """
    return response_time_table(
        PAPER_MACHINES,
        data_blocks_uncoded=PAPER_DATA_BLOCKS_UNCODED,
        data_blocks_coded=PAPER_DATA_BLOCKS_CODED,
        blocks_accessed_uncoded=PAPER_AVG_UNCODED,
        blocks_accessed_coded=PAPER_AVG_CODED,
        t1_ms=PAPER_T1_MS,
    )


def measured_response_table(
    fig58: Fig58Result,
    *,
    local: Optional[MachineProfile] = None,
    t1_ms: float = PAPER_T1_MS,
) -> List[ResponseTimeRow]:
    """The Figure 5.9 table over *measured* block counts.

    Uses the Figure 5.8 sweep's averages for N and file sizes for the
    index estimate; machines are the paper's three plus (optionally) the
    local calibration.
    """
    machines = list(PAPER_MACHINES)
    if local is not None:
        machines.append(local)
    return response_time_table(
        machines,
        data_blocks_uncoded=fig58.total_blocks_uncoded,
        data_blocks_coded=fig58.total_blocks_coded,
        blocks_accessed_uncoded=fig58.avg_uncoded,
        blocks_accessed_coded=fig58.avg_coded,
        t1_ms=t1_ms,
    )
