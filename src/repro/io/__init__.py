"""Persistence: the on-disk AVQ container format and CSV tooling.

The experiments use the simulated disk; this package is the practical
path — compress a relation into a real ``.avq`` file, read it back block
by block, move data in and out of CSV, and keep containers honest with
offline scrub/fsck tooling (:mod:`repro.io.scrub`, docs/INTEGRITY.md).
"""

from repro.io.csvio import read_csv_relation, read_csv_rows, write_csv_rows
from repro.io.format import AVQFileReader, read_avq_file, write_avq_file
from repro.io.schema_json import schema_from_dict, schema_to_dict
from repro.io.scrub import (
    ContainerFinding,
    ContainerReport,
    backfill_checksums,
    fsck_container,
    scrub_container,
)

__all__ = [
    "write_avq_file",
    "read_avq_file",
    "AVQFileReader",
    "read_csv_relation",
    "read_csv_rows",
    "write_csv_rows",
    "schema_to_dict",
    "schema_from_dict",
    "ContainerFinding",
    "ContainerReport",
    "backfill_checksums",
    "fsck_container",
    "scrub_container",
]
