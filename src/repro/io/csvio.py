"""CSV loading and writing for the command-line tools.

Values are type-inferred column-wise: a column whose every value parses
as an integer becomes integers; everything else stays strings.  This is
the entry path a user takes before the Section 3.1 domain mapping.
Integer typing is exactly Python's ``int()`` on the field text, on
every path: signs, surrounding spaces, ``_`` separators and non-ASCII
digits parse as ``int()`` parses them.

:func:`read_csv_relation` runs that path a column at a time.  It types
every field of the file in one ``int()`` pass straight into an int64
array and hands the columns to
:meth:`~repro.relational.encoding.SchemaInferencer.encode_columns`, so
no Python tuple is built per row.  A file holding any field that is not
an integer, or an integer beyond int64, is typed column by column as in
:func:`read_csv_rows`.
"""

from __future__ import annotations

import csv
from itertools import chain
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import EncodingError
from repro.relational.encoding import SchemaInferencer
from repro.relational.relation import Relation

#: One typed CSV row: integer columns decoded, everything else verbatim.
Row = Tuple[Union[int, str], ...]

__all__ = ["Row", "read_csv_relation", "read_csv_rows", "write_csv_rows"]


def _read_fields(
    path: str, has_header: bool
) -> Tuple[List[str], List[Tuple[str, ...]]]:
    """Tokenize a CSV into (column names, untyped records).

    Blank lines are skipped; ragged records are rejected (a silent
    short row would shift attribute values across columns).  Records
    are kept as tuples: the garbage collector stops tracking a tuple of
    strings, while a list of them would be traversed by every
    collection the read triggers.
    """
    with open(path, newline="", encoding="utf-8") as f:
        records = list(map(tuple, filter(None, csv.reader(f))))
    if not records:
        raise EncodingError(f"{path}: no rows")
    if has_header:
        names = list(records[0])
        records = records[1:]
        if not records:
            raise EncodingError(f"{path}: header only, no data rows")
    else:
        names = [f"A{i + 1}" for i in range(len(records[0]))]
    arity = len(names)
    if set(map(len, records)) != {arity}:
        i, bad = next(
            (i, len(r)) for i, r in enumerate(records) if len(r) != arity
        )
        raise EncodingError(
            f"{path}: row {i + 1} has {bad} fields, expected {arity}"
        )
    return names, records


def _typed_column(values: Sequence[str]) -> List[Union[int, str]]:
    """The column as ints when every value parses with ``int()``, else as-is."""
    try:
        return [int(v) for v in values]
    except ValueError:
        return list(values)


def read_csv_rows(
    path: str, *, has_header: bool = True
) -> Tuple[List[str], List[Row]]:
    """Load a CSV as (column names, typed rows).

    Integer columns are detected and converted; ragged rows are rejected
    (a silent short row would shift attribute values across columns).
    """
    names, records = _read_fields(path, has_header)
    columns = [_typed_column(c) for c in zip(*records)]
    return names, list(zip(*columns))


def read_csv_relation(
    path: str,
    *,
    has_header: bool = True,
    inferencer: Optional[SchemaInferencer] = None,
) -> Relation:
    """Load a CSV straight into an encoded relation (Section 3.1).

    The same names, domains and ordinal tuples as :func:`read_csv_rows`
    followed by ``inferencer.infer`` and
    :meth:`~repro.relational.relation.Relation.from_values`, and the same
    errors, built column-wise.
    """
    names, records = _read_fields(path, has_header)
    inferencer = inferencer or SchemaInferencer()
    try:
        fields = np.fromiter(
            map(int, chain.from_iterable(records)),
            dtype=np.int64,
            count=len(records) * len(names),
        )
    except (ValueError, OverflowError):
        return inferencer.encode_columns(
            [_typed_column(c) for c in zip(*records)], names
        )
    # The field text is by far the largest thing held: free it before
    # the columns are mapped, or it sets the process's peak memory.
    del records
    return inferencer.encode_columns(
        list(fields.reshape(-1, len(names)).T), names
    )


def write_csv_rows(
    path: str, names: Sequence[str], rows: Sequence[Sequence[object]]
) -> None:
    """Write rows (with a header) to ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(list(names))
        for row in rows:
            writer.writerow(list(row))
