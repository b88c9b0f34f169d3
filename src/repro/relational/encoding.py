"""Schema inference and whole-relation attribute encoding (Section 3.1).

The paper's first preprocessing step replaces every attribute value with a
number.  :class:`SchemaInferencer` automates the common case: given raw
rows, it inspects each column and builds

* an :class:`~repro.relational.domain.IntegerRangeDomain` for integer
  columns (spanning the observed range, optionally padded),
* a :class:`~repro.relational.domain.CategoricalDomain` for low-cardinality
  non-integer columns,
* a :class:`~repro.relational.domain.StringDomain` for open-ended string
  columns (cardinality above ``categorical_threshold``).

The result is a :class:`~repro.relational.schema.Schema` plus the encoded
:class:`~repro.relational.relation.Relation` — the paper's Table (a) to
Table (b) transformation in Figure 2.2.

:meth:`SchemaInferencer.encode_columns` is the same mapping applied a
column at a time, as Section 3.1 defines it: an integer column held as
an int64 array gets its domain from the column's ``min``/``max`` and its
ordinals from one subtraction.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import EncodingError, SchemaError
from repro.relational.domain import (
    CategoricalDomain,
    Domain,
    IntegerRangeDomain,
    StringDomain,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema

__all__ = ["SchemaInferencer", "encode_relation"]


class SchemaInferencer:
    """Infer per-column domains from raw data rows.

    Parameters
    ----------
    categorical_threshold:
        String columns with at most this many distinct values become
        :class:`CategoricalDomain`; above it they become an open
        :class:`StringDomain` with headroom.
    string_headroom:
        Multiplier applied to the observed distinct-string count when
        sizing an open string table (so later inserts have room without
        changing the phi radix).
    integer_padding:
        Extra values added above the observed max of integer columns, for
        the same reason.
    """

    def __init__(
        self,
        *,
        categorical_threshold: int = 64,
        string_headroom: float = 2.0,
        integer_padding: int = 0,
    ):
        if categorical_threshold < 1:
            raise SchemaError("categorical_threshold must be >= 1")
        if string_headroom < 1.0:
            raise SchemaError("string_headroom must be >= 1.0")
        if integer_padding < 0:
            raise SchemaError("integer_padding must be >= 0")
        self._categorical_threshold = categorical_threshold
        self._string_headroom = string_headroom
        self._integer_padding = integer_padding

    def infer(
        self,
        rows: Sequence[Sequence],
        names: Optional[Sequence[str]] = None,
    ) -> Schema:
        """Build a schema whose domains cover every value in ``rows``."""
        if not rows:
            raise EncodingError("cannot infer a schema from zero rows")
        arity = len(rows[0])
        if arity == 0:
            raise EncodingError("rows must have at least one column")
        for i, r in enumerate(rows):
            if len(r) != arity:
                raise EncodingError(
                    f"row {i} has {len(r)} columns, expected {arity}"
                )
        if names is None:
            names = [f"A{i + 1}" for i in range(arity)]
        elif len(names) != arity:
            raise EncodingError(
                f"{len(names)} names given for {arity} columns"
            )
        attributes = [
            Attribute(name, self._infer_column([r[i] for r in rows]))
            for i, name in enumerate(names)
        ]
        return Schema(attributes)

    def encode_columns(
        self,
        columns: Sequence[Union[np.ndarray, Sequence]],
        names: Sequence[str],
    ) -> Relation:
        """Infer a schema from whole columns and domain-map every value.

        Each column is either an int64 array (an integer column) or a
        sequence of raw values.  The result equals ``infer`` over the
        rows followed by :meth:`Relation.from_values`, without building
        a tuple per row when the schema's ordinals fit int64.
        """
        if not columns or not len(columns[0]):
            raise EncodingError("cannot infer a schema from zero rows")
        domains = [self._infer_column(c) for c in columns]
        schema = Schema([Attribute(n, d) for n, d in zip(names, domains)])
        if not schema.ordinals_fit_int64:
            return Relation(
                schema,
                zip(*[[d.encode(v) for v in c] for c, d in zip(columns, domains)]),
            )
        array = np.empty((len(columns[0]), len(columns)), dtype=np.int64)
        for i, (column, domain) in enumerate(zip(columns, domains)):
            if isinstance(column, np.ndarray):
                array[:, i] = column - column.min()
            else:
                array[:, i] = [domain.encode(v) for v in column]
        return Relation.from_array(schema, array)

    def _infer_column(self, column: Union[np.ndarray, Sequence]) -> Domain:
        if isinstance(column, np.ndarray):
            return IntegerRangeDomain(
                int(column.min()), int(column.max()) + self._integer_padding
            )
        if all(isinstance(v, bool) for v in column):
            # bools are ints in Python; treat them as a 2-value category.
            return CategoricalDomain([False, True])
        if all(isinstance(v, int) for v in column):
            return IntegerRangeDomain(
                min(column), max(column) + self._integer_padding
            )
        if all(isinstance(v, str) for v in column):
            distinct = sorted(set(column))
            if len(distinct) <= self._categorical_threshold:
                return CategoricalDomain(distinct)
            capacity = int(len(distinct) * self._string_headroom)
            return StringDomain(capacity=capacity, values=distinct)
        raise EncodingError(
            "column mixes types or holds unsupported values; "
            "provide an explicit Domain for it"
        )


def encode_relation(
    rows: Sequence[Sequence],
    names: Optional[Sequence[str]] = None,
    *,
    inferencer: Optional[SchemaInferencer] = None,
) -> Relation:
    """One-call Section 3.1: infer a schema and domain-map all rows.

    >>> rel = encode_relation([("sales", 3), ("eng", 5)])
    >>> rel.schema.domain_sizes
    (2, 3)
    >>> list(rel)
    [(1, 0), (0, 2)]
    """
    inferencer = inferencer or SchemaInferencer()
    schema = inferencer.infer(rows, names)
    return Relation.from_values(schema, rows)
