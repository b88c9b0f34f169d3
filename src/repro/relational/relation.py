"""In-memory relations: ordered bags of ordinal tuples over a schema.

A :class:`Relation` holds tuples *after* the Section 3.1 domain mapping —
all attributes are ordinals.  It is the unit handed to the storage layer
for block partitioning, and the thing the workload generator produces.

When every attribute's ordinals fit int64
(:attr:`~repro.relational.schema.Schema.ordinals_fit_int64`) the tuples
live in one ``(rows, arity)`` int64 array, so CSV ingest, phi and
container read-back move whole columns instead of one Python tuple per
row.  Relations over wider domains keep a list of Python-int tuples.
Both forms answer every method identically.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DomainError, SchemaError
from repro.relational.schema import Schema

__all__ = ["Relation"]


class Relation:
    """A bag of ordinal tuples with their schema.

    Tuples are stored in insertion order; :meth:`sorted_by_phi` returns the
    Section 3.2 re-ordering that AVQ block coding requires.
    """

    def __init__(self, schema: Schema, tuples: Iterable[Sequence[int]] = ()):
        self._schema = schema
        checked = [self._checked(t) for t in tuples]
        # Array form: the first ``_count`` rows of ``_rows`` are the
        # tuples; the rest is room for appends.  List form: ``_tuples``.
        self._rows: Optional[np.ndarray] = None
        self._count = 0
        self._tuples: List[Tuple[int, ...]] = []
        if schema.ordinals_fit_int64:
            self._rows = np.array(checked, dtype=np.int64).reshape(
                len(checked), schema.arity
            )
            self._count = len(checked)
        else:
            self._tuples = checked

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_values(cls, schema: Schema, rows: Iterable[Sequence]) -> "Relation":
        """Build a relation by domain-mapping raw application rows."""
        return cls(schema, (schema.encode_tuple(r) for r in rows))

    @classmethod
    def from_array(cls, schema: Schema, array: np.ndarray) -> "Relation":
        """Build a relation from a ``(rows, arity)`` integer ordinal array.

        The array is copied, so later writes to it do not reach the
        relation, and validated once, column by column.  A shape that
        does not match the schema, a non-integer dtype (a float would be
        truncated, breaking losslessness) or an out-of-domain ordinal
        raises :class:`~repro.errors.SchemaError`.
        """
        array = np.asarray(array)
        if array.ndim != 2 or array.shape[1] != schema.arity:
            raise SchemaError(
                f"array shape {array.shape} does not match arity {schema.arity}"
            )
        if array.dtype.kind not in "iu":
            raise SchemaError(
                f"array dtype {array.dtype} is not an integer type"
            )
        if len(array):
            lows = array.min(axis=0).tolist()
            highs = array.max(axis=0).tolist()
            if min(lows) < 0 or any(
                hi >= size for hi, size in zip(highs, schema.domain_sizes)
            ):
                raise SchemaError("array contains out-of-domain ordinals")
        rel = cls(schema)
        if rel._rows is not None:
            rel._rows = array.astype(np.int64)
            rel._count = len(array)
        else:
            rel._tuples = [tuple(row) for row in array.tolist()]
        return rel

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The relation's schema."""
        return self._schema

    def _checked(self, values: Sequence[int]) -> Tuple[int, ...]:
        """``values`` as a validated ordinal tuple.

        ``operator.index`` accepts Python and numpy integers and rejects
        floats, which ``int()`` would silently truncate.
        """
        try:
            t = tuple(map(operator.index, values))
        except TypeError as exc:
            raise DomainError(f"{values!r} is not a tuple of integers") from exc
        self._schema.mapper.validate(t)
        return t

    def append(self, values: Sequence[int]) -> None:
        """Add one ordinal tuple (validated against the schema)."""
        t = self._checked(values)
        if self._rows is None:
            self._tuples.append(t)
            return
        n = self._count
        if n == len(self._rows):
            grown = np.empty((max(2 * n, 16), self._schema.arity), dtype=np.int64)
            grown[:n] = self._rows[:n]
            self._rows = grown
        self._rows[n] = t
        self._count = n + 1

    def __len__(self) -> int:
        return self._count if self._rows is not None else len(self._tuples)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        if self._rows is not None:
            return map(tuple, self.to_array().tolist())
        return iter(self._tuples)

    def __getitem__(self, i: int) -> Tuple[int, ...]:
        if self._rows is not None:
            return tuple(self.to_array()[operator.index(i)].tolist())
        return self._tuples[i]

    def __contains__(self, t) -> bool:
        return tuple(t) in set(self)

    def __repr__(self) -> str:
        return f"Relation({self._schema!r}, {len(self)} tuples)"

    # ------------------------------------------------------------------
    # AVQ preprocessing views
    # ------------------------------------------------------------------

    def sorted_by_phi(self) -> List[Tuple[int, ...]]:
        """Section 3.2 tuple re-ordering: tuples ascending by phi ordinal.

        phi order coincides with plain lexicographic tuple order (the
        first attribute carries the largest weight), so a lexicographic
        sort — ``np.lexsort`` on the array, Python's tuple sort on the
        list — is both correct and fast.
        """
        if self._rows is not None:
            rows = self.to_array()
            return list(map(tuple, rows[np.lexsort(rows.T[::-1])].tolist()))
        return sorted(self._tuples)

    def phi_ordinals(self) -> List[int]:
        """Sorted phi ordinals of all tuples.

        Uses the vectorised phi when the ordinal space fits int64 (the
        tuples are pre-validated, so the array path is exact); falls back
        to arbitrary-precision Python integers otherwise, unchecked for
        the same reason.
        """
        mapper = self._schema.mapper
        if mapper.fits_int64:
            from repro.core.phi import phi_array

            ordinals = phi_array(self.to_array(), mapper.domain_sizes)
            ordinals.sort()
            out: List[int] = ordinals.tolist()
            return out
        return sorted(mapper.phi_unchecked(t) for t in self)

    def to_array(self) -> np.ndarray:
        """The tuples as a ``(rows, arity)`` int64 numpy array.

        For an array-backed relation this is a read-only view of the
        relation's own storage, not a copy.
        """
        if self._rows is not None:
            view = self._rows[: self._count]
            view.flags.writeable = False
            return view
        if not self._tuples:
            return np.empty((0, self._schema.arity), dtype=np.int64)
        return np.asarray(self._tuples, dtype=np.int64)

    def decoded_rows(self) -> List[Tuple]:
        """All tuples mapped back to application values."""
        return [self._schema.decode_tuple(t) for t in self]

    # ------------------------------------------------------------------
    # Size accounting (used by the evaluation)
    # ------------------------------------------------------------------

    def uncompressed_bytes(self) -> int:
        """Fixed-width storage size: tuples times the per-tuple byte width.

        This is the "size of the database before coding" denominator of
        Figure 5.7's compression formula.
        """
        from repro.core.runlength import TupleLayout

        return len(self) * TupleLayout(self._schema.domain_sizes).tuple_bytes
