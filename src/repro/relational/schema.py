"""Relation schemas: named attributes over finite domains (Section 2.2).

A :class:`Schema` is the paper's relation scheme
``R = <<A_1, ..., A_n>>``: an ordered list of attributes, each with a
finite domain.  It owns the :class:`~repro.core.phi.OrdinalMapper` for the
corresponding mixed-radix space and the encode/decode path between
application values and ordinal tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.phi import OrdinalMapper
from repro.errors import SchemaError
from repro.relational.domain import Domain

__all__ = ["Attribute", "Schema"]

#: A domain of at most this many values has every ordinal in int64.
_INT64_ORDINALS = 1 << 63


@dataclass(frozen=True)
class Attribute:
    """A named column with its domain."""

    name: str
    domain: Domain

    def __post_init__(self):
        if not self.name:
            raise SchemaError("attribute name must be non-empty")


class Schema:
    """An ordered list of attributes; the phi radix of the relation.

    Attribute order matters twice: it fixes the tuple layout, and — because
    ``phi`` weights earlier attributes more heavily — it decides the
    physical clustering of the coded relation (the paper sorts the whole
    relation by ``phi``).

    Examples
    --------
    >>> from repro.relational.domain import IntegerRangeDomain
    >>> s = Schema([Attribute("a", IntegerRangeDomain(0, 7)),
    ...             Attribute("b", IntegerRangeDomain(0, 15))])
    >>> s.domain_sizes
    (8, 16)
    >>> s.encode_tuple([3, 10])
    (3, 10)
    """

    def __init__(self, attributes: Sequence[Attribute]):
        if not attributes:
            raise SchemaError("schema needs at least one attribute")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in {names}")
        self._attributes: Tuple[Attribute, ...] = tuple(attributes)
        self._by_name: Dict[str, int] = {a.name: i for i, a in enumerate(attributes)}
        self._mapper = OrdinalMapper([a.domain.size for a in attributes])
        self._ordinals_fit_int64 = all(
            a.domain.size <= _INT64_ORDINALS for a in attributes
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        """The attributes in layout order."""
        return self._attributes

    @property
    def names(self) -> List[str]:
        """Attribute names in layout order."""
        return [a.name for a in self._attributes]

    @property
    def arity(self) -> int:
        """Number of attributes ``n``."""
        return len(self._attributes)

    @property
    def domain_sizes(self) -> Tuple[int, ...]:
        """``(|A_1|, ..., |A_n|)``."""
        return self._mapper.domain_sizes

    @property
    def mapper(self) -> OrdinalMapper:
        """The phi bijection over this schema's tuple space."""
        return self._mapper

    @property
    def ordinals_fit_int64(self) -> bool:
        """Whether every attribute's ordinals fit int64 (each ``|A_i| <= 2**63``).

        A :class:`~repro.relational.relation.Relation` over such a schema
        holds its tuples as one int64 array.  This is a per-attribute
        bound: the phi space as a whole may still exceed 64 bits.
        """
        return self._ordinals_fit_int64

    @property
    def space_size(self) -> int:
        """``||R||`` — the size of the full tuple space."""
        return self._mapper.space_size

    def position(self, name: str) -> int:
        """Index of attribute ``name`` in the layout."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"no attribute {name!r}; schema has {self.names}"
            )

    def attribute(self, name: str) -> Attribute:
        """Look an attribute up by name."""
        return self._attributes[self.position(name)]

    def __len__(self) -> int:
        return len(self._attributes)

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{a.name}:{a.domain.size}" for a in self._attributes
        )
        return f"Schema({cols})"

    # ------------------------------------------------------------------
    # Encode / decode (Section 3.1 domain mapping, applied tuple-wide)
    # ------------------------------------------------------------------

    def encode_tuple(self, values: Sequence) -> Tuple[int, ...]:
        """Map application values to an ordinal tuple."""
        if len(values) != self.arity:
            raise SchemaError(
                f"tuple has {len(values)} values, schema expects {self.arity}"
            )
        return tuple(
            a.domain.encode(v) for a, v in zip(self._attributes, values)
        )

    def decode_tuple(self, ordinals: Sequence[int]) -> Tuple:
        """Map an ordinal tuple back to application values."""
        if len(ordinals) != self.arity:
            raise SchemaError(
                f"tuple has {len(ordinals)} ordinals, schema expects {self.arity}"
            )
        return tuple(
            a.domain.decode(o) for a, o in zip(self._attributes, ordinals)
        )

    def phi(self, ordinals: Sequence[int]) -> int:
        """Shorthand for ``schema.mapper.phi``."""
        return self._mapper.phi(ordinals)

    def reordered(self, order: Sequence[str]) -> "Schema":
        """A new schema with attributes permuted into ``order``.

        Used by the attribute-ordering ablation: phi clustering depends on
        which attribute comes first.
        """
        if sorted(order) != sorted(self.names):
            raise SchemaError(
                f"reorder list {list(order)} is not a permutation of {self.names}"
            )
        return Schema([self.attribute(n) for n in order])
