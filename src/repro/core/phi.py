"""The mixed-radix ordinal mapping ``phi`` (Equations 2.2 through 2.5).

``phi`` maps an n-dimensional tuple drawn from attribute domains of sizes
``|A_1| .. |A_n|`` to its ordinal position in the lexicographic enumeration
of the full cross-product space.  It is the heart of AVQ: tuples are sorted,
differenced, and reconstructed entirely in this one-dimensional ordinal
space, and Theorem 2.1's lossless guarantee rests on ``phi`` being a
bijection.

Two implementations are provided:

* :class:`OrdinalMapper` — exact arbitrary-precision Python integers;
  always correct, used whenever the space size ``||R||`` may exceed 2**63.
* its array methods (:meth:`OrdinalMapper.phi_array`,
  :meth:`~OrdinalMapper.phi_inverse_array`, :meth:`~OrdinalMapper.digits`)
  — the one batch phi, over int64 arrays, for spaces that fit
  comfortably in ``int64``.  The codec, the block filter, the container
  reader and relation loading all use them; :func:`phi_array` and
  :func:`phi_inverse_array` are the same over bare domain sizes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import DomainError, SchemaError

__all__ = ["OrdinalMapper", "phi_array", "phi_inverse_array"]

# Leave two bits of headroom below 2**63 so intermediate products in the
# vectorised path cannot overflow signed 64-bit arithmetic.
_INT64_SAFE_SPACE = 1 << 61


def _validate_sizes(domain_sizes: Sequence[int]) -> Tuple[int, ...]:
    sizes = tuple(int(s) for s in domain_sizes)
    if not sizes:
        raise SchemaError("phi requires at least one attribute domain")
    for i, s in enumerate(sizes):
        if s < 1:
            raise SchemaError(f"domain {i} has non-positive size {s}")
    return sizes


class OrdinalMapper:
    """Bijection between tuples and ordinals for a fixed list of domains.

    Parameters
    ----------
    domain_sizes:
        ``|A_1| .. |A_n|`` — the size of each attribute domain, most
        significant attribute first (the paper's Equation 2.2 weights
        attribute ``i`` by the product of the sizes of all later domains).

    Examples
    --------
    >>> m = OrdinalMapper([8, 16, 64, 64, 64])
    >>> m.phi((3, 8, 36, 39, 35))
    14830051
    >>> m.phi_inverse(14830051)
    (3, 8, 36, 39, 35)
    """

    __slots__ = ("_sizes", "_weights", "_space_size", "_operands")

    def __init__(self, domain_sizes: Sequence[int]) -> None:
        self._sizes = _validate_sizes(domain_sizes)
        # weights[i] = prod_{j > i} |A_j|  (weight of the last attribute is 1)
        weights: List[int] = [1] * len(self._sizes)
        for i in range(len(self._sizes) - 2, -1, -1):
            weights[i] = weights[i + 1] * self._sizes[i + 1]
        self._weights = tuple(weights)
        self._space_size = self._weights[0] * self._sizes[0]
        # The array methods' int64 weights and sizes, built once.
        self._operands: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if self.fits_int64:
            self._operands = (
                np.asarray(self._weights, dtype=np.int64),
                np.asarray(self._sizes, dtype=np.int64),
            )

    @property
    def domain_sizes(self) -> Tuple[int, ...]:
        """The domain sizes this mapper was built for."""
        return self._sizes

    @property
    def weights(self) -> Tuple[int, ...]:
        """Mixed-radix weights: ``weights[i] = prod_{j>i} |A_j|``."""
        return self._weights

    @property
    def arity(self) -> int:
        """Number of attributes ``n``."""
        return len(self._sizes)

    @property
    def space_size(self) -> int:
        """``||R|| = prod |A_i|`` — the size of the full tuple space."""
        return self._space_size

    @property
    def fits_int64(self) -> bool:
        """Whether the whole ordinal space fits safely in numpy int64."""
        return self._space_size <= _INT64_SAFE_SPACE

    def validate(self, values: Sequence[int]) -> None:
        """Raise :class:`~repro.errors.DomainError` unless ``values`` is in-domain."""
        if len(values) != len(self._sizes):
            raise DomainError(
                f"tuple has {len(values)} attributes, schema has {len(self._sizes)}"
            )
        for i, (v, s) in enumerate(zip(values, self._sizes)):
            if not 0 <= v < s:
                raise DomainError(
                    f"attribute {i} value {v} outside domain [0, {s})"
                )

    def phi(self, values: Sequence[int]) -> int:
        """Equation 2.2: map a tuple to its ordinal position.

        The tuple is validated against the domain sizes; out-of-domain
        values raise :class:`~repro.errors.DomainError` (a silent overflow
        here would break the bijection and hence losslessness).
        """
        self.validate(values)
        total = 0
        for v, w in zip(values, self._weights):
            total += v * w
        return total

    def phi_unchecked(self, values: Sequence[int]) -> int:
        """Equation 2.2 without domain validation (hot paths, pre-validated data)."""
        total = 0
        for v, w in zip(values, self._weights):
            total += v * w
        return total

    def phi_inverse(self, ordinal: int) -> Tuple[int, ...]:
        """Equations 2.3 through 2.5: map an ordinal back to its tuple."""
        if not 0 <= ordinal < self._space_size:
            raise DomainError(
                f"ordinal {ordinal} outside space [0, {self._space_size})"
            )
        out: List[int] = []
        remainder = ordinal
        for w in self._weights:
            q, remainder = divmod(remainder, w)
            out.append(q)
        return tuple(out)

    def phi_many(self, rows: Iterable[Sequence[int]]) -> List[int]:
        """Apply :meth:`phi` to every row, returning a list of ordinals."""
        return [self.phi(row) for row in rows]

    def phi_array(self, rows: np.ndarray) -> np.ndarray:
        """Equation 2.2 over a ``(u, n)`` integer array, validated.

        Returns a ``(u,)`` int64 array.  Raises
        :class:`~repro.errors.DomainError` on a shape mismatch, an
        out-of-domain value, or a space that does not fit int64.
        """
        weights, sizes = self._int64_operands()
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.arity:
            raise DomainError(
                f"expected shape (num_rows, {self.arity}), got {rows.shape}"
            )
        if rows.size and ((rows < 0).any() or (rows >= sizes).any()):
            raise DomainError("array contains out-of-domain attribute values")
        return rows @ weights

    def phi_inverse_array(self, ordinals: np.ndarray) -> np.ndarray:
        """Equations 2.3 through 2.5 over a vector of ordinals.

        Returns a ``(u, n)`` int64 array of tuples; out-of-space
        ordinals raise :class:`~repro.errors.DomainError`.
        """
        self._int64_operands()
        ordinals = np.asarray(ordinals, dtype=np.int64)
        if ordinals.size and (
            ordinals.min() < 0 or ordinals.max() >= self._space_size
        ):
            raise DomainError("array contains out-of-space ordinals")
        out = np.empty((ordinals.shape[0], len(self._sizes)), dtype=np.int64)
        remainder = ordinals
        for i, w in enumerate(self._weights):
            out[:, i], remainder = np.divmod(remainder, w)
        return out

    def digits(self, ordinals: np.ndarray, position: int) -> np.ndarray:
        """Attribute ``position`` of each ordinal, without the full inverse.

        The mixed-radix digit ``(o // weights[position]) %
        domain_sizes[position]`` — column ``position`` of
        :meth:`phi_inverse_array`, so a predicate on one attribute is a
        vector test before any tuple is built.
        """
        weights, sizes = self._int64_operands()
        return (ordinals // weights[position]) % sizes[position]

    def phi_inverse_many(
        self, ordinals: Union[Sequence[int], np.ndarray]
    ) -> List[Tuple[int, ...]]:
        """:meth:`phi_inverse` of every ordinal, in one numpy pass when
        the space fits int64."""
        if not self.fits_int64:
            return [self.phi_inverse(o) for o in ordinals]
        rows = self.phi_inverse_array(np.asarray(ordinals, dtype=np.int64))
        return list(map(tuple, rows.tolist()))

    def _int64_operands(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._operands is None:
            raise DomainError(
                "ordinal space exceeds int64; use the exact scalar methods"
            )
        return self._operands

    def sort_key(self, values: Sequence[int]) -> int:
        """Ordering rule from Section 2.2: ``t_i < t_j  iff  phi(t_i) < phi(t_j)``.

        Because ``phi`` is the mixed-radix value with the first attribute
        most significant, this order coincides with plain lexicographic
        order on the encoded tuples.
        """
        return self.phi(values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrdinalMapper(domain_sizes={list(self._sizes)})"


def phi_array(rows: np.ndarray, domain_sizes: Sequence[int]) -> np.ndarray:
    """:meth:`OrdinalMapper.phi_array` for bare domain sizes."""
    return OrdinalMapper(domain_sizes).phi_array(rows)


def phi_inverse_array(ordinals: np.ndarray, domain_sizes: Sequence[int]) -> np.ndarray:
    """:meth:`OrdinalMapper.phi_inverse_array` for bare domain sizes."""
    return OrdinalMapper(domain_sizes).phi_inverse_array(ordinals)
