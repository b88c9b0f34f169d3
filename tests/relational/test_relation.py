"""Unit tests for in-memory relations."""

import numpy as np
import pytest

from repro.errors import DomainError, SchemaError
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema


@pytest.fixture
def schema():
    return Schema(
        [
            Attribute("a", IntegerRangeDomain(0, 7)),
            Attribute("b", IntegerRangeDomain(0, 15)),
        ]
    )


class TestRelationBasics:
    def test_append_and_iterate(self, schema):
        rel = Relation(schema)
        rel.append((1, 2))
        rel.append((3, 4))
        assert len(rel) == 2
        assert list(rel) == [(1, 2), (3, 4)]
        assert rel[1] == (3, 4)

    def test_append_validates_domains(self, schema):
        rel = Relation(schema)
        with pytest.raises(DomainError):
            rel.append((8, 0))

    def test_contains(self, schema):
        rel = Relation(schema, [(1, 2)])
        assert (1, 2) in rel
        assert (2, 1) not in rel

    def test_duplicates_allowed(self, schema):
        rel = Relation(schema, [(1, 2), (1, 2)])
        assert len(rel) == 2


class TestConstruction:
    def test_from_values_applies_domain_mapping(self):
        schema = Schema([Attribute("age", IntegerRangeDomain(18, 65))])
        rel = Relation.from_values(schema, [[30], [18]])
        assert list(rel) == [(12,), (0,)]
        assert rel.decoded_rows() == [(30,), (18,)]

    def test_from_array(self, schema):
        arr = np.array([[1, 2], [3, 4]])
        rel = Relation.from_array(schema, arr)
        assert list(rel) == [(1, 2), (3, 4)]

    def test_from_array_validates(self, schema):
        with pytest.raises(SchemaError):
            Relation.from_array(schema, np.array([[9, 0]]))
        with pytest.raises(SchemaError):
            Relation.from_array(schema, np.array([[1, 2, 3]]))

    def test_to_array_round_trip(self, schema):
        rel = Relation(schema, [(1, 2), (3, 4)])
        back = Relation.from_array(schema, rel.to_array())
        assert list(back) == list(rel)

    def test_to_array_empty(self, schema):
        assert Relation(schema).to_array().shape == (0, 2)


class TestOrdering:
    def test_sorted_by_phi(self, schema):
        rel = Relation(schema, [(3, 0), (0, 5), (3, 1), (0, 0)])
        assert rel.sorted_by_phi() == [(0, 0), (0, 5), (3, 0), (3, 1)]

    def test_phi_ordinals_sorted(self, schema):
        rel = Relation(schema, [(1, 0), (0, 1)])
        assert rel.phi_ordinals() == [1, 16]

    def test_uncompressed_bytes(self, schema):
        # both domains fit one byte -> 2 bytes per tuple
        rel = Relation(schema, [(0, 0)] * 10)
        assert rel.uncompressed_bytes() == 20


class TestIntegerOrdinalsOnly:
    """Ordinals must be integers: a float is rejected, never truncated."""

    def test_from_array_rejects_float_dtype(self, schema):
        with pytest.raises(SchemaError):
            Relation.from_array(schema, np.array([[1.7, 2.9], [3.2, 0.5]]))

    def test_from_array_rejects_integral_floats_too(self, schema):
        # The dtype decides, not the values: 1.0 is still not an ordinal.
        with pytest.raises(SchemaError):
            Relation.from_array(schema, np.array([[1.0, 2.0]]))

    def test_append_rejects_floats(self, schema):
        rel = Relation(schema)
        with pytest.raises(DomainError):
            rel.append((1.7, 2))
        with pytest.raises(DomainError):
            rel.append((1, np.float64(2.0)))
        with pytest.raises(DomainError):
            Relation(schema, [(1.5, 2)])
        assert len(rel) == 0

    def test_numpy_and_python_ints_accepted(self, schema):
        rel = Relation(schema, [(np.int64(1), np.uint8(2))])
        rel.append((np.int32(3), 4))
        rel.append([5, np.int16(6)])
        assert list(rel) == [(1, 2), (3, 4), (5, 6)]
        assert all(type(v) is int for t in rel for v in t)
        unsigned = Relation.from_array(schema, np.array([[7, 15]], dtype=np.uint16))
        assert list(unsigned) == [(7, 15)]


TUPLE_SETS = [
    [],
    [(3, 0)],
    [(3, 0), (0, 5), (3, 1), (0, 0), (0, 5), (7, 15)],
    [(i % 8, (i * 7) % 16) for i in range(50)],
]


class TestArrayParity:
    """``from_array`` and the tuple constructor answer every method alike,
    and both answer as a plain list of the tuples would."""

    @pytest.mark.parametrize("tuples", TUPLE_SETS, ids=len)
    def test_every_public_method_agrees(self, schema, tuples):
        by_tuples = Relation(schema, tuples)
        by_array = Relation.from_array(
            schema, np.array(tuples, dtype=np.int64).reshape(len(tuples), 2)
        )
        mapper = schema.mapper
        want = list(tuples)
        for rel in (by_tuples, by_array):
            assert len(rel) == len(want)
            assert list(rel) == want
            for i in range(-len(want), len(want)):
                assert rel[i] == want[i]
            for i in (len(want), -len(want) - 1):
                with pytest.raises(IndexError):
                    rel[i]
            for t in want[:3] + [(7, 0), (1, 1)]:
                assert (t in rel) == (t in want)
            assert rel.sorted_by_phi() == sorted(want)
            assert rel.phi_ordinals() == sorted(mapper.phi(t) for t in want)
            assert rel.to_array().dtype == np.int64
            assert rel.to_array().tolist() == [list(t) for t in want]
            assert rel.decoded_rows() == [schema.decode_tuple(t) for t in want]
            assert rel.uncompressed_bytes() == 2 * len(want)
            assert all(type(v) is int for t in rel for v in t)

    @pytest.mark.parametrize("tuples", TUPLE_SETS, ids=len)
    def test_append_after_from_array(self, schema, tuples):
        by_tuples = Relation(schema, tuples)
        by_array = Relation.from_array(
            schema, np.array(tuples, dtype=np.int64).reshape(len(tuples), 2)
        )
        extra = [(i % 8, i % 16) for i in range(40)]  # past any capacity
        for t in extra:
            by_tuples.append(t)
            by_array.append(t)
        assert list(by_array) == list(by_tuples) == list(tuples) + extra
        assert by_array.phi_ordinals() == by_tuples.phi_ordinals()

    def test_array_taken_before_append_is_unchanged(self, schema):
        rel = Relation(schema, [(1, 2)])
        before = rel.to_array()
        for _ in range(40):
            rel.append((7, 15))
        assert before.tolist() == [[1, 2]]

    def test_from_array_copies_its_input(self, schema):
        source = np.array([[1, 2], [3, 4]])
        rel = Relation.from_array(schema, source)
        source[0, 0] = 5
        source[:] = 0
        assert list(rel) == [(1, 2), (3, 4)]

    @pytest.mark.parametrize("build", ["tuples", "array"])
    def test_to_array_is_read_only(self, schema, build):
        tuples = [(1, 2), (3, 4)]
        rel = (Relation(schema, tuples) if build == "tuples"
               else Relation.from_array(schema, np.array(tuples)))
        with pytest.raises(ValueError):
            rel.to_array()[0, 0] = 5
        assert list(rel) == tuples

    def test_out_of_domain_array_rejected(self, schema):
        with pytest.raises(SchemaError):
            Relation.from_array(schema, np.array([[0, -1]]))
        with pytest.raises(SchemaError):
            Relation.from_array(schema, np.array([[0, 16]], dtype=np.uint64))


class TestWideDomains:
    """A domain wider than int64 keeps Python-int tuples and round-trips."""

    @pytest.fixture
    def wide(self):
        return Schema(
            [
                Attribute("big", IntegerRangeDomain(0, (1 << 70) - 1)),
                Attribute("b", IntegerRangeDomain(0, 15)),
            ]
        )

    def test_round_trip(self, wide, tmp_path):
        from repro.io.format import read_avq_file, write_avq_file

        assert not wide.ordinals_fit_int64
        tuples = [((1 << 69) + 5, 3), (2, 15), ((1 << 70) - 1, 0), (2, 1)]
        rel = Relation(wide, tuples)
        assert list(rel) == tuples
        assert rel[-1] == (2, 1)
        assert ((1 << 69) + 5, 3) in rel
        assert rel.sorted_by_phi() == sorted(tuples)
        assert rel.phi_ordinals() == sorted(wide.mapper.phi(t) for t in tuples)
        assert rel.decoded_rows() == tuples
        with pytest.raises(DomainError):
            rel.append((2.5, 1))
        rel.append((np.int64(9), np.uint8(9)))
        path = str(tmp_path / "wide.avq")
        write_avq_file(path, rel, block_size=256)
        back = read_avq_file(path)
        assert list(back) == rel.sorted_by_phi()
        from_array = Relation.from_array(wide, np.array([[2, 1], [9, 9]]))
        assert list(from_array) == [(2, 1), (9, 9)]

    def test_schema_property(self, schema, wide):
        assert schema.ordinals_fit_int64
        edge = Schema([Attribute("e", IntegerRangeDomain(0, (1 << 63) - 1))])
        assert edge.ordinals_fit_int64
        rel = Relation(edge, [((1 << 63) - 1,)])
        assert rel.to_array().tolist() == [[(1 << 63) - 1]]
