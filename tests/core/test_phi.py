"""Unit tests for the phi ordinal mapping (Equations 2.2 through 2.5)."""

import numpy as np
import pytest

from repro.core.phi import OrdinalMapper, phi_array, phi_inverse_array
from repro.errors import DomainError, SchemaError

PAPER_DOMAINS = [8, 16, 64, 64, 64]


class TestOrdinalMapperConstruction:
    def test_weights_are_suffix_products(self):
        m = OrdinalMapper(PAPER_DOMAINS)
        assert m.weights == (16 * 64 * 64 * 64, 64 * 64 * 64, 64 * 64, 64, 1)

    def test_space_size_is_product_of_domains(self):
        m = OrdinalMapper(PAPER_DOMAINS)
        assert m.space_size == 8 * 16 * 64 * 64 * 64

    def test_arity(self):
        assert OrdinalMapper(PAPER_DOMAINS).arity == 5

    def test_single_attribute(self):
        m = OrdinalMapper([10])
        assert m.phi((7,)) == 7
        assert m.phi_inverse(7) == (7,)

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            OrdinalMapper([])

    def test_nonpositive_domain_rejected(self):
        with pytest.raises(SchemaError):
            OrdinalMapper([8, 0, 4])

    def test_size_one_domain_allowed(self):
        m = OrdinalMapper([1, 5])
        assert m.phi((0, 3)) == 3
        assert m.phi_inverse(3) == (0, 3)


class TestPhiPaperValues:
    """phi values printed in Figure 2.2 / Figure 3.3 of the paper."""

    @pytest.mark.parametrize(
        "tup,expected",
        [
            ((3, 8, 36, 39, 35), 14830051),
            ((3, 8, 32, 34, 12), 14813324),
            ((3, 8, 32, 25, 19), 14812755),
            ((3, 9, 24, 32, 0), 15042560),
            ((3, 9, 26, 27, 37), 15050469),
            ((2, 6, 26, 20, 36), 10069284),
            ((5, 10, 33, 22, 15), 23729551),
            ((0, 0, 0, 0, 0), 0),
        ],
    )
    def test_phi_matches_paper(self, tup, expected):
        assert OrdinalMapper(PAPER_DOMAINS).phi(tup) == expected

    @pytest.mark.parametrize(
        "tup,expected",
        [
            ((3, 8, 36, 39, 35), 14830051),
            ((0, 0, 4, 5, 23), 16727),
            ((0, 0, 0, 8, 57), 569),
            ((0, 0, 51, 56, 29), 212509),
            ((0, 0, 1, 59, 37), 7909),
        ],
    )
    def test_phi_inverse_matches_paper(self, tup, expected):
        assert OrdinalMapper(PAPER_DOMAINS).phi_inverse(expected) == tup


class TestPhiBijection:
    def test_round_trip_exhaustive_small_space(self):
        m = OrdinalMapper([3, 4, 5])
        seen = set()
        for e in range(m.space_size):
            t = m.phi_inverse(e)
            assert m.phi(t) == e
            seen.add(t)
        assert len(seen) == m.space_size

    def test_order_matches_lexicographic(self):
        m = OrdinalMapper([3, 4])
        tuples = [(a, b) for a in range(3) for b in range(4)]
        assert sorted(tuples) == sorted(tuples, key=m.sort_key)

    def test_max_ordinal(self):
        m = OrdinalMapper(PAPER_DOMAINS)
        top = tuple(s - 1 for s in PAPER_DOMAINS)
        assert m.phi(top) == m.space_size - 1


class TestPhiValidation:
    def test_out_of_domain_value_rejected(self):
        m = OrdinalMapper([8, 16])
        with pytest.raises(DomainError):
            m.phi((8, 0))

    def test_negative_value_rejected(self):
        m = OrdinalMapper([8, 16])
        with pytest.raises(DomainError):
            m.phi((0, -1))

    def test_wrong_arity_rejected(self):
        m = OrdinalMapper([8, 16])
        with pytest.raises(DomainError):
            m.phi((1, 2, 3))

    def test_ordinal_out_of_space_rejected(self):
        m = OrdinalMapper([8, 16])
        with pytest.raises(DomainError):
            m.phi_inverse(8 * 16)
        with pytest.raises(DomainError):
            m.phi_inverse(-1)


class TestBigSpaces:
    def test_huge_space_uses_exact_integers(self):
        sizes = [10**6] * 8  # space size 10^48, far beyond int64
        m = OrdinalMapper(sizes)
        assert not m.fits_int64
        t = tuple([999999] * 8)
        assert m.phi_inverse(m.phi(t)) == t

    def test_phi_many(self):
        m = OrdinalMapper([4, 4])
        rows = [(0, 1), (3, 3), (2, 0)]
        assert m.phi_many(rows) == [1, 15, 8]


class TestVectorisedPhi:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(7)
        sizes = [8, 16, 64, 64, 64]
        rows = np.stack(
            [rng.integers(0, s, size=200) for s in sizes], axis=1
        )
        m = OrdinalMapper(sizes)
        expected = np.array([m.phi(tuple(r)) for r in rows])
        np.testing.assert_array_equal(phi_array(rows, sizes), expected)

    def test_inverse_matches_scalar_path(self):
        rng = np.random.default_rng(8)
        sizes = [8, 16, 64]
        m = OrdinalMapper(sizes)
        ords = rng.integers(0, m.space_size, size=100)
        decoded = phi_inverse_array(ords, sizes)
        for e, row in zip(ords, decoded):
            assert tuple(row) == m.phi_inverse(int(e))

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        sizes = [5, 7, 11, 13]
        m = OrdinalMapper(sizes)
        ords = rng.integers(0, m.space_size, size=500)
        back = phi_array(phi_inverse_array(ords, sizes), sizes)
        np.testing.assert_array_equal(back, ords)

    def test_rejects_oversized_space(self):
        sizes = [2**32, 2**32, 4]  # > 2^61
        with pytest.raises(DomainError):
            phi_array(np.zeros((1, 3), dtype=np.int64), sizes)

    def test_rejects_out_of_domain_rows(self):
        with pytest.raises(DomainError):
            phi_array(np.array([[5, 0]]), [4, 4])

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            phi_array(np.zeros((2, 3), dtype=np.int64), [4, 4])


class TestVectorizedCodecPhi:
    """The one batch phi (the mapper's array methods, which the codec,
    the block filter and the container reader use) agrees with the
    scalar phi."""

    @pytest.mark.parametrize(
        "sizes", [PAPER_DOMAINS, [4] * 15, [300, 5, 70000], [2, 2, 2]]
    )
    def test_phi_rows_elementwise(self, sizes):
        m = OrdinalMapper(sizes)
        rng = np.random.default_rng(21)
        rows = np.stack(
            [rng.integers(0, s, size=300) for s in sizes], axis=1
        )
        expected = np.array([m.phi(tuple(r)) for r in rows])
        np.testing.assert_array_equal(m.phi_array(rows), expected)

    @pytest.mark.parametrize(
        "sizes", [PAPER_DOMAINS, [4] * 15, [300, 5, 70000], [2, 2, 2]]
    )
    def test_phi_inverse_rows_elementwise(self, sizes):
        m = OrdinalMapper(sizes)
        rng = np.random.default_rng(22)
        ords = rng.integers(0, m.space_size, size=300)
        decoded = m.phi_inverse_array(ords)
        for o, row in zip(ords, decoded):
            assert tuple(row) == m.phi_inverse(int(o))
        assert m.phi_inverse_many(ords) == [tuple(r) for r in decoded.tolist()]
        for pos in range(len(sizes)):
            np.testing.assert_array_equal(m.digits(ords, pos), decoded[:, pos])

    def test_phi_rows_rejects_out_of_domain(self):
        m = OrdinalMapper([4, 4])
        with pytest.raises(DomainError):
            m.phi_array(np.array([[5, 0]]))
        with pytest.raises(DomainError):
            m.phi_array(np.zeros((2, 3), dtype=np.int64))

    def test_phi_inverse_rows_rejects_out_of_space(self):
        m = OrdinalMapper([4, 4])
        with pytest.raises(DomainError):
            m.phi_inverse_array(np.array([16]))
        with pytest.raises(DomainError):
            OrdinalMapper([1 << 16] * 4).phi_inverse_array(np.array([0]))

    @pytest.mark.parametrize(
        "sizes", [PAPER_DOMAINS, [4] * 15, [300, 5, 70000]]
    )
    def test_encoded_size_of_run_is_exact(self, sizes):
        """The numpy packer's block size equals the scalar estimate *and*
        the actual byte count the vector encoder goes on to produce."""
        from repro.core.codec import BlockCodec
        from repro.core.vectorized import VectorizedBlockCodec

        vec = VectorizedBlockCodec(sizes)
        scalar = BlockCodec(sizes, vectorized=False)
        rng = np.random.default_rng(23)
        space = OrdinalMapper(sizes).space_size
        for u in (1, 2, 7, 64):
            run = np.sort(rng.integers(0, space, size=u))
            [(start, end, size)] = vec.pack_boundaries(run, 1 << 20)
            assert (start, end) == (0, u)
            assert size == len(vec.encode_run(run))
            assert size == scalar.encoded_size_of_ordinals(
                [int(o) for o in run]
            )
