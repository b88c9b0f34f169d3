"""Unit tests for attribute histograms."""

import pytest

from repro.db.stats import AttributeHistogram
from repro.errors import QueryError


class TestHistogram:
    def test_exact_for_one_value_per_bucket(self):
        h = AttributeHistogram(domain_size=8, num_buckets=8)
        for v in [0, 1, 1, 7, 7, 7]:
            h.add(v)
        assert h.estimate_count(1, 1) == 2
        assert h.estimate_count(7, 7) == 3
        assert h.estimate_count(0, 7) == 6
        assert h.estimate_count(2, 6) == 0

    def test_pro_rata_partial_buckets(self):
        h = AttributeHistogram(domain_size=100, num_buckets=10)
        for v in range(100):
            h.add(v)
        # exactly uniform: every range estimate equals its width
        assert h.estimate_count(0, 49) == pytest.approx(50)
        assert h.estimate_count(25, 34) == pytest.approx(10)
        assert h.estimate_selectivity(0, 99) == pytest.approx(1.0)

    def test_empty_histogram(self):
        h = AttributeHistogram(domain_size=10)
        assert h.estimate_count(0, 9) == 0.0
        assert h.estimate_selectivity(0, 9) == 0.0

    def test_bounds_clamped(self):
        h = AttributeHistogram(domain_size=10, num_buckets=5)
        for v in range(10):
            h.add(v)
        assert h.estimate_count(-100, 100) == pytest.approx(10)
        assert h.estimate_count(5, 3) == 0.0

    def test_distinct_values(self):
        h = AttributeHistogram(domain_size=100)
        for v in [1, 1, 2, 50]:
            h.add(v)
        assert h.distinct_values() == 3

    def test_out_of_domain_rejected(self):
        h = AttributeHistogram(domain_size=10)
        with pytest.raises(QueryError):
            h.add(10)
        with pytest.raises(QueryError):
            h.add(-1)

    def test_bad_parameters_rejected(self):
        with pytest.raises(QueryError):
            AttributeHistogram(0)
        with pytest.raises(QueryError):
            AttributeHistogram(10, num_buckets=0)

    def test_more_buckets_than_domain_values(self):
        h = AttributeHistogram(domain_size=3, num_buckets=100)
        assert h.num_buckets == 3
        for v in (0, 1, 2):
            h.add(v)
        assert h.estimate_count(1, 1) == pytest.approx(1)
