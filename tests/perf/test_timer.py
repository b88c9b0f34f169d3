"""Unit tests for the timing helpers."""

import time

import pytest

from repro.errors import ReproError
from repro.perf.machines import calibrated_profile
from repro.perf.timer import mean_time_ms


class TestMeanTime:
    def test_measures_sleep_roughly(self):
        ms = mean_time_ms(lambda: time.sleep(0.002), repeats=5)
        assert 1.5 < ms < 20  # generous upper bound for CI noise

    def test_fast_function_is_small(self):
        ms = mean_time_ms(lambda: None, repeats=100)
        assert ms < 1.0

    def test_zero_repeats_rejected(self):
        with pytest.raises(ReproError):
            mean_time_ms(lambda: None, repeats=0)


class TestCalibratedProfile:
    def test_builds_profile_from_callables(self):
        profile = calibrated_profile(
            lambda: sum(range(1000)),
            lambda: sum(range(500)),
            lambda: sum(range(100)),
            name="test-host",
            repeats=10,
        )
        assert profile.name == "test-host"
        assert profile.coding_ms > 0
        assert profile.decoding_ms > 0
        assert profile.extract_ms > 0
