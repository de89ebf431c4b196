"""Unit tests for repro.hevc.wpp."""

from __future__ import annotations

import pytest

from repro.errors import EncodingError
from repro.hevc.wpp import WppModel


@pytest.fixture
def model() -> WppModel:
    return WppModel()


class TestGeometry:
    def test_ctu_rows_1080p(self, model):
        assert model.ctu_rows(1080) == 17

    def test_ctu_rows_480p(self, model):
        assert model.ctu_rows(480) == 8

    def test_ctu_cols(self, model):
        assert model.ctu_cols(1920) == 30
        assert model.ctu_cols(832) == 13

    def test_invalid_dimensions_raise(self, model):
        with pytest.raises(EncodingError):
            model.ctu_rows(0)
        with pytest.raises(EncodingError):
            model.ctu_cols(-5)


class TestSpeedup:
    def test_single_thread_is_one(self, model):
        assert model.speedup(1, 1920, 1080) == pytest.approx(1.0)

    def test_wpp_disabled_is_one(self, model):
        assert model.speedup(8, 1920, 1080, wpp=False) == pytest.approx(1.0)

    def test_monotone_up_to_row_count_hr(self, model):
        speedups = [model.speedup(n, 1920, 1080) for n in range(1, 13)]
        assert all(b >= a for a, b in zip(speedups, speedups[1:]))

    def test_speedup_never_exceeds_thread_count(self, model):
        for n in range(1, 20):
            assert model.speedup(n, 1920, 1080) <= n

    def test_hr_speedup_at_ten_threads_is_substantial(self, model):
        assert 5.0 <= model.speedup(10, 1920, 1080) <= 9.0

    def test_lr_speedup_saturates_low(self, model):
        assert model.speedup(8, 832, 480) < 4.5

    def test_hr_saturation_near_twelve_threads(self, model):
        """Paper Sec. V-A: saturation at ~12 threads for 1080p."""
        assert 9 <= model.saturation_threads(1920, 1080) <= 14

    def test_lr_saturation_near_five_threads(self, model):
        """Paper Sec. V-A: saturation at ~5 threads for 832x480."""
        assert 3 <= model.saturation_threads(832, 480) <= 7

    def test_invalid_thread_count_raises(self, model):
        with pytest.raises(EncodingError):
            model.speedup(0, 1920, 1080)


class TestEfficiency:
    def test_efficiency_bounded(self, model):
        for n in (1, 2, 4, 8, 12, 16):
            assert 0.0 < model.efficiency(n, 1920, 1080) <= 1.0

    def test_efficiency_decreases_with_threads(self, model):
        efficiencies = [model.efficiency(n, 1920, 1080) for n in (1, 4, 8, 12)]
        assert all(b <= a for a, b in zip(efficiencies, efficiencies[1:]))
