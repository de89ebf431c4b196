"""Unit tests for repro.hevc.params."""

from __future__ import annotations

import pytest

from repro.errors import EncodingError
from repro.hevc.params import EncoderConfig, Preset


class TestPreset:
    def test_effort_increases_from_ultrafast_to_slow(self):
        ordered = [
            Preset.ULTRAFAST,
            Preset.SUPERFAST,
            Preset.VERYFAST,
            Preset.FASTER,
            Preset.FAST,
            Preset.MEDIUM,
            Preset.SLOW,
        ]
        efforts = [p.effort_factor for p in ordered]
        assert efforts == sorted(efforts)
        assert efforts[0] == pytest.approx(1.0)

    def test_quality_gain_increases_with_effort(self):
        assert Preset.SLOW.quality_gain_db > Preset.ULTRAFAST.quality_gain_db
        assert Preset.ULTRAFAST.quality_gain_db == pytest.approx(0.0)

    def test_compression_gain_improves_with_effort(self):
        assert Preset.SLOW.compression_gain < Preset.ULTRAFAST.compression_gain
        assert Preset.ULTRAFAST.compression_gain == pytest.approx(1.0)


class TestEncoderConfig:
    def test_valid_construction(self):
        config = EncoderConfig(qp=32, threads=4)
        assert config.qp == 32
        assert config.threads == 4
        assert config.preset is Preset.ULTRAFAST
        assert config.wpp is True

    def test_replace(self):
        config = EncoderConfig(qp=32, threads=4)
        changed = config.replace(qp=37, threads=8)
        assert (changed.qp, changed.threads) == (37, 8)
        assert (config.qp, config.threads) == (32, 4)

    def test_rejects_out_of_range_qp(self):
        with pytest.raises(EncodingError):
            EncoderConfig(qp=-1, threads=1)
        with pytest.raises(EncodingError):
            EncoderConfig(qp=52, threads=1)

    def test_rejects_non_positive_threads(self):
        with pytest.raises(EncodingError):
            EncoderConfig(qp=32, threads=0)

    def test_is_frozen(self):
        config = EncoderConfig(qp=32, threads=4)
        with pytest.raises(Exception):
            config.qp = 22  # type: ignore[misc]
