"""Unit tests for repro.hevc.rd_model."""

from __future__ import annotations

import pytest

from repro.errors import EncodingError
from repro.hevc.params import EncoderConfig, Preset
from repro.hevc.rd_model import RateDistortionModel
from repro.video.content import FrameContent
from repro.video.sequence import Frame


def frame_with(complexity=1.0, motion=0.4, scene_change=False, width=1920, height=1080):
    return Frame(
        index=0,
        width=width,
        height=height,
        content=FrameContent(complexity=complexity, motion=motion, scene_change=scene_change),
    )


@pytest.fixture
def model() -> RateDistortionModel:
    return RateDistortionModel()


class TestPsnr:
    def test_psnr_decreases_with_qp(self, model):
        frame = frame_with()
        psnrs = [model.psnr_db(frame, EncoderConfig(qp=qp, threads=1)) for qp in (22, 27, 32, 37)]
        assert psnrs == sorted(psnrs, reverse=True)

    def test_psnr_in_plausible_range_for_agent_qps(self, model):
        frame = frame_with()
        for qp in (22, 25, 27, 29, 32, 35, 37):
            psnr = model.psnr_db(frame, EncoderConfig(qp=qp, threads=1))
            assert 30.0 <= psnr <= 45.0

    def test_complex_content_lowers_psnr(self, model):
        config = EncoderConfig(qp=32, threads=1)
        assert model.psnr_db(frame_with(complexity=1.5), config) < model.psnr_db(
            frame_with(complexity=0.8), config
        )

    def test_slow_preset_improves_psnr(self, model):
        frame = frame_with()
        ultrafast = model.psnr_db(frame, EncoderConfig(qp=32, threads=1, preset=Preset.ULTRAFAST))
        slow = model.psnr_db(frame, EncoderConfig(qp=32, threads=1, preset=Preset.SLOW))
        assert slow > ultrafast

    def test_psnr_is_clipped(self, model):
        frame = frame_with(complexity=2.0, motion=1.0)
        low = model.psnr_db(frame, EncoderConfig(qp=51, threads=1))
        assert low >= model.params.psnr_floor_db


class TestBitrate:
    def test_bitrate_decreases_with_qp(self, model):
        frame = frame_with()
        rates = [
            model.bitrate_mbps(frame, EncoderConfig(qp=qp, threads=1), 24.0)
            for qp in (22, 27, 32, 37)
        ]
        assert rates == sorted(rates, reverse=True)

    def test_six_qp_steps_halve_the_rate(self, model):
        frame = frame_with()
        rate_26 = model.bitrate_mbps(frame, EncoderConfig(qp=26, threads=1), 24.0)
        rate_32 = model.bitrate_mbps(frame, EncoderConfig(qp=32, threads=1), 24.0)
        assert rate_26 / rate_32 == pytest.approx(2.0, rel=0.01)

    def test_intra_frames_cost_more_bits(self, model):
        config = EncoderConfig(qp=32, threads=1)
        intra = model.frame_bits(frame_with(scene_change=True), config)
        inter = model.frame_bits(frame_with(scene_change=False), config)
        assert intra > inter

    def test_bitrate_scales_with_resolution(self, model):
        config = EncoderConfig(qp=32, threads=1)
        hr = model.bitrate_mbps(frame_with(), config, 24.0)
        lr = model.bitrate_mbps(frame_with(width=832, height=480), config, 24.0)
        assert hr / lr == pytest.approx((1920 * 1080) / (832 * 480), rel=1e-6)

    def test_slow_preset_compresses_better(self, model):
        frame = frame_with()
        ultrafast = model.frame_bits(frame, EncoderConfig(qp=32, threads=1, preset=Preset.ULTRAFAST))
        slow = model.frame_bits(frame, EncoderConfig(qp=32, threads=1, preset=Preset.SLOW))
        assert slow < ultrafast

    def test_bandwidth_is_bitrate_over_eight(self, model):
        frame = frame_with()
        config = EncoderConfig(qp=32, threads=1)
        assert model.bandwidth_mbytes_per_s(frame, config, 24.0) == pytest.approx(
            model.bitrate_mbps(frame, config, 24.0) / 8.0
        )

    def test_invalid_delivery_fps_raises(self, model):
        with pytest.raises(EncodingError):
            model.bitrate_mbps(frame_with(), EncoderConfig(qp=32, threads=1), 0.0)
