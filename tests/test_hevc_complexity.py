"""Unit tests for repro.hevc.complexity."""

from __future__ import annotations

import pytest

from repro.errors import EncodingError
from repro.hevc.complexity import ComplexityModel
from repro.hevc.params import EncoderConfig, Preset
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
def model() -> ComplexityModel:
    return ComplexityModel()


class TestEncodeCycles:
    def test_lower_qp_costs_more(self, model):
        frame = frame_with()
        cycles = [
            model.encode_cycles(frame, EncoderConfig(qp=qp, threads=1))
            for qp in (22, 27, 32, 37)
        ]
        assert cycles == sorted(cycles, reverse=True)

    def test_cost_scales_with_pixels(self, model):
        config = EncoderConfig(qp=32, threads=1)
        hr = model.encode_cycles(frame_with(), config)
        lr = model.encode_cycles(frame_with(width=832, height=480), config)
        assert hr / lr == pytest.approx((1920 * 1080) / (832 * 480), rel=1e-6)

    def test_complex_content_costs_more(self, model):
        config = EncoderConfig(qp=32, threads=1)
        assert model.encode_cycles(frame_with(complexity=1.5), config) > model.encode_cycles(
            frame_with(complexity=0.8), config
        )

    def test_motion_costs_more(self, model):
        config = EncoderConfig(qp=32, threads=1)
        assert model.encode_cycles(frame_with(motion=0.9), config) > model.encode_cycles(
            frame_with(motion=0.1), config
        )

    def test_intra_frame_costs_more(self, model):
        config = EncoderConfig(qp=32, threads=1)
        assert model.encode_cycles(frame_with(scene_change=True), config) > model.encode_cycles(
            frame_with(scene_change=False), config
        )

    def test_slow_preset_costs_more(self, model):
        frame = frame_with()
        assert model.encode_cycles(
            frame, EncoderConfig(qp=32, threads=1, preset=Preset.SLOW)
        ) > model.encode_cycles(frame, EncoderConfig(qp=32, threads=1, preset=Preset.ULTRAFAST))

    def test_single_thread_hr_is_a_few_fps_at_max_frequency(self, model):
        """Calibration anchor from Fig. 2: ~4-7 FPS single-threaded at 3.2 GHz."""
        frame = frame_with()
        time_s = model.encode_time_seconds(frame, EncoderConfig(qp=27, threads=1), 3.2, 1.0)
        assert 3.0 <= 1.0 / time_s <= 8.0


class TestDecodeCycles:
    def test_decoding_is_orders_of_magnitude_cheaper(self, model):
        frame = frame_with()
        encode = model.encode_cycles(frame, EncoderConfig(qp=32, threads=1))
        decode = model.decode_cycles(frame)
        assert decode < encode / 20.0

    def test_decode_scales_with_resolution(self, model):
        assert model.decode_cycles(frame_with()) > model.decode_cycles(
            frame_with(width=832, height=480)
        )


class TestEncodeTime:
    def test_time_inverse_to_frequency(self, model):
        frame = frame_with()
        config = EncoderConfig(qp=32, threads=1)
        slow = model.encode_time_seconds(frame, config, 1.6, 1.0)
        fast = model.encode_time_seconds(frame, config, 3.2, 1.0)
        assert slow / fast == pytest.approx(2.0)

    def test_time_inverse_to_speedup(self, model):
        frame = frame_with()
        config = EncoderConfig(qp=32, threads=1)
        serial = model.encode_time_seconds(frame, config, 3.2, 1.0)
        parallel = model.encode_time_seconds(frame, config, 3.2, 4.0)
        assert serial / parallel == pytest.approx(4.0)

    def test_invalid_inputs_raise(self, model):
        frame = frame_with()
        config = EncoderConfig(qp=32, threads=1)
        with pytest.raises(EncodingError):
            model.encode_time_seconds(frame, config, 0.0, 1.0)
        with pytest.raises(EncodingError):
            model.encode_time_seconds(frame, config, 3.2, 0.0)
