"""Transcoder pipeline: decoder followed by encoder.

The :class:`Transcoder` is the application half of the MAMUT environment
(Fig. 1): per frame, it decodes the source and re-encodes it with the
configuration chosen by the controller, reporting the observables (FPS, PSNR,
bitrate) plus timing and cost breakdowns.

The pipeline has two forms side by side: :meth:`Transcoder.transcode_frame`
for one frame (the scalar engine) and :meth:`Transcoder.transcode_frame_batch`
for parallel arrays of frames (the batch engine, :mod:`repro.cluster.batch`),
and likewise :meth:`~Transcoder.activity_factor` and its ``*_batch`` form.
The batch forms compose the models' own ``*_batch`` methods in the scalar
order, so their outputs are bitwise identical elementwise;
``tests/test_batch_models.py`` pins both pairs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.hevc.decoder import DecodedFrame, HevcDecoder
from repro.hevc.encoder import EncodedFrame, HevcEncoder
from repro.hevc.params import EncoderConfig
from repro.video.sequence import Frame

__all__ = ["TranscodeResult", "Transcoder"]


@dataclasses.dataclass(frozen=True)
class TranscodeResult:
    """Per-frame output of the transcoding pipeline.

    Attributes
    ----------
    frame_index:
        Index of the transcoded frame.
    decoded:
        Decoder stage result.
    encoded:
        Encoder stage result.
    total_time_s:
        End-to-end processing time of the frame (decode + encode).
    fps:
        Instantaneous pipeline throughput (1 / total time).
    """

    frame_index: int
    decoded: DecodedFrame
    encoded: EncodedFrame
    total_time_s: float
    fps: float

    @property
    def psnr_db(self) -> float:
        """PSNR of the re-encoded frame."""
        return self.encoded.psnr_db

    @property
    def bitrate_mbps(self) -> float:
        """Output bitrate of the re-encoded frame in Mbit/s."""
        return self.encoded.bitrate_mbps

    @property
    def cycles(self) -> float:
        """Total CPU cycles spent on the frame (decode + encode)."""
        return self.decoded.cycles + self.encoded.cycles


class Transcoder:
    """Decoder + encoder pipeline for one video stream.

    Parameters
    ----------
    encoder:
        The encoder simulator (owns the RD / complexity / WPP models).
    decoder:
        The decoder simulator; a default one sharing the encoder's complexity
        model is created when omitted.
    """

    def __init__(
        self, encoder: HevcEncoder | None = None, decoder: HevcDecoder | None = None
    ) -> None:
        self.encoder = encoder if encoder is not None else HevcEncoder()
        self.decoder = (
            decoder
            if decoder is not None
            else HevcDecoder(complexity_model=self.encoder.complexity_model)
        )

    def transcode_frame(
        self,
        frame: Frame,
        config: EncoderConfig,
        frequency_ghz: float,
        contention_scale: float = 1.0,
    ) -> TranscodeResult:
        """Decode then re-encode one frame under the given operating point."""
        decoded = self.decoder.decode_frame(frame, frequency_ghz)
        encoded = self.encoder.encode_frame(
            decoded.frame, config, frequency_ghz, contention_scale=contention_scale
        )
        total_time = decoded.decode_time_s + encoded.encode_time_s
        return TranscodeResult(
            frame_index=frame.index,
            decoded=decoded,
            encoded=encoded,
            total_time_s=total_time,
            fps=1.0 / total_time,
        )

    def activity_factor(self, frame: Frame, config: EncoderConfig) -> float:
        """Busy fraction of allocated threads while processing ``frame``."""
        return self.encoder.activity_factor(frame, config)

    # -- batch entry points -----------------------------------------------------

    def activity_factor_batch(
        self, threads: np.ndarray, width: np.ndarray, height: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`activity_factor` over parallel arrays."""
        speedup = self.encoder.wpp_model.speedup_batch(threads, width, height)
        return speedup / np.asarray(threads)

    def transcode_frame_batch(
        self,
        qp: np.ndarray,
        threads: np.ndarray,
        width: np.ndarray,
        height: np.ndarray,
        pixels: np.ndarray,
        complexity: np.ndarray,
        motion: np.ndarray,
        scene_change: np.ndarray,
        effort_factor: np.ndarray | float,
        quality_gain_db: np.ndarray | float,
        compression_gain: np.ndarray | float,
        frequency_ghz: np.ndarray,
        contention_scale: np.ndarray | float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`transcode_frame` over parallel arrays.

        The frame is given by its dimensions and content columns, the
        configuration by QP, threads and the preset's three factors.
        Returns ``(total_time_s, fps, psnr_db, bitrate_mbps)``, each
        elementwise bitwise-identical to the scalar result.
        """
        encoder = self.encoder
        decode_cycles = self.decoder.complexity_model.decode_cycles_batch(
            pixels, complexity
        )
        decode_time = decode_cycles / (frequency_ghz * 1e9)
        speedup = encoder.wpp_model.speedup_batch(threads, width, height)
        effective = np.maximum(1.0, speedup * contention_scale)
        encode_time = encoder.complexity_model.encode_time_seconds_batch(
            qp, pixels, complexity, motion, scene_change, frequency_ghz,
            effective, effort_factor,
        )
        total_time = decode_time + encode_time
        psnr = encoder.rd_model.psnr_db_batch(qp, complexity, motion, quality_gain_db)
        bitrate = encoder.rd_model.bitrate_mbps_batch(
            qp, complexity, motion, scene_change, pixels, encoder.delivery_fps,
            compression_gain,
        )
        return total_time, 1.0 / total_time, psnr, bitrate
