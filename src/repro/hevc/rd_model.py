"""Rate-distortion model: PSNR and bitrate as a function of QP and content.

The model reproduces the qualitative relationships HEVC encoders exhibit and
that the paper's Fig. 2 RD-curves show:

* PSNR decreases roughly linearly with QP (~0.45 dB per QP step) and is lower
  for complex/high-motion content;
* bits per pixel roughly halve for every +6 QP (the standard "QP + 6 ⇒ half
  the rate" rule of thumb), and grow with content complexity and motion;
* slower presets gain some quality and compression at equal QP.

Absolute values are calibrated so that a 1080p sequence of average complexity
spans roughly 32-40 dB and 1-10 Mbit/s over QP 22..37 with the ultrafast
preset, matching the ranges of Fig. 2.

The scalar methods serve the scalar stepping engine.  Their ``*_batch``
forms (``psnr_db_batch``, ``bitrate_mbps_batch``, ...) evaluate whole NumPy
arrays at once and are what the batch stepping engine
(:mod:`repro.cluster.batch`) calls for every session's PSNR and bitrate.
Both forms share the same per-QP lookup table for the one transcendental
factor (the ``2^((ref-qp)/6)`` rate scale) and apply the remaining
arithmetic in the same order, so their outputs are *bitwise identical*
elementwise — the property the batch engine relies on for seed-for-seed
equivalence with the scalar engine.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.errors import EncodingError
from repro.hevc.params import EncoderConfig, QP_MAX, QP_MIN
from repro.video.sequence import Frame

__all__ = ["RdModelParameters", "RateDistortionModel"]


@dataclasses.dataclass(frozen=True)
class RdModelParameters:
    """Calibration constants of the rate-distortion model.

    Attributes
    ----------
    psnr_at_ref_qp:
        PSNR (dB) produced at ``ref_qp`` for content of complexity 1.0 with
        the ultrafast preset.
    psnr_slope_db_per_qp:
        PSNR decrease per unit of QP increase.
    psnr_complexity_penalty_db:
        PSNR penalty per unit of complexity above 1.0.
    psnr_motion_penalty_db:
        PSNR penalty at maximum motion (1.0).
    ref_qp:
        Anchor QP for both PSNR and bitrate.
    bpp_at_ref_qp:
        Bits per pixel produced at ``ref_qp`` for complexity 1.0.
    qp_per_rate_halving:
        QP increase that halves the bitrate (≈6 for HEVC).
    intra_rate_factor:
        Bitrate multiplier applied to scene-change (intra) frames.
    """

    psnr_at_ref_qp: float = 36.0
    psnr_slope_db_per_qp: float = 0.45
    psnr_complexity_penalty_db: float = 3.0
    psnr_motion_penalty_db: float = 1.0
    ref_qp: int = 32
    bpp_at_ref_qp: float = 0.050
    qp_per_rate_halving: float = 6.0
    intra_rate_factor: float = 1.8

    #: Hard clipping bounds for the produced PSNR.
    psnr_floor_db: float = 25.0
    psnr_ceiling_db: float = 55.0


class RateDistortionModel:
    """Computes PSNR and bits for an encoded frame.

    Parameters
    ----------
    params:
        Calibration constants; the defaults reproduce the paper's ranges.
    """

    def __init__(self, params: RdModelParameters | None = None) -> None:
        self.params = params if params is not None else RdModelParameters()
        # Per-QP table of 2^((ref-qp)/halving), shared by the scalar and
        # batch paths so both see the very same doubles.
        self._qp_rate_list: Optional[list[float]] = None
        self._qp_rate_array: Optional[np.ndarray] = None

    # -- shared QP table -------------------------------------------------------

    def _qp_rate_table(self) -> list[float]:
        """Rate scale ``2^((ref_qp - qp) / halving)`` for every legal QP."""
        if self._qp_rate_list is None:
            p = self.params
            self._qp_rate_list = [
                2.0 ** ((p.ref_qp - qp) / p.qp_per_rate_halving)
                for qp in range(QP_MIN, QP_MAX + 1)
            ]
            self._qp_rate_array = np.array(self._qp_rate_list)
        return self._qp_rate_list

    def _qp_rate_batch(self, qp: np.ndarray) -> np.ndarray:
        self._qp_rate_table()
        assert self._qp_rate_array is not None
        return self._qp_rate_array[qp]

    @staticmethod
    def _validate_qp_array(qp: np.ndarray) -> np.ndarray:
        qp = np.asarray(qp, dtype=np.int64)
        if qp.size and (qp.min() < QP_MIN or qp.max() > QP_MAX):
            raise EncodingError(f"QP values must be in [{QP_MIN}, {QP_MAX}]")
        return qp

    # -- quality --------------------------------------------------------------

    def psnr_db(self, frame: Frame, config: EncoderConfig) -> float:
        """PSNR (dB) of ``frame`` encoded with ``config``."""
        p = self.params
        psnr = (
            p.psnr_at_ref_qp
            - p.psnr_slope_db_per_qp * (config.qp - p.ref_qp)
            - p.psnr_complexity_penalty_db * (frame.complexity - 1.0)
            - p.psnr_motion_penalty_db * frame.motion
            + config.preset.quality_gain_db
        )
        return float(min(max(psnr, p.psnr_floor_db), p.psnr_ceiling_db))

    def psnr_db_batch(
        self,
        qp: np.ndarray,
        complexity: np.ndarray,
        motion: np.ndarray,
        quality_gain_db: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Vectorized :meth:`psnr_db` over parallel arrays.

        ``quality_gain_db`` is the preset's quality gain (0 for ultrafast).
        Elementwise bitwise-identical to the scalar method.
        """
        p = self.params
        qp = self._validate_qp_array(qp)
        psnr = (
            p.psnr_at_ref_qp
            - p.psnr_slope_db_per_qp * (qp - p.ref_qp)
            - p.psnr_complexity_penalty_db * (np.asarray(complexity) - 1.0)
            - p.psnr_motion_penalty_db * np.asarray(motion)
            + quality_gain_db
        )
        return np.minimum(np.maximum(psnr, p.psnr_floor_db), p.psnr_ceiling_db)

    # -- rate ------------------------------------------------------------------

    def bits_per_pixel(self, frame: Frame, config: EncoderConfig) -> float:
        """Compressed bits per luma pixel for ``frame`` under ``config``."""
        p = self.params
        qp_scale = self._qp_rate_table()[config.qp - QP_MIN]
        content_scale = frame.complexity * (0.8 + 0.4 * frame.motion)
        intra_scale = p.intra_rate_factor if frame.is_scene_change else 1.0
        bpp = (
            p.bpp_at_ref_qp
            * qp_scale
            * content_scale
            * intra_scale
            * config.preset.compression_gain
        )
        return float(bpp)

    def bits_per_pixel_batch(
        self,
        qp: np.ndarray,
        complexity: np.ndarray,
        motion: np.ndarray,
        scene_change: np.ndarray,
        compression_gain: np.ndarray | float = 1.0,
    ) -> np.ndarray:
        """Vectorized :meth:`bits_per_pixel` over parallel arrays."""
        p = self.params
        qp = self._validate_qp_array(qp)
        qp_scale = self._qp_rate_batch(qp - QP_MIN)
        content_scale = np.asarray(complexity) * (0.8 + 0.4 * np.asarray(motion))
        intra_scale = np.where(scene_change, p.intra_rate_factor, 1.0)
        return (
            p.bpp_at_ref_qp
            * qp_scale
            * content_scale
            * intra_scale
            * compression_gain
        )

    def frame_bits_batch(
        self,
        qp: np.ndarray,
        complexity: np.ndarray,
        motion: np.ndarray,
        scene_change: np.ndarray,
        pixels: np.ndarray,
        compression_gain: np.ndarray | float = 1.0,
    ) -> np.ndarray:
        """Vectorized :meth:`frame_bits` over parallel arrays."""
        return (
            self.bits_per_pixel_batch(
                qp, complexity, motion, scene_change, compression_gain
            )
            * np.asarray(pixels)
        )

    def bitrate_mbps_batch(
        self,
        qp: np.ndarray,
        complexity: np.ndarray,
        motion: np.ndarray,
        scene_change: np.ndarray,
        pixels: np.ndarray,
        delivery_fps: np.ndarray | float,
        compression_gain: np.ndarray | float = 1.0,
    ) -> np.ndarray:
        """Vectorized :meth:`bitrate_mbps` over parallel arrays."""
        if np.any(np.asarray(delivery_fps) <= 0):
            raise EncodingError("delivery_fps must be positive")
        bits = self.frame_bits_batch(
            qp, complexity, motion, scene_change, pixels, compression_gain
        )
        return bits * delivery_fps / 1e6

    def frame_bits(self, frame: Frame, config: EncoderConfig) -> float:
        """Total compressed size of ``frame`` in bits."""
        return self.bits_per_pixel(frame, config) * frame.pixels

    def bitrate_mbps(
        self, frame: Frame, config: EncoderConfig, delivery_fps: float
    ) -> float:
        """Instantaneous output bitrate in Mbit/s at the delivery frame rate.

        Parameters
        ----------
        frame:
            The frame being encoded.
        config:
            Encoder configuration.
        delivery_fps:
            Frame rate at which the output stream is delivered to the user
            (the real-time target, 24 FPS in the paper).
        """
        if delivery_fps <= 0:
            raise EncodingError(f"delivery_fps must be positive, got {delivery_fps}")
        return self.frame_bits(frame, config) * delivery_fps / 1e6

    # -- convenience -----------------------------------------------------------

    def bandwidth_mbytes_per_s(
        self, frame: Frame, config: EncoderConfig, delivery_fps: float
    ) -> float:
        """Output bandwidth in MBytes/s (the unit used on Fig. 2's x-axis)."""
        return self.bitrate_mbps(frame, config, delivery_fps) / 8.0
