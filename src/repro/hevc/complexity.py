"""Encoding complexity model: CPU cycles needed to encode a frame.

HEVC encoding cost grows with resolution, decreases as QP grows (larger QP
means coarser quantisation, fewer non-zero coefficients, cheaper RDO), and
grows with content complexity and motion.  Scene-change (intra) frames are
more expensive.  The model expresses cost in *cycles per frame*, so that
dividing by the operating frequency and the parallel speedup gives the frame
encode time used for FPS accounting.

Calibration anchor: a 1080p frame of average complexity at QP 27 with the
ultrafast preset costs ~6e8 cycles, i.e. ~5 FPS single-threaded at 3.2 GHz,
consistent with the single-thread points of the paper's Fig. 2.

The scalar methods serve the scalar stepping engine.  Their ``*_batch``
forms evaluate whole NumPy arrays at once and are what the batch stepping
engine (:mod:`repro.cluster.batch`) calls for every session's decode cycles
and encode time.  Both forms share the same per-QP lookup table for the
exponential QP factor and apply the rest of the arithmetic in the same
order, so their outputs are bitwise identical elementwise: the two engines'
equivalence guarantee rests on it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.errors import EncodingError
from repro.hevc.params import EncoderConfig, QP_MAX, QP_MIN
from repro.video.sequence import Frame

__all__ = ["ComplexityModelParameters", "ComplexityModel"]


@dataclasses.dataclass(frozen=True)
class ComplexityModelParameters:
    """Calibration constants of the encoding-complexity model.

    Attributes
    ----------
    base_cycles_per_pixel:
        Cycles per luma pixel at the reference QP for the ultrafast preset
        and content of complexity 1.0.
    qp_sensitivity:
        Exponential sensitivity of cost to QP: cost scales with
        ``exp(qp_sensitivity * (ref_qp - qp))``.
    ref_qp:
        Anchor QP of the model.
    complexity_weight:
        Fraction of the cost that scales with spatial complexity.
    motion_weight:
        Additional relative cost at maximum motion (motion estimation work).
    intra_cost_factor:
        Multiplier for scene-change (intra) frames.
    decode_fraction:
        Decoder cost as a fraction of encoder cost at the same resolution
        (the paper cites ~1/100 in Sec. I).
    """

    base_cycles_per_pixel: float = 230.0
    qp_sensitivity: float = 0.030
    ref_qp: int = 32
    complexity_weight: float = 0.6
    motion_weight: float = 0.35
    intra_cost_factor: float = 1.25
    decode_fraction: float = 0.01


class ComplexityModel:
    """Computes the encode (and decode) cost of a frame in CPU cycles."""

    def __init__(self, params: ComplexityModelParameters | None = None) -> None:
        self.params = params if params is not None else ComplexityModelParameters()
        # Per-QP table of exp(sensitivity * (ref - qp)), shared by the scalar
        # and batch paths so both see the very same doubles.
        self._qp_factor_list: Optional[list[float]] = None
        self._qp_factor_array: Optional[np.ndarray] = None

    # -- shared QP table -------------------------------------------------------

    def _qp_factor_table(self) -> list[float]:
        """Cost factor ``exp(qp_sensitivity * (ref_qp - qp))`` per legal QP."""
        if self._qp_factor_list is None:
            p = self.params
            self._qp_factor_list = [
                math.exp(p.qp_sensitivity * (p.ref_qp - qp))
                for qp in range(QP_MIN, QP_MAX + 1)
            ]
            self._qp_factor_array = np.array(self._qp_factor_list)
        return self._qp_factor_list

    def _qp_factor_batch(self, qp: np.ndarray) -> np.ndarray:
        self._qp_factor_table()
        assert self._qp_factor_array is not None
        return self._qp_factor_array[qp]

    @staticmethod
    def _validate_qp_array(qp: np.ndarray) -> np.ndarray:
        qp = np.asarray(qp, dtype=np.int64)
        if qp.size and (qp.min() < QP_MIN or qp.max() > QP_MAX):
            raise EncodingError(f"QP values must be in [{QP_MIN}, {QP_MAX}]")
        return qp

    def encode_cycles(self, frame: Frame, config: EncoderConfig) -> float:
        """Serial (single-thread) cycles required to encode ``frame``."""
        p = self.params
        qp_factor = self._qp_factor_table()[config.qp - QP_MIN]
        content_factor = (1.0 - p.complexity_weight) + p.complexity_weight * frame.complexity
        motion_factor = 1.0 + p.motion_weight * frame.motion
        intra_factor = p.intra_cost_factor if frame.is_scene_change else 1.0
        cycles = (
            p.base_cycles_per_pixel
            * frame.pixels
            * config.preset.effort_factor
            * qp_factor
            * content_factor
            * motion_factor
            * intra_factor
        )
        return float(cycles)

    def decode_cycles(self, frame: Frame) -> float:
        """Cycles required to decode the source frame before re-encoding.

        Decoding cost is roughly independent of the *output* configuration;
        it scales with resolution and (mildly) with content complexity.
        """
        p = self.params
        content_factor = 0.7 + 0.3 * frame.complexity
        return float(
            p.decode_fraction * p.base_cycles_per_pixel * frame.pixels * content_factor
        )

    def encode_time_seconds(
        self, frame: Frame, config: EncoderConfig, frequency_ghz: float, speedup: float
    ) -> float:
        """Wall-clock encode time given frequency (GHz) and parallel speedup."""
        if frequency_ghz <= 0:
            raise EncodingError(f"frequency_ghz must be positive, got {frequency_ghz}")
        if speedup <= 0:
            raise EncodingError(f"speedup must be positive, got {speedup}")
        cycles = self.encode_cycles(frame, config)
        return cycles / (frequency_ghz * 1e9 * speedup)

    # -- batch entry points -----------------------------------------------------

    def encode_cycles_batch(
        self,
        qp: np.ndarray,
        pixels: np.ndarray,
        complexity: np.ndarray,
        motion: np.ndarray,
        scene_change: np.ndarray,
        effort_factor: np.ndarray | float = 1.0,
    ) -> np.ndarray:
        """Vectorized :meth:`encode_cycles` over parallel arrays.

        ``effort_factor`` is the preset's relative effort (1.0 for ultrafast).
        Elementwise bitwise-identical to the scalar method.
        """
        p = self.params
        qp = self._validate_qp_array(qp)
        qp_factor = self._qp_factor_batch(qp - QP_MIN)
        content_factor = (
            (1.0 - p.complexity_weight)
            + p.complexity_weight * np.asarray(complexity)
        )
        motion_factor = 1.0 + p.motion_weight * np.asarray(motion)
        intra_factor = np.where(scene_change, p.intra_cost_factor, 1.0)
        return (
            p.base_cycles_per_pixel
            * np.asarray(pixels)
            * effort_factor
            * qp_factor
            * content_factor
            * motion_factor
            * intra_factor
        )

    def decode_cycles_batch(
        self, pixels: np.ndarray, complexity: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`decode_cycles` over parallel arrays."""
        p = self.params
        content_factor = 0.7 + 0.3 * np.asarray(complexity)
        return (
            p.decode_fraction
            * p.base_cycles_per_pixel
            * np.asarray(pixels)
            * content_factor
        )

    def encode_time_seconds_batch(
        self,
        qp: np.ndarray,
        pixels: np.ndarray,
        complexity: np.ndarray,
        motion: np.ndarray,
        scene_change: np.ndarray,
        frequency_ghz: np.ndarray,
        speedup: np.ndarray,
        effort_factor: np.ndarray | float = 1.0,
    ) -> np.ndarray:
        """Vectorized :meth:`encode_time_seconds` over parallel arrays."""
        frequency_ghz = np.asarray(frequency_ghz)
        speedup = np.asarray(speedup)
        if np.any(frequency_ghz <= 0):
            raise EncodingError("frequency_ghz values must be positive")
        if np.any(speedup <= 0):
            raise EncodingError("speedup values must be positive")
        cycles = self.encode_cycles_batch(
            qp, pixels, complexity, motion, scene_change, effort_factor
        )
        return cycles / (frequency_ghz * 1e9 * speedup)
