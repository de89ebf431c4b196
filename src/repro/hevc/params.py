"""Encoder parameters: presets, QP, threads.

Mirrors the knobs exposed by Kvazaar that the paper uses: the *preset*
(ultrafast for HR videos, slow for LR videos in Sec. V-A), the Quantization
Parameter, and the number of WPP threads.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import EncodingError

__all__ = ["Preset", "EncoderConfig", "QP_MIN", "QP_MAX"]

#: Valid HEVC QP range (the agents only use the subset in ``QP_VALUES``).
QP_MIN: int = 0
QP_MAX: int = 51


class Preset(enum.Enum):
    """Kvazaar-style speed/efficiency presets.

    Each preset trades encoding effort (cycles per pixel) for compression
    efficiency and quality.  The paper uses ``ULTRAFAST`` for HR videos and
    ``SLOW`` for LR videos.
    """

    ULTRAFAST = "ultrafast"
    SUPERFAST = "superfast"
    VERYFAST = "veryfast"
    FASTER = "faster"
    FAST = "fast"
    MEDIUM = "medium"
    SLOW = "slow"

    @property
    def effort_factor(self) -> float:
        """Relative encoding effort (cycles) compared to ``ULTRAFAST``."""
        return _EFFORT_FACTORS[self]

    @property
    def quality_gain_db(self) -> float:
        """PSNR gain (dB) over ``ULTRAFAST`` at equal QP."""
        return _QUALITY_GAIN_DB[self]

    @property
    def compression_gain(self) -> float:
        """Multiplicative bitrate reduction versus ``ULTRAFAST`` at equal QP."""
        return _COMPRESSION_GAIN[self]


_EFFORT_FACTORS: dict[Preset, float] = {
    Preset.ULTRAFAST: 1.0,
    Preset.SUPERFAST: 1.15,
    Preset.VERYFAST: 1.35,
    Preset.FASTER: 1.55,
    Preset.FAST: 1.8,
    Preset.MEDIUM: 2.1,
    Preset.SLOW: 2.4,
}

_QUALITY_GAIN_DB: dict[Preset, float] = {
    Preset.ULTRAFAST: 0.0,
    Preset.SUPERFAST: 0.3,
    Preset.VERYFAST: 0.6,
    Preset.FASTER: 0.9,
    Preset.FAST: 1.1,
    Preset.MEDIUM: 1.4,
    Preset.SLOW: 1.8,
}

_COMPRESSION_GAIN: dict[Preset, float] = {
    Preset.ULTRAFAST: 1.00,
    Preset.SUPERFAST: 0.96,
    Preset.VERYFAST: 0.92,
    Preset.FASTER: 0.89,
    Preset.FAST: 0.86,
    Preset.MEDIUM: 0.82,
    Preset.SLOW: 0.78,
}


@dataclasses.dataclass(frozen=True)
class EncoderConfig:
    """A complete encoder configuration for one frame.

    Attributes
    ----------
    qp:
        Quantization Parameter (0..51); the agents restrict themselves to
        :data:`repro.constants.QP_VALUES`.
    threads:
        Number of WPP encoding threads requested for the frame.
    preset:
        Kvazaar preset controlling the effort/efficiency trade-off.
    wpp:
        Whether Wavefront Parallel Processing is enabled; disabling it forces
        single-threaded row processing regardless of ``threads``.
    """

    qp: int
    threads: int
    preset: Preset = Preset.ULTRAFAST
    wpp: bool = True

    def __post_init__(self) -> None:
        if not QP_MIN <= self.qp <= QP_MAX:
            raise EncodingError(f"QP must be in [{QP_MIN}, {QP_MAX}], got {self.qp}")
        if self.threads < 1:
            raise EncodingError(f"threads must be >= 1, got {self.threads}")

    def replace(self, **changes: object) -> "EncoderConfig":
        """Return a copy of this configuration with ``changes`` applied."""
        return dataclasses.replace(self, **changes)
