"""Observations: the raw quantities the agents see after each frame.

The environment exposes exactly the four quantities listed in the paper's
Fig. 1 and Sec. III-C: throughput (FPS), video quality (PSNR), output bitrate
and package power.  A controller averages the frames it saw since it last
acted: :meth:`ObservationWindow.average` for one window (the scalar engine),
:meth:`ObservationWindow.average_batch` for many at once (the batch engine).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.errors import LearningError

__all__ = ["Observation", "ObservationWindow"]


@dataclasses.dataclass(frozen=True)
class Observation:
    """Raw per-frame measurements observed by every agent.

    Attributes
    ----------
    fps:
        Instantaneous throughput of the session (frames per second).
    psnr_db:
        PSNR of the frame just encoded.
    bitrate_mbps:
        Output bitrate in Mbit/s at the delivery frame rate.
    power_w:
        Package power of the server while the frame was encoded.
    """

    fps: float
    psnr_db: float
    bitrate_mbps: float
    power_w: float

    def __post_init__(self) -> None:
        if self.fps < 0:
            raise LearningError(f"fps must be >= 0, got {self.fps}")
        if self.bitrate_mbps < 0:
            raise LearningError(f"bitrate_mbps must be >= 0, got {self.bitrate_mbps}")
        if self.power_w < 0:
            raise LearningError(f"power_w must be >= 0, got {self.power_w}")


class ObservationWindow:
    """Running sums of the observations since a controller last acted.

    The paper averages the frames in which no agent acts ("NULL" slots of
    Fig. 3) into the state presented to the next learning update, so that
    agents learn about each other's behaviour rather than about
    frame-to-frame content noise.  Every controller owns one window, and
    :meth:`~repro.manager.session.TranscodingSession.commit` adds each
    committed frame to it once, whichever engine stepped the frame.

    The sums accumulate left to right from 0.0 in arrival order, so
    :meth:`average` is bitwise the mean of the buffered observations.
    """

    __slots__ = ("fps", "psnr_db", "bitrate_mbps", "power_w", "count")

    def __init__(self) -> None:
        self.clear()

    def add(self, fps: float, psnr_db: float, bitrate_mbps: float, power_w: float) -> None:
        """Fold one frame's measurements into the window."""
        self.fps += fps
        self.psnr_db += psnr_db
        self.bitrate_mbps += bitrate_mbps
        self.power_w += power_w
        self.count += 1

    def average(self) -> Observation:
        """The component-wise mean of the window (raises when it is empty)."""
        n = self.count
        if n == 0:
            raise LearningError("cannot average an empty observation window")
        return Observation(
            fps=self.fps / n,
            psnr_db=self.psnr_db / n,
            bitrate_mbps=self.bitrate_mbps / n,
            power_w=self.power_w / n,
        )

    @staticmethod
    def average_batch(windows: Sequence[ObservationWindow]) -> tuple[np.ndarray, ...]:
        """:meth:`average` of each window, as fps, PSNR, bitrate and power arrays.

        The same division of each running sum by the count, so bitwise equal.
        """
        counts = np.array([w.count for w in windows], dtype=np.float64)
        if not counts.all():
            raise LearningError("cannot average an empty observation window")
        return (
            np.array([w.fps for w in windows]) / counts,
            np.array([w.psnr_db for w in windows]) / counts,
            np.array([w.bitrate_mbps for w in windows]) / counts,
            np.array([w.power_w for w in windows]) / counts,
        )

    def clear(self) -> None:
        """Empty the window."""
        self.fps = 0.0
        self.psnr_db = 0.0
        self.bitrate_mbps = 0.0
        self.power_w = 0.0
        self.count = 0
