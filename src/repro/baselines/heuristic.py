"""Heuristic controller (adapted from Grellert et al. [19], paper Sec. V-A).

The heuristic adjusts one step at a time, every 6 frames (the same period as
MAMUT's fastest agent):

* **threads → FPS**: add a thread when the averaged FPS is below the target,
  remove one when it is comfortably above (the heuristic therefore ends up
  with the *minimum* thread count that meets the target, unlike MAMUT which
  spreads work over more threads at lower frequency);
* **QP → PSNR / bandwidth**: raise QP when the bitrate exceeds the user's
  bandwidth, lower it when there is both quality headroom and bandwidth slack;
* **DVFS → power**: reduce the frequency only when the package power reaches
  the cap, otherwise climb back towards the maximum frequency.

Frequency decisions are applied chip-wide (a conventional governor), which is
also why this approach burns more power than the learning controllers in the
paper's Table II.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.constants import (
    DEFAULT_BANDWIDTH_MBPS,
    DEFAULT_POWER_CAP_W,
    DVFS_VALUES_GHZ,
    HR_MAX_THREADS,
    TARGET_FPS,
)
from repro.core.actions import ActionSet, default_dvfs_actions, default_qp_actions
from repro.core.controller import Controller, Decision
from repro.core.observation import Observation
from repro.errors import ConfigurationError
from repro.platform.dvfs import DvfsPolicy
from repro.video.request import TranscodingRequest
from repro.video.sequence import ResolutionClass

__all__ = ["HeuristicConfig", "HeuristicController"]


@dataclasses.dataclass
class HeuristicConfig:
    """Tuning knobs of the heuristic controller.

    Attributes
    ----------
    fps_target:
        Real-time target; FPS below it triggers a thread increase.
    fps_slack:
        FPS above ``fps_target + fps_slack`` triggers a thread decrease.
    psnr_target_db:
        Quality target; QP is lowered while PSNR is below it and bandwidth
        allows.
    bandwidth_mbps:
        The user's bandwidth; bitrates above it force QP up.
    bandwidth_headroom:
        Fraction of the bandwidth that must remain free before the heuristic
        dares to lower QP.
    power_cap_w:
        Package power cap; reaching it steps the frequency down.
    power_headroom_w:
        Power must be this far below the cap before the frequency is raised
        again.
    max_threads:
        Upper bound on the thread count (the resolution's saturation point).
    period:
        Frames between two heuristic adjustments (6, like MAMUT's fastest
        agent).
    initial_qp, initial_threads, initial_frequency_ghz:
        Starting configuration.
    """

    fps_target: float = TARGET_FPS
    fps_slack: float = 1.0
    psnr_target_db: float = 36.0
    bandwidth_mbps: float = DEFAULT_BANDWIDTH_MBPS
    bandwidth_headroom: float = 0.15
    power_cap_w: float = DEFAULT_POWER_CAP_W
    power_headroom_w: float = 2.0
    max_threads: int = HR_MAX_THREADS
    period: int = 6
    initial_qp: int = 32
    initial_threads: int = 4
    initial_frequency_ghz: float = DVFS_VALUES_GHZ[-1]

    def __post_init__(self) -> None:
        if self.fps_target <= 0 or self.fps_slack < 0:
            raise ConfigurationError("fps_target must be > 0 and fps_slack >= 0")
        if self.max_threads < 1:
            raise ConfigurationError(f"max_threads must be >= 1, got {self.max_threads}")
        if self.period < 1:
            raise ConfigurationError(f"period must be >= 1, got {self.period}")

    @classmethod
    def for_request(
        cls, request: TranscodingRequest, power_cap_w: float = DEFAULT_POWER_CAP_W
    ) -> "HeuristicConfig":
        """Derive a heuristic configuration from a transcoding request."""
        max_threads = (
            HR_MAX_THREADS
            if request.resolution_class is ResolutionClass.HR
            else 5
        )
        return cls(
            fps_target=request.target_fps,
            bandwidth_mbps=request.bandwidth_mbps,
            power_cap_w=power_cap_w,
            max_threads=max_threads,
        )


class HeuristicController(Controller):
    """Rule-based controller: threads→FPS, QP→PSNR/bandwidth, DVFS→power."""

    dvfs_policy = DvfsPolicy.CHIP_WIDE

    def __init__(self, config: HeuristicConfig | None = None) -> None:
        super().__init__()
        self.config = config if config is not None else HeuristicConfig()
        self._qp_actions: ActionSet[int] = default_qp_actions()
        self._dvfs_actions: ActionSet[float] = default_dvfs_actions()
        self._qp_index = self._qp_actions.closest_index(self.config.initial_qp)
        self._threads = min(self.config.initial_threads, self.config.max_threads)
        self._freq_index = self._dvfs_actions.closest_index(
            self.config.initial_frequency_ghz
        )
        self._last_fps: Optional[float] = None
        self._last_threads_increased = False
        self._thread_hold = 0

    @property
    def name(self) -> str:
        return "Heuristic"

    def reset(self) -> None:
        """Clear the observation window; the operating point is kept."""
        super().reset()
        self._last_fps = None
        self._last_threads_increased = False
        self._thread_hold = 0

    # -- Controller interface -------------------------------------------------------

    def decide(self, frame_index: int) -> Decision:
        if frame_index % self.config.period == 0 and self.window.count:
            self._adjust(self.window.average())
            self.window.clear()
        return self._current_decision()

    # -- adjustment rules ------------------------------------------------------------

    def _adjust(self, obs: Observation) -> None:
        cfg = self.config
        # 1. Threads target the frame rate.  Under machine saturation adding
        # threads stops helping, so an increase that did not improve FPS is
        # rolled back and further increases are held off for a while ([19]'s
        # adaptive workload scheme behaves the same way; without this the
        # controller would pointlessly pin the thread count at its maximum).
        if self._last_threads_increased and self._last_fps is not None:
            if obs.fps < self._last_fps + 0.5:
                self._threads = max(1, self._threads - 1)
                self._thread_hold = 4
            self._last_threads_increased = False

        if self._thread_hold > 0:
            self._thread_hold -= 1
        elif obs.fps < cfg.fps_target and self._threads < cfg.max_threads:
            self._threads += 1
            self._last_threads_increased = True
        elif obs.fps > cfg.fps_target + cfg.fps_slack and self._threads > 1:
            self._threads -= 1
        self._last_fps = obs.fps

        # 2. QP targets PSNR subject to the bandwidth constraint.
        if obs.bitrate_mbps > cfg.bandwidth_mbps:
            self._qp_index = self._qp_actions.clamp_index(self._qp_index + 1)
        elif (
            obs.psnr_db < cfg.psnr_target_db
            and obs.bitrate_mbps < (1.0 - cfg.bandwidth_headroom) * cfg.bandwidth_mbps
        ):
            self._qp_index = self._qp_actions.clamp_index(self._qp_index - 1)

        # 3. DVFS reacts to the power cap only.
        if obs.power_w >= cfg.power_cap_w:
            self._freq_index = self._dvfs_actions.clamp_index(self._freq_index - 1)
        elif obs.power_w < cfg.power_cap_w - cfg.power_headroom_w:
            self._freq_index = self._dvfs_actions.clamp_index(self._freq_index + 1)

    def _current_decision(self) -> Decision:
        return Decision(
            qp=self._qp_actions[self._qp_index],
            threads=self._threads,
            frequency_ghz=self._dvfs_actions[self._freq_index],
        )
