"""Reward functions (paper Sec. III-D).

Four reward terms are defined, one per observed quantity:

* **Throughput** (Eq. 1): ``-4`` below the FPS target; ``1/(FPS - (target-1))``
  otherwise — maximal (1.0) exactly at the target and decaying above it, so
  the agents do not waste resources over-achieving.
* **PSNR** (Eq. 2): ``-4`` outside the acceptable 30-50 dB range;
  ``a·e^(PSNR/50) - b`` inside, with ``a`` and ``b`` fixed so the reward is 0
  at 30 dB and 1 at 50 dB.
* **Bitrate** and **power**: pure constraints — ``-4`` when the user's
  bandwidth or the server power cap is violated, ``0`` otherwise.

The total reward used for the Q update is the (optionally weighted) sum of
the four terms.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.constants import (
    DEFAULT_BANDWIDTH_MBPS,
    DEFAULT_POWER_CAP_W,
    PSNR_MAX_DB,
    PSNR_MIN_DB,
    TARGET_FPS,
)
from repro.core.observation import Observation
from repro.errors import ConfigurationError

__all__ = ["RewardConfig", "RewardBreakdown", "RewardFunction"]

#: Penalty applied when an objective/constraint is violated (paper uses -4).
VIOLATION_PENALTY: float = -4.0


@dataclasses.dataclass(frozen=True)
class RewardConfig:
    """Targets and constraints shaping the reward.

    Attributes
    ----------
    fps_target:
        Real-time throughput target (24 FPS in the paper).
    psnr_min_db, psnr_max_db:
        Acceptable PSNR range for 8-bit lossy content (30-50 dB).
    bandwidth_mbps:
        The user's available bandwidth; bitrates above it are penalised.
    power_cap_w:
        Server power cap; package power at or above it is penalised.
    fps_weight, psnr_weight, bitrate_weight, power_weight:
        Weights of the four terms in the total reward (all 1.0 by default).
    """

    fps_target: float = TARGET_FPS
    psnr_min_db: float = PSNR_MIN_DB
    psnr_max_db: float = PSNR_MAX_DB
    bandwidth_mbps: float = DEFAULT_BANDWIDTH_MBPS
    power_cap_w: float = DEFAULT_POWER_CAP_W
    fps_weight: float = 1.0
    psnr_weight: float = 1.0
    bitrate_weight: float = 1.0
    power_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.fps_target <= 0:
            raise ConfigurationError(f"fps_target must be positive, got {self.fps_target}")
        if self.psnr_min_db >= self.psnr_max_db:
            raise ConfigurationError("psnr_min_db must be below psnr_max_db")
        if self.bandwidth_mbps <= 0:
            raise ConfigurationError(
                f"bandwidth_mbps must be positive, got {self.bandwidth_mbps}"
            )
        if self.power_cap_w <= 0:
            raise ConfigurationError(
                f"power_cap_w must be positive, got {self.power_cap_w}"
            )


@dataclasses.dataclass(frozen=True)
class RewardBreakdown:
    """The four reward terms and their weighted total."""

    fps: float
    psnr: float
    bitrate: float
    power: float
    total: float


class RewardFunction:
    """Computes the reward terms of Sec. III-D for an observation."""

    def __init__(self, config: RewardConfig | None = None) -> None:
        self.config = config if config is not None else RewardConfig()
        # Constants of Eq. 2, chosen so the PSNR reward is 0 at psnr_min and
        # 1 at psnr_max (the paper states 0 at 30 dB and 1 at 50 dB).
        scale = self.config.psnr_max_db
        e_min = math.exp(self.config.psnr_min_db / scale)
        e_max = math.exp(self.config.psnr_max_db / scale)
        self._psnr_a = 1.0 / (e_max - e_min)
        self._psnr_b = self._psnr_a * e_min

    # -- individual terms -------------------------------------------------------

    def fps_reward(self, fps: float) -> float:
        """Throughput reward, Eq. 1."""
        target = self.config.fps_target
        if fps < target:
            return VIOLATION_PENALTY
        return 1.0 / (fps - (target - 1.0))

    def psnr_reward(self, psnr_db: float) -> float:
        """Video-quality reward, Eq. 2."""
        cfg = self.config
        if psnr_db < cfg.psnr_min_db or psnr_db > cfg.psnr_max_db:
            return VIOLATION_PENALTY
        return self._psnr_a * math.exp(psnr_db / cfg.psnr_max_db) - self._psnr_b

    def bitrate_reward(self, bitrate_mbps: float) -> float:
        """Compression-constraint reward: penalise bandwidth violations."""
        return VIOLATION_PENALTY if bitrate_mbps > self.config.bandwidth_mbps else 0.0

    def power_reward(self, power_w: float) -> float:
        """Power-constraint reward: penalise power-cap violations."""
        return VIOLATION_PENALTY if power_w >= self.config.power_cap_w else 0.0

    # -- aggregate ---------------------------------------------------------------

    def breakdown(self, observation: Observation) -> RewardBreakdown:
        """All four reward terms plus the weighted total for an observation."""
        cfg = self.config
        fps = self.fps_reward(observation.fps)
        psnr = self.psnr_reward(observation.psnr_db)
        bitrate = self.bitrate_reward(observation.bitrate_mbps)
        power = self.power_reward(observation.power_w)
        total = (
            cfg.fps_weight * fps
            + cfg.psnr_weight * psnr
            + cfg.bitrate_weight * bitrate
            + cfg.power_weight * power
        )
        return RewardBreakdown(fps=fps, psnr=psnr, bitrate=bitrate, power=power, total=total)

    def total(self, observation: Observation) -> float:
        """Weighted total reward for an observation."""
        return self.breakdown(observation).total

    # -- batch entry points -----------------------------------------------------

    def total_batch(
        self,
        fps: np.ndarray,
        psnr_db: np.ndarray,
        bitrate_mbps: np.ndarray,
        power_w: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`total` over parallel observation arrays.

        Bitwise equal to the scalar :meth:`total`: the penalty branches and
        the FPS/bitrate/power terms are the same IEEE operations, and the
        exponential of each in-range PSNR element goes through ``math.exp``
        (``np.exp``'s SIMD kernels may differ from it in the last ULP);
        everything around it stays vectorized.  The batch stepping engine
        relies on this for its seed-for-seed Q-table equivalence.
        """
        cfg = self.config
        fps = np.asarray(fps)
        psnr_db = np.asarray(psnr_db)
        bitrate_mbps = np.asarray(bitrate_mbps)
        power_w = np.asarray(power_w)

        denom = fps - (cfg.fps_target - 1.0)
        with np.errstate(divide="ignore"):
            above = 1.0 / denom
        fps_r = np.where(fps < cfg.fps_target, VIOLATION_PENALTY, above)

        in_range = (psnr_db >= cfg.psnr_min_db) & (psnr_db <= cfg.psnr_max_db)
        scaled = psnr_db / cfg.psnr_max_db
        exp_term = np.zeros_like(scaled)
        if in_range.any():
            exp_term[in_range] = [math.exp(v) for v in scaled[in_range]]
        psnr_r = np.where(
            in_range,
            self._psnr_a * exp_term - self._psnr_b,
            VIOLATION_PENALTY,
        )

        bitrate_r = np.where(
            bitrate_mbps > cfg.bandwidth_mbps, VIOLATION_PENALTY, 0.0
        )
        power_r = np.where(power_w >= cfg.power_cap_w, VIOLATION_PENALTY, 0.0)

        return (
            cfg.fps_weight * fps_r
            + cfg.psnr_weight * psnr_r
            + cfg.bitrate_weight * bitrate_r
            + cfg.power_weight * power_r
        )
