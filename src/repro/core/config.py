"""Configuration bundle for the MAMUT controller."""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.constants import DEFAULT_GAMMA, DEFAULT_POWER_CAP_W
from repro.core.actions import (
    ActionSet,
    default_dvfs_actions,
    default_qp_actions,
    default_thread_actions,
)
from repro.core.learning_rate import LearningRateParameters
from repro.core.rewards import RewardConfig
from repro.core.schedule import AgentSchedule
from repro.core.states import StateSpace
from repro.errors import ConfigurationError
from repro.video.request import TranscodingRequest

__all__ = ["MamutConfig"]

#: The paper's schedule.  A schedule never changes once built, so every
#: configuration that names none shares this one (and its activation table).
_PAPER_SCHEDULE = AgentSchedule.mamut_default()


@dataclasses.dataclass
class MamutConfig:
    """Everything needed to instantiate a :class:`~repro.core.mamut.MamutController`.

    Attributes
    ----------
    qp_actions, thread_actions, dvfs_actions:
        The three agents' action subsets (Sec. III-B).
    reward:
        Targets and constraints of the reward function (Sec. III-D).
    state_space:
        Discretisation of the observations (Sec. III-C).
    learning_rate:
        Constants of Eq. 3 and the phase thresholds (Sec. IV-B).
    gamma:
        Discount factor (paper: 0.6).
    schedule:
        Agent activation sequence (Fig. 3); defaults to the paper's periods.
    initial_qp, initial_threads, initial_frequency_ghz:
        Configuration applied before the agents have observed anything.
        ``None`` picks the middle QP, the largest thread count and the
        highest frequency of the corresponding action sets.
    exploration_epsilon:
        Probability of picking the least-tried action (instead of the greedy
        one) during the exploration phase once every action of a state has
        been tried at least once (see
        :class:`~repro.core.agent.QLearningAgent`).
    seed:
        Base seed for the agents' exploration randomness.
    record_history:
        When True the controller keeps a per-activation trace (frame, agent,
        action, phase) useful for Fig. 5-style plots and debugging.
    """

    qp_actions: ActionSet = dataclasses.field(default_factory=default_qp_actions)
    thread_actions: ActionSet = dataclasses.field(
        default_factory=lambda: default_thread_actions(max_threads=12)
    )
    dvfs_actions: ActionSet = dataclasses.field(default_factory=default_dvfs_actions)
    reward: RewardConfig = dataclasses.field(default_factory=RewardConfig)
    state_space: StateSpace = dataclasses.field(default_factory=StateSpace)
    learning_rate: LearningRateParameters = dataclasses.field(
        default_factory=LearningRateParameters
    )
    gamma: float = DEFAULT_GAMMA
    schedule: Optional[AgentSchedule] = None
    initial_qp: Optional[int] = None
    initial_threads: Optional[int] = None
    initial_frequency_ghz: Optional[float] = None
    exploration_epsilon: float = 0.15
    seed: int = 0
    record_history: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigurationError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 <= self.exploration_epsilon <= 1.0:
            raise ConfigurationError(
                f"exploration_epsilon must be in [0, 1], got {self.exploration_epsilon}"
            )
        if self.schedule is None:
            self.schedule = _PAPER_SCHEDULE
        if self.initial_qp is None:
            self.initial_qp = self.qp_actions[len(self.qp_actions) // 2]
        if self.initial_threads is None:
            self.initial_threads = self.thread_actions[len(self.thread_actions) - 1]
        if self.initial_frequency_ghz is None:
            self.initial_frequency_ghz = self.dvfs_actions[len(self.dvfs_actions) - 1]
        if self.initial_qp not in self.qp_actions:
            raise ConfigurationError(
                f"initial_qp {self.initial_qp} not in the QP action set"
            )
        if self.initial_threads not in self.thread_actions:
            raise ConfigurationError(
                f"initial_threads {self.initial_threads} not in the thread action set"
            )
        if self.initial_frequency_ghz not in self.dvfs_actions:
            raise ConfigurationError(
                f"initial_frequency_ghz {self.initial_frequency_ghz} "
                "not in the DVFS action set"
            )
        # The reward and the state space must agree on the same targets, or the
        # agents would be rewarded for states they cannot distinguish.
        if abs(self.reward.fps_target - self.state_space.fps_target) > 1e-9:
            raise ConfigurationError(
                "reward.fps_target and state_space.fps_target must match"
            )
        if abs(self.reward.power_cap_w - self.state_space.power_cap_w) > 1e-9:
            raise ConfigurationError(
                "reward.power_cap_w and state_space.power_cap_w must match"
            )

    @classmethod
    def for_request(
        cls,
        request: TranscodingRequest,
        power_cap_w: float = DEFAULT_POWER_CAP_W,
        seed: int = 0,
        record_history: bool = False,
    ) -> "MamutConfig":
        """Build a configuration tailored to one transcoding request.

        The thread action set is capped at the saturation point of the
        request's resolution class (12 for HR, 5 for LR), and the bandwidth
        constraint of the reward/state space is taken from the request.
        """
        reward = RewardConfig(
            fps_target=request.target_fps,
            bandwidth_mbps=request.bandwidth_mbps,
            power_cap_w=power_cap_w,
        )
        state_space = StateSpace(
            fps_target=request.target_fps,
            bitrate_edges_mbps=(request.bandwidth_mbps / 2.0, request.bandwidth_mbps),
            power_cap_w=power_cap_w,
        )
        return cls(
            thread_actions=default_thread_actions(request.resolution_class),
            reward=reward,
            state_space=state_space,
            seed=seed,
            record_history=record_history,
        )
