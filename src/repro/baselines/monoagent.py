"""Mono-agent Q-learning baseline (adapted from [8], paper Sec. V-A).

A single Q-learning agent controls the *joint* (QP, threads, frequency)
action space.  Because the full joint space is combinatorially large, the
paper's authors train it on a representative subset spanning the same ranges
with coarser granularity; this module does the same (3 QP values x 3 thread
counts x 3 frequencies by default).  The agent acts every 6 frames — the
period of MAMUT's fastest agent — and uses the conventional visit-count
learning rate (the peer term of Eq. 3 does not apply to a single agent).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.constants import (
    DEFAULT_ALPHA_TH1,
    DEFAULT_ALPHA_TH2,
    DEFAULT_BETA,
    DEFAULT_GAMMA,
    DEFAULT_POWER_CAP_W,
    DVFS_VALUES_GHZ,
    QP_VALUES,
)
from repro.core.actions import ActionSet
from repro.core.agent import QLearningAgent
from repro.core.controller import Controller, Decision
from repro.core.learning_rate import LearningRateParameters
from repro.core.phases import Phase
from repro.core.rewards import RewardConfig, RewardFunction
from repro.core.states import StateSpace
from repro.errors import ConfigurationError
from repro.platform.dvfs import DvfsPolicy
from repro.video.request import TranscodingRequest
from repro.video.sequence import ResolutionClass

__all__ = ["MonoAgentConfig", "MonoAgentController"]

#: Coarse subsets spanning the same ranges as MAMUT's action sets (Sec. V-A).
DEFAULT_MONO_QP_VALUES: tuple[int, ...] = (QP_VALUES[0], QP_VALUES[3], QP_VALUES[-1])
DEFAULT_MONO_FREQ_VALUES: tuple[float, ...] = (
    DVFS_VALUES_GHZ[0],
    DVFS_VALUES_GHZ[2],
    DVFS_VALUES_GHZ[-1],
)


def _default_thread_values(max_threads: int) -> tuple[int, ...]:
    """Three thread counts spanning 1..max_threads."""
    if max_threads <= 3:
        return tuple(range(1, max_threads + 1))
    return (1, (1 + max_threads) // 2, max_threads)


@dataclasses.dataclass
class MonoAgentConfig:
    """Configuration of the mono-agent baseline.

    Attributes
    ----------
    qp_values, thread_values, frequency_values:
        The coarse per-dimension grids whose Cartesian product forms the
        joint action space.
    reward:
        Same reward shaping as MAMUT.
    state_space:
        Same state discretisation as MAMUT.
    gamma:
        Discount factor.
    beta, alpha_th1, alpha_th2:
        Visit-count learning-rate constant and the phase thresholds.
    period:
        Frames between two agent activations (6, as in the paper).
    seed:
        Exploration randomness seed.
    """

    qp_values: Sequence[int] = DEFAULT_MONO_QP_VALUES
    thread_values: Sequence[int] = (1, 6, 12)
    frequency_values: Sequence[float] = DEFAULT_MONO_FREQ_VALUES
    reward: RewardConfig = dataclasses.field(default_factory=RewardConfig)
    state_space: StateSpace = dataclasses.field(default_factory=StateSpace)
    gamma: float = DEFAULT_GAMMA
    beta: float = DEFAULT_BETA
    alpha_th1: float = DEFAULT_ALPHA_TH1
    alpha_th2: float = DEFAULT_ALPHA_TH2
    period: int = 6
    exploration_epsilon: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConfigurationError(f"period must be >= 1, got {self.period}")
        if not self.qp_values or not self.thread_values or not self.frequency_values:
            raise ConfigurationError("all action-value grids must be non-empty")

    @classmethod
    def for_request(
        cls,
        request: TranscodingRequest,
        power_cap_w: float = DEFAULT_POWER_CAP_W,
        seed: int = 0,
    ) -> "MonoAgentConfig":
        """Derive a mono-agent configuration from a transcoding request."""
        max_threads = 12 if request.resolution_class is ResolutionClass.HR else 5
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
            thread_values=_default_thread_values(max_threads),
            reward=reward,
            state_space=state_space,
            seed=seed,
        )

    def joint_actions(self) -> ActionSet[tuple[int, int, float]]:
        """The joint action set: every (QP, threads, frequency) combination."""
        combinations = [
            (int(qp), int(threads), float(freq))
            for qp in self.qp_values
            for threads in self.thread_values
            for freq in self.frequency_values
        ]
        return ActionSet("joint", combinations)


class MonoAgentController(Controller):
    """Single Q-learning agent over the joint coarse action space."""

    dvfs_policy = DvfsPolicy.PER_CORE

    def __init__(self, config: MonoAgentConfig | None = None) -> None:
        super().__init__()
        self.config = config if config is not None else MonoAgentConfig()
        self.state_space = self.config.state_space
        self.reward_function = RewardFunction(self.config.reward)
        actions = self.config.joint_actions()
        # A single agent has no peers, so the cross-agent term of Eq. 3 must
        # vanish (beta_prime = 0) or the agent would never leave exploration.
        learning_params = LearningRateParameters(
            beta=self.config.beta,
            beta_prime=0.0,
            alpha_th1=self.config.alpha_th1,
            alpha_th2=self.config.alpha_th2,
        )
        self.agent = QLearningAgent(
            "joint",
            actions,
            gamma=self.config.gamma,
            learning_rate_params=learning_params,
            seed=self.config.seed,
            exploration_epsilon=self.config.exploration_epsilon,
            state_space=self.state_space,
        )
        # The agent's slot holds the action it applies and its owed update.
        self.agent.pool.current[self.agent.slot] = self._initial_action_index(actions)

    @property
    def name(self) -> str:
        return "MonoAgent"

    def reset(self) -> None:
        """Clear per-video transient state; the Q-table is kept."""
        super().reset()
        self.agent.pool.pending[self.agent.slot] = -1

    # -- Controller interface ----------------------------------------------------------

    def decide(self, frame_index: int) -> Decision:
        if frame_index % self.config.period == 0 and self.window.count:
            self._act()
        return self._current_decision()

    # -- internals -----------------------------------------------------------------------

    def _act(self) -> None:
        averaged = self.window.average()
        self.window.clear()
        state = self.state_space.state_index(self.state_space.discretize(averaged))
        pool, slot = self.agent.pool, self.agent.slot

        previous_state, previous_action = pool.pending[slot].tolist()
        if previous_state >= 0:
            reward = self.reward_function.total(averaged)
            self.agent.update(previous_state, previous_action, reward, state, [])

        current = int(pool.current[slot])
        phase = self.agent.phase(state, [])
        if phase is Phase.EXPLORATION:
            action = self.agent.select_exploration_action(state, current=current)
        else:
            action = self.agent.select_greedy_action(state, current=current)

        pool.current[slot] = action
        pool.pending[slot] = state, action

    def _current_decision(self) -> Decision:
        qp, threads, frequency = self.agent.actions[self.agent.pool.current[self.agent.slot]]
        return Decision(qp=qp, threads=threads, frequency_ghz=frequency)

    @staticmethod
    def _initial_action_index(actions: ActionSet[tuple[int, int, float]]) -> int:
        """Start from the middle QP with the most threads at the highest frequency."""
        best_index = 0
        best_key = None
        for index, (qp, threads, frequency) in enumerate(actions):
            key = (threads, frequency, -abs(qp - 30))
            if best_key is None or key > best_key:
                best_key = key
                best_index = index
        return best_index
