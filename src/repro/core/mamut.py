"""MAMUT: the multi-agent Q-learning controller (paper Sec. III-IV).

The controller owns three :class:`~repro.core.agent.QLearningAgent` instances
— QP, threads and DVFS — activated according to the schedule of Fig. 3.  Its
per-frame operation is:

1. the session adds every committed frame's observation to the controller's
   :class:`~repro.core.observation.ObservationWindow`;
2. when an agent is scheduled, average the window (this covers the NULL
   slots of Fig. 3), discretise it into the next state, compute the reward,
   and apply the pending Q update of the *previously* acting agent;
3. let the scheduled agent pick its action according to its learning phase
   for the current state: random (exploration), own-greedy
   (exploration-exploitation), or the chained expected-Q policy of
   Algorithm 1 (exploitation, falling back to own-greedy when the following
   agents are not in exploitation yet);
4. fold the chosen action into the running (QP, threads, frequency) decision.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.agent import QLearningAgent
from repro.core.config import MamutConfig
from repro.core.controller import Controller, Decision
from repro.core.exploitation import expected_q_action
from repro.core.phases import Phase
from repro.core.rewards import RewardFunction
from repro.core.states import SystemState
from repro.errors import LearningError
from repro.platform.dvfs import DvfsPolicy

__all__ = ["AgentActivation", "MamutController"]

#: Names of the three agents, also used by the default schedule.
QP_AGENT = "qp"
THREAD_AGENT = "threads"
DVFS_AGENT = "dvfs"


@dataclasses.dataclass(frozen=True)
class AgentActivation:
    """One recorded agent activation (kept when ``record_history`` is on).

    Attributes
    ----------
    frame_index:
        Frame right before which the agent acted.
    agent:
        Name of the acting agent.
    state:
        Discrete state the agent acted in.
    action_index:
        Index of the chosen action within the agent's action set.
    action_value:
        The actual value applied (QP, thread count, or frequency).
    phase:
        Learning phase of the agent for that state.
    reward:
        Reward used to close the *previous* pending update (``None`` for the
        first activation).
    """

    frame_index: int
    agent: str
    state: SystemState
    action_index: int
    action_value: object
    phase: Phase
    reward: Optional[float]


@dataclasses.dataclass
class _PendingUpdate:
    """Bookkeeping for an action whose consequences are not yet credited."""

    agent_name: str
    state: int
    action_index: int


class MamutController(Controller):
    """Multi-agent run-time manager for one transcoding session.

    Parameters
    ----------
    config:
        Action sets, reward shaping, state space, learning constants and the
        activation schedule.  Use :meth:`MamutConfig.for_request` to derive a
        configuration from a :class:`~repro.video.request.TranscodingRequest`.
    """

    dvfs_policy = DvfsPolicy.PER_CORE

    def __init__(self, config: MamutConfig | None = None) -> None:
        super().__init__()
        self.config = config if config is not None else MamutConfig()
        self.state_space = self.config.state_space
        self.reward_function = RewardFunction(self.config.reward)
        self.schedule = self.config.schedule

        self.agents: dict[str, QLearningAgent] = {
            QP_AGENT: QLearningAgent(
                QP_AGENT,
                self.config.qp_actions,
                gamma=self.config.gamma,
                learning_rate_params=self.config.learning_rate,
                seed=self.config.seed,
                exploration_epsilon=self.config.exploration_epsilon,
                state_space=self.state_space,
            ),
            THREAD_AGENT: QLearningAgent(
                THREAD_AGENT,
                self.config.thread_actions,
                gamma=self.config.gamma,
                learning_rate_params=self.config.learning_rate,
                seed=self.config.seed + 1,
                exploration_epsilon=self.config.exploration_epsilon,
                state_space=self.state_space,
            ),
            DVFS_AGENT: QLearningAgent(
                DVFS_AGENT,
                self.config.dvfs_actions,
                gamma=self.config.gamma,
                learning_rate_params=self.config.learning_rate,
                seed=self.config.seed + 2,
                exploration_epsilon=self.config.exploration_epsilon,
                state_space=self.state_space,
            ),
        }
        for name in self.schedule.agent_names:
            if name not in self.agents:
                raise LearningError(
                    f"schedule references unknown agent {name!r}; "
                    f"known agents: {sorted(self.agents)}"
                )

        self._current_indices: dict[str, int] = {
            QP_AGENT: self.config.qp_actions.index_of(self.config.initial_qp),
            THREAD_AGENT: self.config.thread_actions.index_of(self.config.initial_threads),
            DVFS_AGENT: self.config.dvfs_actions.index_of(
                self.config.initial_frequency_ghz
            ),
        }
        self._pending: Optional[_PendingUpdate] = None
        self.history: list[AgentActivation] = []
        # chain_after(frame) only depends on frame % hyper_period; exploitation
        # activations hit it every time, so memoise per congruence class.
        self._chain_cache: dict[int, list[str]] = {}

    # -- Controller interface ----------------------------------------------------------

    @property
    def name(self) -> str:
        return "MAMUT"

    def reset(self) -> None:
        """Clear per-video transient state; learned knowledge is kept."""
        super().reset()
        self._pending = None

    def decide(self, frame_index: int) -> Decision:
        agent_name = self.schedule.agent_at(frame_index)
        if agent_name is not None and self.window.count:
            self._activate(agent_name, frame_index)
        return self.current_decision()

    # -- decision assembly ----------------------------------------------------------------

    def current_decision(self) -> Decision:
        """The (QP, threads, frequency) currently applied to the session."""
        return Decision(
            qp=self.config.qp_actions[self._current_indices[QP_AGENT]],
            threads=self.config.thread_actions[self._current_indices[THREAD_AGENT]],
            frequency_ghz=self.config.dvfs_actions[self._current_indices[DVFS_AGENT]],
        )

    # -- learning machinery -----------------------------------------------------------------

    def _peer_min_counts(self, agent_name: str) -> list[int]:
        """``min_a Num_j(a)`` of every agent other than ``agent_name`` (Eq. 3)."""
        return [
            agent.min_action_count()
            for name, agent in self.agents.items()
            if name != agent_name
        ]

    def _activate(self, agent_name: str, frame_index: int) -> None:
        """Average the window, discretise, and let ``agent_name`` act."""
        averaged = self.window.average()
        current_state = self.state_space.state_index(
            self.state_space.discretize(averaged)
        )
        reward_value = (
            self.reward_function.total(averaged) if self._pending is not None else None
        )
        self.apply_external_activation(
            agent_name, frame_index, current_state, reward_value
        )

    def apply_external_activation(
        self,
        agent_name: str,
        frame_index: int,
        current_state: int,
        reward_value: Optional[float],
    ) -> None:
        """Run one activation whose observation window was averaged externally.

        This is :meth:`_activate` with the averaging, discretisation and
        reward evaluation hoisted out: the batch stepping engine
        (:mod:`repro.cluster.batch`) reads the windows of every activating
        session and computes ``current_state`` — the dense
        :meth:`~repro.core.states.StateSpace.state_index` integer, via
        :meth:`~repro.core.states.StateSpace.discretize_batch` and
        :meth:`~repro.core.states.StateSpace.state_index_batch` — and
        ``reward_value`` (via
        :meth:`~repro.core.rewards.RewardFunction.total_batch`, bitwise the
        scalar reward) for all of them in one vectorized shot, then calls
        this per session — in the session's own order, so exploration RNG
        draws, Q updates and history stay identical to the scalar path.
        The window, now consumed, is emptied.
        ``reward_value`` is ignored when no update is pending (the caller
        may compute it unconditionally).
        """
        self.window.clear()
        reward: Optional[float] = None

        if self._pending is not None:
            reward = reward_value
            pending_agent = self.agents[self._pending.agent_name]
            pending_agent.update(
                self._pending.state,
                self._pending.action_index,
                reward,
                current_state,
                self._peer_min_counts(self._pending.agent_name),
            )

        agent = self.agents[agent_name]
        phase = agent.phase(current_state, self._peer_min_counts(agent_name))
        action_index = self._select_action(agent_name, agent, current_state, phase, frame_index)

        self._current_indices[agent_name] = action_index
        self._pending = _PendingUpdate(
            agent_name=agent_name, state=current_state, action_index=action_index
        )

        if self.config.record_history:
            self.history.append(
                AgentActivation(
                    frame_index=frame_index,
                    agent=agent_name,
                    state=self.state_space.index_to_state(current_state),
                    action_index=action_index,
                    action_value=agent.actions[action_index],
                    phase=phase,
                    reward=reward,
                )
            )

    def _select_action(
        self,
        agent_name: str,
        agent: QLearningAgent,
        state: int,
        phase: Phase,
        frame_index: int,
    ) -> int:
        """Pick an action for the scheduled agent according to its phase."""
        current = self._current_indices[agent_name]
        if phase is Phase.EXPLORATION:
            return agent.select_exploration_action(state, current=current)
        if phase is Phase.EXPLORATION_EXPLOITATION:
            return agent.select_greedy_action(state, current=current)

        # Exploitation: use Algorithm 1 over the chain of following agents,
        # but only when they have all reached exploitation for this state
        # (Sec. IV-C); otherwise fall back to the agent's own Q-table.
        chain_key = frame_index % self.schedule.hyper_period
        chain_names = self._chain_cache.get(chain_key)
        if chain_names is None:
            chain_names = self.schedule.chain_after(frame_index)
            self._chain_cache[chain_key] = chain_names
        chain = [self.agents[name] for name in chain_names]
        peers_ready = all(
            peer.phase(state, self._peer_min_counts(peer.name)) is Phase.EXPLOITATION
            for peer in chain
        )
        if not peers_ready:
            return agent.select_greedy_action(state, current=current)
        return expected_q_action(agent, state, chain, current=current)

    # -- diagnostics ------------------------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per-agent diagnostic snapshot (visited states, Q entries, counts)."""
        return {name: agent.summary() for name, agent in self.agents.items()}
