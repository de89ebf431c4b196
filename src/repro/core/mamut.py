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

Everything the agents learn lives in a
:class:`~repro.core.store.LearningStore`, shared by every controller a
factory builds, and so do the action each applies and the update each is
owed.  The step has two forms side by side:
:meth:`MamutController.decide` for one controller (the scalar engine) and
:meth:`MamutBatch.decide` for a fleet (the batch engine).  Each piece of the
batch form sits beside its scalar form in that form's module, and
``tests/test_core_store.py`` pins the whole step.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from repro.core.agent import QLearningAgent
from repro.core.config import MamutConfig
from repro.core.controller import Controller, Decision
from repro.core.exploitation import expected_q_action
from repro.core.observation import ObservationWindow
from repro.core.phases import Phase
from repro.core.rewards import RewardFunction
from repro.core.states import SystemState
from repro.core.store import PHASES, LearningStore
from repro.errors import LearningError
from repro.platform.dvfs import DvfsPolicy

__all__ = ["AgentActivation", "MamutBatch", "MamutController"]

#: Names of the three agents, also used by the default schedule.
QP_AGENT = "qp"
THREAD_AGENT = "threads"
DVFS_AGENT = "dvfs"
#: The agents of every controller, in the order of ``MamutController.agents``.
AGENT_NAMES = (QP_AGENT, THREAD_AGENT, DVFS_AGENT)


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


class MamutController(Controller):
    """Multi-agent run-time manager for one transcoding session.

    Parameters
    ----------
    config:
        Action sets, reward shaping, state space, learning constants and the
        activation schedule.  Use :meth:`MamutConfig.for_request` to derive a
        configuration from a :class:`~repro.video.request.TranscodingRequest`.
    store:
        Where the three agents keep what they learn, apply and are owed; a
        controller factory passes the store it shares between all its
        controllers.  ``None`` gives each agent a private one.
    """

    dvfs_policy = DvfsPolicy.PER_CORE

    def __init__(
        self, config: MamutConfig | None = None, store: LearningStore | None = None
    ) -> None:
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
                store=store,
            ),
            THREAD_AGENT: QLearningAgent(
                THREAD_AGENT,
                self.config.thread_actions,
                gamma=self.config.gamma,
                learning_rate_params=self.config.learning_rate,
                seed=self.config.seed + 1,
                exploration_epsilon=self.config.exploration_epsilon,
                state_space=self.state_space,
                store=store,
            ),
            DVFS_AGENT: QLearningAgent(
                DVFS_AGENT,
                self.config.dvfs_actions,
                gamma=self.config.gamma,
                learning_rate_params=self.config.learning_rate,
                seed=self.config.seed + 2,
                exploration_epsilon=self.config.exploration_epsilon,
                state_space=self.state_space,
                store=store,
            ),
        }
        #: Each agent's pool and slot, in AGENT_NAMES order; fixed for life.
        self.agent_pools = tuple(agent.pool for agent in self.agents.values())
        self.agent_slots = tuple(agent.slot for agent in self.agents.values())
        for name in self.schedule.agent_names:
            if name not in self.agents:
                raise LearningError(
                    f"schedule references unknown agent {name!r}; "
                    f"known agents: {sorted(self.agents)}"
                )

        initial = (
            self.config.initial_qp, self.config.initial_threads, self.config.initial_frequency_ghz
        )
        for agent, value in zip(self.agents.values(), initial):
            agent.pool.current[agent.slot] = agent.actions.index_of(value)
        self.history: list[AgentActivation] = []

    # -- Controller interface ----------------------------------------------------------

    @property
    def name(self) -> str:
        return "MAMUT"

    def reset(self) -> None:
        """Clear per-video transient state; learned knowledge is kept."""
        super().reset()
        for pool, slot in zip(self.agent_pools, self.agent_slots):
            pool.pending[slot] = -1

    def decide(self, frame_index: int) -> Decision:
        agent_name = self.schedule.agent_at(frame_index)
        if agent_name is not None and self.window.count:
            self._activate(agent_name, frame_index)
        return self.current_decision()

    # -- decision assembly ----------------------------------------------------------------

    def current_decision(self) -> Decision:
        """The (QP, threads, frequency) currently applied to the session."""
        qp, threads, frequency = (
            agent.actions[agent.pool.current[agent.slot]] for agent in self.agents.values()
        )
        return Decision(qp=qp, threads=threads, frequency_ghz=frequency)

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
        self.apply_external_activation(
            agent_name, frame_index, current_state, self.reward_function.total(averaged)
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
        reward evaluation hoisted out; ``current_state`` is the dense
        :meth:`~repro.core.states.StateSpace.state_index` integer.  It is
        the scalar form of :meth:`MamutBatch.activate`.  The window, now
        consumed, is emptied.
        ``reward_value`` is ignored when no update is pending (the caller
        may compute it unconditionally).
        """
        self.window.clear()
        reward: Optional[float] = None

        for pending_name, owing in self.agents.items():
            pending_state, pending_action = owing.pool.pending[owing.slot].tolist()
            if pending_state >= 0:  # the last actor's; no other agent is owed
                reward = reward_value
                owing.update(
                    pending_state,
                    pending_action,
                    reward,
                    current_state,
                    self._peer_min_counts(pending_name),
                )
                owing.pool.pending[owing.slot] = -1
                break

        agent = self.agents[agent_name]
        phase = agent.phase(current_state, self._peer_min_counts(agent_name))
        action_index = self._select_action(agent_name, agent, current_state, phase, frame_index)

        agent.pool.current[agent.slot] = action_index
        agent.pool.pending[agent.slot] = current_state, action_index

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
        current = int(agent.pool.current[agent.slot])
        if phase is Phase.EXPLORATION:
            return agent.select_exploration_action(state, current=current)
        if phase is Phase.EXPLORATION_EXPLOITATION:
            return agent.select_greedy_action(state, current=current)

        # Exploitation: use Algorithm 1 over the chain of following agents,
        # but only when they have all reached exploitation for this state
        # (Sec. IV-C); otherwise fall back to the agent's own Q-table.
        chain = [self.agents[name] for name in self.schedule.chain_after(frame_index)]
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


#: Position of each agent name in :data:`AGENT_NAMES`.
_AGENT_IDS = {name: gid for gid, name in enumerate(AGENT_NAMES)}
_EXPLORATION, _EXPLORATION_EXPLOITATION, _EXPLOITATION = range(len(PHASES))


def _intern(ids: dict, table: list, key, value) -> int:
    """The id of ``key``; a new key gets the next id, and ``value`` joins ``table``."""
    found = ids.get(key)
    if found is None:
        found = ids[key] = len(table)
        table.append(value)
    return found


def _members(group_of: np.ndarray) -> list[tuple]:
    """``(group id, positions)`` of each group in ``group_of``.

    A group that spans every position indexes with a basic slice.
    """
    if not len(group_of):
        return []
    if (group_of == group_of[0]).all():
        return [(int(group_of[0]), slice(None))]
    return [(gid, np.flatnonzero(group_of == gid)) for gid in np.unique(group_of).tolist()]


class MamutBatch:
    """Batch form of :meth:`MamutController.decide`, for the fleet of a roster.

    Built empty, it is laid out by :meth:`roster` over controllers and their
    rows.  :meth:`decide` looks up every schedule at each controller's frame
    (:meth:`~repro.core.schedule.AgentSchedule.agent_at_batch`), averages
    the windows of the controllers whose agent acts
    (:meth:`~repro.core.observation.ObservationWindow.average_batch`),
    discretises and rewards them once per (state space, reward) group, and
    runs :meth:`activate`, the batch form of
    :meth:`MamutController.apply_external_activation`: the owed updates
    (:meth:`~repro.core.store.AgentPool.update_batch`, with the peer minima
    of Eq. 3 read before them), then the acting agents' phases, greedy and
    least-tried sets, each as array operations per pool.  Only each agent's
    own ``random()``/``integers()`` draws, where the scalar path draws, and
    Algorithm 1 for an agent in exploitation, after every array write, stay
    per session.

    One instance serves a run's rosters one after another.  A controller's
    :meth:`row` (its schedule group, its (state space, reward) group and its
    agents' pool ids and slots) is fixed for its life, so the caller reads
    it once and carries it.  What the agents apply and are owed lives in
    their slots (``current``, ``pending``), which both forms read and write:
    a controller may decide on the scalar form in or out of a roster, and
    only its entry of :attr:`values` is stale until the next :meth:`roster`.

    Sessions only touch their own agents and generators, so the result is
    bitwise that of the scalar calls per controller, in any order.  Besides
    the controllers the instance keeps only caches: the grouping tables,
    the roster's pool ids and slots and the current decisions
    (:attr:`values`, one float array per agent of :data:`AGENT_NAMES`).
    """

    #: Entries of a :meth:`row`.
    ROW_WIDTH = 2 + 2 * len(AGENT_NAMES)

    def __init__(self) -> None:
        # Grouping tables, one entry per distinct key, in first-seen order.
        self._schedule_ids: dict[tuple, int] = {}
        self._schedule_table: list[tuple] = []
        self._model_ids: dict[tuple, int] = {}
        self._models: list[tuple] = []
        self._pool_index: dict = {}
        self.pools: list = []
        self._action_values = np.zeros((0, 0))
        self.roster([], [])

    def row(self, ctl: MamutController) -> list[int]:
        """``ctl``'s row: its schedule group, its (state space, reward) group,
        then its agents' pool ids and slots, in :data:`AGENT_NAMES` order."""
        return [
            _intern(self._schedule_ids, self._schedule_table, ctl.schedule.key, ctl.schedule),
            _intern(
                self._model_ids,
                self._models,
                (ctl.state_space.key, ctl.reward_function.key),
                (ctl.state_space, ctl.reward_function),
            ),
            *[_intern(self._pool_index, self.pools, pool, pool) for pool in ctl.agent_pools],
            *ctl.agent_slots,
        ]

    def roster(self, controllers: Sequence[MamutController], rows: np.ndarray) -> None:
        """Lay the instance out over ``controllers`` and their rows.

        ``rows[j]`` is what :meth:`row` gave for ``controllers[j]``.  No
        controller is read: :attr:`values` comes from the agents' slots.
        """
        self.controllers = list(controllers)
        width = len(AGENT_NAMES)
        rows = np.asarray(rows, dtype=np.int64).reshape(len(self.controllers), self.ROW_WIDTH)
        if len(self._action_values) < len(self.pools):
            # The value of action a of pool p sits at [p, a].
            self._action_values = np.zeros(
                (len(self.pools), max(pool.num_actions for pool in self.pools))
            )
            for pid, pool in enumerate(self.pools):
                self._action_values[pid, : pool.num_actions] = pool.action_values

        # Lanes sharing a schedule are looked up together; each schedule's
        # agents map onto AGENT_NAMES, and a NULL slot's -1 reads the last -1.
        self._schedules = []
        for gid, members in _members(rows[:, 0]):
            schedule = self._schedule_table[gid]
            ids = np.array([*map(_AGENT_IDS.get, schedule.agent_names), -1])
            self._schedules.append((schedule, ids, members))
        # Lanes whose state space and reward match are binned and rewarded
        # together.
        self._model_of = rows[:, 1]
        self.pool_ids = rows[:, 2 : 2 + width]
        self.slots = rows[:, 2 + width :]
        slot = self.slots.ravel()
        current = np.empty(len(slot), dtype=np.int64)
        for pool, positions in self._by_pool(self.pool_ids.ravel()):
            current[positions] = pool.current[slot[positions]]
        current = current.reshape(self.slots.shape)
        self.values = [
            self._action_values[self.pool_ids[:, gid], current[:, gid]]
            for gid in range(width)
        ]

    def decide(self, frame_indices: np.ndarray) -> None:
        """:meth:`MamutController.decide` for every controller, at its frame.

        ``frame_indices`` holds one frame per controller, in roster order.
        The decisions are then in :attr:`values`.
        """
        frames = np.asarray(frame_indices, dtype=np.int64)
        agent_ids = np.empty(len(frames), dtype=np.int64)
        for schedule, ids, members in self._schedules:
            agent_ids[members] = ids[schedule.agent_at_batch(frames[members])]
        # A scheduled agent acts only on a non-empty window.
        controllers = self.controllers
        acting = [
            j for j in np.flatnonzero(agent_ids >= 0).tolist() if controllers[j].window.count
        ]
        if acting:
            lanes = np.array(acting, dtype=np.int64)
            averaged = ObservationWindow.average_batch(
                [controllers[j].window for j in acting]
            )
            states = np.empty(len(lanes), dtype=np.int64)
            rewards = np.empty(len(lanes))
            model_of = self._model_of[lanes]
            for model, (space, reward_function) in enumerate(self._models):
                rows = model_of == model
                if not rows.any():
                    continue
                observed = [column[rows] for column in averaged]
                states[rows] = space.state_index_batch(space.discretize_batch(*observed))
                rewards[rows] = reward_function.total_batch(*observed)
            self.activate(lanes, agent_ids[lanes], frames[lanes].tolist(), states, rewards)

    def _by_pool(self, pool_id: np.ndarray) -> list[tuple]:
        """``(pool, positions)`` for each pool that ``pool_id`` names."""
        if not len(pool_id):
            return []
        order = np.argsort(pool_id, kind="stable")
        ordered = pool_id[order]
        cuts = ((ordered[1:] != ordered[:-1]).nonzero()[0] + 1).tolist()
        bounds = [0, *cuts, len(order)]
        firsts = ordered[bounds[:-1]].tolist()
        return [
            (self.pools[pid], order[start:end])
            for pid, start, end in zip(firsts, bounds[:-1], bounds[1:])
        ]

    def activate(
        self,
        lanes: np.ndarray,
        agent_ids: np.ndarray,
        frame_indices: Sequence[int],
        current_states: np.ndarray,
        reward_values: np.ndarray,
    ) -> None:
        """One activation of each controller at ``lanes`` (distinct positions).

        ``agent_ids`` indexes :data:`AGENT_NAMES` (the acting agent), and
        ``frame_indices``, ``current_states`` and ``reward_values`` are what
        :meth:`MamutController.apply_external_activation` takes, per lane.
        """
        count = len(lanes)
        ids = agent_ids.tolist()
        controllers = [self.controllers[j] for j in lanes.tolist()]
        slots = self.slots[lanes]
        pool_ids = self.pool_ids[lanes]

        # What every agent's slot holds: min_a Num(a), the update it is owed
        # and the action it applies.
        slot = slots.ravel()
        minima = np.empty(len(slot), dtype=np.int64)
        owed = np.empty((len(slot), 2), dtype=np.int64)
        applied = np.empty(len(slot), dtype=np.int64)
        for pool, positions in self._by_pool(pool_ids.ravel()):
            at = slot[positions]
            minima[positions] = pool.min_action_counts[at]
            owed[positions] = pool.pending[at]
            applied[positions] = pool.current[at]
        minima = minima.reshape(slots.shape)
        owed = owed.reshape(*slots.shape, 2)
        applied = applied.reshape(slots.shape)

        # 1. Owed updates, with the peer minima before them.  A controller
        # owes at most one: that of the agent that acted last.
        owes = owed[:, :, 0] >= 0
        rows, agent = np.nonzero(owes)
        if len(rows):
            slot = slots[rows, agent]
            peer = minima[rows, 0] + minima[rows, 1] + minima[rows, 2] - minima[rows, agent]
            state, action = owed[rows, agent].T
            for pool, group in self._by_pool(pool_ids[rows, agent]):
                lane_rows = rows[group]
                at = slot[group]
                pool.update_batch(
                    at,
                    state[group],
                    action[group],
                    reward_values[lane_rows],
                    current_states[lane_rows],
                    peer[group],
                )
                minima[lane_rows, agent[group]] = pool.min_action_counts[at]
                pool.pending[at] = -1

        # 2. Phases and candidate sets of the acting agents, after the updates.
        every = np.arange(count)
        slot = slots[every, agent_ids]
        peer = minima[:, 0] + minima[:, 1] + minima[:, 2] - minima[every, agent_ids]
        current = applied[every, agent_ids]
        chosen = current.tolist()
        codes = np.empty(count, dtype=np.int8)
        names = [AGENT_NAMES[gid] for gid in ids]
        agents = [ctl.agents[name] for ctl, name in zip(controllers, names)]
        explore, exploit = _EXPLORATION, _EXPLOITATION
        deferred = []
        acting_pool = pool_ids[every, agent_ids]
        acting = self._by_pool(acting_pool)
        for pool, group in acting:
            group_slot = slot[group]
            group_state = current_states[group]
            phase = pool.phase_batch(group_slot, group_state, peer[group])
            codes[group] = phase
            least = pool.least_tried_batch(group_slot, group_state)
            greedy = pool.greedy_batch(group_slot, group_state)
            keep = greedy[np.arange(len(group)), current[group]].tolist()
            epsilon = pool.exploration_epsilon
            # 3a. The scalar path's draws, from each agent's own generator.
            for i, (k, code) in enumerate(zip(group.tolist(), phase.tolist())):
                if code == exploit:
                    deferred.append(k)
                    continue
                rng = agents[k]._rng
                if code == explore and rng.random() < epsilon:
                    candidates = least[i].nonzero()[0]
                elif not keep[i]:
                    candidates = greedy[i].nonzero()[0]
                else:
                    continue
                chosen[k] = int(candidates[rng.integers(0, len(candidates))])

        # 3b. Algorithm 1, on the updated tables.
        states = current_states.tolist()
        for k in deferred:
            chosen[k] = controllers[k]._select_action(
                names[k], agents[k], states[k], Phase.EXPLOITATION, frame_indices[k]
            )

        # 3c. What the acting agents' slots and the controllers keep.
        picked = np.array(chosen, dtype=np.int64)
        for pool, group in acting:
            at = slot[group]
            pool.current[at] = picked[group]
            pool.pending[at, 0] = current_states[group]
            pool.pending[at, 1] = picked[group]
        rewarded = owes.any(axis=1).tolist()
        for k, (ctl, name, action) in enumerate(zip(controllers, names, chosen)):
            ctl.window.clear()
            if ctl.config.record_history:
                ctl.history.append(
                    AgentActivation(
                        frame_index=frame_indices[k],
                        agent=name,
                        state=ctl.state_space.index_to_state(states[k]),
                        action_index=action,
                        action_value=agents[k].actions[action],
                        phase=PHASES[codes[k]],
                        reward=float(reward_values[k]) if rewarded[k] else None,
                    )
                )
        values = self._action_values[acting_pool, picked]
        for gid in set(ids):
            acted = agent_ids == gid
            self.values[gid][lanes[acted]] = values[acted]
