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
factory builds.  The step has two forms side by side:
:meth:`MamutController.decide` for one controller (the scalar engine) and
:meth:`MamutBatch.decide` for a fleet (the batch engine).  Each piece of the
batch form sits beside its scalar form in that form's module, and
``tests/test_core_store.py`` pins the whole step.
"""

from __future__ import annotations

import dataclasses
import itertools
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
        Where the three agents keep what they learn; a controller factory
        passes the store it shares between all its controllers.  ``None``
        gives each agent a private one.
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

        self._current_indices: dict[str, int] = {
            QP_AGENT: self.config.qp_actions.index_of(self.config.initial_qp),
            THREAD_AGENT: self.config.thread_actions.index_of(self.config.initial_threads),
            DVFS_AGENT: self.config.dvfs_actions.index_of(
                self.config.initial_frequency_ghz
            ),
        }
        # (agent name, state, action index) of the action whose consequences
        # the next activation credits.
        self._pending: Optional[tuple[str, int, int]] = None
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
        reward evaluation hoisted out; ``current_state`` is the dense
        :meth:`~repro.core.states.StateSpace.state_index` integer.  It is
        the scalar form of :meth:`MamutBatch.activate`.  The window, now
        consumed, is emptied.
        ``reward_value`` is ignored when no update is pending (the caller
        may compute it unconditionally).
        """
        self.window.clear()
        reward: Optional[float] = None

        if self._pending is not None:
            reward = reward_value
            pending_name, pending_state, pending_action = self._pending
            self.agents[pending_name].update(
                pending_state,
                pending_action,
                reward,
                current_state,
                self._peer_min_counts(pending_name),
            )

        agent = self.agents[agent_name]
        phase = agent.phase(current_state, self._peer_min_counts(agent_name))
        action_index = self._select_action(agent_name, agent, current_state, phase, frame_index)

        self._current_indices[agent_name] = action_index
        self._pending = (agent_name, current_state, action_index)

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


#: Position of each agent name in :data:`AGENT_NAMES`.
_AGENT_IDS = {name: gid for gid, name in enumerate(AGENT_NAMES)}
_EXPLORATION, _EXPLORATION_EXPLOITATION, _EXPLOITATION = range(len(PHASES))
#: A MamutBatch row: schedule group, (state space, reward) group, then each
#: agent's pool id and slot, in AGENT_NAMES order.
_ROW_WIDTH = 2 + 2 * len(AGENT_NAMES)


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

    Built from the controllers and the frame each decides next (its
    session's frame counter).  :meth:`decide` looks up every schedule
    (:meth:`~repro.core.schedule.AgentSchedule.agent_at_batch`), averages
    the windows of the controllers whose agent acts
    (:meth:`~repro.core.observation.ObservationWindow.average_batch`),
    discretises and rewards them once per (state space, reward) group, and
    runs :meth:`activate`, the batch form of
    :meth:`MamutController.apply_external_activation`: the pending updates
    (:meth:`~repro.core.store.AgentPool.update_batch`, with the peer minima
    of Eq. 3 read before them), then the acting agents' phases, greedy and
    least-tried sets, each as array operations per pool.  Only each agent's
    own ``random()``/``choice()`` draws, where the scalar path draws, and
    Algorithm 1 for an agent in exploitation, after every array write, stay
    per session.

    Each controller has a row (its schedule group, its (state space,
    reward) group, and its agents' pool ids and slots), read once from the
    controller, since all of it is fixed for the controller's life.  An
    instance built with ``previous`` (the instance of an earlier roster,
    which is not used again) takes over its rows and grouping tables: its
    rows are re-gathered in the new roster's order with one take, only
    controllers that joined are read, and rows of controllers that left
    are dropped.  The frame counters are passed in at every build, and a
    carried controller's current action indices are read again when its
    frame counter is not where ``previous`` left it.

    Sessions only touch their own agents and generators, so the result is
    bitwise that of the scalar calls per controller, in any order.  Besides
    the controllers the instance keeps only caches: the frame counters, the
    lookup and grouping tables, each agent's pool and slot, and each
    controller's current action indices and values (:attr:`values`, one
    float array per agent of :data:`AGENT_NAMES`).
    """

    def __init__(
        self,
        controllers: Sequence[MamutController],
        frame_indices: Sequence[int],
        previous: Optional["MamutBatch"] = None,
    ) -> None:
        self.controllers = list(controllers)
        count = len(self.controllers)
        self.frame_indices = np.array(frame_indices, dtype=np.int64).reshape(count)
        width = len(AGENT_NAMES)

        if previous is None:
            # Grouping tables, one entry per distinct key, in first-seen order.
            self._schedule_ids: dict[tuple, int] = {}
            self._schedule_table: list[tuple] = []
            self._model_ids: dict[tuple, int] = {}
            self._models: list[tuple] = []
            self._pool_index: dict = {}
            self.pools: list = []
            self._action_values = np.zeros((0, 0))
            self._row_of: dict[MamutController, int] = {}
            table = np.empty((0, _ROW_WIDTH), dtype=np.int64)
            frames = np.empty(0, dtype=np.int64)
            indices = np.empty((0, width), dtype=np.int64)
        else:
            self._schedule_ids = previous._schedule_ids
            self._schedule_table = previous._schedule_table
            self._model_ids = previous._model_ids
            self._models = previous._models
            self._pool_index = previous._pool_index
            self.pools = previous.pools
            self._action_values = previous._action_values
            self._row_of = previous._row_of
            table = previous._table
            frames = previous.frame_indices
            indices = previous.indices

        # Rows of the previous roster, then one appended per joining controller.
        order = np.fromiter(
            map(self._row_of.get, self.controllers, itertools.repeat(-1)),
            dtype=np.int64,
            count=count,
        )
        joining = np.flatnonzero(order < 0)
        if len(joining):
            order[joining] = np.arange(len(table), len(table) + len(joining))
            rows = [self._row(self.controllers[k]) for k in joining.tolist()]
            table = np.concatenate([table, np.array(rows, dtype=np.int64)])
            frames = np.concatenate([frames, np.full(len(joining), -1, dtype=np.int64)])
            indices = np.concatenate([indices, np.empty((len(joining), width), dtype=np.int64)])
            if len(self._action_values) < len(self.pools):
                # The value of action a of pool p sits at [p, a].
                self._action_values = np.zeros(
                    (len(self.pools), max(pool.num_actions for pool in self.pools))
                )
                for pid, pool in enumerate(self.pools):
                    self._action_values[pid, : pool.num_actions] = pool.action_values
        self._table = table = table[order]
        self._row_of = dict(zip(self.controllers, range(count)))

        # Lanes sharing a schedule are looked up together; each schedule's
        # agents map onto AGENT_NAMES, and a NULL slot's -1 reads the last -1.
        self._schedules = []
        for gid, members in _members(table[:, 0]):
            schedule = self._schedule_table[gid]
            ids = np.array([*map(_AGENT_IDS.get, schedule.agent_names), -1])
            self._schedules.append((schedule, ids, members))
        # Lanes whose state space and reward match are binned and rewarded
        # together.
        self._model_of = table[:, 1]
        self.pool_ids = table[:, 2 : 2 + width]
        self.slots = table[:, 2 + width :]
        # A controller's action indices change only when one of its agents
        # acts, which happens only while it decides a frame.  So a carried row
        # whose frame counter is where the previous instance left it is
        # current; a joining controller, or one that has decided frames
        # elsewhere since (on the scalar engine), is read again.
        self.indices = indices = indices[order]
        for k in np.flatnonzero(frames[order] != self.frame_indices).tolist():
            indices[k] = list(self.controllers[k]._current_indices.values())
        self.values = [
            self._action_values[self.pool_ids[:, gid], indices[:, gid]]
            for gid in range(width)
        ]

    def _row(self, ctl: MamutController) -> list[int]:
        """The row of a joining controller: its groups, pool ids and slots."""
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

    def decide(self) -> None:
        """:meth:`MamutController.decide` for every controller, at its frame.

        The decisions are then in :attr:`values`, and every frame counter
        has moved on to the next frame.
        """
        frames = self.frame_indices
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
        frames += 1

    def _by_pool(self, pool_id: np.ndarray) -> list[tuple]:
        """``(pool, positions)`` for each pool that ``pool_id`` names."""
        order = np.argsort(pool_id, kind="stable")
        ordered = pool_id[order]
        cuts = ((ordered[1:] != ordered[:-1]).nonzero()[0] + 1).tolist()
        bounds = [0, *cuts, len(order)]
        firsts = ordered[bounds[:-1]].tolist()
        return [
            (self.pools[pid], order[start:end])
            for pid, start, end in zip(firsts, bounds[:-1], bounds[1:])
        ]

    def _minima(self, slots: np.ndarray, pool_ids: np.ndarray) -> np.ndarray:
        """``min_a Num(a)`` of the agents at ``slots`` of ``pool_ids``."""
        slot = slots.ravel()
        minima = np.empty(len(slot), dtype=np.int64)
        for pool, positions in self._by_pool(pool_ids.ravel()):
            minima[positions] = pool.min_action_counts[slot[positions]]
        return minima.reshape(slots.shape)

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
        lane_list = lanes.tolist()
        ids = agent_ids.tolist()
        controllers = [self.controllers[j] for j in lane_list]
        slots = self.slots[lanes]
        pool_ids = self.pool_ids[lanes]
        minima = self._minima(slots, pool_ids)

        # 1. Pending updates, with the peer minima before them.
        pending = [ctl._pending for ctl in controllers]
        waiting = [k for k, update in enumerate(pending) if update is not None]
        if waiting:
            names, before, taken = zip(*[pending[k] for k in waiting])
            rows = np.array(waiting, dtype=np.int64)
            agent = np.array([_AGENT_IDS[name] for name in names], dtype=np.int64)
            slot = slots[rows, agent]
            peer = minima[rows, 0] + minima[rows, 1] + minima[rows, 2] - minima[rows, agent]
            state = np.array(before, dtype=np.int64)
            action = np.array(taken, dtype=np.int64)
            for pool, group in self._by_pool(pool_ids[rows, agent]):
                lane_rows = rows[group]
                pool.update_batch(
                    slot[group],
                    state[group],
                    action[group],
                    reward_values[lane_rows],
                    current_states[lane_rows],
                    peer[group],
                )
                minima[lane_rows, agent[group]] = pool.min_action_counts[slot[group]]

        # 2. Phases and candidate sets of the acting agents, after the updates.
        every = np.arange(count)
        slot = slots[every, agent_ids]
        peer = minima[:, 0] + minima[:, 1] + minima[:, 2] - minima[every, agent_ids]
        current = self.indices[lanes, agent_ids]
        chosen = current.tolist()
        codes = np.empty(count, dtype=np.int8)
        names = [AGENT_NAMES[gid] for gid in ids]
        agents = [ctl.agents[name] for ctl, name in zip(controllers, names)]
        explore, exploit = _EXPLORATION, _EXPLOITATION
        deferred = []
        acting_pool = pool_ids[every, agent_ids]
        for pool, group in self._by_pool(acting_pool):
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
                    chosen[k] = int(rng.choice(least[i].nonzero()[0]))
                elif not keep[i]:
                    chosen[k] = int(rng.choice(greedy[i].nonzero()[0]))

        # 3b. Algorithm 1, on the updated tables.
        states = current_states.tolist()
        for k in deferred:
            chosen[k] = controllers[k]._select_action(
                names[k], agents[k], states[k], Phase.EXPLOITATION, frame_indices[k]
            )

        # 3c. What the controllers keep.
        for k, (ctl, name, action) in enumerate(zip(controllers, names, chosen)):
            ctl.window.clear()
            ctl._current_indices[name] = action
            ctl._pending = (name, states[k], action)
            if ctl.config.record_history:
                ctl.history.append(
                    AgentActivation(
                        frame_index=frame_indices[k],
                        agent=name,
                        state=ctl.state_space.index_to_state(states[k]),
                        action_index=action,
                        action_value=agents[k].actions[action],
                        phase=PHASES[codes[k]],
                        reward=None if pending[k] is None else float(reward_values[k]),
                    )
                )
        self.indices[lanes, agent_ids] = chosen
        values = self._action_values[acting_pool, chosen]
        for gid in set(ids):
            acted = agent_ids == gid
            self.values[gid][lanes[acted]] = values[acted]
