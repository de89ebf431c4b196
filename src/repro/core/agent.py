"""Q-learning agent: one design-space subset, one Q-table.

A :class:`QLearningAgent` owns an action subset (QP values, thread counts, or
frequencies), a slot of a :class:`~repro.core.store.LearningStore` pool and
its own random generator.  The slot holds everything the agent learns: its
Q-table, its empirical transition model (whose per-pair totals are the
per-(state, action) visit counts), its per-action visit counters and their
extremes.  The agent is a view of it, reading and writing through the
pool's methods with its :attr:`~QLearningAgent.slot`, and the learning
constants (``gamma``, Eq. 3, the exploration probability) are the pool's.
The slot also holds the action the agent applies and the update it is
owed (the pool's ``current`` and ``pending``), which its controller keeps.
States are the dense integers of
:meth:`~repro.core.states.StateSpace.state_index`.
The multi-agent coordination (who acts when, chained exploitation, reward
distribution) lives in :mod:`repro.core.mamut`; the agent itself only knows
how to pick actions for a given phase and how to apply the Q update.  The
batch forms of the update, the phase test and the candidate sets are
:class:`~repro.core.store.AgentPool` methods; only the draws from each
agent's generator stay per agent.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.constants import DEFAULT_GAMMA
from repro.core.actions import ActionSet
from repro.core.learning_rate import LearningRateFunction, LearningRateParameters
from repro.core.phases import Phase
from repro.core.states import StateSpace
from repro.core.store import LearningStore
from repro.errors import LearningError

__all__ = ["QLearningAgent"]


class QLearningAgent:
    """A single tabular Q-learning agent over one action subset.

    Parameters
    ----------
    name:
        Agent name (``"qp"``, ``"threads"``, ``"dvfs"``, or anything else for
        custom agents); used in schedules and diagnostics.
    actions:
        The agent's action subset.
    gamma:
        Discount factor of the Q update (paper: 0.6).
    learning_rate_params:
        Constants of Eq. 3 and the phase thresholds.
    seed:
        Seed of the agent's private random generator (exploration order).
    exploration_epsilon:
        Once every action of a state has been tried at least once, the
        exploration phase keeps picking the least-tried action only with this
        probability and otherwise acts greedily while continuing to update
        counts and Q-values.  This keeps exploration converging (the counts
        that drive Eq. 3 still grow) without the controller behaving as a
        uniform-random policy for hundreds of frames, which would contradict
        the run-time traces the paper reports (Fig. 5).  Set to 1.0 for pure
        least-tried exploration.
    state_space:
        The space the agent's states come from.  Every state handed to the
        agent is its dense :meth:`~repro.core.states.StateSpace.state_index`
        integer, which addresses the Q-table rows, the transition counts and
        the visit counters.  Persistence uses the space to write states as
        bin tuples.
    store:
        The store whose pool keeps what the agent learns (a controller
        factory passes its own, shared by every controller it builds);
        ``None`` gives the agent a private store.
    """

    def __init__(
        self,
        name: str,
        actions: ActionSet,
        gamma: float = DEFAULT_GAMMA,
        learning_rate_params: LearningRateParameters | None = None,
        seed: int = 0,
        exploration_epsilon: float = 0.25,
        state_space: StateSpace = StateSpace(),
        store: LearningStore | None = None,
    ) -> None:
        if not 0.0 <= gamma < 1.0:
            raise LearningError(f"gamma must be in [0, 1), got {gamma}")
        if not 0.0 <= exploration_epsilon <= 1.0:
            raise LearningError(
                f"exploration_epsilon must be in [0, 1], got {exploration_epsilon}"
            )
        self.name = name
        self.actions = actions
        self.state_space = state_space
        store = store if store is not None else LearningStore()
        self.pool = store.pool(
            actions.values,
            state_space.size,
            gamma=gamma,
            learning_rate_params=learning_rate_params,
            exploration_epsilon=exploration_epsilon,
        )
        self.slot = self.pool.add_slot()
        self._rng = np.random.default_rng(seed)

    @property
    def gamma(self) -> float:
        """Discount factor of the Q update."""
        return self.pool.gamma

    @property
    def exploration_epsilon(self) -> float:
        """Probability of a least-tried pick in the exploration phase."""
        return self.pool.exploration_epsilon

    @property
    def learning_rate(self) -> LearningRateFunction:
        """Eq. 3 and the phase thresholds."""
        return self.pool.learning_rate

    # -- counters ------------------------------------------------------------------

    def state_action_count(self, state: int, action: int) -> int:
        """``Num(s, a)`` for this agent."""
        return self.pool.visit_count(self.slot, state, action)

    def action_count(self, action: int) -> int:
        """``Num(a)``: total times this agent has taken the given action."""
        if not 0 <= action < len(self.actions):
            raise LearningError(
                f"action index {action} out of range [0, {len(self.actions)})"
            )
        return int(self.pool.action_counts[self.slot, action])

    def min_action_count(self) -> int:
        """``min_a Num(a)`` — the least-tried action count of this agent.

        This is the quantity peers plug into the second term of Eq. 3.  The
        pool keeps it up to date on every write, so reading it is O(1).
        """
        return self.pool.min_action_count(self.slot)

    def max_state_count(self, state: int) -> int:
        """``max_a Num(s, a)`` — the most-tried action count in ``state``."""
        return self.pool.max_state_count(self.slot, state)

    def known_states(self) -> set[int]:
        """States in which this agent has taken at least one action."""
        return {state for state, _ in self.pool.visited_pairs(self.slot)}

    # -- learning rate / phase --------------------------------------------------------

    def alpha(self, state: int, action: int, peer_min_counts: Sequence[int]) -> float:
        """Learning rate (Eq. 3) of a (state, action) pair."""
        return self.learning_rate.alpha(
            self.state_action_count(state, action), peer_min_counts
        )

    def phase(self, state: int, peer_min_counts: Sequence[int]) -> Phase:
        """Learning phase of this agent for ``state``.

        A state leaves pure exploration once the learning rate of a
        state-action pair in it drops below ``alpha_th1``, and enters
        exploitation once a pair drops below ``alpha_th2`` (Sec. IV-A/IV-C).
        Both conditions also require the peers' action coverage through the
        second term of Eq. 3: as long as another agent still has untried
        actions, the learning rate cannot fall below the thresholds.  A state
        never seen before is in EXPLORATION by construction (Eq. 3 gives 1.0
        for a pair never tried); phases are re-evaluated on every
        activation, so a state can fall back to exploration when the peer
        statistics change.  See :meth:`~repro.core.store.AgentPool.phase`.
        """
        return self.pool.phase(self.slot, state, peer_min_counts)

    # -- action selection ---------------------------------------------------------------

    def select_exploration_action(self, state: int, current: int | None = None) -> int:
        """Exploration action for ``state``.

        With probability ``exploration_epsilon`` a random action is drawn,
        biased towards the least-tried actions of the state so that coverage
        keeps improving; otherwise the agent acts greedily on what it has
        learned so far (preferring the currently applied action on ties).
        Because unvisited Q-values default to 0 while constraint-violating
        states earn negative rewards, the greedy branch itself keeps probing
        alternative actions whenever the current operating point is poor, so
        the full subset still gets covered without the controller behaving as
        a uniform-random policy for long stretches (which would contradict
        the run-time traces of the paper's Fig. 5).

        The draws are ``random()`` and then, for a least-tried pick,
        ``integers(0, len(candidates))`` as an index into the candidates:
        the value and stream ``Generator.choice(candidates)`` gives, at a
        fraction of its per-call cost.
        """
        if self._rng.random() < self.exploration_epsilon:
            candidates = self.pool.least_tried(self.slot, state)
            return candidates[self._rng.integers(0, len(candidates))]
        return self.select_greedy_action(state, current=current)

    def select_greedy_action(self, state: int, current: int | None = None) -> int:
        """Greedy action with respect to this agent's own Q-table.

        Ties are resolved in favour of ``current`` (the action already
        applied) when it belongs to the argmax set — the controller should
        not jump to an arbitrary operating point when several actions look
        equally good, which is common before a state has been learned —
        and uniformly at random otherwise, through one
        ``integers(0, len(candidates))`` draw used as an index (what
        ``Generator.choice(candidates)`` draws and returns).
        """
        candidates = self.pool.greedy(self.slot, state)
        if current is not None and current in candidates:
            return current
        return candidates[self._rng.integers(0, len(candidates))]

    # -- learning ---------------------------------------------------------------------------

    def update(
        self,
        state: int,
        action: int,
        reward: float,
        next_state: int,
        peer_min_counts: Sequence[int],
    ) -> float:
        """Apply one Q-learning update and record the transition.

        Returns the learning rate used, which callers can log or test
        against.  The counters are incremented *before* computing the
        learning rate, so the very first update of a pair uses
        ``beta / 1 + ...`` exactly as Eq. 3 prescribes.
        """
        return self.pool.update(
            self.slot, state, int(action), reward, next_state, peer_min_counts
        )

    def copy_learned_state(self, source: QLearningAgent) -> None:
        """Replace what this agent has learned with a copy of ``source``'s.

        The Q-table, the transition counts (and with them ``Num(s, a)``)
        and ``Num(a)`` are copied into this agent's own slot, not merged:
        whatever this agent knew before is gone.  ``source`` may live in
        another store.  Its RNG and learning constants stay its own.  The
        two agents must have equal action values and index the same dense
        states.
        """
        self.pool.copy_slot(self.slot, source.pool, source.slot)

    def load_learned_state(
        self,
        q_values: Mapping[tuple[int, int], float],
        transitions: Mapping[tuple[int, int], Mapping[int, int]],
        action_counts: Sequence[int],
    ) -> None:
        """Replace what this agent has learned with the given state.

        ``q_values`` maps (state, action) pairs to stored Q-values,
        ``transitions`` maps pairs to their next states' counts (in
        first-seen order; their sums become ``Num(s, a)``), and
        ``action_counts`` is ``Num(a)`` per action index.  Persistence
        restores through this method.
        """
        pool, slot = self.pool, self.slot
        pool.clear_slot(slot)
        for (state, action), value in q_values.items():
            pool.set_q(slot, state, action, value)
        for (state, action), observed in transitions.items():
            for next_state, count in observed.items():
                pool.record(slot, state, action, next_state, count)
        pool.set_action_counts(slot, action_counts)

    # -- diagnostics ------------------------------------------------------------------------

    def summary(self) -> dict[str, float | int | str]:
        """Small diagnostic snapshot used by examples and reports."""
        return {
            "name": self.name,
            "actions": len(self.actions),
            "visited_states": len(self.known_states()),
            "q_entries": len(self.pool.stored_q(self.slot)),
            "min_action_count": self.min_action_count(),
        }
