"""Q-learning agent: one design-space subset, one Q-table.

A :class:`QLearningAgent` owns an action subset (QP values, thread counts, or
frequencies), its Q-table, its empirical transition model (whose per-pair
totals are the per-(state, action) visit counts), per-action visit counters,
and the learning-rate function of Eq. 3.  States are the dense integers of
:meth:`~repro.core.states.StateSpace.state_index`.
The multi-agent coordination (who acts when, chained exploitation, reward
distribution) lives in :mod:`repro.core.mamut`; the agent itself only knows
how to pick actions for a given phase and how to apply the Q update.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.constants import DEFAULT_GAMMA
from repro.core.actions import ActionSet
from repro.core.learning_rate import LearningRateFunction, LearningRateParameters
from repro.core.phases import Phase
from repro.core.qtable import QTable
from repro.core.states import StateSpace
from repro.core.transitions import TransitionModel
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
    ) -> None:
        if not 0.0 <= gamma < 1.0:
            raise LearningError(f"gamma must be in [0, 1), got {gamma}")
        if not 0.0 <= exploration_epsilon <= 1.0:
            raise LearningError(
                f"exploration_epsilon must be in [0, 1], got {exploration_epsilon}"
            )
        self.name = name
        self.actions = actions
        self.gamma = float(gamma)
        self.exploration_epsilon = float(exploration_epsilon)
        self.learning_rate = LearningRateFunction(learning_rate_params)
        self.state_space = state_space
        self.q_table = QTable(len(actions), state_space.size)
        #: Also holds Num(s, a), as each pair's transition total.
        self.transitions = TransitionModel(len(actions), state_space.size)
        self._rng = np.random.default_rng(seed)

        #: Num(a): how often each action has been taken overall (any state).
        self._action_counts: Dict[int, int] = {a: 0 for a in actions.indices()}
        # Caches over the counters, so the per-activation hot path (Eq. 3 and
        # the phase test, which only need extremes of the counters) is O(1)
        # instead of O(actions) / O(peers * actions).  ``None`` marks the
        # running min as stale (recomputed lazily on the next read).
        self._min_action_count: int | None = 0
        #: max_a Num(s, a) per state — the visit count whose Eq. 3 learning
        #: rate is the *smallest* over the state's actions.
        self._state_max_counts: Dict[int, int] = {}

    # -- counters ------------------------------------------------------------------

    def state_action_count(self, state: int, action: int) -> int:
        """``Num(s, a)`` for this agent."""
        return self.transitions.total(state, action)

    def action_count(self, action: int) -> int:
        """``Num(a)``: total times this agent has taken the given action."""
        return self._action_counts[action]

    def min_action_count(self) -> int:
        """``min_a Num(a)`` — the least-tried action count of this agent.

        This is the quantity peers plug into the second term of Eq. 3.  The
        running minimum is cached and only recomputed after an update bumped
        a least-tried action (peers read it on every one of their
        activations, so the naive O(actions) min was a per-frame cost).
        """
        if self._min_action_count is None:
            self._min_action_count = min(self._action_counts.values())
        return self._min_action_count

    def max_state_count(self, state: int) -> int:
        """``max_a Num(s, a)`` — the most-tried action count in ``state``."""
        num_states = self.q_table.num_states
        if not 0 <= state < num_states:
            raise LearningError(f"state index {state} out of range [0, {num_states})")
        return self._state_max_counts.get(state, 0)

    def known_states(self) -> set[int]:
        """States in which this agent has taken at least one action."""
        return set(self._state_max_counts)

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
        never seen before is in EXPLORATION by construction; phases are
        re-evaluated on every activation, so a state can fall back to
        exploration when the peer statistics change.

        The smallest per-action learning rate is evaluated directly at the
        state's most-tried action count instead of recomputing Eq. 3 for
        every action: the own-visit term is non-increasing in ``Num(s, a)``
        and the peer term is the same for all actions, and IEEE addition,
        division and the ``min(1, .)`` clamp are monotone, so the alpha of
        the max-count action is bitwise the minimum of the per-action alphas
        (``tests/test_core_agent.py`` pins this against the brute force).
        """
        best = self.learning_rate.alpha(self.max_state_count(state), peer_min_counts)
        if self.learning_rate.below_exploitation_threshold(best):
            return Phase.EXPLOITATION
        if self.learning_rate.below_exploration_threshold(best):
            return Phase.EXPLORATION_EXPLOITATION
        return Phase.EXPLORATION

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
        """
        if self._rng.random() < self.exploration_epsilon:
            counts = [self.state_action_count(state, a) for a in self.actions.indices()]
            min_count = min(counts)
            candidates = [
                a for a, c in zip(self.actions.indices(), counts) if c == min_count
            ]
            return int(self._rng.choice(candidates))
        return self.select_greedy_action(state, current=current)

    def select_greedy_action(self, state: int, current: int | None = None) -> int:
        """Greedy action with respect to this agent's own Q-table.

        Ties are resolved in favour of ``current`` (the action already
        applied) when it belongs to the argmax set — the controller should
        not jump to an arbitrary operating point when several actions look
        equally good, which is common before a state has been learned —
        and uniformly at random otherwise.
        """
        values = self.q_table.action_values(state)
        best_value = max(values)
        candidates = [a for a, v in enumerate(values) if v == best_value]
        if current is not None and current in candidates:
            return current
        return int(self._rng.choice(candidates))

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
        action = int(action)
        pair_count = self.transitions.record(state, action, next_state)
        if pair_count > self._state_max_counts.get(state, 0):
            self._state_max_counts[state] = pair_count
        previous = self._action_counts[action]
        self._action_counts[action] = previous + 1
        if self._min_action_count is not None and previous == self._min_action_count:
            # A least-tried action was bumped; the min may have risen.
            self._min_action_count = None

        alpha = self.learning_rate.alpha(pair_count, peer_min_counts)
        target = reward + self.gamma * self.q_table.max_value(next_state)
        self.q_table.update_towards(state, action, target, alpha)
        return alpha

    def copy_learned_state(self, source: QLearningAgent) -> None:
        """Replace what this agent has learned with a copy of ``source``'s.

        The Q-table, the transition counts (and with them ``Num(s, a)``)
        and ``Num(a)`` are copied, not merged: whatever this agent knew
        before is gone.  Its RNG and learning constants stay its own.  The
        two agents must have equal action values and index the same dense
        states.
        """
        self.q_table = source.q_table.copy()
        self.transitions = source.transitions.copy()
        self._action_counts = dict(source._action_counts)
        self.rebuild_count_caches()

    def rebuild_count_caches(self) -> None:
        """Recompute the counter caches from the raw counters.

        Callers that write ``_action_counts`` or record transitions directly
        (persistence restore, tests poking internals) must call this
        afterwards, or :meth:`min_action_count` and :meth:`phase` would read
        stale cached extremes.
        """
        self._min_action_count = None
        self._state_max_counts = {}
        for state, action in self.transitions.visited_pairs():
            count = self.transitions.total(state, action)
            if count > self._state_max_counts.get(state, 0):
                self._state_max_counts[state] = count

    # -- diagnostics ------------------------------------------------------------------------

    def summary(self) -> dict[str, float | int | str]:
        """Small diagnostic snapshot used by examples and reports."""
        return {
            "name": self.name,
            "actions": len(self.actions),
            "visited_states": len(self.known_states()),
            "q_entries": len(self.q_table),
            "min_action_count": self.min_action_count(),
        }
