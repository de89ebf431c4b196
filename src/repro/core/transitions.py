"""Empirical state-transition model (paper Sec. IV-A).

Because the environment is stochastic (content changes, other agents, other
users), applying action ``a`` in state ``s`` does not always lead to the same
next state.  Each agent therefore records every observed transition
``s --a--> s'`` and estimates::

    P(s --a--> s') = Num(s --a--> s') / Num(s, a)

These probabilities drive the expected-Q computation of Algorithm 1.  The
per-pair total ``Num(s, a)`` is also the visit count of Eq. 3, so the agent
reads it from here rather than counting it a second time.  States are dense
integer indices in ``[0, num_states)``, and each pair keeps its next states
in first-seen order, the order in which Algorithm 1 sums over them.

A :class:`TransitionModel` is a view of one agent's slot of an
:class:`~repro.core.store.AgentPool`: ``Num(s, a)`` lives in the pool's
rows, and the observations in its append-only transition log, from which
the per-pair next-state counts are folded only when asked for.
"""

from __future__ import annotations

import numpy as np

from repro.core.store import AgentPool

__all__ = ["TransitionModel"]


class TransitionModel:
    """Counts and probabilities of observed state transitions per action.

    The view of ``slot`` of ``pool``.
    """

    def __init__(self, pool: AgentPool, slot: int) -> None:
        self.pool = pool
        self.slot = slot

    @property
    def num_actions(self) -> int:
        return self.pool.num_actions

    @property
    def num_states(self) -> int:
        return self.pool.num_states

    # -- recording ----------------------------------------------------------------

    def record(self, state: int, action: int, next_state: int) -> int:
        """Record one observed ``state --action--> next_state``.

        Returns the pair's new total ``Num(state, action)``.
        """
        return self.pool.record(self.slot, state, action, next_state)

    # -- queries -------------------------------------------------------------------

    def count(self, state: int, action: int, next_state: int) -> int:
        """Number of times ``state --action--> next_state`` was observed."""
        self.pool._check(state, action)
        return self.pool.next_counts(self.slot, state, action).get(next_state, 0)

    def total(self, state: int, action: int) -> int:
        """``Num(state, action)``: times ``action`` was taken in ``state``."""
        pool = self.pool
        pool._check(state, action)
        return int(pool.visits[pool.row_of[self.slot, state], action])

    def probability(self, state: int, action: int, next_state: int) -> float:
        """Estimated ``P(state --action--> next_state)`` (0 if never observed)."""
        total = self.total(state, action)
        if total == 0:
            return 0.0
        return self.count(state, action, next_state) / total

    def distribution(self, state: int, action: int) -> dict[int, float]:
        """Full next-state distribution for ``(state, action)``.

        In first-seen order; empty when the pair has never been tried.
        """
        total = self.total(state, action)
        if total == 0:
            return {}
        return {
            next_state: count / total
            for next_state, count in self.pool.next_counts(self.slot, state, action).items()
        }

    def visited_pairs(self) -> set[tuple[int, int]]:
        """All (state, action) pairs with at least one recorded transition."""
        pool = self.pool
        states = pool.states_of(self.slot)
        rows = pool.row_of[self.slot, states]
        return {
            (int(states[i]), int(a)) for i, a in zip(*np.nonzero(pool.visits[rows]))
        }
