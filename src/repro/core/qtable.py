"""Tabular Q-value storage.

States are dense integer indices in ``[0, num_states)`` — the encoding of
:meth:`~repro.core.states.StateSpace.state_index` — and actions are integer
indices into the owning agent's :class:`~repro.core.actions.ActionSet`.
A :class:`QTable` is a view of one agent's slot of an
:class:`~repro.core.store.AgentPool`, where the values live: each visited
state has a row, and a state without one reads 0.0.  :meth:`QTable.items`
exports only explicitly stored entries (the persistence format).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.store import AgentPool

__all__ = ["QTable"]


class QTable:
    """A table of Q-values indexed by (state index, action index).

    Parameters
    ----------
    pool:
        The pool holding the values; action indices must fall in
        ``[0, pool.num_actions)`` and state indices in
        ``[0, pool.num_states)``.
    slot:
        The agent's slot of ``pool``.
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

    # -- access --------------------------------------------------------------------

    def get(self, state: int, action: int) -> float:
        """Q-value of a (state, action) pair (0.0 if never written)."""
        pool = self.pool
        pool._check(state, action)
        return float(pool.q[pool.row_of[self.slot, state], action])

    def set(self, state: int, action: int, value: float) -> None:
        """Overwrite the Q-value of a (state, action) pair."""
        self.pool.set_q(self.slot, state, action, value)

    def update_towards(
        self, state: int, action: int, target: float, alpha: float
    ) -> float:
        """Move ``Q(state, action)`` towards ``target`` by step ``alpha``.

        Returns the new value.  This is the inner step of the Q-learning
        update ``Q += alpha * (target - Q)``.
        """
        return self.pool.update_towards(self.slot, state, action, target, alpha)

    # -- aggregates ------------------------------------------------------------------

    def max_value(self, state: int) -> float:
        """Highest Q-value over all actions in ``state``."""
        return float(self._values(state).max())

    def best_action(self, state: int) -> int:
        """Index of the greedy action in ``state`` (ties resolved to lowest index)."""
        return int(self._values(state).argmax())

    def _values(self, state: int) -> np.ndarray:
        pool = self.pool
        pool._check_state(state)
        return pool.q[pool.row_of[self.slot, state]]

    def action_values(self, state: int) -> list[float]:
        """Q-values of every action in ``state``, in action-index order."""
        return self.pool.q_values(self.slot, state)

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        states = self.pool.states_of(self.slot)
        return states, self.pool.row_of[self.slot, states]

    def __len__(self) -> int:
        """Number of explicitly stored (state, action) entries."""
        _, rows = self._rows()
        return int(np.count_nonzero(self.pool.stored[rows]))

    def items(self) -> Iterator[tuple[tuple[int, int], float]]:
        """Iterate over explicitly stored ((state, action), value) pairs."""
        states, rows = self._rows()
        q = self.pool.q
        return (
            ((int(states[i]), int(a)), float(q[rows[i], a]))
            for i, a in zip(*np.nonzero(self.pool.stored[rows]))
        )
