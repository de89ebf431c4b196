"""Tabular Q-value storage.

States are dense integer indices in ``[0, num_states)`` — the encoding of
:meth:`~repro.core.states.StateSpace.state_index` — and actions are integer
indices into the owning agent's :class:`~repro.core.actions.ActionSet`.
Values live in a lazily grown ``(num_states, num_actions)`` float64 ndarray,
so a lookup or a Q-learning step is one array read or write.  Unvisited
entries default to ``initial_value``, and :meth:`QTable.items` exports only
explicitly stored entries (the persistence format).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import LearningError

__all__ = ["QTable"]


class QTable:
    """A table of Q-values indexed by (state index, action index).

    Parameters
    ----------
    num_actions:
        Size of the owning agent's action set; action indices must fall in
        ``[0, num_actions)``.
    num_states:
        Size of the state space; state indices must fall in
        ``[0, num_states)``.
    initial_value:
        Q-value reported for unvisited (state, action) pairs.
    """

    def __init__(
        self, num_actions: int, num_states: int, initial_value: float = 0.0
    ) -> None:
        if num_actions < 1:
            raise LearningError(f"num_actions must be >= 1, got {num_actions}")
        if num_states < 1:
            raise LearningError(f"num_states must be >= 1, got {num_states}")
        self.num_actions = int(num_actions)
        self.num_states = int(num_states)
        self.initial_value = float(initial_value)
        self._array = np.empty((0, self.num_actions))
        self._stored = np.empty((0, self.num_actions), dtype=bool)

    def _ensure_rows(self, state: int) -> None:
        """Grow the array to cover row ``state`` (geometric, capped)."""
        rows = self._array.shape[0]
        if state < rows:
            return
        new_rows = min(self.num_states, max(state + 1, 2 * rows, 16))
        grown = np.full((new_rows, self.num_actions), self.initial_value)
        grown[:rows] = self._array
        stored = np.zeros((new_rows, self.num_actions), dtype=bool)
        stored[:rows] = self._stored
        self._array = grown
        self._stored = stored

    # -- access --------------------------------------------------------------------

    def get(self, state: int, action: int) -> float:
        """Q-value of a (state, action) pair (``initial_value`` if unvisited)."""
        self._check(state, action)
        if state < self._array.shape[0]:
            return float(self._array[state, action])
        return self.initial_value

    def set(self, state: int, action: int, value: float) -> None:
        """Overwrite the Q-value of a (state, action) pair."""
        self._check(state, action)
        self._ensure_rows(state)
        self._array[state, action] = float(value)
        self._stored[state, action] = True

    def update_towards(
        self, state: int, action: int, target: float, alpha: float
    ) -> float:
        """Move ``Q(state, action)`` towards ``target`` by step ``alpha``.

        Returns the new value.  This is the inner step of the Q-learning
        update ``Q += alpha * (target - Q)``.
        """
        if not 0.0 <= alpha <= 1.0:
            raise LearningError(f"alpha must be in [0, 1], got {alpha}")
        self._check(state, action)
        self._ensure_rows(state)
        current = float(self._array[state, action])
        new_value = current + alpha * (target - current)
        self._array[state, action] = new_value
        self._stored[state, action] = True
        return new_value

    def copy(self) -> QTable:
        """An independent copy: same shape, values and stored entries."""
        clone = QTable(self.num_actions, self.num_states, self.initial_value)
        clone._array = self._array.copy()
        clone._stored = self._stored.copy()
        return clone

    # -- aggregates ------------------------------------------------------------------

    def max_value(self, state: int) -> float:
        """Highest Q-value over all actions in ``state``."""
        self._check_state(state)
        if state < self._array.shape[0]:
            return float(self._array[state].max())
        return self.initial_value

    def best_action(self, state: int) -> int:
        """Index of the greedy action in ``state`` (ties resolved to lowest index)."""
        self._check_state(state)
        if state < self._array.shape[0]:
            return int(self._array[state].argmax())
        return 0

    def action_values(self, state: int) -> list[float]:
        """Q-values of every action in ``state``, in action-index order."""
        self._check_state(state)
        if state < self._array.shape[0]:
            return self._array[state].tolist()
        return [self.initial_value] * self.num_actions

    def __len__(self) -> int:
        """Number of explicitly stored (state, action) entries."""
        return int(self._stored.sum())

    def items(self) -> Iterator[tuple[tuple[int, int], float]]:
        """Iterate over explicitly stored ((state, action), value) pairs."""
        return (
            ((int(s), int(a)), float(self._array[s, a]))
            for s, a in zip(*np.nonzero(self._stored))
        )

    # -- validation ------------------------------------------------------------------

    def _check_state(self, state: int) -> None:
        # NumPy would silently wrap a negative row index.
        if not 0 <= state < self.num_states:
            raise LearningError(
                f"state index {state} out of range [0, {self.num_states})"
            )

    def _check(self, state: int, action: int) -> None:
        self._check_state(state)
        if not 0 <= action < self.num_actions:
            raise LearningError(
                f"action index {action} out of range [0, {self.num_actions})"
            )
