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
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import LearningError

__all__ = ["TransitionModel"]


class TransitionModel:
    """Counts and probabilities of observed state transitions per action."""

    def __init__(self, num_actions: int, num_states: int) -> None:
        if num_actions < 1:
            raise LearningError(f"num_actions must be >= 1, got {num_actions}")
        if num_states < 1:
            raise LearningError(f"num_states must be >= 1, got {num_states}")
        self.num_actions = int(num_actions)
        self.num_states = int(num_states)
        self._counts: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._totals: Dict[Tuple[int, int], int] = {}

    # -- recording ----------------------------------------------------------------

    def record(self, state: int, action: int, next_state: int) -> int:
        """Record one observed ``state --action--> next_state``.

        Returns the pair's new total ``Num(state, action)``.
        """
        self._check(state, action)
        self._check_state(next_state)
        pair = (state, action)
        counts = self._counts.get(pair)
        if counts is None:
            counts = self._counts[pair] = {}
        counts[next_state] = counts.get(next_state, 0) + 1
        total = self._totals.get(pair, 0) + 1
        self._totals[pair] = total
        return total

    def copy(self) -> TransitionModel:
        """An independent copy; each pair keeps its first-seen next-state order."""
        clone = TransitionModel(self.num_actions, self.num_states)
        clone._counts = {pair: dict(counts) for pair, counts in self._counts.items()}
        clone._totals = dict(self._totals)
        return clone

    # -- queries -------------------------------------------------------------------

    def count(self, state: int, action: int, next_state: int) -> int:
        """Number of times ``state --action--> next_state`` was observed."""
        self._check(state, action)
        return self._counts.get((state, action), {}).get(next_state, 0)

    def total(self, state: int, action: int) -> int:
        """``Num(state, action)``: times ``action`` was taken in ``state``."""
        self._check(state, action)
        return self._totals.get((state, action), 0)

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
            for next_state, count in self._counts[(state, action)].items()
        }

    def visited_pairs(self) -> set[tuple[int, int]]:
        """All (state, action) pairs with at least one recorded transition."""
        return set(self._totals)

    # -- validation ------------------------------------------------------------------

    def _check_state(self, state: int) -> None:
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
