"""One home for what Q-learning agents learn: a row pool per agent shape.

A :class:`LearningStore` holds the learned state of every agent built
against it: Q-values, the visit counts ``Num(s, a)`` of Eq. 3, the
stored-entry flags, the action counts ``Num(a)`` and the observed
transitions.  A controller factory owns one store and every controller it
builds shares it, so the batch engine can run one activation step of a
whole fleet as a few array operations (see
:class:`~repro.core.mamut.MamutBatch`).

Agents of a store that share an action set, a state count and their
learning constants (``gamma``, the constants of Eq. 3 and the exploration
probability) share one :class:`AgentPool`, and each agent is one *slot* of
it.  An agent visits few of its space's states, so a pool stores *rows*: a
row holds one state's Q-values, visit counts and stored flags, and is
allocated on the first write to that (slot, state).  ``row_of[slot,
state]`` maps the pair to its row.  Row 0 is the blank row that every state
without a row reads (Q-values and counts 0); nothing writes it.  Slot and
row arrays grow by doubling, so nothing outside a pool may keep a view of
them.  The per-slot minimum of ``Num(a)`` and the per-row maximum of
``Num(s, a)`` (the extremes Eq. 3 and the phase test read) are kept in the
pool and updated by every write.  This module is the only one that reads
a pool's rows: an agent (:class:`~repro.core.agent.QLearningAgent`),
Algorithm 1 (:mod:`repro.core.exploitation`) and persistence read a slot
through the pool's methods, and every method that takes a state or an
action rejects one out of range with :class:`~repro.errors.LearningError`.

A slot also holds :attr:`AgentPool.current`, the action index its agent
applies, and :attr:`AgentPool.pending`, the (state, action) its controller's
next activation credits (-1: none).  Its controller reads and writes them;
they are not learned state, so clearing, copying and restoring leave them.

Each learning step has a scalar form for one slot, which the scalar engine
runs and which is the oracle, and a ``*_batch`` form over distinct slots of
one pool, which the batch engine runs.  Both evaluate the same IEEE
operations (``+ - * /``, ``min``, ``max``) in the same order, so they give
the same doubles; the peer terms of Eq. 3 are exact integer sums, and no
float reduction is used.  ``tests/test_core_store.py`` pins every pair.

Transitions are an append-only log of ``(slot, state, action, next state,
count)`` entries.  The next-state counts of a (slot, state, action), in
first-seen order, are folded from the log only when someone asks for them
(Algorithm 1, snapshots), and a copy replays the source slot's entries.
Clearing a slot forgets its rows and log entries; the rows are not reused.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.constants import DEFAULT_GAMMA
from repro.core.learning_rate import LearningRateFunction, LearningRateParameters
from repro.core.observation import WindowTable
from repro.core.phases import Phase
from repro.errors import LearningError

__all__ = ["AgentPool", "LearningStore", "PHASES"]

#: The phase of each code :meth:`AgentPool.phase_batch` returns.
PHASES = (Phase.EXPLORATION, Phase.EXPLORATION_EXPLOITATION, Phase.EXPLOITATION)

#: Columns of a transition log entry.
_SLOT, _STATE, _ACTION, _NEXT, _COUNT = range(5)


def _grown(array: np.ndarray, length: int, fill=0) -> np.ndarray:
    """``array`` copied into a new first axis of ``length``, padded with ``fill``."""
    grown = np.full((length, *array.shape[1:]), fill, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class AgentPool:
    """Learned state of the agents that share one shape and one set of constants.

    Parameters
    ----------
    action_values:
        The values of the actions every slot's indices address, in index
        order: the pool's agents share one action set.
    num_states:
        Every slot's state indices fall in ``[0, num_states)``.
    gamma:
        Discount factor of the Q update.
    learning_rate_params:
        Constants of Eq. 3 and the phase thresholds.
    exploration_epsilon:
        Probability with which an exploring agent picks a least-tried
        action instead of a greedy one (see
        :class:`~repro.core.agent.QLearningAgent`).

    A (state, action) pair that was never written has Q-value 0.0.
    """

    def __init__(
        self,
        action_values: Sequence,
        num_states: int,
        gamma: float = DEFAULT_GAMMA,
        learning_rate_params: LearningRateParameters | None = None,
        exploration_epsilon: float = 0.25,
    ) -> None:
        self.action_values = tuple(action_values)
        self.num_actions = len(self.action_values)
        if self.num_actions < 1:
            raise LearningError("a pool needs at least one action")
        if num_states < 1:
            raise LearningError(f"num_states must be >= 1, got {num_states}")
        self.num_states = int(num_states)
        self.gamma = float(gamma)
        self.learning_rate = LearningRateFunction(learning_rate_params)
        self.exploration_epsilon = float(exploration_epsilon)

        #: Slots handed out so far; per-slot arrays have room for more.
        self.slots = 0
        self.row_of = np.zeros((1, self.num_states), dtype=np.int32)
        #: Num(a) per slot, and its running minimum.
        self.action_counts = np.zeros((1, self.num_actions), dtype=np.int64)
        self.min_action_counts = np.zeros(1, dtype=np.int64)
        #: Per slot: the action index it applies, and the (state, action) its
        #: controller's next activation credits, (-1, -1) when none.
        self.current = np.zeros(1, dtype=np.int64)
        self.pending = np.full((1, 2), -1, dtype=np.int64)
        # First log entry that may belong to each slot (add_slot, clear_slot).
        self._log_start = np.zeros(1, dtype=np.int64)

        #: Rows in use, the blank row 0 included.
        self.rows = 1
        self.q = np.zeros((2, self.num_actions))
        #: Num(s, a) per row, and max_a Num(s, a).
        self.visits = np.zeros((2, self.num_actions), dtype=np.int64)
        self.row_max = np.zeros(2, dtype=np.int64)
        self.stored = np.zeros((2, self.num_actions), dtype=bool)

        self._log = np.empty((16, 5), dtype=np.int32)
        self._log_len = 0
        # Next-state counts folded from log entries [0, _folded), per slot.
        self._folded = 0
        self._next_counts: dict[int, dict[tuple[int, int], dict[int, int]]] = {}

    # -- slots and rows --------------------------------------------------------------

    def add_slot(self) -> int:
        """A new, empty slot for one agent."""
        slot = self.slots
        if slot == len(self.row_of):
            length = 2 * slot
            self.row_of = _grown(self.row_of, length)
            self.action_counts = _grown(self.action_counts, length)
            self.min_action_counts = _grown(self.min_action_counts, length)
            self.current = _grown(self.current, length)
            self.pending = _grown(self.pending, length, fill=-1)
            self._log_start = _grown(self._log_start, length)
        # Slots are never reused, so no earlier log entry is this slot's.
        self._log_start[slot] = self._log_len
        self.slots = slot + 1
        return slot

    def clear_slot(self, slot: int) -> None:
        """Forget everything ``slot`` has learned."""
        self.row_of[slot] = 0
        self.action_counts[slot] = 0
        self.min_action_counts[slot] = 0
        self._log_start[slot] = self._log_len
        self._next_counts.pop(slot, None)

    def copy_slot(self, slot: int, source: AgentPool, source_slot: int) -> None:
        """Replace what ``slot`` learned with a copy of ``source_slot``'s.

        ``source`` may be another pool, of another store, with the same
        action and state counts.  Q-values, stored flags, ``Num(s, a)``,
        ``Num(a)`` and the transitions (each pair's next states in their
        first-seen order) are copied; nothing is merged.
        """
        if (source.num_actions, source.num_states) != (self.num_actions, self.num_states):
            raise LearningError(
                f"cannot copy a ({source.num_actions} actions, {source.num_states} "
                f"states) slot into a ({self.num_actions}, {self.num_states}) pool"
            )
        if source is self and source_slot == slot:
            return
        entries = source._slot_entries(source_slot)
        states, source_rows = source._slot_rows(source_slot)
        action_counts = source.action_counts[source_slot].copy()
        self.clear_slot(slot)
        if len(states):
            first = self._reserve_rows(len(states))
            rows = np.arange(first, first + len(states))
            self.row_of[slot, states] = rows
            self.q[rows] = source.q[source_rows]
            self.visits[rows] = source.visits[source_rows]
            self.row_max[rows] = source.row_max[source_rows]
            self.stored[rows] = source.stored[source_rows]
        self.action_counts[slot] = action_counts
        self.min_action_counts[slot] = action_counts.min()
        entries[:, _SLOT] = slot
        first = self._reserve_log(len(entries))
        self._log[first : self._log_len] = entries

    def _reserve_rows(self, count: int) -> int:
        """Index of the first of ``count`` new rows."""
        first = self.rows
        needed = first + count
        if needed > len(self.q):
            length = max(needed, 2 * len(self.q))
            self.q = _grown(self.q, length)
            self.visits = _grown(self.visits, length)
            self.row_max = _grown(self.row_max, length)
            self.stored = _grown(self.stored, length)
        self.rows = needed
        return first

    def _row_for_write(self, slot: int, state: int) -> int:
        row = int(self.row_of[slot, state])
        if not row:
            row = self._reserve_rows(1)
            self.row_of[slot, state] = row
        return row

    def _rows_for_write(self, slot: np.ndarray, state: np.ndarray) -> np.ndarray:
        rows = self.row_of[slot, state]
        fresh = rows == 0
        if fresh.any():
            count = int(np.count_nonzero(fresh))
            first = self._reserve_rows(count)
            new_rows = np.arange(first, first + count, dtype=rows.dtype)
            self.row_of[slot[fresh], state[fresh]] = new_rows
            rows[fresh] = new_rows
        return rows

    def states_of(self, slot: int) -> np.ndarray:
        """States in which ``slot`` has a row, ascending."""
        return np.flatnonzero(self.row_of[slot])

    def _slot_rows(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """The states in which ``slot`` has a row, ascending, and those rows."""
        states = self.states_of(slot)
        return states, self.row_of[slot, states]

    # -- reads --------------------------------------------------------------------------

    def q_values(self, slot: int, state: int) -> list[float]:
        """Q-values of every action of ``slot`` in ``state``."""
        self._check_state(state)
        return self.q[self.row_of[slot, state]].tolist()

    def visit_counts(self, slot: int, state: int) -> list[int]:
        """``Num(state, a)`` of every action ``a`` of ``slot``."""
        self._check_state(state)
        return self.visits[self.row_of[slot, state]].tolist()

    def max_state_count(self, slot: int, state: int) -> int:
        """``max_a Num(state, a)`` of ``slot``."""
        self._check_state(state)
        return int(self.row_max[self.row_of[slot, state]])

    def min_action_count(self, slot: int) -> int:
        """``min_a Num(a)`` of ``slot``."""
        return int(self.min_action_counts[slot])

    def visit_count(self, slot: int, state: int, action: int) -> int:
        """``Num(state, action)`` of ``slot``."""
        self._check(state, action)
        return int(self.visits[self.row_of[slot, state], action])

    def distribution(self, slot: int, state: int, action: int) -> dict[int, float]:
        """``P(state --action--> s')`` of ``slot`` for every observed ``s'``.

        ``Num(state --action--> s') / Num(state, action)``, in first-seen
        order (the order Algorithm 1 sums in); empty when the pair has
        never been tried.
        """
        total = self.visit_count(slot, state, action)
        if not total:
            return {}
        return {
            next_state: count / total
            for next_state, count in self.next_counts(slot, state, action).items()
        }

    def stored_q(self, slot: int) -> dict[tuple[int, int], float]:
        """``slot``'s explicitly written Q-values by (state, action), ascending.

        What persistence exports: a pair that reads 0.0 because it was
        never written is left out.
        """
        states, rows = self._slot_rows(slot)
        q = self.q
        return {
            (int(states[i]), int(a)): float(q[rows[i], a])
            for i, a in zip(*np.nonzero(self.stored[rows]))
        }

    def visited_pairs(self, slot: int) -> set[tuple[int, int]]:
        """Every (state, action) pair ``slot`` has taken at least once."""
        states, rows = self._slot_rows(slot)
        return {(int(states[i]), int(a)) for i, a in zip(*np.nonzero(self.visits[rows]))}

    # -- writes ---------------------------------------------------------------------------

    def set_q(self, slot: int, state: int, action: int, value: float) -> None:
        """Overwrite one Q-value and mark it stored."""
        self._check(state, action)
        row = self._row_for_write(slot, state)
        self.q[row, action] = float(value)
        self.stored[row, action] = True

    def update_towards(
        self, slot: int, state: int, action: int, target: float, alpha: float
    ) -> float:
        """``Q += alpha * (target - Q)`` for one pair; returns the new value."""
        if not 0.0 <= alpha <= 1.0:
            raise LearningError(f"alpha must be in [0, 1], got {alpha}")
        self._check(state, action)
        row = self._row_for_write(slot, state)
        current = float(self.q[row, action])
        new_value = current + alpha * (target - current)
        self.q[row, action] = new_value
        self.stored[row, action] = True
        return new_value

    def record(
        self, slot: int, state: int, action: int, next_state: int, count: int = 1
    ) -> int:
        """Log ``count`` observations of ``state --action--> next_state``.

        Returns the pair's new ``Num(state, action)``.
        """
        self._check(state, action)
        self._check_state(next_state)
        row = self._row_for_write(slot, state)
        total = int(self.visits[row, action]) + count
        self.visits[row, action] = total
        if total > self.row_max[row]:
            self.row_max[row] = total
        entry = self._reserve_log(1)
        self._log[entry] = (slot, state, action, next_state, count)
        return total

    def set_action_counts(self, slot: int, counts: Sequence[int]) -> None:
        """Overwrite ``Num(a)`` of every action of ``slot``."""
        values = np.asarray(counts, dtype=np.int64)
        if values.shape != (self.num_actions,) or (values < 0).any():
            raise LearningError(
                f"expected {self.num_actions} non-negative action counts, got {counts!r}"
            )
        self.action_counts[slot] = values
        self.min_action_counts[slot] = values.min()

    def _bump_action(self, slot: int, action: int) -> None:
        counts = self.action_counts
        previous = int(counts[slot, action])
        counts[slot, action] = previous + 1
        if previous == self.min_action_counts[slot]:
            # A least-tried action was bumped; the minimum may have risen.
            self.min_action_counts[slot] = counts[slot].min()

    # -- transitions ----------------------------------------------------------------------

    def _reserve_log(self, count: int) -> int:
        """Index of the first of ``count`` new log entries."""
        first = self._log_len
        needed = first + count
        if needed > len(self._log):
            self._log = _grown(self._log, max(needed, 2 * len(self._log)))
        self._log_len = needed
        return first

    def _slot_entries(self, slot: int) -> np.ndarray:
        """A copy of ``slot``'s live log entries, in log order."""
        entries = self._log[self._log_start[slot] : self._log_len]
        return entries[entries[:, _SLOT] == slot]

    def next_counts(self, slot: int, state: int, action: int) -> Mapping[int, int]:
        """Observed next states of a pair and their counts, in first-seen order.

        Folds the log entries added since the last call first.  The mapping
        is the pool's own: read it, do not change it.
        """
        self._check(state, action)
        end = self._log_len
        if self._folded < end:
            starts = self._log_start.tolist()
            tables = self._next_counts
            entries = self._log[self._folded : end].tolist()
            for index, (owner, s, a, nxt, count) in enumerate(entries, self._folded):
                if index < starts[owner]:
                    continue  # forgotten by clear_slot
                pairs = tables.get(owner)
                if pairs is None:
                    pairs = tables[owner] = {}
                counts = pairs.get((s, a))
                if counts is None:
                    counts = pairs[(s, a)] = {}
                counts[nxt] = counts.get(nxt, 0) + count
            self._folded = end
        return self._next_counts.get(slot, {}).get((state, action), {})

    # -- the learning step: scalar and batch forms --------------------------------------

    def update(
        self,
        slot: int,
        state: int,
        action: int,
        reward: float,
        next_state: int,
        peer_min_counts: Sequence[int],
    ) -> float:
        """One Q-learning update of ``slot``; returns the learning rate used.

        ``Num(s, a)`` and ``Num(a)`` are bumped first, so the first update
        of a pair uses ``beta / 1`` in Eq. 3; ``max_a Q(next_state)`` is
        read before the Q-value is written.
        """
        pair_count = self.record(slot, state, action, next_state)
        self._bump_action(slot, action)
        alpha = self.learning_rate.alpha(pair_count, peer_min_counts)
        target = reward + self.gamma * float(self.q[self.row_of[slot, next_state]].max())
        self.update_towards(slot, state, action, target, alpha)
        return alpha

    def update_batch(
        self,
        slot: np.ndarray,
        state: np.ndarray,
        action: np.ndarray,
        reward: np.ndarray,
        next_state: np.ndarray,
        peer_sum: np.ndarray,
    ) -> np.ndarray:
        """:meth:`update` for distinct slots at once; returns the learning rates.

        ``peer_sum[i]`` is the sum of the peers' ``min_a Num_j(a)`` that
        :meth:`update` receives as ``peer_min_counts``.
        """
        _check_distinct(slot)
        self._check_indices(state, action)
        self._check_indices(next_state)
        rows = self._rows_for_write(slot, state)
        pair_count = self.visits[rows, action] + 1
        self.visits[rows, action] = pair_count
        self.row_max[rows] = np.maximum(self.row_max[rows], pair_count)
        first = self._reserve_log(len(slot))
        entries = self._log[first : self._log_len]
        entries[:, _SLOT] = slot
        entries[:, _STATE] = state
        entries[:, _ACTION] = action
        entries[:, _NEXT] = next_state
        entries[:, _COUNT] = 1
        self.action_counts[slot, action] += 1
        self.min_action_counts[slot] = self.action_counts[slot].min(axis=1)

        alpha = self.learning_rate.alpha_batch(pair_count, peer_sum)
        if not _within(alpha, 0.0, 1.0):
            raise LearningError(f"alpha must be in [0, 1], got {alpha!r}")
        target = reward + self.gamma * self.q[self.row_of[slot, next_state]].max(axis=1)
        current = self.q[rows, action]
        self.q[rows, action] = current + alpha * (target - current)
        self.stored[rows, action] = True
        return alpha

    def phase(self, slot: int, state: int, peer_min_counts: Sequence[int]) -> Phase:
        """Learning phase of ``slot`` in ``state`` (Sec. IV-A/IV-C).

        The smallest per-action learning rate of the state is Eq. 3 at the
        state's most-tried action count: the own-visit term does not grow
        with ``Num(s, a)``, the peer term is the same for every action, and
        IEEE addition, division and the ``min(1, .)`` clamp are monotone,
        so that alpha is bitwise the minimum of the per-action alphas.
        """
        best = self.learning_rate.alpha(
            self.max_state_count(slot, state), peer_min_counts
        )
        if self.learning_rate.below_exploitation_threshold(best):
            return Phase.EXPLOITATION
        if self.learning_rate.below_exploration_threshold(best):
            return Phase.EXPLORATION_EXPLOITATION
        return Phase.EXPLORATION

    def phase_batch(
        self, slot: np.ndarray, state: np.ndarray, peer_sum: np.ndarray
    ) -> np.ndarray:
        """:meth:`phase` for many slots, as indices into :data:`PHASES`."""
        self._check_indices(state)
        best = self.learning_rate.alpha_batch(
            self.row_max[self.row_of[slot, state]], peer_sum
        )
        params = self.learning_rate.params
        # alpha_th2 <= alpha_th1, so below the second threshold is below both.
        return (best < params.alpha_th1).view(np.int8) + (best < params.alpha_th2)

    def least_tried(self, slot: int, state: int) -> list[int]:
        """The actions of ``slot`` tried least often in ``state``."""
        counts = self.visit_counts(slot, state)
        fewest = min(counts)
        return [a for a, count in enumerate(counts) if count == fewest]

    def least_tried_batch(self, slot: np.ndarray, state: np.ndarray) -> np.ndarray:
        """:meth:`least_tried` for many slots, as a ``(len(slot), num_actions)`` mask."""
        self._check_indices(state)
        counts = self.visits[self.row_of[slot, state]]
        return counts == counts.min(axis=1, keepdims=True)

    def greedy(self, slot: int, state: int) -> list[int]:
        """The actions of ``slot`` with the highest Q-value in ``state``."""
        values = self.q_values(slot, state)
        best = max(values)
        return [a for a, value in enumerate(values) if value == best]

    def greedy_batch(self, slot: np.ndarray, state: np.ndarray) -> np.ndarray:
        """:meth:`greedy` for many slots, as a ``(len(slot), num_actions)`` mask."""
        self._check_indices(state)
        values = self.q[self.row_of[slot, state]]
        return values == values.max(axis=1, keepdims=True)

    # -- validation ------------------------------------------------------------------------

    def _check_state(self, state: int) -> None:
        # NumPy would silently wrap a negative index.
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

    def _check_indices(self, state: np.ndarray, action: np.ndarray | None = None) -> None:
        if not _within(state, 0, self.num_states - 1):
            raise LearningError(
                f"state indices out of range [0, {self.num_states}): {state!r}"
            )
        if action is not None and not _within(action, 0, self.num_actions - 1):
            raise LearningError(
                f"action indices out of range [0, {self.num_actions}): {action!r}"
            )


def _within(values: np.ndarray, low, high) -> bool:
    """Whether every value lies in ``[low, high]`` (true for no values)."""
    return not len(values) or (values.min() >= low and values.max() <= high)


def _check_distinct(slot: np.ndarray) -> None:
    # A fancy-index ``+=`` would silently drop a repeated slot's increment.
    if len(set(slot.tolist())) != len(slot):
        raise LearningError(f"a slot appears twice in one batch: {slot!r}")


class LearningStore:
    """The pools of every agent built against one store, and their windows.

    A controller factory owns one store, so every controller it builds
    keeps its agents' learned state here; an agent built without a store
    gets a private one.  The store also holds :attr:`windows`, the
    observation window of each MAMUT controller built against it, so the
    batch engine adds a fleet's frames to their windows, and averages and
    clears them, as array operations.  Windows are not learned state: they
    hold the frames a controller saw since it last acted.  Slots and rows
    are never freed: a store lives as long as whoever owns it, and so does
    everything its agents learned.
    """

    def __init__(self) -> None:
        self._pools: dict[tuple, AgentPool] = {}
        #: One row per MAMUT controller built against the store.
        self.windows = WindowTable()

    def pool(
        self,
        action_values: Sequence,
        num_states: int,
        gamma: float = DEFAULT_GAMMA,
        learning_rate_params: LearningRateParameters | None = None,
        exploration_epsilon: float = 0.25,
    ) -> AgentPool:
        """The pool of agents with these action values, state count and constants."""
        params = (
            learning_rate_params
            if learning_rate_params is not None
            else LearningRateParameters()
        )
        values = tuple(action_values)
        key = (values, int(num_states), float(gamma), params, float(exploration_epsilon))
        pool = self._pools.get(key)
        if pool is None:
            pool = self._pools[key] = AgentPool(
                values,
                num_states,
                gamma=gamma,
                learning_rate_params=params,
                exploration_epsilon=exploration_epsilon,
            )
        return pool
