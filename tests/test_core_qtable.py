"""Unit tests for an agent's Q-table: the Q-values of its pool slot."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.states import StateSpace, SystemState
from repro.core.store import AgentPool
from repro.errors import LearningError


SPACE = StateSpace()
S0 = SPACE.state_index(SystemState(0, 0, 0, 0))
S1 = SPACE.state_index(SystemState(1, 2, 1, 0))


def make_slot(num_actions=3) -> tuple[AgentPool, int]:
    pool = AgentPool(range(num_actions), SPACE.size)
    return pool, pool.add_slot()


class TestQTable:
    def test_set_and_get(self):
        pool, slot = make_slot(num_actions=3)
        pool.set_q(slot, S0, 1, 2.5)
        assert pool.q_values(slot, S0)[1] == pytest.approx(2.5)
        assert len(pool.stored_q(slot)) == 1

    def test_update_towards(self):
        pool, slot = make_slot(num_actions=2)
        new_value = pool.update_towards(slot, S0, 0, target=10.0, alpha=0.5)
        assert new_value == pytest.approx(5.0)
        assert pool.q_values(slot, S0)[0] == pytest.approx(5.0)
        pool.update_towards(slot, S0, 0, target=10.0, alpha=0.5)
        assert pool.q_values(slot, S0)[0] == pytest.approx(7.5)

    def test_update_with_invalid_alpha(self):
        pool, slot = make_slot(num_actions=2)
        with pytest.raises(LearningError):
            pool.update_towards(slot, S0, 0, target=1.0, alpha=1.5)

    def test_max_value_and_best_action(self):
        pool, slot = make_slot(num_actions=3)
        pool.set_q(slot, S0, 0, 1.0)
        pool.set_q(slot, S0, 2, 3.0)
        assert max(pool.q_values(slot, S0)) == pytest.approx(3.0)
        assert pool.greedy(slot, S0) == [2]

    def test_best_action_tie_resolves_to_lowest_index(self):
        pool, slot = make_slot(num_actions=3)
        values = pool.q_values(slot, S0)
        assert values.index(max(values)) == 0
        assert pool.greedy(slot, S0) == [0, 1, 2]

    def test_action_values(self):
        pool, slot = make_slot(num_actions=3)
        pool.set_q(slot, S1, 1, -2.0)
        assert pool.q_values(slot, S1) == [0.0, -2.0, 0.0]

    def test_invalid_action_index_rejected(self):
        pool, slot = make_slot(num_actions=2)
        for action in (2, -1):
            with pytest.raises(LearningError):
                pool.set_q(slot, S0, action, 1.0)
            with pytest.raises(LearningError):
                pool.update_towards(slot, S0, action, 1.0, 0.5)
        assert pool.stored_q(slot) == {}

    def test_invalid_num_actions_rejected(self):
        with pytest.raises(LearningError):
            make_slot(num_actions=0)


class TestRowStorage:
    """The pool rows behind the Q-values, allocated on a state's first write."""

    def test_matches_a_reference_dict_operation_for_operation(self):
        """A plain ``{(state, action): value}`` dict is the reference model."""
        reference: dict[tuple[int, int], float] = {}
        pool, slot = make_slot(num_actions=4)
        other = pool.add_slot()  # a neighbour's writes must not show through
        rng = np.random.default_rng(0)
        for _ in range(300):
            state = int(rng.integers(SPACE.size))
            action = int(rng.integers(4))
            row = [reference.get((state, a), 0.0) for a in range(4)]
            op = rng.integers(3)
            if op == 0:
                value = float(rng.normal())
                reference[(state, action)] = value
                pool.set_q(slot, state, action, value)
                pool.set_q(other, state, action, -value)
            elif op == 1:
                target = float(rng.normal())
                alpha = float(rng.uniform())
                expected = row[action] + alpha * (target - row[action])
                reference[(state, action)] = expected
                assert pool.update_towards(slot, state, action, target, alpha) == expected
            else:
                assert pool.q_values(slot, state) == row
                best = max(row)
                assert pool.greedy(slot, state) == [
                    a for a, value in enumerate(row) if value == best
                ]
        assert pool.stored_q(slot) == reference

    def test_state_outside_the_space_rejected(self):
        # A negative index would silently wrap around in NumPy.
        pool, slot = make_slot()
        for state in (SPACE.size, -1):
            with pytest.raises(LearningError):
                pool.set_q(slot, state, 0, 1.0)
            with pytest.raises(LearningError):
                pool.update_towards(slot, state, 0, 1.0, 0.5)
            with pytest.raises(LearningError):
                pool.q_values(slot, state)
            with pytest.raises(LearningError):
                pool.greedy(slot, state)
        assert pool.stored_q(slot) == {}

    def test_lazy_growth_is_invisible(self):
        pool, slot = make_slot()
        last = SPACE.size - 1
        assert pool.q_values(slot, last) == [0.0, 0.0, 0.0]
        pool.set_q(slot, last, 0, 7.0)
        assert pool.q_values(slot, last)[0] == 7.0
        assert pool.q_values(slot, 0)[0] == 0.0

    def test_items_export_only_stored_entries(self):
        pool, slot = make_slot()
        pool.set_q(slot, S1, 2, -2.0)
        pool.update_towards(slot, S0, 0, target=1.5, alpha=0.5)
        stored = pool.stored_q(slot)
        assert stored == {(S0, 0): 0.75, (S1, 2): -2.0}
        assert list(stored) == [(S0, 0), (S1, 2)]  # ascending (state, action)
