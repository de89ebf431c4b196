"""Unit tests for repro.core.qtable."""

from __future__ import annotations

import pytest

from repro.core.qtable import QTable
from repro.core.states import StateSpace, SystemState
from repro.core.store import AgentPool
from repro.errors import LearningError


SPACE = StateSpace()
S0 = SPACE.state_index(SystemState(0, 0, 0, 0))
S1 = SPACE.state_index(SystemState(1, 2, 1, 0))


def make_table(num_actions=3) -> QTable:
    pool = AgentPool(range(num_actions), SPACE.size)
    return QTable(pool, pool.add_slot())


class TestQTable:
    def test_set_and_get(self):
        table = make_table(num_actions=3)
        table.set(S0, 1, 2.5)
        assert table.get(S0, 1) == pytest.approx(2.5)
        assert len(table) == 1

    def test_update_towards(self):
        table = make_table(num_actions=2)
        new_value = table.update_towards(S0, 0, target=10.0, alpha=0.5)
        assert new_value == pytest.approx(5.0)
        assert table.get(S0, 0) == pytest.approx(5.0)
        table.update_towards(S0, 0, target=10.0, alpha=0.5)
        assert table.get(S0, 0) == pytest.approx(7.5)

    def test_update_with_invalid_alpha(self):
        table = make_table(num_actions=2)
        with pytest.raises(LearningError):
            table.update_towards(S0, 0, target=1.0, alpha=1.5)

    def test_max_value_and_best_action(self):
        table = make_table(num_actions=3)
        table.set(S0, 0, 1.0)
        table.set(S0, 2, 3.0)
        assert table.max_value(S0) == pytest.approx(3.0)
        assert table.best_action(S0) == 2

    def test_best_action_tie_resolves_to_lowest_index(self):
        table = make_table(num_actions=3)
        assert table.best_action(S0) == 0

    def test_action_values(self):
        table = make_table(num_actions=3)
        table.set(S1, 1, -2.0)
        assert table.action_values(S1) == [0.0, -2.0, 0.0]

    def test_invalid_action_index_rejected(self):
        table = make_table(num_actions=2)
        with pytest.raises(LearningError):
            table.get(S0, 2)
        with pytest.raises(LearningError):
            table.set(S0, -1, 1.0)

    def test_invalid_num_actions_rejected(self):
        with pytest.raises(LearningError):
            make_table(num_actions=0)


class TestRowStorage:
    """The pool rows behind the table, allocated on a state's first write."""

    def test_matches_a_reference_dict_operation_for_operation(self):
        """A plain ``{(state, action): value}`` dict is the reference model."""
        import numpy as np

        reference: dict[tuple[int, int], float] = {}
        table = make_table(num_actions=4)
        rng = np.random.default_rng(0)
        for _ in range(300):
            state = int(rng.integers(SPACE.size))
            action = int(rng.integers(4))
            row = [reference.get((state, a), 0.0) for a in range(4)]
            op = rng.integers(3)
            if op == 0:
                value = float(rng.normal())
                reference[(state, action)] = value
                table.set(state, action, value)
            elif op == 1:
                target = float(rng.normal())
                alpha = float(rng.uniform())
                expected = row[action] + alpha * (target - row[action])
                reference[(state, action)] = expected
                assert table.update_towards(state, action, target, alpha) == expected
            else:
                assert table.get(state, action) == row[action]
                assert table.max_value(state) == max(row)
                assert table.best_action(state) == row.index(max(row))
                assert table.action_values(state) == row
        assert len(table) == len(reference)
        assert dict(table.items()) == reference

    def test_state_outside_the_space_rejected(self):
        # A negative index would silently wrap around in NumPy.
        table = make_table()
        for state in (SPACE.size, -1):
            with pytest.raises(LearningError):
                table.set(state, 0, 1.0)
            with pytest.raises(LearningError):
                table.get(state, 0)
            with pytest.raises(LearningError):
                table.update_towards(state, 0, 1.0, 0.5)
            with pytest.raises(LearningError):
                table.max_value(state)
            with pytest.raises(LearningError):
                table.best_action(state)
            with pytest.raises(LearningError):
                table.action_values(state)
        assert len(table) == 0

    def test_lazy_growth_is_invisible(self):
        table = make_table()
        last = SPACE.size - 1
        assert table.max_value(last) == 0.0
        table.set(last, 0, 7.0)
        assert table.get(last, 0) == 7.0
        assert table.get(0, 0) == 0.0

    def test_items_export_only_stored_entries(self):
        table = make_table()
        table.set(S1, 2, -2.0)
        table.update_towards(S0, 0, target=1.5, alpha=0.5)
        assert sorted(table.items()) == [((S0, 0), 0.75), ((S1, 2), -2.0)]
