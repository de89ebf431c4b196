"""Unit tests for an agent's transition model (paper Sec. IV-A): the
observed transitions of its pool slot."""

from __future__ import annotations

import pytest

from repro.core.states import StateSpace, SystemState
from repro.core.store import AgentPool
from repro.errors import LearningError


SPACE = StateSpace()
S0, S1, S2 = (SPACE.state_index(SystemState(f, 0, 0, 0)) for f in range(3))


def make_slot(num_actions: int) -> tuple[AgentPool, int]:
    pool = AgentPool(range(num_actions), SPACE.size)
    return pool, pool.add_slot()


class TestTransitionModel:
    def test_counts_and_probabilities(self):
        pool, slot = make_slot(2)
        pool.record(slot, S0, 0, S1)
        pool.record(slot, S0, 0, S1)
        pool.record(slot, S0, 0, S2)
        assert pool.visit_count(slot, S0, 0) == 3
        assert pool.next_counts(slot, S0, 0) == {S1: 2, S2: 1}
        distribution = pool.distribution(slot, S0, 0)
        assert distribution[S1] == pytest.approx(2 / 3)
        assert distribution[S2] == pytest.approx(1 / 3)

    def test_probabilities_sum_to_one(self):
        pool, slot = make_slot(1)
        for target in (S0, S1, S2, S1, S1):
            pool.record(slot, S0, 0, target)
        assert sum(pool.distribution(slot, S0, 0).values()) == pytest.approx(1.0)

    def test_unseen_pair_has_empty_distribution(self):
        pool, slot = make_slot(2)
        pool.record(slot, S0, 0, S1)
        assert pool.distribution(slot, S0, 1) == {}
        assert pool.next_counts(slot, S0, 1) == {}
        assert pool.visit_count(slot, S0, 1) == 0

    def test_distribution_keeps_first_seen_order(self):
        # Algorithm 1 sums over next states in this order.
        pool, slot = make_slot(1)
        for target in (S2, S0, S2, S1):
            assert pool.record(slot, S1, 0, target) == pool.visit_count(slot, S1, 0)
        assert list(pool.distribution(slot, S1, 0)) == [S2, S0, S1]
        assert list(pool.next_counts(slot, S1, 0)) == [S2, S0, S1]

    def test_visited_pairs(self):
        pool, slot = make_slot(2)
        other = pool.add_slot()
        pool.record(slot, S0, 1, S1)
        pool.record(slot, S1, 0, S2)
        pool.record(other, S2, 1, S2)
        pool.set_q(slot, S2, 0, 1.0)  # a Q-value alone is no visit
        assert pool.visited_pairs(slot) == {(S0, 1), (S1, 0)}

    def test_invalid_action_rejected(self):
        pool, slot = make_slot(2)
        with pytest.raises(LearningError):
            pool.record(slot, S0, 2, S1)
        for action in (2, -1):
            with pytest.raises(LearningError):
                pool.visit_count(slot, S0, action)
            with pytest.raises(LearningError):
                pool.distribution(slot, S0, action)
            with pytest.raises(LearningError):
                pool.next_counts(slot, S0, action)

    def test_state_outside_the_space_rejected(self):
        pool, slot = make_slot(1)
        for state in (SPACE.size, -1):
            with pytest.raises(LearningError):
                pool.record(slot, state, 0, S1)
            with pytest.raises(LearningError):
                pool.record(slot, S0, 0, state)
            with pytest.raises(LearningError):
                pool.visit_count(slot, state, 0)
            with pytest.raises(LearningError):
                pool.distribution(slot, state, 0)
            with pytest.raises(LearningError):
                pool.next_counts(slot, state, 0)
        assert pool.visited_pairs(slot) == set()

    def test_invalid_num_actions_rejected(self):
        with pytest.raises(LearningError):
            make_slot(0)
