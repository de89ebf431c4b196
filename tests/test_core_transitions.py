"""Unit tests for repro.core.transitions (paper Sec. IV-A)."""

from __future__ import annotations

import pytest

from repro.core.states import StateSpace, SystemState
from repro.core.store import AgentPool
from repro.core.transitions import TransitionModel
from repro.errors import LearningError


SPACE = StateSpace()
S0, S1, S2 = (SPACE.state_index(SystemState(f, 0, 0, 0)) for f in range(3))


def make_model(num_actions: int) -> TransitionModel:
    pool = AgentPool(range(num_actions), SPACE.size)
    return TransitionModel(pool, pool.add_slot())


class TestTransitionModel:
    def test_counts_and_probabilities(self):
        model = make_model(2)
        model.record(S0, 0, S1)
        model.record(S0, 0, S1)
        model.record(S0, 0, S2)
        assert model.total(S0, 0) == 3
        assert model.count(S0, 0, S1) == 2
        assert model.probability(S0, 0, S1) == pytest.approx(2 / 3)
        assert model.probability(S0, 0, S2) == pytest.approx(1 / 3)

    def test_probabilities_sum_to_one(self):
        model = make_model(1)
        for target in (S0, S1, S2, S1, S1):
            model.record(S0, 0, target)
        assert sum(model.distribution(S0, 0).values()) == pytest.approx(1.0)

    def test_unseen_pair_has_empty_distribution(self):
        model = make_model(2)
        assert model.distribution(S0, 1) == {}
        assert model.probability(S0, 1, S1) == 0.0
        assert model.total(S0, 1) == 0

    def test_distribution_keeps_first_seen_order(self):
        # Algorithm 1 sums over next states in this order.
        model = make_model(1)
        for target in (S2, S0, S2, S1):
            assert model.record(S1, 0, target) == model.total(S1, 0)
        assert list(model.distribution(S1, 0)) == [S2, S0, S1]

    def test_visited_pairs(self):
        model = make_model(2)
        model.record(S0, 1, S1)
        model.record(S1, 0, S2)
        assert model.visited_pairs() == {(S0, 1), (S1, 0)}

    def test_invalid_action_rejected(self):
        model = make_model(2)
        with pytest.raises(LearningError):
            model.record(S0, 2, S1)
        with pytest.raises(LearningError):
            model.total(S0, -1)

    def test_state_outside_the_space_rejected(self):
        model = make_model(1)
        for state in (SPACE.size, -1):
            with pytest.raises(LearningError):
                model.record(state, 0, S1)
            with pytest.raises(LearningError):
                model.record(S0, 0, state)
            with pytest.raises(LearningError):
                model.total(state, 0)
        assert model.visited_pairs() == set()

    def test_invalid_num_actions_rejected(self):
        with pytest.raises(LearningError):
            make_model(0)
