"""Unit tests for repro.core.agent."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import ActionSet
from repro.core.agent import QLearningAgent
from repro.core.learning_rate import LearningRateParameters
from repro.core.phases import Phase
from repro.core.states import StateSpace, SystemState
from repro.errors import LearningError


SPACE = StateSpace()
S0 = SPACE.state_index(SystemState(0, 1, 0, 0))
S1 = SPACE.state_index(SystemState(1, 1, 0, 0))


def make_agent(num_actions=4, gamma=0.6, epsilon=0.2, seed=0, **lr_kwargs) -> QLearningAgent:
    return QLearningAgent(
        "test",
        ActionSet("a", tuple(range(num_actions))),
        gamma=gamma,
        learning_rate_params=LearningRateParameters(**lr_kwargs) if lr_kwargs else None,
        seed=seed,
        exploration_epsilon=epsilon,
    )


class TestCounters:
    def test_counts_start_at_zero(self):
        agent = make_agent()
        assert agent.state_action_count(S0, 0) == 0
        assert agent.action_count(0) == 0
        assert agent.min_action_count() == 0
        assert agent.known_states() == set()

    def test_update_increments_counters(self):
        agent = make_agent()
        agent.update(S0, 2, reward=1.0, next_state=S1, peer_min_counts=[])
        assert agent.state_action_count(S0, 2) == 1
        assert agent.action_count(2) == 1
        assert agent.known_states() == {S0}
        assert agent.pool.visit_count(agent.slot, S0, 2) == 1

    def test_min_action_count_tracks_least_tried(self):
        agent = make_agent(num_actions=2)
        agent.update(S0, 0, 1.0, S1, [])
        assert agent.min_action_count() == 0
        agent.update(S0, 1, 1.0, S1, [])
        assert agent.min_action_count() == 1


class TestUpdate:
    def test_q_learning_update_rule(self):
        agent = make_agent(gamma=0.5, beta=0.3, beta_prime=0.0)
        agent.pool.set_q(agent.slot, S1, 0, 2.0)
        alpha = agent.update(S0, 1, reward=1.0, next_state=S1, peer_min_counts=[])
        # First visit: alpha = 0.3/1 = 0.3; target = 1 + 0.5*2 = 2.0.
        assert alpha == pytest.approx(0.3)
        assert agent.pool.q_values(agent.slot, S0)[1] == pytest.approx(0.3 * 2.0)

    def test_peer_counts_enter_the_learning_rate(self):
        agent = make_agent()
        alpha_uncovered = agent.update(S0, 0, 0.0, S1, peer_min_counts=[0, 0])
        alpha_covered = agent.update(S0, 0, 0.0, S1, peer_min_counts=[10, 10])
        assert alpha_uncovered > alpha_covered

    def test_invalid_action_rejected(self):
        agent = make_agent(num_actions=2)
        with pytest.raises(LearningError):
            agent.update(S0, 5, 0.0, S1, [])

    def test_state_outside_the_space_rejected(self):
        agent = make_agent(num_actions=2)
        for state in (SPACE.size, -1):
            with pytest.raises(LearningError):
                agent.update(state, 0, 0.0, S1, [])
            with pytest.raises(LearningError):
                agent.update(S0, 0, 0.0, state, [])
            with pytest.raises(LearningError):
                agent.select_greedy_action(state)
            with pytest.raises(LearningError):
                agent.phase(state, [])
        assert agent.known_states() == set()
        assert agent.action_count(0) == 0

    def test_invalid_gamma_rejected(self):
        with pytest.raises(LearningError):
            make_agent(gamma=1.0)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(LearningError):
            make_agent(epsilon=1.5)


class TestPhases:
    def test_new_state_is_exploration(self):
        agent = make_agent()
        assert agent.phase(S0, [5, 5]) is Phase.EXPLORATION

    def test_new_state_is_exploration_whatever_beta(self):
        # beta + the peer term would be 0.011 < alpha_th2 here; an unvisited
        # pair's learning rate is 1.0 (Eq. 3's beta / 0, clamped).
        agent = make_agent(beta=0.01)
        assert agent.phase(S0, [100, 100]) is Phase.EXPLORATION
        agent.update(S0, 0, 0.5, S1, [100, 100])
        assert agent.phase(S0, [100, 100]) is Phase.EXPLOITATION

    def test_phase_advances_with_visits_and_peer_coverage(self):
        agent = make_agent(num_actions=2)
        for _ in range(3):
            agent.update(S0, 0, 0.5, S0, [5, 5])
        assert agent.phase(S0, [5, 5]) is Phase.EXPLORATION
        for _ in range(10):
            agent.update(S0, 0, 0.5, S0, [5, 5])
        assert agent.phase(S0, [5, 5]) in (
            Phase.EXPLORATION_EXPLOITATION,
            Phase.EXPLOITATION,
        )
        for _ in range(30):
            agent.update(S0, 0, 0.5, S0, [20, 20])
        assert agent.phase(S0, [20, 20]) is Phase.EXPLOITATION

    def test_uncovered_peers_block_phase_progress(self):
        """Eq. 3's second term: exploration cannot end while other agents
        still have untried actions (paper Sec. IV-B)."""
        agent = make_agent(num_actions=2)
        for _ in range(50):
            agent.update(S0, 0, 0.5, S0, [0, 0])
        assert agent.phase(S0, [0, 0]) is Phase.EXPLORATION


class TestSelection:
    def test_greedy_picks_highest_q(self):
        agent = make_agent(num_actions=3)
        agent.pool.set_q(agent.slot, S0, 1, 5.0)
        assert agent.select_greedy_action(S0) == 1

    def test_greedy_tie_prefers_current(self):
        agent = make_agent(num_actions=3)
        assert agent.select_greedy_action(S0, current=2) == 2

    def test_greedy_tie_without_current_is_a_valid_action(self):
        agent = make_agent(num_actions=3)
        assert agent.select_greedy_action(S0) in (0, 1, 2)

    def test_exploration_returns_valid_actions(self):
        agent = make_agent(num_actions=5, epsilon=1.0)
        choices = {agent.select_exploration_action(S0) for _ in range(50)}
        assert choices <= set(range(5))
        assert len(choices) > 1

    def test_exploration_with_zero_epsilon_is_greedy(self):
        agent = make_agent(num_actions=3, epsilon=0.0)
        agent.pool.set_q(agent.slot, S0, 2, 1.0)
        assert agent.select_exploration_action(S0) == 2

    def test_seed_reproducibility(self):
        a = make_agent(seed=7, epsilon=1.0)
        b = make_agent(seed=7, epsilon=1.0)
        assert [a.select_exploration_action(S0) for _ in range(20)] == [
            b.select_exploration_action(S0) for _ in range(20)
        ]


#: One agent draw: whether ``random()`` comes first, and the candidates,
#: as a list of action indices (the scalar form) or as the indices of a
#: mask's set entries (the batch form).
_DRAWS = st.lists(
    st.tuples(
        st.booleans(),
        st.one_of(
            st.lists(st.integers(0, 2**16), min_size=1, max_size=40),
            st.lists(st.booleans(), min_size=1, max_size=40)
            .filter(any)
            .map(lambda mask: np.flatnonzero(mask)),
        ),
    ),
    min_size=1,
    max_size=30,
)


class TestIntegerIndexDrawsAsChoice:
    """``c[rng.integers(0, len(c))]`` draws what ``rng.choice(c)`` draws.

    Both selection forms index their candidates with one ``integers`` draw
    instead of calling ``Generator.choice``; every seeded agent stream (and
    so every pinned digest) rests on the two drawing the same value and
    leaving the generator in the same state on the installed NumPy.
    """

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), draws=_DRAWS)
    def test_same_values_and_end_state(self, seed, draws):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        for random_first, candidates in draws:
            if random_first:
                assert a.random() == b.random()
            assert int(a.choice(candidates)) == int(
                candidates[b.integers(0, len(candidates))]
            )
        assert a.bit_generator.state == b.bit_generator.state


class TestSummary:
    def test_summary_fields(self):
        agent = make_agent()
        agent.update(S0, 0, 1.0, S1, [])
        summary = agent.summary()
        assert summary["name"] == "test"
        assert summary["actions"] == 4
        assert summary["visited_states"] == 1
        assert summary["q_entries"] >= 1


class TestCounterCaches:
    """ISSUE 5 satellite: cached counter extremes match the brute force."""

    def brute_force_min(self, agent):
        return min(agent.action_count(a) for a in agent.actions.indices())

    def brute_force_phase(self, agent, state, peers):
        # The pre-cache implementation: Eq. 3 evaluated for every action.
        alphas = [
            agent.alpha(state, action, peers) for action in agent.actions.indices()
        ]
        best = min(alphas)
        if agent.learning_rate.below_exploitation_threshold(best):
            return Phase.EXPLOITATION
        if agent.learning_rate.below_exploration_threshold(best):
            return Phase.EXPLORATION_EXPLOITATION
        return Phase.EXPLORATION

    def test_counters_and_phases_unchanged_under_random_updates(self):
        import numpy as np

        agent = make_agent(num_actions=3)
        states = [SPACE.state_index(SystemState(i, 1, 0, 0)) for i in range(4)]
        rng = np.random.default_rng(7)
        peers = [0, 0]
        for step in range(400):
            state = states[rng.integers(len(states))]
            action = int(rng.integers(3))
            next_state = states[rng.integers(len(states))]
            peers = [int(rng.integers(6)), int(rng.integers(6))]
            agent.update(state, action, float(rng.normal()), next_state, peers)
            assert agent.min_action_count() == self.brute_force_min(agent)
            probe = states[rng.integers(len(states))]
            assert agent.phase(probe, peers) is self.brute_force_phase(
                agent, probe, peers
            )
            assert agent.max_state_count(probe) == max(
                (agent.state_action_count(probe, a) for a in agent.actions.indices()),
                default=0,
            )

    def test_min_action_count_cache_invalidated_on_update(self):
        agent = make_agent(num_actions=2)
        assert agent.min_action_count() == 0
        agent.update(S0, 0, 1.0, S1, [])
        assert agent.min_action_count() == 0
        agent.update(S0, 1, 1.0, S1, [])
        assert agent.min_action_count() == 1

    def test_extremes_follow_writes_outside_update(self):
        agent = make_agent(num_actions=2)
        agent.update(S0, 0, 1.0, S1, [])
        assert agent.min_action_count() == 0
        # What a restore writes: raw counters and transitions, no update().
        agent.pool.set_action_counts(agent.slot, [5, 3])
        for _ in range(4):
            agent.pool.record(agent.slot, S1, 1, S0)
        assert agent.min_action_count() == 3
        assert agent.max_state_count(S1) == 4
