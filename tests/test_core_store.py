"""The learning store: scalar/batch pairs, copies, and the batch activation.

Every ``*_batch`` method of :class:`~repro.core.store.AgentPool` must give
bitwise what its scalar form gives slot by slot, and
:meth:`~repro.core.mamut.MamutBatch.decide` and
:meth:`~repro.core.mamut.MamutBatch.activate` must leave controllers in
exactly the state per-controller
:meth:`~repro.core.mamut.MamutController.decide` and
:meth:`~repro.core.mamut.MamutController.apply_external_activation` leave
them in: same decisions, Q-values, counts, transitions, generator states,
pending updates, current actions and history.  Comparisons use ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.actions import ActionSet, default_thread_actions
from repro.core.agent import QLearningAgent
from repro.core.config import MamutConfig
from repro.core.learning_rate import LearningRateFunction, LearningRateParameters
from repro.core import mamut
from repro.core.exploitation import expected_q_action
from repro.core.mamut import AGENT_NAMES, MamutBatch, MamutController
from repro.core.persistence import snapshot_agent
from repro.core.rewards import RewardConfig
from repro.core.schedule import AgentSchedule, AgentSlot
from repro.core.states import StateSpace
from repro.core.store import PHASES, AgentPool, LearningStore
from repro.errors import LearningError
from repro.video.sequence import ResolutionClass

SPACE = StateSpace()
#: Thresholds that a few visits already cross, so every phase shows up.
FAST = LearningRateParameters(beta=0.3, beta_prime=0.2, alpha_th1=0.5, alpha_th2=0.3)


def _trained_pool(seed, num_actions=5, slots=6, steps=300, params=FAST):
    """A pool whose slots saw random updates over a handful of states."""
    pool = AgentPool(range(num_actions), SPACE.size, learning_rate_params=params)
    for _ in range(slots):
        pool.add_slot()
    rng = np.random.default_rng(seed)
    states = rng.choice(SPACE.size, size=6, replace=False).tolist()
    for _ in range(steps):
        pool.update(
            int(rng.integers(slots)),
            states[rng.integers(len(states))],
            int(rng.integers(num_actions)),
            float(rng.normal()),
            states[rng.integers(len(states))],
            [int(rng.integers(4)), int(rng.integers(4))],
        )
    return pool, states


def _slot_state(pool, slot):
    """Everything a slot learned, as plain values."""
    states = pool.states_of(slot).tolist()
    return {
        "rows": {
            s: (
                pool.q_values(slot, s),
                pool.visit_counts(slot, s),
                pool.stored[pool.row_of[slot, s]].tolist(),
                pool.max_state_count(slot, s),
            )
            for s in states
        },
        "action_counts": pool.action_counts[slot].tolist(),
        "min": pool.min_action_count(slot),
        "next": {
            (s, a): dict(pool.next_counts(slot, s, a))
            for s in states
            for a in range(pool.num_actions)
        },
    }


class TestAlphaBatch:
    def test_bitwise_equal_to_scalar(self):
        function = LearningRateFunction()
        rng = np.random.default_rng(0)
        visits = rng.integers(0, 50, size=400)
        peers = rng.integers(0, 30, size=(400, 2))
        batch = function.alpha_batch(visits, peers[:, 0] + peers[:, 1])
        scalar = [function.alpha(int(v), p.tolist()) for v, p in zip(visits, peers)]
        assert batch.tolist() == scalar

    def test_never_visited_pair_is_a_full_step(self):
        function = LearningRateFunction(LearningRateParameters(beta=0.01))
        assert function.alpha_batch(np.array([0]), np.array([200])).tolist() == [1.0]

    def test_negative_counts_rejected(self):
        function = LearningRateFunction()
        with pytest.raises(Exception):
            function.alpha_batch(np.array([-1]), np.array([0]))
        with pytest.raises(Exception):
            function.alpha_batch(np.array([1]), np.array([-1]))


class TestPoolPairs:
    def test_update_batch_bitwise_equal_to_update(self):
        for seed in range(5):
            scalar, states = _trained_pool(seed)
            batch, _ = _trained_pool(seed)
            rng = np.random.default_rng(100 + seed)
            for _ in range(40):
                slots = rng.choice(scalar.slots, size=4, replace=False)
                # Fresh states too, so rows are allocated by both forms.
                state = rng.choice(states + [0, 1, 179], size=4)
                action = rng.integers(scalar.num_actions, size=4)
                reward = rng.normal(size=4)
                next_state = rng.choice(states + [2], size=4)
                peers = rng.integers(0, 5, size=(4, 2))
                alphas = [
                    scalar.update(
                        int(slots[i]), int(state[i]), int(action[i]),
                        float(reward[i]), int(next_state[i]), peers[i].tolist(),
                    )
                    for i in range(4)
                ]
                batch_alphas = batch.update_batch(
                    slots, state, action, reward, next_state, peers[:, 0] + peers[:, 1]
                )
                assert batch_alphas.tolist() == alphas
            for slot in range(scalar.slots):
                assert _slot_state(batch, slot) == _slot_state(scalar, slot)

    def test_phase_and_candidates_bitwise_equal_to_scalar(self):
        pool, states = _trained_pool(7, slots=8, steps=600)
        slots = np.repeat(np.arange(pool.slots), len(states) + 1)
        state = np.tile(np.array(states + [3]), pool.slots)
        seen = set()
        for peer_sum in (0, 2, 9):
            peer = np.full(len(slots), peer_sum)
            codes = pool.phase_batch(slots, state, peer)
            least = pool.least_tried_batch(slots, state)
            greedy = pool.greedy_batch(slots, state)
            for i, (slot, s) in enumerate(zip(slots.tolist(), state.tolist())):
                scalar_phase = pool.phase(slot, s, [peer_sum])
                seen.add(scalar_phase)
                assert PHASES[codes[i]] is scalar_phase
                assert least[i].nonzero()[0].tolist() == pool.least_tried(slot, s)
                assert greedy[i].nonzero()[0].tolist() == pool.greedy(slot, s)
        assert seen == set(PHASES)

    def test_repeated_slot_in_a_batch_is_rejected(self):
        pool, _ = _trained_pool(1)
        one = np.array([0, 0])
        with pytest.raises(LearningError):
            pool.update_batch(one, one, one, np.zeros(2), one, one)

    def test_batch_index_checks(self):
        pool, _ = _trained_pool(1)
        with pytest.raises(LearningError):
            pool.phase_batch(np.array([0]), np.array([SPACE.size]), np.array([0]))
        with pytest.raises(LearningError):
            pool.update_batch(
                np.array([0]), np.array([0]), np.array([pool.num_actions]),
                np.zeros(1), np.array([0]), np.array([0]),
            )


class TestSlots:
    def test_copy_across_stores_keeps_everything(self):
        source, _ = _trained_pool(3)
        target = LearningStore().pool(range(source.num_actions), SPACE.size)
        first = target.add_slot()
        slot = target.add_slot()
        target.update(slot, 5, 1, 1.0, 6, [])  # replaced, not merged
        target.copy_slot(slot, source, 2)
        assert _slot_state(target, slot) == _slot_state(source, 2)
        assert _slot_state(target, first) == _slot_state(AgentPool(range(5), SPACE.size), 0)

    def test_copy_within_a_pool_and_onto_itself(self):
        pool, _ = _trained_pool(4)
        expected = _slot_state(pool, 1)
        pool.copy_slot(1, pool, 1)
        assert _slot_state(pool, 1) == expected
        pool.copy_slot(0, pool, 1)
        assert _slot_state(pool, 0) == expected

    def test_copy_needs_the_same_shape(self):
        source, _ = _trained_pool(3)
        target = AgentPool(range(source.num_actions + 1), SPACE.size)
        with pytest.raises(LearningError):
            target.copy_slot(target.add_slot(), source, 0)

    def test_cleared_slot_forgets_folded_and_unfolded_entries(self):
        pool, states = _trained_pool(5)
        pool.next_counts(0, states[0], 0)  # fold everything so far
        pool.record(0, states[0], 0, states[1])
        pool.clear_slot(0)
        assert _slot_state(pool, 0) == _slot_state(AgentPool(range(5), SPACE.size), 0)
        pool.record(0, 7, 2, 8, 3)
        assert dict(pool.next_counts(0, 7, 2)) == {8: 3}
        assert pool.max_state_count(0, 7) == 3

    def test_pools_grow_in_place(self):
        pool = AgentPool(range(3), SPACE.size)
        for _ in range(40):
            pool.add_slot()
        for slot in range(40):
            for state in range(10):
                pool.record(slot, state, slot % 3, state + 1)
        assert pool.rows == 1 + 40 * 10
        assert all(pool.max_state_count(slot, 9) == 1 for slot in range(40))
        assert pool.next_counts(39, 9, 0) == {10: 1}

    def test_store_shares_pools_by_action_values_and_constants(self):
        store = LearningStore()
        a = QLearningAgent("a", ActionSet("a", (1, 2, 3)), store=store)
        b = QLearningAgent("b", ActionSet("b", (1, 2, 3)), store=store)
        c = QLearningAgent("c", ActionSet("c", (1, 2, 3)), store=store, gamma=0.5)
        d = QLearningAgent("d", ActionSet("d", (4, 5, 6)), store=store)
        e = QLearningAgent("e", ActionSet("e", (1, 2, 3)))
        assert a.pool is b.pool and (a.slot, b.slot) == (0, 1)
        assert a.pool.action_values == (1, 2, 3)
        assert len({id(a.pool), id(c.pool), id(d.pool), id(e.pool)}) == 4
        assert store.pool((1, 2, 3), SPACE.size) is a.pool


# -- the batch activation against the scalar one ----------------------------------------


def _population(seed):
    """Controllers with mixed action sets, stores, constants and history."""
    shared = LearningStore()
    other = LearningStore()
    controllers = []
    for i in range(18):
        kind = i % 6
        config = MamutConfig(
            thread_actions=(
                default_thread_actions(ResolutionClass.HR)
                if kind in (0, 3)
                else default_thread_actions(ResolutionClass.LR)
                if kind in (1, 4)
                # Seven thread counts: the QP agents' shape, so one pool
                # holds agents of two names.
                else default_thread_actions(max_threads=7)
            ),
            learning_rate=FAST if kind < 4 else LearningRateParameters(),
            seed=seed * 100 + i,
            record_history=i % 2 == 0,
        )
        store = shared if kind < 3 else other if kind < 5 else None
        controllers.append(MamutController(config, store))
    return controllers


def _controller_state(ctl):
    return {
        "agents": {
            name: (
                snapshot_agent(agent),
                agent.min_action_count(),
                agent._rng.bit_generator.state,
            )
            for name, agent in ctl.agents.items()
        },
        "pending": ctl._pending,
        "current": dict(ctl._current_indices),
        "history": list(ctl.history),
        "window": ctl.window.count,
    }


class TestMamutBatch:
    def test_activate_equals_scalar_activations(self):
        scalar = _population(1)
        batch = _population(1)
        fleet = MamutBatch(batch, [0] * len(batch))
        rng = np.random.default_rng(11)
        states = rng.choice(SPACE.size, size=5, replace=False)
        schedule = scalar[0].schedule
        frames_of = [
            [f for f in range(48) if schedule.agent_at(f) == name] for name in AGENT_NAMES
        ]
        phases = set()
        for round_index in range(70):
            count = int(rng.integers(1, len(scalar) + 1))
            lanes = rng.choice(len(scalar), size=count, replace=False)
            agent_ids = rng.integers(len(AGENT_NAMES), size=count)
            frames = [int(rng.choice(frames_of[gid])) for gid in agent_ids]
            current = rng.choice(states, size=count)
            rewards = rng.normal(size=count)
            if round_index % 9 == 4:
                # A video boundary: the pending update is dropped.
                for j in rng.choice(len(scalar), size=3, replace=False):
                    scalar[j].reset()
                    batch[j].reset()
            for k in rng.permutation(count):
                j = int(lanes[k])
                scalar[j].window.add(30.0, 35.0, 2.0, 40.0)
                scalar[j].apply_external_activation(
                    AGENT_NAMES[agent_ids[k]], frames[k], int(current[k]), float(rewards[k])
                )
            for j in lanes:
                batch[j].window.add(30.0, 35.0, 2.0, 40.0)
            fleet.activate(lanes, agent_ids, frames, current, rewards)
            for ctl in scalar:
                phases.update(entry.phase for entry in ctl.history)
        for mine, theirs in zip(batch, scalar):
            assert _controller_state(mine) == _controller_state(theirs)
        for gid, name in enumerate(AGENT_NAMES):
            assert fleet.values[gid].tolist() == [
                ctl.agents[name].actions[ctl._current_indices[name]] for ctl in scalar
            ]
        assert phases == set(PHASES)

    def test_builds_from_current_actions(self):
        controllers = _population(2)
        fleet = MamutBatch(controllers, range(len(controllers)))
        decisions = [ctl.current_decision() for ctl in controllers]
        assert fleet.values[0].tolist() == [d.qp for d in decisions]
        assert fleet.values[1].tolist() == [d.threads for d in decisions]
        assert fleet.values[2].tolist() == [d.frequency_ghz for d in decisions]


def _decide_fleet(seed):
    """Two schedules, two (state space, reward) configurations, shared and
    private stores, and thresholds every phase is reached under."""
    store = LearningStore()
    # Slots in another order than AGENT_NAMES, and NULL slots at 4 and 5.
    short = AgentSchedule(
        [AgentSlot("threads", 3, 0), AgentSlot("dvfs", 6, 1), AgentSlot("qp", 6, 2)]
    )
    tight = dict(
        state_space=StateSpace(bitrate_edges_mbps=(2.0, 4.0), power_cap_w=60.0),
        reward=RewardConfig(bandwidth_mbps=4.0, power_cap_w=60.0),
    )
    controllers = []
    for i in range(16):
        config = MamutConfig(
            thread_actions=default_thread_actions(
                ResolutionClass.HR if i % 2 else ResolutionClass.LR
            ),
            learning_rate=FAST,
            schedule=short if i % 4 < 2 else None,
            seed=seed * 100 + i,
            record_history=True,
            **(tight if i % 3 == 0 else {}),
        )
        controllers.append(MamutController(config, store if i % 5 else None))
    return controllers


class TestMamutBatchDecide:
    def test_decide_equals_scalar_decide(self, monkeypatch):
        chained = []

        def counted(*args, **kwargs):
            chained.append(args)
            return expected_q_action(*args, **kwargs)

        monkeypatch.setattr(mamut, "expected_q_action", counted)
        scalar = _decide_fleet(3)
        batch = _decide_fleet(3)
        rng = np.random.default_rng(5)
        starts = rng.integers(0, 40, size=len(scalar))
        fleet = MamutBatch(batch, starts.tolist())
        # A few distinct observations, so states repeat and phases advance.
        observations = [
            (25.0, 36.0, 1.5, 50.0),
            (20.0, 42.0, 3.0, 65.0),
            (31.0, 33.0, 5.0, 58.0),
        ]
        for round_index in range(400):
            if round_index % 97 == 50:
                # A video boundary: windows and pending updates are dropped.
                for j in rng.choice(len(scalar), size=4, replace=False):
                    scalar[j].reset()
                    batch[j].reset()
            if round_index:
                for mine, theirs in zip(batch, scalar):
                    observed = observations[rng.integers(len(observations))]
                    mine.window.add(*observed)
                    theirs.window.add(*observed)
            decisions = [
                ctl.decide(int(start) + round_index) for ctl, start in zip(scalar, starts)
            ]
            fleet.decide()
            assert fleet.values[0].tolist() == [d.qp for d in decisions]
            assert fleet.values[1].tolist() == [d.threads for d in decisions]
            assert fleet.values[2].tolist() == [d.frequency_ghz for d in decisions]
        assert fleet.frame_indices.tolist() == (starts + 400).tolist()
        for mine, theirs in zip(batch, scalar):
            assert _controller_state(mine) == _controller_state(theirs)
        phases = {entry.phase for ctl in scalar for entry in ctl.history}
        assert phases == set(PHASES)
        assert chained  # Algorithm 1 ran
        assert (len(fleet._schedules), len(fleet._models)) == (2, 2)

    def test_carried_rows_decide_like_the_scalar_form(self):
        """Instances built with ``previous`` over changing rosters.

        Every 20 rounds the roster changes (controllers leave, join and come
        back, in a new order) and a few controllers decide frames on their
        own in between, on the scalar form, which moves their frame counters
        and actions away from the carried rows.
        """
        scalar = _decide_fleet(4)
        batch = _decide_fleet(4)
        rng = np.random.default_rng(8)
        frames = rng.integers(0, 40, size=len(scalar))
        observations = [
            (25.0, 36.0, 1.5, 50.0),
            (20.0, 42.0, 3.0, 65.0),
            (31.0, 33.0, 5.0, 58.0),
        ]

        def observe(j):
            observed = observations[rng.integers(len(observations))]
            scalar[j].window.add(*observed)
            batch[j].window.add(*observed)

        fleet = None
        for round_index in range(300):
            if round_index % 20 == 0:
                for j in rng.choice(len(scalar), size=3, replace=False).tolist():
                    for _ in range(2):
                        observe(j)
                        assert batch[j].decide(frames[j]) == scalar[j].decide(frames[j])
                        frames[j] += 1
                size = int(rng.integers(1, len(scalar) + 1))
                members = rng.permutation(len(scalar))[:size]
                fleet = MamutBatch(
                    [batch[j] for j in members], frames[members], previous=fleet
                )
                current = [batch[j].current_decision() for j in members.tolist()]
                assert fleet.values[0].tolist() == [d.qp for d in current]
                assert fleet.values[1].tolist() == [d.threads for d in current]
                assert fleet.values[2].tolist() == [d.frequency_ghz for d in current]
            for j in members.tolist():
                observe(j)
            decisions = [scalar[j].decide(frames[j]) for j in members.tolist()]
            fleet.decide()
            frames[members] += 1
            assert fleet.values[0].tolist() == [d.qp for d in decisions]
            assert fleet.values[1].tolist() == [d.threads for d in decisions]
            assert fleet.values[2].tolist() == [d.frequency_ghz for d in decisions]
            assert fleet.frame_indices.tolist() == frames[members].tolist()
        for mine, theirs in zip(batch, scalar):
            assert _controller_state(mine) == _controller_state(theirs)
        assert {entry.phase for ctl in scalar for entry in ctl.history} == set(PHASES)
        # Rows of controllers that left are dropped.
        assert set(fleet._row_of) == {batch[j] for j in members.tolist()}
