"""Unit tests for repro.core.mamut (the MAMUT controller)."""

from __future__ import annotations

import pytest

from engine_fixtures import decide_after
from repro.core.config import MamutConfig
from repro.core.mamut import DVFS_AGENT, QP_AGENT, THREAD_AGENT, MamutController
from repro.core.observation import Observation
from repro.core.persistence import snapshot_controller
from repro.errors import LearningError
from repro.core.schedule import AgentSchedule, AgentSlot
from repro.platform.dvfs import DvfsPolicy


def obs(fps=25.0, psnr=36.0, bitrate=4.0, power=80.0) -> Observation:
    return Observation(fps=fps, psnr_db=psnr, bitrate_mbps=bitrate, power_w=power)


def drive(controller: MamutController, frames: int, observation_factory=obs) -> None:
    """Feed `frames` frames of observations through the controller."""
    controller.decide(0)
    for frame in range(1, frames):
        decide_after(controller, frame, observation_factory())


class TestBasics:
    def test_default_construction(self):
        controller = MamutController()
        assert controller.name == "MAMUT"
        assert controller.dvfs_policy is DvfsPolicy.PER_CORE
        assert set(controller.agents) == {QP_AGENT, THREAD_AGENT, DVFS_AGENT}

    def test_first_decision_is_the_initial_configuration(self, mamut_controller):
        decision = mamut_controller.decide(0)
        assert decision.qp == mamut_controller.config.initial_qp
        assert decision.threads == mamut_controller.config.initial_threads
        assert decision.frequency_ghz == pytest.approx(
            mamut_controller.config.initial_frequency_ghz
        )

    def test_decisions_stay_inside_the_action_sets(self, mamut_controller):
        config = mamut_controller.config
        mamut_controller.decide(0)
        for frame in range(1, 200):
            decision = decide_after(mamut_controller, frame, obs(fps=20.0 + (frame % 20)))
            assert decision.qp in config.qp_actions
            assert decision.threads in config.thread_actions
            assert decision.frequency_ghz in config.dvfs_actions

    def test_schedule_with_unknown_agent_rejected(self):
        config = MamutConfig(schedule=AgentSchedule([AgentSlot("mystery", 6, 0)]))
        with pytest.raises(LearningError):
            MamutController(config)


class TestLearning:
    def test_agents_accumulate_knowledge(self, mamut_controller):
        drive(mamut_controller, 300)
        summary = mamut_controller.summary()
        assert all(entry["q_entries"] > 0 for entry in summary.values())
        assert all(entry["visited_states"] >= 1 for entry in summary.values())

    def test_dvfs_agent_learns_fastest(self, mamut_controller):
        """AGdvfs acts 4x more often than AGqp (Fig. 3), so it accumulates
        more updates over the same horizon."""
        drive(mamut_controller, 480)
        qp_updates = sum(
            mamut_controller.agents[QP_AGENT].action_count(a)
            for a in mamut_controller.agents[QP_AGENT].actions.indices()
        )
        dvfs_updates = sum(
            mamut_controller.agents[DVFS_AGENT].action_count(a)
            for a in mamut_controller.agents[DVFS_AGENT].actions.indices()
        )
        assert dvfs_updates > 2 * qp_updates

    def test_no_learning_without_observations(self, mamut_controller):
        for frame in range(50):
            mamut_controller.decide(frame)
        assert all(
            entry["q_entries"] == 0 for entry in mamut_controller.summary().values()
        )

    def test_reset_keeps_learned_knowledge(self, mamut_controller):
        drive(mamut_controller, 200)
        entries_before = {
            name: entry["q_entries"] for name, entry in mamut_controller.summary().items()
        }
        mamut_controller.reset()
        entries_after = {
            name: entry["q_entries"] for name, entry in mamut_controller.summary().items()
        }
        assert entries_after == entries_before

    def test_reset_clears_every_owed_update(self, mamut_controller):
        """Each agent's slot holds the update it is owed; a reset drops them
        all and keeps the actions the agents apply."""
        drive(mamut_controller, 200)
        agents = list(mamut_controller.agents.values())
        owed = [agent.pool.pending[agent.slot].tolist() for agent in agents]
        assert sum(pair != [-1, -1] for pair in owed) == 1  # the last actor's
        for agent in agents:
            agent.pool.pending[agent.slot] = 0, 0
        decision = mamut_controller.current_decision()
        mamut_controller.reset()
        assert [agent.pool.pending[agent.slot].tolist() for agent in agents] == [[-1, -1]] * 3
        assert mamut_controller.current_decision() == decision


class TestHistory:
    def test_history_disabled_by_default(self, mamut_controller):
        drive(mamut_controller, 100)
        assert mamut_controller.history == []

    def test_history_records_activations(self, hr_request):
        config = MamutConfig.for_request(hr_request, record_history=True)
        controller = MamutController(config)
        drive(controller, 100)
        assert len(controller.history) > 10
        first = controller.history[0]
        assert first.agent in (QP_AGENT, THREAD_AGENT, DVFS_AGENT)
        assert first.action_value in controller.agents[first.agent].actions
        # The very first activation has no previous pending update to reward.
        assert first.reward is None
        assert any(entry.reward is not None for entry in controller.history[1:])

    def test_history_frames_match_schedule(self, hr_request):
        config = MamutConfig.for_request(hr_request, record_history=True)
        controller = MamutController(config)
        drive(controller, 120)
        for entry in controller.history:
            assert controller.schedule.agent_at(entry.frame_index) == entry.agent


class TestAdaptation:
    def test_constraint_violations_discourage_the_responsible_actions(self, hr_request):
        """When the bitrate constantly violates the bandwidth constraint, the
        QP agent's Q-values for low QP values should end up below those of
        high QP values (low QP = high bitrate)."""
        config = MamutConfig.for_request(hr_request, seed=1)
        controller = MamutController(config)

        def observation_for(decision_qp: int) -> Observation:
            bitrate = 12.0 if decision_qp <= 29 else 3.0
            return Observation(fps=26.0, psnr_db=37.0, bitrate_mbps=bitrate, power_w=80.0)

        controller.decide(0)
        for frame in range(1, 2000):
            decision = controller.current_decision()
            decide_after(controller, frame, observation_for(decision.qp))

        qp_agent = controller.agents[QP_AGENT]
        visited = qp_agent.known_states()
        assert visited, "the QP agent should have visited at least one state"
        low_qp_index = qp_agent.actions.index_of(22)
        high_qp_index = qp_agent.actions.index_of(37)
        pool, slot = qp_agent.pool, qp_agent.slot
        low = max(pool.q_values(slot, s)[low_qp_index] for s in visited)
        high = max(pool.q_values(slot, s)[high_qp_index] for s in visited)
        assert high > low


class TestObservationWindow:
    """The controller's window: filled per frame, consumed per activation."""

    def controller(self):
        return MamutController(MamutConfig(seed=0))

    def observation(self, fps=30.0):
        return Observation(fps=fps, psnr_db=40.0, bitrate_mbps=2.0, power_w=100.0)

    @staticmethod
    def sums(controller):
        window = controller.window
        return (
            window.fps,
            window.psnr_db,
            window.bitrate_mbps,
            window.power_w,
            window.count,
        )

    def test_decide_accumulates_and_activation_clears(self):
        controller = self.controller()
        controller.decide(0)
        assert self.sums(controller) == (0.0, 0.0, 0.0, 0.0, 0)
        # Frame 1 is a threads activation under the paper's schedule: the
        # single buffered observation is consumed.
        decide_after(controller, 1, self.observation(fps=20.0))
        assert self.sums(controller) == (0.0, 0.0, 0.0, 0.0, 0)
        # NULL slots accumulate.
        decide_after(controller, 3, self.observation(fps=10.0))
        decide_after(controller, 4, self.observation(fps=14.0))
        assert self.sums(controller) == (24.0, 80.0, 4.0, 200.0, 2)
        # A new video empties the window.
        controller.reset()
        assert self.sums(controller) == (0.0, 0.0, 0.0, 0.0, 0)

    def test_external_activation_matches_decide(self):
        """apply_external_activation with precomputed inputs == _activate."""
        internal = self.controller()
        external = self.controller()
        trace = [self.observation(fps=10.0 + i) for i in range(8)]

        internal.decide(0)
        external.decide(0)
        for frame in range(1, 8):
            observation = trace[frame - 1]
            decide_after(internal, frame, observation)

            external.window.add(
                observation.fps,
                observation.psnr_db,
                observation.bitrate_mbps,
                observation.power_w,
            )
            agent_name = external.schedule.agent_at(frame)
            if agent_name is not None and external.window.count:
                averaged = external.window.average()
                space = external.state_space
                state = space.state_index(space.discretize(averaged))
                reward = external.reward_function.total(averaged)
                external.apply_external_activation(agent_name, frame, state, reward)
                assert external.window.count == 0

        assert self.sums(internal) == self.sums(external)
        assert internal.current_decision() == external.current_decision()
        assert snapshot_controller(internal) == snapshot_controller(external)
