"""Unit tests for the baseline controllers (heuristic, mono-agent, static)."""

from __future__ import annotations

import pytest

from engine_fixtures import decide_after
from repro.baselines.heuristic import HeuristicConfig, HeuristicController
from repro.baselines.monoagent import MonoAgentConfig, MonoAgentController
from repro.baselines.static import StaticController
from repro.core.observation import Observation
from repro.errors import ConfigurationError
from repro.platform.dvfs import DvfsPolicy


def obs(fps=25.0, psnr=36.0, bitrate=4.0, power=80.0) -> Observation:
    return Observation(fps=fps, psnr_db=psnr, bitrate_mbps=bitrate, power_w=power)


class TestStaticController:
    def test_constant_decision(self):
        controller = StaticController(qp=32, threads=6, frequency_ghz=2.9)
        first = controller.decide(0)
        later = decide_after(controller, 100, obs(fps=5.0))
        assert first == later
        assert first.qp == 32 and first.threads == 6

    def test_default_policy_is_chip_wide(self):
        assert StaticController(32, 4, 3.2).dvfs_policy is DvfsPolicy.CHIP_WIDE

    def test_name(self):
        assert StaticController(32, 4, 3.2).name == "Static"


class TestHeuristicController:
    def drive(self, controller, observation, periods=1):
        """Apply `observation` for `periods` adjustment periods."""
        decision = controller.decide(0)
        frame = 1
        for _ in range(periods * controller.config.period):
            decision = decide_after(controller, frame, observation)
            frame += 1
        return decision

    def test_threads_increase_when_fps_is_low(self):
        controller = HeuristicController(HeuristicConfig(initial_threads=4))
        before = controller.decide(0).threads
        after = self.drive(controller, obs(fps=15.0, power=60.0), periods=1)
        assert after.threads == before + 1

    def test_threads_decrease_when_fps_is_comfortably_high(self):
        controller = HeuristicController(HeuristicConfig(initial_threads=6, fps_slack=1.0))
        after = self.drive(controller, obs(fps=40.0, power=60.0), periods=2)
        assert after.threads < 6

    def test_failed_increase_is_rolled_back(self):
        """Adding a thread that does not improve FPS is undone (saturation)."""
        controller = HeuristicController(HeuristicConfig(initial_threads=6))
        decision = self.drive(controller, obs(fps=15.0, power=60.0), periods=1)
        assert decision.threads == 7
        # FPS did not improve after the increase: the next adjustments roll it
        # back and hold off further increases for a while.
        decision = self.drive(controller, obs(fps=15.0, power=60.0), periods=2)
        assert decision.threads <= 7

    def test_qp_rises_on_bandwidth_violation(self):
        controller = HeuristicController(HeuristicConfig(initial_qp=27))
        decision = self.drive(controller, obs(bitrate=9.0), periods=2)
        assert decision.qp > 27

    def test_qp_drops_when_quality_is_low_and_bandwidth_allows(self):
        controller = HeuristicController(HeuristicConfig(initial_qp=37))
        decision = self.drive(controller, obs(psnr=31.0, bitrate=1.0), periods=2)
        assert decision.qp < 37

    def test_frequency_drops_when_power_cap_hit(self):
        controller = HeuristicController(HeuristicConfig(power_cap_w=100.0))
        decision = self.drive(controller, obs(power=105.0), periods=2)
        assert decision.frequency_ghz < 3.2

    def test_frequency_recovers_when_power_is_low(self):
        controller = HeuristicController(HeuristicConfig(power_cap_w=100.0))
        self.drive(controller, obs(power=105.0), periods=2)
        decision = self.drive(controller, obs(power=60.0), periods=3)
        assert decision.frequency_ghz == pytest.approx(3.2)

    def test_threads_never_exceed_max(self):
        controller = HeuristicController(HeuristicConfig(max_threads=5, initial_threads=5))
        decision = self.drive(controller, obs(fps=10.0), periods=10)
        assert decision.threads <= 5

    def test_chip_wide_policy(self):
        assert HeuristicController().dvfs_policy is DvfsPolicy.CHIP_WIDE

    def test_for_request_uses_resolution_limits(self, hr_request, lr_request):
        assert HeuristicConfig.for_request(hr_request).max_threads == 12
        assert HeuristicConfig.for_request(lr_request).max_threads == 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HeuristicConfig(period=0)
        with pytest.raises(ConfigurationError):
            HeuristicConfig(max_threads=0)
        with pytest.raises(ConfigurationError):
            HeuristicConfig(fps_target=0.0)

    def test_reset_keeps_operating_point(self):
        controller = HeuristicController(HeuristicConfig(initial_threads=4))
        self.drive(controller, obs(fps=15.0), periods=2)
        threads_before = decide_after(controller, 12, obs(fps=15.0)).threads
        controller.reset()
        assert controller.decide(13).threads == threads_before


class TestMonoAgentController:
    def test_joint_action_space_is_the_cartesian_product(self):
        config = MonoAgentConfig()
        actions = config.joint_actions()
        assert len(actions) == len(config.qp_values) * len(config.thread_values) * len(
            config.frequency_values
        )

    def test_for_request_limits_threads(self, hr_request, lr_request):
        assert max(MonoAgentConfig.for_request(hr_request).thread_values) == 12
        assert max(MonoAgentConfig.for_request(lr_request).thread_values) == 5

    def test_initial_decision_prefers_capacity(self):
        controller = MonoAgentController()
        decision = controller.decide(0)
        assert decision.threads == max(controller.config.thread_values)
        assert decision.frequency_ghz == pytest.approx(max(controller.config.frequency_values))

    def test_decisions_come_from_the_joint_grid(self):
        controller = MonoAgentController(MonoAgentConfig(seed=3))
        valid = set(controller.agent.actions.values)
        controller.decide(0)
        for frame in range(1, 200):
            decision = decide_after(controller, frame, obs(fps=20.0 + frame % 15))
            assert (decision.qp, decision.threads, decision.frequency_ghz) in valid

    def test_learning_accumulates(self):
        controller = MonoAgentController()
        controller.decide(0)
        for frame in range(1, 300):
            decide_after(controller, frame, obs())
        agent = controller.agent
        assert len(agent.pool.stored_q(agent.slot)) > 0

    def test_reset_keeps_q_table(self):
        controller = MonoAgentController()
        controller.decide(0)
        for frame in range(1, 120):
            decide_after(controller, frame, obs())
        agent = controller.agent
        decision = controller.decide(120)
        entries = agent.pool.stored_q(agent.slot)
        assert agent.pool.pending[agent.slot].tolist() != [-1, -1]
        controller.reset()
        assert agent.pool.stored_q(agent.slot) == entries
        # The owed update is dropped; the applied action is kept.
        assert agent.pool.pending[agent.slot].tolist() == [-1, -1]
        assert controller.decide(121) == decision

    def test_acts_only_every_period(self):
        controller = MonoAgentController(MonoAgentConfig(period=6))
        controller.decide(0)
        decisions = set()
        for frame in range(1, 6):
            decisions.add(decide_after(controller, frame, obs(fps=10.0)))
        # Within one period the decision cannot change.
        assert len(decisions) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MonoAgentConfig(period=0)
        with pytest.raises(ConfigurationError):
            MonoAgentConfig(qp_values=())
