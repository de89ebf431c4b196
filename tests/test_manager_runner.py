"""Unit tests for repro.manager.runner and repro.manager.factories."""

from __future__ import annotations

import pytest

from repro.core.config import MamutConfig
from repro.errors import ScenarioError
from repro.manager.factories import (
    heuristic_factory,
    mamut_factory,
    monoagent_factory,
    static_factory,
)
from repro.manager.runner import ExperimentRunner
from repro.manager.scenario import scenario_one, scenario_two


@pytest.fixture
def runner() -> ExperimentRunner:
    return ExperimentRunner(power_cap_w=120.0, seed=0)


@pytest.fixture
def small_specs():
    return scenario_one(num_hr=1, num_lr=1, num_frames=48, seed=0)


class TestFactories:
    def test_each_factory_builds_a_controller(self, small_specs):
        request = small_specs[0].request
        assert mamut_factory()(request, 0).name == "MAMUT"
        assert monoagent_factory()(request, 0).name == "MonoAgent"
        assert heuristic_factory()(request, 0).name == "Heuristic"
        assert static_factory(32, 4, 3.2)(request, 0).name == "Static"

    def test_factories_honour_the_power_cap(self, small_specs):
        request = small_specs[0].request
        controller = mamut_factory(power_cap_w=90.0)(request, 0)
        assert controller.config.reward.power_cap_w == pytest.approx(90.0)

    def test_factories_thread_limits_depend_on_resolution(self, small_specs):
        hr_request = small_specs[0].request
        lr_request = small_specs[1].request
        assert len(mamut_factory()(hr_request, 0).config.thread_actions) == 12
        assert len(mamut_factory()(lr_request, 0).config.thread_actions) == 5

    def test_mamut_controllers_of_one_class_share_config_parts(self, small_specs):
        hr_request = small_specs[0].request
        lr_request = small_specs[1].request
        factory = mamut_factory(power_cap_w=90.0)
        first, second, other = (
            factory(hr_request, 1),
            factory(hr_request, 2),
            factory(lr_request, 3),
        )
        assert first.state_space is second.state_space
        assert first.config.reward is second.config.reward
        assert first.config.thread_actions is second.config.thread_actions
        assert other.state_space is not first.state_space
        # Each is the configuration MamutConfig.for_request builds for it.
        for controller, request, seed in (
            (first, hr_request, 1),
            (second, hr_request, 2),
            (other, lr_request, 3),
        ):
            expected = MamutConfig.for_request(request, power_cap_w=90.0, seed=seed)
            assert controller.config.seed == seed
            assert controller.config.reward == expected.reward
            assert controller.state_space.key == expected.state_space.key
            assert list(controller.config.thread_actions) == list(expected.thread_actions)
        # Another factory builds its own.
        assert mamut_factory(power_cap_w=90.0)(hr_request, 1).state_space is not first.state_space


class TestRunner:
    def test_run_once_produces_all_sessions(self, runner, small_specs):
        result = runner.run_once(static_factory(32, 6, 3.2), small_specs)
        assert set(result.records_by_session) == {"hr-0", "lr-0"}
        assert result.steps == 48

    def test_run_averages_repetitions(self, runner, small_specs):
        averaged = runner.run("Static", static_factory(32, 6, 3.2), small_specs, repetitions=2)
        assert averaged.repetitions == 2
        assert len(averaged.runs) == 2
        assert averaged.mean_power_w > 0
        assert 0.0 <= averaged.qos_violation_pct <= 100.0

    def test_per_class_breakdown_present(self, runner, small_specs):
        averaged = runner.run("Static", static_factory(32, 6, 3.2), small_specs)
        assert set(averaged.per_class_threads) == {"HR", "LR"}
        assert set(averaged.per_class_qos_pct) == {"HR", "LR"}

    def test_compare_runs_every_factory(self, runner, small_specs):
        results = runner.compare(
            {"Static": static_factory(32, 6, 3.2), "Heuristic": heuristic_factory()},
            small_specs,
        )
        assert set(results) == {"Static", "Heuristic"}

    def test_warmup_discards_the_first_video(self, runner):
        specs = scenario_two(1, 0, followers=0, frames_per_video=24, seed=0)
        plain = runner.run_once(static_factory(32, 6, 3.2), specs, warmup_videos=0)
        warmed = runner.run_once(static_factory(32, 6, 3.2), specs, warmup_videos=1)
        assert len(plain.records_by_session["hr-0"]) == 24
        assert len(warmed.records_by_session["hr-0"]) == 24
        # The measured records of the warmed run start after the warm-up video.
        assert warmed.records_by_session["hr-0"][0].step == 24
        assert all(s.step >= 24 for s in warmed.power_samples)

    def test_same_seed_reproducible(self, small_specs):
        a = ExperimentRunner(seed=3).run("MAMUT", mamut_factory(), small_specs)
        b = ExperimentRunner(seed=3).run("MAMUT", mamut_factory(), small_specs)
        assert a.mean_power_w == pytest.approx(b.mean_power_w)
        assert a.qos_violation_pct == pytest.approx(b.qos_violation_pct)

    def test_validation(self, runner, small_specs):
        with pytest.raises(ScenarioError):
            runner.run("x", static_factory(32, 4, 3.2), small_specs, repetitions=0)
        with pytest.raises(ScenarioError):
            runner.run_once(static_factory(32, 4, 3.2), [])
        with pytest.raises(ScenarioError):
            runner.run_once(static_factory(32, 4, 3.2), small_specs, warmup_videos=-1)
        with pytest.raises(ScenarioError):
            ExperimentRunner(power_cap_w=0.0)
