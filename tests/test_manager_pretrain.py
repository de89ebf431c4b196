"""Unit tests for repro.manager.pretrain."""

from __future__ import annotations

import pytest

from repro.core.config import MamutConfig
from repro.core.mamut import MamutController
from repro.core.persistence import restore_agents, snapshot_controller
from repro.errors import LearningError
from repro.manager import pretrain
from repro.manager.pretrain import pretrain_mamut, pretrained_mamut_factory
from repro.manager.runner import ExperimentRunner
from repro.manager.scenario import scenario_one
from repro.video.sequence import ResolutionClass


class TestPretrain:
    def test_pretraining_produces_knowledge_for_all_agents(self):
        snapshot = pretrain_mamut(ResolutionClass.HR, frames=300, seed=0)
        assert set(snapshot["agents"]) == {"qp", "threads", "dvfs"}
        assert all(agent["q_values"] for agent in snapshot["agents"].values())

    def test_pretrained_factory_seeds_new_controllers(self, hr_request):
        snapshot = pretrain_mamut(ResolutionClass.HR, frames=300, seed=0)
        factory = pretrained_mamut_factory({ResolutionClass.HR: snapshot})
        controller = factory(hr_request, seed=5)
        assert all(
            entry["q_entries"] > 0 for entry in controller.summary().values()
        )

    def test_factory_without_knowledge_for_a_class_starts_cold(self, lr_request):
        snapshot = pretrain_mamut(ResolutionClass.HR, frames=300, seed=0)
        factory = pretrained_mamut_factory({ResolutionClass.HR: snapshot})
        controller = factory(lr_request, seed=5)
        assert all(
            entry["q_entries"] == 0 for entry in controller.summary().values()
        )

    def test_factory_parses_each_snapshot_once(self, monkeypatch, hr_request, lr_request):
        knowledge = {
            resolution: pretrain_mamut(resolution, frames=300, seed=0)
            for resolution in (ResolutionClass.HR, ResolutionClass.LR)
        }
        parsed = []

        def counted(agents, snapshot):
            parsed.append(snapshot)
            restore_agents(agents, snapshot)

        monkeypatch.setattr(pretrain, "restore_agents", counted)
        factory = pretrained_mamut_factory(knowledge)
        requests = [hr_request, lr_request, hr_request, hr_request, lr_request]
        controllers = [factory(request, seed) for seed, request in enumerate(requests)]
        assert parsed == [knowledge[ResolutionClass.HR], knowledge[ResolutionClass.LR]]
        # Each equals a controller restored from the snapshot on its own.
        for seed, (request, controller) in enumerate(zip(requests, controllers)):
            expected = MamutController(MamutConfig.for_request(request, seed=seed))
            restore_agents(expected.agents, knowledge[request.resolution_class])
            assert snapshot_controller(controller) == snapshot_controller(expected)

    def test_controllers_of_one_class_share_config_parts(self, hr_request, lr_request):
        snapshot = pretrain_mamut(ResolutionClass.HR, frames=300, seed=0)
        factory = pretrained_mamut_factory({ResolutionClass.HR: snapshot})
        first, second = factory(hr_request, 1), factory(hr_request, 2)
        assert first.state_space is second.state_space
        assert first.config.reward is second.config.reward
        assert (first.config.seed, second.config.seed) == (1, 2)
        assert factory(lr_request, 3).state_space is not first.state_space

    def test_knowledge_that_does_not_fit_raises(self, lr_request):
        snapshot = pretrain_mamut(ResolutionClass.HR, frames=300, seed=0)
        factory = pretrained_mamut_factory({ResolutionClass.LR: snapshot})
        for seed in range(2):
            with pytest.raises(LearningError):
                factory(lr_request, seed)

    def test_pretrained_controller_beats_cold_start_on_short_runs(self):
        """With only a short measured window, a pre-trained MAMUT should not
        be worse than a cold-started one on the same workload."""
        snapshot = pretrain_mamut(ResolutionClass.HR, frames=1200, seed=0)
        specs = scenario_one(1, 0, num_frames=120, seed=1)
        runner = ExperimentRunner(seed=1)

        from repro.manager.factories import mamut_factory

        cold = runner.run("cold", mamut_factory(), specs)
        warm = runner.run(
            "warm", pretrained_mamut_factory({ResolutionClass.HR: snapshot}), specs
        )
        assert warm.qos_violation_pct <= cold.qos_violation_pct + 10.0
