"""Unit tests for repro.manager.orchestrator."""

from __future__ import annotations

import zlib

import pytest

from repro.baselines.heuristic import HeuristicController
from repro.baselines.static import StaticController
from repro.errors import ScenarioError
from repro.manager.orchestrator import Orchestrator
from repro.manager.session import TranscodingSession
from repro.platform.dvfs import DvfsPolicy
from repro.platform.server import MulticoreServer
from repro.core.mamut import MamutController
from repro.video.catalog import make_sequence
from repro.video.request import TranscodingRequest


def session(user_id="u0", name="Kimono", num_frames=10, controller=None, threads=4):
    # crc32, not hash(): str hashes are salted per process, so the seed would
    # change from run to run and a failure could not be replayed.
    video = make_sequence(name, num_frames=num_frames, seed=zlib.crc32(user_id.encode()) % 1000)
    request = TranscodingRequest(user_id=user_id, sequence=video)
    return TranscodingSession(
        request=request,
        controller=controller if controller is not None else StaticController(32, threads, 3.2),
    )


class TestOrchestrator:
    def test_single_session_run(self):
        result = Orchestrator([session(num_frames=12)]).run()
        assert result.steps == 12
        assert len(result.records_by_session["u0"]) == 12
        assert len(result.power_samples) == 12
        assert all(sample.active_sessions == 1 for sample in result.power_samples)

    def test_multi_session_run_until_all_finish(self):
        sessions = [
            session("a", "Kimono", num_frames=6),
            session("b", "BQMall", num_frames=10),
        ]
        result = Orchestrator(sessions).run()
        assert result.steps == 10
        assert len(result.records_by_session["a"]) == 6
        assert len(result.records_by_session["b"]) == 10
        # After session `a` finishes, only one session remains active.
        assert result.power_samples[-1].active_sessions == 1

    def test_max_steps_truncates_the_run(self):
        result = Orchestrator([session(num_frames=50)]).run(max_steps=5)
        assert result.steps == 5
        assert len(result.records_by_session["u0"]) == 5

    def test_duplicate_session_ids_rejected(self):
        with pytest.raises(ScenarioError):
            Orchestrator([session("x"), session("x")])

    def test_empty_orchestrator_idles(self):
        # A session-less orchestrator is valid (the cluster layer attaches
        # sessions later); run() terminates immediately with no records.
        orchestrator = Orchestrator()
        result = orchestrator.run()
        assert result.steps == 0
        assert result.records_by_session == {}
        assert result.power_samples == []
        # An empty run summarises to zeros instead of raising.
        summary = result.summary()
        assert summary.sessions == {}
        assert summary.mean_power_w == 0.0
        assert summary.qos_violation_pct == 0.0

    def test_idle_step_samples_idle_power(self):
        orchestrator = Orchestrator()
        sample = orchestrator.idle_step(step=3)
        assert sample.step == 3
        assert sample.active_sessions == 0
        assert sample.power_w > 0  # base + idle-core power
        assert sample.power_w == orchestrator.server.allocate([]).total_power_w

    def test_summary_has_all_sessions(self):
        sessions = [session("a", num_frames=8), session("b", "BQMall", num_frames=8)]
        summary = Orchestrator(sessions).run().summary()
        assert set(summary.sessions) == {"a", "b"}
        assert summary.mean_power_w > 0
        assert summary.duration_s > 0

    def test_power_recorded_in_samples(self):
        result = Orchestrator([session(num_frames=10)]).run()
        assert len(result.power_samples) == result.steps == 10
        assert all(s.power_w > 0 and s.duration_s > 0 for s in result.power_samples)
        assert result.summary().energy_j > 0

    def test_chip_wide_controller_switches_server_policy(self):
        server = MulticoreServer()
        assert server.dvfs_policy is DvfsPolicy.PER_CORE
        Orchestrator([session(controller=HeuristicController())], server=server)
        assert server.dvfs_policy is DvfsPolicy.CHIP_WIDE

    def test_per_core_controllers_keep_server_policy(self):
        server = MulticoreServer()
        Orchestrator([session(controller=MamutController())], server=server)
        assert server.dvfs_policy is DvfsPolicy.PER_CORE

    def test_contention_reduces_throughput(self):
        """Running many heavy sessions must reduce per-session FPS compared to
        running one session alone at the same configuration."""
        alone = Orchestrator([session("solo", "Cactus", 10, threads=12)]).run()
        crowd = Orchestrator(
            [session(f"s{i}", "Cactus", 10, threads=12) for i in range(4)]
        ).run()
        fps_alone = alone.summary().sessions["solo"].mean_fps
        fps_crowded = crowd.summary().sessions["s0"].mean_fps
        assert fps_crowded < fps_alone


class TestDynamicSessions:
    def test_add_session_before_run(self):
        orchestrator = Orchestrator()
        orchestrator.add_session(session("a", num_frames=4))
        result = orchestrator.run()
        assert result.steps == 4
        assert len(result.records_by_session["a"]) == 4

    def test_add_session_duplicate_id_rejected(self):
        orchestrator = Orchestrator([session("a")])
        with pytest.raises(ScenarioError):
            orchestrator.add_session(session("a"))

    def test_add_session_chip_wide_switches_policy(self):
        server = MulticoreServer()
        orchestrator = Orchestrator(server=server)
        assert server.dvfs_policy is DvfsPolicy.PER_CORE
        orchestrator.add_session(session(controller=HeuristicController()))
        assert server.dvfs_policy is DvfsPolicy.CHIP_WIDE

    def test_mid_run_join_extends_the_run(self):
        """A session joining mid-run is served from the next step on, and
        the run continues until the late joiner's playlist drains."""
        orchestrator = Orchestrator([session("early", num_frames=4)])
        samples = []
        for step in range(3):
            samples.append(orchestrator.run_step(step))
        orchestrator.add_session(session("late", "BQMall", num_frames=6))
        step = 3
        while True:
            sample = orchestrator.run_step(step)
            if sample is None:
                break
            samples.append(sample)
            step += 1

        records_early = [r for r in orchestrator.sessions[0].records]
        records_late = [r for r in orchestrator.sessions[1].records]
        assert len(records_early) == 4
        assert len(records_late) == 6
        # early runs alone for steps 0-2, both overlap at step 3, late runs
        # alone for steps 4-8.
        assert [s.active_sessions for s in samples] == [1, 1, 1, 2, 1, 1, 1, 1, 1]

    def test_staggered_lifetimes_keep_metrics_consistent(self):
        """Sessions finishing at different steps and joining mid-run must
        leave power samples and per-session records mutually consistent."""
        orchestrator = Orchestrator(
            [session("s0", "Kimono", num_frames=5), session("s1", "BQMall", num_frames=9)]
        )
        samples = []
        joined = False
        step = 0
        while True:
            if step == 6 and not joined:
                orchestrator.add_session(session("s2", "RaceHorses", num_frames=5))
                joined = True
            sample = orchestrator.run_step(step)
            if sample is None:
                break
            samples.append(sample)
            step += 1

        records = {s.session_id: list(s.records) for s in orchestrator.sessions}
        assert {k: len(v) for k, v in records.items()} == {"s0": 5, "s1": 9, "s2": 5}
        # Every step's active_sessions equals the number of sessions that
        # produced a frame record in that step, and total frames match.
        frames_per_step: dict[int, int] = {}
        for i, sample in enumerate(samples):
            frames_per_step[i] = sample.active_sessions
        assert sum(frames_per_step.values()) == sum(len(v) for v in records.values())
        # Per-session steps are contiguous (0..n-1 internally) and each
        # session's record count never exceeds the number of steps it saw.
        for session_id, recs in records.items():
            assert [r.step for r in recs] == list(range(len(recs)))
        # The power trace is strictly positive throughout.
        assert all(sample.power_w > 0 for sample in samples)
