"""Scalar/batch engine equivalence for the cluster stepping hot path.

The batch engine's contract is *bitwise* seed-for-seed equivalence: the same
``(workload seed, policies, cluster seed)`` must produce identical frame
records, power traces, admission ledgers and summaries on both engines.
These tests compare complete :class:`~repro.cluster.cluster.ClusterResult`
objects with plain ``==`` (dataclass equality → exact float equality).
"""

from __future__ import annotations

import builtins
import collections
import dataclasses
import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_cluster_golden as cluster_golden
from engine_fixtures import compensated_sum, run_batch
from repro.cluster import (
    AlwaysAdmit,
    BatchStepper,
    CapacityThreshold,
    ClusterOrchestrator,
    FailureTopology,
    FaultConfig,
    FlashCrowdTraffic,
    KillEntry,
    KillSchedule,
    PoissonTraffic,
    PowerHeadroom,
    ReactiveThreshold,
    RoundRobin,
    WorkloadGenerator,
)
from repro.cluster import batch as batch_module
from repro.cluster.brownout import BrownoutController
from repro.cluster.dispatch import PowerAware
from repro.core.config import MamutConfig
from repro.core.mamut import MamutBatch, MamutController
from repro.core.persistence import snapshot_controller
from repro.core.schedule import AgentSchedule, AgentSlot
from repro.core.states import SystemState
from repro.core.store import LearningStore
from repro.errors import ClusterError, ScenarioError
from repro.hevc.complexity import ComplexityModel, ComplexityModelParameters
from repro.hevc.decoder import HevcDecoder
from repro.hevc.encoder import HevcEncoder
from repro.hevc.rd_model import RateDistortionModel, RdModelParameters
from repro.hevc.transcoder import Transcoder
from repro.hevc.wpp import WppModel, WppModelParameters
from repro.manager.factories import (
    heuristic_factory,
    mamut_factory,
    monoagent_factory,
    static_factory,
)
from repro.manager.orchestrator import Orchestrator
from repro.manager.session import TranscodingSession
from repro.metrics.records import FrameRecord
from repro.platform.dvfs import DvfsDriver
from repro.platform.power import PowerModel, PowerModelParameters, VoltageTable
from repro.platform.server import FleetAllocator, MulticoreServer
from repro.platform.topology import CpuTopology
from repro.telemetry import analyze_trace
from repro.video.catalog import random_sequence
from repro.video.content import ContentModel
from repro.video.request import TranscodingRequest
from repro.video.sequence import ResolutionClass


def run_cluster(engine, *, seed=3, servers=3, rate=1.0, duration=30,
                admission=None, dispatcher=None, controller_factory=None,
                server_factory=MulticoreServer, drain=True,
                max_drain_steps=None, **workload_kwargs):
    workload = WorkloadGenerator(
        PoissonTraffic(rate), seed=seed, frames_per_video=10, **workload_kwargs
    )
    cluster = ClusterOrchestrator(
        servers,
        workload,
        admission=admission,
        dispatcher=dispatcher,
        controller_factory=controller_factory,
        server_factory=server_factory,
        seed=seed,
        engine=engine,
    )
    return cluster.run(duration, drain=drain, max_drain_steps=max_drain_steps)


def assert_identical(a, b):
    assert a.records_by_server == b.records_by_server
    assert a.samples_by_server == b.samples_by_server
    assert (a.arrivals, a.admitted, a.rejected, a.abandoned) == (
        b.arrivals,
        b.admitted,
        b.rejected,
        b.abandoned,
    )
    assert a.queue_waits == b.queue_waits
    assert a.steps == b.steps
    assert a.summary() == b.summary()


class TestEngineEquivalence:
    # Policies are stateful (e.g. RoundRobin's cursor), so every comparison
    # builds fresh keyword arguments per run.

    def test_static_controllers_default_policies(self):
        kwargs = lambda: dict(
            controller_factory=static_factory(qp=32, threads=4, frequency_ghz=3.2)
        )
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_mamut_controllers_default_policies(self):
        assert_identical(run_cluster("scalar"), run_cluster("batch"))

    def test_mamut_power_headroom_power_aware(self):
        kwargs = lambda: dict(
            admission=PowerHeadroom(), dispatcher=PowerAware(), rate=1.5
        )
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_chip_wide_heuristic_controllers(self):
        kwargs = lambda: dict(
            controller_factory=heuristic_factory(),
            admission=AlwaysAdmit(),
            dispatcher=RoundRobin(),
            rate=0.8,
        )
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_monoagent_controllers(self):
        kwargs = lambda: dict(controller_factory=monoagent_factory(), rate=0.7)
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_multi_video_playlists(self):
        kwargs = lambda: dict(playlist_videos=3, duration=40)
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_heterogeneous_topologies(self):
        def small_server():
            return MulticoreServer(
                topology=CpuTopology(sockets=1, cores_per_socket=4)
            )

        kwargs = lambda: dict(
            server_factory=small_server,
            controller_factory=static_factory(qp=32, threads=6, frequency_ghz=2.9),
            rate=1.5,
        )
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_bounded_drain_overload(self):
        kwargs = lambda: dict(
            admission=AlwaysAdmit(),
            dispatcher=RoundRobin(),
            rate=2.0,
            drain=True,
            max_drain_steps=5,
        )
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_batch_engine_is_deterministic(self):
        assert_identical(run_cluster("batch", seed=11), run_cluster("batch", seed=11))

    def test_unknown_engine_rejected(self):
        workload = WorkloadGenerator(PoissonTraffic(0.5), seed=0)
        with pytest.raises(ClusterError):
            ClusterOrchestrator(1, workload, engine="turbo")


class TestMamutFleetEquivalence:
    """ISSUE 5: MAMUT fleets ride the vectorized activation path.

    The driver keeps observation windows in fleet arrays and closes Q
    updates from batched averaging/discretisation/rewards, so these tests
    pin bitwise equivalence on exactly the configurations that stress its
    bookkeeping: mid-run autoscale resizes (the stepper — and with it the
    driver — is torn down and rebuilt while windows are mid-flight) and
    brownout-degraded controller factories (mixed fleets where only some
    lanes are driver-managed, or driven lanes disagree on reward/state
    parameters).
    """

    def run_autoscaled(self, engine):
        workload = WorkloadGenerator(
            FlashCrowdTraffic(0.25, peak_multiplier=5.0, start=10, duration=12),
            seed=5,
            frames_per_video=16,
        )
        cluster = ClusterOrchestrator(
            2,
            workload,
            admission=AlwaysAdmit(),
            controller_factory=mamut_factory(),
            seed=5,
            engine=engine,
            autoscaler=ReactiveThreshold(sessions_per_server=2),
            min_servers=1,
            max_servers=6,
            provision_warmup_steps=2,
        )
        return cluster.run(50)

    def test_autoscale_resizes_equivalent(self):
        scalar = self.run_autoscaled("scalar")
        batch = self.run_autoscaled("batch")
        # The scenario must actually resize mid-run (both directions), or it
        # would not exercise the stepper teardown/window-flush path.
        directions = {event.direction for event in batch.scaling_events}
        assert directions == {"up", "down"}
        assert_identical(scalar, batch)
        assert scalar.scaling_events == batch.scaling_events
        assert scalar.fleet_trace == batch.fleet_trace

    def run_brownout(self, engine, degraded_factory):
        workload = WorkloadGenerator(
            FlashCrowdTraffic(0.3, peak_multiplier=6.0, start=5, duration=10),
            seed=7,
            frames_per_video=14,
            patience_steps=4,
        )
        cluster = ClusterOrchestrator(
            2,
            workload,
            admission=CapacityThreshold(
                max_sessions_per_server=2, max_queue=12, brownout_extra_sessions=6
            ),
            controller_factory=mamut_factory(),
            seed=7,
            engine=engine,
            brownout=BrownoutController(
                sessions_per_server=2,
                enter_steps=2,
                exit_steps=4,
                fps_relax=0.6,
                degraded_factory=degraded_factory,
            ),
        )
        return cluster.run(30)

    def test_brownout_mixed_static_degraded_fleet_equivalent(self):
        # Static degraded sessions share servers with learning sessions:
        # only part of the fleet is driver-managed.
        factory = lambda: static_factory(qp=40, threads=2, frequency_ghz=3.2)
        scalar = self.run_brownout("scalar", factory())
        batch = self.run_brownout("batch", factory())
        assert batch.summary().brownout_steps > 0
        assert batch.summary().degraded_sessions > 0
        assert_identical(scalar, batch)

    def test_brownout_degraded_mamut_fleet_equivalent(self):
        # Degraded MAMUT controllers carry a different power cap, so driven
        # lanes split across vector groups (distinct state space + reward
        # parameters) within one batched activation step.
        factory = lambda: mamut_factory(power_cap_w=80.0)
        scalar = self.run_brownout("scalar", factory())
        batch = self.run_brownout("batch", factory())
        assert batch.summary().degraded_sessions > 0
        assert_identical(scalar, batch)

    def test_q_tables_identical_after_run(self):
        def collect(engine):
            workload = WorkloadGenerator(
                PoissonTraffic(1.0), seed=3, frames_per_video=12
            )
            cluster = ClusterOrchestrator(
                2,
                workload,
                controller_factory=mamut_factory(),
                seed=3,
                engine=engine,
            )
            cluster.run(30, drain=True)
            # Full learned state: Q-values, Num(s, a), Num(a), transitions.
            return {
                session.session_id: snapshot_controller(session.controller)
                for orch in cluster.orchestrators
                for session in orch.sessions
            }

        assert collect("scalar") == collect("batch")

    def test_batch_activations_build_no_system_state(self, monkeypatch):
        # The batch engine hands agents dense state indices; SystemState belongs
        # to the API edges (discretize, history, persistence) only.
        def run():
            summary = run_cluster(
                "batch", servers=2, duration=30, controller_factory=mamut_factory()
            ).summary()
            assert summary.frames > 0
            return summary

        expected = run()

        def forbidden(*args, **kwargs):
            raise AssertionError("SystemState used on the batch activation path")

        monkeypatch.setattr(SystemState, "__init__", forbidden)
        monkeypatch.setattr(SystemState, "__hash__", forbidden)
        assert run() == expected


class TestOrchestratorBatchRun:
    def make_sessions(self, count=4, frames=12):
        sessions = []
        for i in range(count):
            resolution = ResolutionClass.HR if i % 2 == 0 else ResolutionClass.LR
            sequence = random_sequence(resolution, rng=i, num_frames=frames)
            request = TranscodingRequest(user_id=f"user-{i}", sequence=sequence)
            controller = mamut_factory()(request, seed=i)
            sessions.append(TranscodingSession(request=request, controller=controller))
        return sessions

    def test_run_batch_equals_scalar(self):
        scalar = Orchestrator(self.make_sessions()).run()
        batch = run_batch(Orchestrator(self.make_sessions()))
        assert scalar.records_by_session == batch.records_by_session
        assert list(scalar.power_samples) == list(batch.power_samples)
        assert scalar.steps == batch.steps
        assert scalar.summary() == batch.summary()

    def test_driver_sized_unlike_its_server(self):
        # The server reads only the driver's lowest frequency, so a driver
        # built for fewer cores than the topology has steps on both engines.
        def orchestrator():
            server = MulticoreServer(
                topology=CpuTopology(),
                dvfs_driver=DvfsDriver(
                    topology=CpuTopology(sockets=1, cores_per_socket=4)
                ),
            )
            return Orchestrator(self.make_sessions(count=1, frames=30), server=server)

        scalar = orchestrator().run()
        batch = run_batch(orchestrator())
        assert scalar.steps == batch.steps == 30
        assert scalar.records_by_session == batch.records_by_session
        assert list(scalar.power_samples) == list(batch.power_samples)


class TestMixedModelParameters:
    """Sessions and servers whose model parameters differ stay bitwise equal.

    The batch engine evaluates each distinct set of model parameters with
    its own models; these fleets mix several sets on one step.
    """

    @staticmethod
    def custom_transcoder(psnr_at_ref_qp):
        encoder = HevcEncoder(
            rd_model=RateDistortionModel(
                RdModelParameters(
                    psnr_at_ref_qp=psnr_at_ref_qp,
                    ref_qp=30,
                    qp_per_rate_halving=5.5,
                    intra_rate_factor=2.0,
                )
            ),
            complexity_model=ComplexityModel(
                ComplexityModelParameters(
                    base_cycles_per_pixel=260.0,
                    qp_sensitivity=0.04,
                    complexity_weight=0.5,
                    motion_weight=0.45,
                )
            ),
            wpp_model=WppModel(
                WppModelParameters(ctu_size=32, sync_overhead_per_thread=0.01)
            ),
            delivery_fps=30,
        )
        decoder = HevcDecoder(
            ComplexityModel(ComplexityModelParameters(decode_fraction=0.03))
        )
        return Transcoder(encoder=encoder, decoder=decoder)

    def make_sessions(self):
        # (controller factory, transcoder) per user; None keeps the default
        # transcoder.  Users 1 and 2 share one custom parameter set.
        plan = [
            (mamut_factory(), None),
            (mamut_factory(), self.custom_transcoder(37.0)),
            (heuristic_factory(), self.custom_transcoder(37.0)),
            (mamut_factory(), self.custom_transcoder(39.5)),
            (static_factory(qp=30, threads=5, frequency_ghz=2.6), None),
        ]
        sessions = []
        for i, (factory, transcoder) in enumerate(plan):
            resolution = ResolutionClass.HR if i % 2 == 0 else ResolutionClass.LR
            sequence = random_sequence(resolution, rng=i, num_frames=12)
            request = TranscodingRequest(user_id=f"user-{i}", sequence=sequence)
            sessions.append(
                TranscodingSession(
                    request=request,
                    controller=factory(request, seed=i),
                    transcoder=transcoder,
                )
            )
        return sessions

    def test_orchestrator_mixed_transcoder_parameters(self):
        scalar = Orchestrator(self.make_sessions()).run()
        batch = run_batch(Orchestrator(self.make_sessions()))
        assert scalar.records_by_session == batch.records_by_session
        assert list(scalar.power_samples) == list(batch.power_samples)
        assert scalar.summary() == batch.summary()

    @staticmethod
    def custom_server():
        return MulticoreServer(
            power_model=PowerModel(
                PowerModelParameters(
                    base_power_w=28.0,
                    core_dynamic_w=4.6,
                    core_leakage_w=1.2,
                    smt_activity_bonus=0.3,
                    idle_activity_fraction=0.25,
                ),
                VoltageTable({1.2: 0.78, 1.6: 0.84, 2.0: 0.92, 2.6: 1.02, 3.2: 1.18}),
            )
        )

    def test_cluster_mixed_power_models(self):
        def kwargs():
            kinds = itertools.cycle([MulticoreServer, self.custom_server])
            return dict(servers=4, rate=1.5, server_factory=lambda: next(kinds)())

        assert_identical(
            run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs())
        )


class TestBatchStepperProtocol:
    def test_idle_fleet_emits_idle_samples(self):
        orchestrators = [Orchestrator(), Orchestrator()]
        stepper = BatchStepper(orchestrators)
        samples = stepper.step(0)
        reference = Orchestrator().idle_step(0)
        assert [s.power_w for s in samples] == [reference.power_w] * 2
        assert all(s.active_sessions == 0 for s in samples)
        assert all(s.duration_s == reference.duration_s for s in samples)

    @staticmethod
    def reference_step():
        """One prepare/execute step of the first test session: (session, record)."""
        session = TestOrchestratorBatchRun().make_sessions(1)[0]
        session.prepare()
        return session, session.execute(1.0, 100.0)

    def test_decide_then_commit_steps_like_prepare_then_execute(self):
        # The batch engine's per-session path: decide, evaluate the frame
        # fleet-wide, commit the results.
        reference, record = self.reference_step()
        session = TestOrchestratorBatchRun().make_sessions(1)[0]
        decision = session.decide()
        assert (decision.qp, decision.threads, decision.frequency_ghz) == (
            record.qp,
            record.threads,
            record.frequency_ghz,
        )
        session.commit(record)
        assert session.records == reference.records
        assert (session.step, session.frame_index) == (1, 1)
        window, expected = session.controller.window, reference.controller.window
        assert (window.fps, window.power_w, window.count) == (
            expected.fps,
            expected.power_w,
            1,
        )
        session.decide()  # the commit closed the step

    def test_execute_after_commit_rejected(self):
        # A committed decision is spent; executing it would transcode twice.
        reference, record = self.reference_step()
        session = TestOrchestratorBatchRun().make_sessions(1)[0]
        session.decide()
        session.commit(record)
        with pytest.raises(ScenarioError):
            session.execute(1.0, 100.0)

    def test_out_of_range_qp_rejected_like_scalar(self):
        from repro.core.controller import Controller, Decision
        from repro.errors import EncodingError

        class BadQp(Controller):
            def decide(self, frame_index):
                return Decision(qp=60, threads=4, frequency_ghz=3.2)

        for engine in ("scalar", "batch"):
            workload = WorkloadGenerator(
                PoissonTraffic(1.0), seed=0, frames_per_video=5
            )
            cluster = ClusterOrchestrator(
                1,
                workload,
                controller_factory=lambda request, seed: BadQp(),
                seed=0,
                engine=engine,
            )
            with pytest.raises(EncodingError):
                cluster.run(10)


class TestVideoBoundaryEquivalence:
    """The batch scatter notes video changes and ends where it commits.

    A commit that wraps a session's frame index to 0 crossed a video
    boundary.  These fleets cross one on almost every step: playlists of
    one-frame videos, crash retries that resume at their video's last
    frame (checkpointed one frame before the end of a four-frame video),
    and playlists of three-frame videos, where a MAMUT observation window
    not restarted at a boundary changes the learned values.
    """

    @staticmethod
    def short_videos(engine, factory, frames_per_video, playlist_videos):
        workload = WorkloadGenerator(
            PoissonTraffic(1.0),
            seed=2,
            playlist_videos=playlist_videos,
            frames_per_video=frames_per_video,
        )
        return ClusterOrchestrator(
            3, workload, controller_factory=factory, seed=2, engine=engine
        )

    @classmethod
    def one_frame_videos(cls, engine, factory):
        return cls.short_videos(engine, factory, 1, 12)

    @classmethod
    def three_frame_videos(cls, engine, factory):
        return cls.short_videos(engine, factory, 3, 6)

    @staticmethod
    def resumed_at_last_frame(engine, factory):
        workload = WorkloadGenerator(
            PoissonTraffic(1.2),
            seed=4,
            playlist_videos=2,
            frames_per_video=4,
            patience_steps=10,
        )
        kills = [(0, 6), (1, 9), (0, 13), (1, 17)]
        return ClusterOrchestrator(
            4,
            workload,
            admission=CapacityThreshold(max_sessions_per_server=3, max_queue=6),
            controller_factory=factory,
            seed=4,
            engine=engine,
            faults=FaultConfig(
                max_retries=2,
                retry_backoff_steps=0,
                seed=1,
                topology=FailureTopology(zones=2, seed=1),
                kill_schedule=KillSchedule(
                    tuple(
                        KillEntry(zone=zone, step=step, duration=2)
                        for zone, step in kills
                    )
                ),
                checkpoint_interval_frames=3,
            ),
        )

    FACTORIES = {
        "mamut": mamut_factory,
        "static": lambda: static_factory(qp=32, threads=4, frequency_ghz=3.2),
    }

    @pytest.mark.parametrize("controller", sorted(FACTORIES))
    @pytest.mark.parametrize(
        "scenario", ["one_frame_videos", "three_frame_videos", "resumed_at_last_frame"]
    )
    def test_engines_agree(self, scenario, controller):
        runs = {}
        for engine in ("scalar", "batch"):
            cluster = getattr(self, scenario)(engine, self.FACTORIES[controller]())
            result = cluster.run(24)
            learned = {
                session.session_id: snapshot_controller(session.controller)
                for orch in cluster.orchestrators
                for session in orch.sessions
            }
            runs[engine] = (result, learned)
        (scalar, scalar_learned), (batch, batch_learned) = runs["scalar"], runs["batch"]
        assert_identical(scalar, batch)
        assert scalar_learned == batch_learned

        first_frames = [
            (session_id, records[0].frame_index)
            for server in batch.records_by_server
            for session_id, records in server.items()
            if records
        ]
        assert batch.summary().frames > 0
        if scenario == "resumed_at_last_frame":
            assert any("#r" in sid and frame == 3 for sid, frame in first_frames)
        else:
            assert all(frame == 0 for _, frame in first_frames)


class TestThroughputBenchClaims:
    """ISSUE 5: the learning-controller throughput claims of bench_step_throughput."""

    def test_bench_json_records_mamut_rows_and_speedup_floor(self):
        import json
        from pathlib import Path

        payload = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCH_throughput.json").read_text()
        )
        rows = [r for r in payload["results"] if r["controller"] == "mamut"]
        assert {r["engine"] for r in rows} == {"scalar", "batch"}
        assert any(r["servers"] >= 64 for r in rows)
        speedups = payload["speedup_batch_over_scalar"]["mamut"]
        assert speedups["64"] >= 3.0
        # The static rows must survive the merge.
        assert payload["speedup_batch_over_scalar"]["static"]["64"] >= 5.0

    def test_mamut_batch_beats_scalar_wall_clock(self):
        """A conservative live canary for the headline >=3x-at-64 claim.

        Run at a smaller scale so the test stays fast, and only assert that
        the batch engine is actually ahead — the full factor is asserted by
        the benchmark itself (bench_step_throughput --controller mamut).
        """
        import time

        from repro.cluster.workload import TrafficModel

        class Burst(TrafficModel):
            def rate(self, step):
                return 48.0 if step == 0 else 0.0

        def run(engine):
            workload = WorkloadGenerator(Burst(), seed=0, frames_per_video=40)
            cluster = ClusterOrchestrator(
                24,
                workload,
                admission=AlwaysAdmit(),
                dispatcher=RoundRobin(),
                controller_factory=mamut_factory(),
                seed=0,
                engine=engine,
            )
            # Admit the step-0 burst (two sessions per server) untimed, then
            # time the pure stepping loop like the benchmark does.
            cluster.run(1, drain=False)
            if engine == "batch":
                stepper = BatchStepper(cluster.orchestrators)
                stepper.step(1)  # warm-up: roster gather
                start = time.perf_counter()
                for step in range(2, 32):
                    stepper.step(step)
            else:
                for orch in cluster.orchestrators:
                    if orch.run_step(1) is None:
                        orch.idle_step(1)
                start = time.perf_counter()
                for step in range(2, 32):
                    for orch in cluster.orchestrators:
                        if orch.run_step(step) is None:
                            orch.idle_step(step)
            return time.perf_counter() - start

        scalar_elapsed = run("scalar")
        batch_elapsed = run("batch")
        assert batch_elapsed < scalar_elapsed


class TestEngineResume:
    """Window state survives engine hand-offs (chunked runs, engine switches)."""

    def test_chunked_batch_run_equals_one_shot(self):
        sessions = TestOrchestratorBatchRun().make_sessions
        one_shot = run_batch(Orchestrator(sessions(frames=24)))
        orch = Orchestrator(sessions(frames=24))
        first = run_batch(orch, max_steps=9)
        rest = run_batch(orch)
        assert first.steps == 9
        chunked = {
            session_id: first.records_by_session[session_id]
            + rest.records_by_session[session_id][9:]
            for session_id in one_shot.records_by_session
        }
        # rest.records_by_session includes the first chunk's records too
        # (session.records is cumulative) — compare the full trajectories.
        assert rest.records_by_session == one_shot.records_by_session
        assert chunked == one_shot.records_by_session

    def test_batch_then_scalar_equals_pure_scalar(self):
        sessions = TestOrchestratorBatchRun().make_sessions
        pure = Orchestrator(sessions(frames=24)).run()
        orch = Orchestrator(sessions(frames=24))
        run_batch(orch, max_steps=9)
        mixed = orch.run()
        assert mixed.records_by_session == pure.records_by_session

    def test_scalar_then_batch_equals_pure_batch(self):
        sessions = TestOrchestratorBatchRun().make_sessions
        pure = run_batch(Orchestrator(sessions(frames=24)))
        orch = Orchestrator(sessions(frames=24))
        orch.run(max_steps=9)
        mixed = run_batch(orch)
        assert mixed.records_by_session == pure.records_by_session

    @staticmethod
    def controller_states(engine):
        """Every session's window and learned state after a run cut mid-video."""
        workload = WorkloadGenerator(
            PoissonTraffic(1.5), seed=4, playlist_videos=2, frames_per_video=20
        )
        cluster = ClusterOrchestrator(3, workload, seed=4, engine=engine)
        cluster.run(30, max_drain_steps=0)
        states = {}
        for orchestrator in cluster.orchestrators:
            for session in orchestrator.sessions:
                window = session.controller.window
                sums = (
                    window.fps,
                    window.psnr_db,
                    window.bitrate_mbps,
                    window.power_w,
                    window.count,
                )
                states[session.session_id] = (
                    sums,
                    snapshot_controller(session.controller),
                )
        return states

    def test_cut_cluster_run_ends_in_the_same_controller_state(self):
        scalar = self.controller_states("scalar")
        batch = self.controller_states("batch")
        assert scalar == batch
        # The cut leaves sessions between activations, holding frames.
        assert any(sums[-1] > 0 for sums, _ in batch.values())


class TestCompensatedSum:
    """The engines agree under Python 3.12's compensated ``sum()``.

    ``compensated_sum`` copies 3.12's algorithm, so any interpreter can run
    existing cross-engine scenarios with it patched in for the builtin.
    """

    def test_copy_compensates_floats_only(self):
        assert compensated_sum([0.1] * 10) == 1.0
        assert compensated_sum([1, 2, 3]) == 6
        assert compensated_sum([0.5, 1, 0.25]) == 1.75

    @pytest.mark.skipif(
        sys.version_info < (3, 12), reason="compares with the 3.12 builtin"
    )
    def test_copy_equals_the_builtin(self):
        rng = np.random.default_rng(312)
        for _ in range(2000):
            size = int(rng.integers(2, 40))
            values = (rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)).tolist()
            assert compensated_sum(values) == sum(values)

    @pytest.mark.parametrize(
        "owner, case",
        [
            (TestEngineEquivalence, "test_multi_video_playlists"),
            (TestEngineEquivalence, "test_chip_wide_heuristic_controllers"),
            (TestMixedModelParameters, "test_cluster_mixed_power_models"),
        ],
        ids=["multi-video-playlists", "chip-wide-heuristic", "mixed-power-models"],
    )
    def test_engines_agree(self, owner, case, monkeypatch):
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        getattr(owner(), case)()


class TestEnginesInEveryPhase:
    """Pretrained fleets: the engines agree in all three learning phases.

    The other cross-engine scenarios start every agent from scratch, so all
    their activations are explorations.  Agents seeded with
    :func:`~repro.manager.pretrain.pretrain_mamut` knowledge also act in
    exploration-exploitation and in Algorithm 1's exploitation, the paths
    the batch activation (:class:`~repro.core.mamut.MamutBatch`) rewrites.
    The run is ``tests/test_cluster_golden.py``'s three-phase scenario,
    whose outputs that file also pins to literals.
    """

    def test_engines_agree_in_every_phase(self):
        scalar, scalar_controllers = cluster_golden.run_phases("scalar")
        batch, batch_controllers = cluster_golden.run_phases("batch")
        assert batch.summary() == scalar.summary()
        assert batch_controllers.keys() == scalar_controllers.keys()
        for session_id, controller in batch_controllers.items():
            theirs = scalar_controllers[session_id]
            assert snapshot_controller(controller) == snapshot_controller(theirs)
            assert controller.history == theirs.history


#: A session joining :class:`TestCarriedRoster`'s fleet: its server,
#: controller kind, number of videos, frames per video and start frame.
_JOINS = st.tuples(
    st.integers(0, 2),
    st.sampled_from(["mamut", "eager", "static", "heuristic"]),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 3),
)

#: One round of edits, then steps: sessions that join, a running session
#: killed (its server crashed), a server leaving or rejoining the stepped
#: fleet, steps on the scalar engine, then steps on the engine under test,
#: and whether those build a new stepper even when nothing asks for one.
_ROUNDS = st.tuples(
    st.lists(_JOINS, max_size=2),
    st.one_of(st.none(), st.integers(0, 63)),
    st.one_of(st.none(), st.integers(0, 2)),
    st.integers(0, 2),
    st.integers(1, 4),
    st.booleans(),
)


def _eager_mamut_factory():
    """MAMUT controllers whose agents act every third frame, always exploring.

    The paper's agents act every 6 to 24 frames and mostly keep their
    action early on; these change actions on most activations, so a stale
    action index shows in the next frame's record.
    """
    store = LearningStore()
    schedule = AgentSchedule(
        [AgentSlot("qp", 3, 0), AgentSlot("threads", 3, 1), AgentSlot("dvfs", 3, 2)]
    )

    def build(request, seed):
        config = MamutConfig.for_request(request, seed=seed, record_history=True)
        config = dataclasses.replace(config, schedule=schedule, exploration_epsilon=1.0)
        return MamutController(config, store)

    return build


def _replay(script, mode):
    """Run ``script``, stepping each round's last steps the way ``mode`` says.

    ``"scalar"`` steps everything on the scalar engine.  ``"carried"``
    builds each stepper with ``previous=`` the last one unless scalar steps
    ran since, ``"fresh"`` always without; both build one after a fleet
    change, after scalar steps, and where the script asks.  Returns the
    sessions, in join order, and every step's power samples.
    """
    factories = {
        "mamut": mamut_factory(record_history=True),
        "eager": _eager_mamut_factory(),
        "static": static_factory(qp=32, threads=4, frequency_ghz=2.4),
        "heuristic": heuristic_factory(),
    }
    orchestrators = [Orchestrator() for _ in range(3)]
    live = [True] * 3
    sessions, samples = [], []
    stepper, stale, step = None, True, 0

    def run_scalar(fleet, steps):
        nonlocal step
        for _ in range(steps):
            samples.append([orch.run_step(step) or orch.idle_step(step) for orch in fleet])
            step += 1

    for joins, kill, toggle, scalar_steps, steps, new_stepper in script:
        for server, controller, videos, frames, start in joins:
            n = len(sessions)
            resolution = ResolutionClass.HR if n % 2 else ResolutionClass.LR
            playlist = [
                random_sequence(resolution, rng=7 * n + v, num_frames=frames)
                for v in range(videos)
            ]
            request = TranscodingRequest(user_id=f"user-{n}", sequence=playlist[0])
            session = TranscodingSession(
                request,
                factories[controller](request, n),
                playlist=playlist,
                start_frame_index=start % frames,
            )
            orchestrators[server].add_session(session)
            sessions.append(session)
        running = [session for session in sessions if session.active]
        if kill is not None and running:
            running[kill % len(running)].terminate()
        if toggle is not None:
            live[toggle] = not live[toggle]
            stale = True
        fleet = [orch for orch, on in zip(orchestrators, live) if on]
        run_scalar(fleet, scalar_steps)
        if mode == "scalar":
            run_scalar(fleet, steps)
            continue
        if stale or scalar_steps or new_stepper:
            carried = mode == "carried" and not scalar_steps
            stepper = BatchStepper(fleet, previous=stepper if carried else None)
            stale = False
        for _ in range(steps):
            samples.append(stepper.step(step))
            step += 1
    return sessions, samples


def _controller_state(controller):
    # Static and heuristic controllers have no agents; MAMUT's keep their
    # applied actions and owed update in their pool slots.
    agents = getattr(controller, "agents", {})
    return (
        snapshot_controller(controller),
        getattr(controller, "history", None),
        [
            (int(agent.pool.current[agent.slot]), agent.pool.pending[agent.slot].tolist())
            for agent in agents.values()
        ],
        controller.window.count,
    )


class TestCarriedRoster:
    """Lanes and ``MamutBatch`` rows carried over roster and stepper changes.

    A fleet of three servers goes through a random script of membership
    edits: sessions of every controller kind join and finish or are killed,
    videos of one to four frames wrap, servers leave the stepped fleet and
    rejoin it, and stretches run on the scalar engine.  Every edit is
    stepped by a stepper that took over the previous one's caches (a
    stretch on the scalar engine starts a new lineage instead) and,
    separately, by a fresh stepper; both must match the scalar engine
    bitwise in every record, power sample and controller.
    """

    @given(script=st.lists(_ROUNDS, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    # A new lineage after the scalar engine moved sessions to another video
    # and another action, then a server whose sessions leave the roster and
    # come back within one lineage.
    @example(
        script=[
            (
                [(0, "eager", 3, 2, 0), (1, "static", 2, 3, 1), (1, "mamut", 2, 2, 1)],
                None, None, 0, 2, True,
            ),
            ([], None, None, 2, 3, False),
            ([], None, 0, 0, 1, False),
            ([(2, "heuristic", 1, 4, 0)], None, 0, 0, 3, False),
        ]
    )
    def test_carried_and_fresh_steppers_equal_scalar(self, script):
        sessions, samples = _replay(script, "scalar")
        for mode in ("carried", "fresh"):
            theirs, their_samples = _replay(script, mode)
            assert their_samples == samples
            assert [s.records for s in theirs] == [s.records for s in sessions]
            assert [_controller_state(s.controller) for s in theirs] == [
                _controller_state(s.controller) for s in sessions
            ]

    def test_handing_over_after_a_scalar_step_raises(self):
        """A stepper refuses rows whose sessions were stepped elsewhere since."""
        orchestrator = Orchestrator()
        factories = [_eager_mamut_factory(), static_factory(qp=32, threads=4, frequency_ghz=2.4)]
        for n, factory in enumerate(factories):
            sequence = random_sequence(ResolutionClass.LR, rng=n, num_frames=4)
            request = TranscodingRequest(user_id=f"user-{n}", sequence=sequence)
            orchestrator.add_session(TranscodingSession(request, factory(request, n)))
        first = BatchStepper([orchestrator])
        first.step(0)
        carried = BatchStepper([orchestrator], previous=first)
        carried.step(1)
        orchestrator.run_step(2)
        with pytest.raises(ClusterError, match="without previous="):
            BatchStepper([orchestrator], previous=carried)


class _ReadingStepper(BatchStepper):
    """A stepper that re-reads every orchestrator's roster on every step."""

    def step(self, step):
        self._stale = True
        return super().step(step)


#: One round of roster edits, then steps: sessions that join (server,
#: controller, videos, frames per video, start frame), a running session
#: killed in place, and the steps to take.
_EDITS = st.tuples(
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(["eager", "static"]),
            st.integers(1, 2),
            st.integers(1, 4),
            st.integers(0, 3),
        ),
        max_size=3,
    ),
    st.one_of(st.none(), st.integers(0, 63)),
    st.integers(1, 5),
)


class TestLazyRosterReads:
    """A stepper re-reads rosters only after a join, a finish or a kill.

    Random ``add_session`` edits, videos that end, sessions that finish and
    sessions killed in place (``terminate``) between steps: the stepper
    must step the same sessions, to the same records, samples and
    controller states, as one that re-reads every roster on every step,
    and read fewer rosters.
    """

    @staticmethod
    def replay(script, stepper_type):
        factories = {
            "eager": _eager_mamut_factory(),
            "static": static_factory(qp=32, threads=4, frequency_ghz=2.4),
        }
        orchestrators = [Orchestrator() for _ in range(3)]
        reads = collections.Counter()
        for orch in orchestrators:
            read = orch.active_sessions

            def counted(read=read):
                reads["rosters"] += 1
                return read()

            orch.active_sessions = counted
        stepper = stepper_type(orchestrators)
        sessions, trace = [], []
        for joins, kill, steps in script:
            for server, controller, videos, frames, start in joins:
                n = len(sessions)
                playlist = [
                    random_sequence(ResolutionClass.LR, rng=5 * n + v, num_frames=frames)
                    for v in range(videos)
                ]
                request = TranscodingRequest(user_id=f"user-{n}", sequence=playlist[0])
                session = TranscodingSession(
                    request,
                    factories[controller](request, n),
                    playlist=playlist,
                    start_frame_index=start % frames,
                )
                orchestrators[server].add_session(session)
                sessions.append(session)
            running = [session for session in sessions if session.active]
            if kill is not None and running:
                running[kill % len(running)].terminate()
            for _ in range(steps):
                before = [session.step for session in sessions]
                samples = stepper.step(len(trace))
                stepped = [
                    k for k, session in enumerate(sessions) if session.step != before[k]
                ]
                trace.append((stepped, samples, stepper.violations, list(stepper.still_active)))
        states = [
            (session.records, _controller_state(session.controller)) for session in sessions
        ]
        return trace, states, reads["rosters"]

    @given(script=st.lists(_EDITS, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_lazy_and_eager_reads_step_the_same_sessions(self, script):
        trace, states, reads = self.replay(script, BatchStepper)
        eager_trace, eager_states, eager_reads = self.replay(script, _ReadingStepper)
        assert trace == eager_trace
        assert states == eager_states
        assert reads <= eager_reads

class TestRosterWork:
    """A roster change reads only the sessions and controllers that joined.

    ``tests/test_cluster_golden.py``'s chaos scenario (autoscaling, faults,
    brownout, MAMUT and static lanes) builds many steppers on the batch
    engine, all of one lineage: they share one ``MamutBatch`` and one
    ``FleetAllocator``, each session gets one lane, and each MAMUT
    controller one ``MamutBatch`` row read from it.  Frames go to the run's
    frame ledger as columns: ``run()`` and ``summary()`` build no
    ``FrameRecord``.  A video draws its content when a session first reads
    it, so no video of a request that never reached a server (rejected,
    shed or dropped) is drawn, and none is drawn twice.
    """

    def test_each_session_and_controller_is_read_once(self, monkeypatch):
        counts = collections.Counter()

        def count(owner, name, key):
            method = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[key] += 1
                return method(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(batch_module._SessionLane, "__init__", "lanes")
        count(batch_module.BatchStepper, "__init__", "steppers")
        count(MamutBatch, "__init__", "mamut_batches")
        count(FleetAllocator, "__init__", "allocators")
        count(TranscodingSession, "__init__", "sessions")
        count(MamutBatch, "row", "rows")
        count(MamutController, "__init__", "controllers")
        count(FrameRecord, "__init__", "frame_records")
        _, result, _ = cluster_golden.run_scenario("chaos_drained", "batch")
        assert result.summary().frames > 0
        assert counts["frame_records"] == 0
        assert counts["steppers"] > 1
        assert counts["mamut_batches"] == counts["allocators"] == 1
        assert counts["lanes"] == counts["sessions"]
        assert counts["rows"] == counts["controllers"]
        assert 0 < counts["controllers"] < counts["sessions"]

    def test_only_videos_sessions_reach_draw_content(self, monkeypatch):
        playlists = {}
        arrivals = WorkloadGenerator.arrivals

        def recorded(generator, step):
            events = arrivals(generator, step)
            playlists.update((event.request.user_id, event.playlist) for event in events)
            return events

        drawn = collections.Counter()  # content seed -> frames drawn
        columns = ContentModel.columns

        def counted(model, num_frames):
            drawn[model.seed] += num_frames
            return columns(model, num_frames)

        monkeypatch.setattr(WorkloadGenerator, "arrivals", recorded)
        monkeypatch.setattr(ContentModel, "columns", counted)
        _, result, sink = cluster_golden.run_scenario("chaos_drained", "batch")

        # Every generated video has its own content seed, so a seed names a video.
        videos = {video.seed: video for playlist in playlists.values() for video in playlist}
        assert len(videos) == sum(map(len, playlists.values()))
        # Only generated videos draw, each once and whole.
        assert drawn.keys() <= videos.keys()
        assert all(frames == len(videos[seed]) for seed, frames in drawn.items())

        lifecycles = analyze_trace(sink).lifecycles
        unserved = [user for user, lc in lifecycles.items() if lc.first_dispatch_step is None]
        assert {lifecycles[user].terminal_kind for user in unserved} == {"rejected", "dropped"}
        assert len(unserved) == result.rejected + result.dropped
        assert not {video.seed for user in unserved for video in playlists[user]} & drawn.keys()
        assert 0 < sum(drawn.values()) < sum(map(len, videos.values()))
