"""Fault injection and failure recovery: crashes, stragglers, retries.

Covers the contracts of the fault subsystem:

* **Determinism** — the same ``(workload seed, cluster seed, fault seed)``
  produces the identical fault schedule and the identical run on both
  stepping engines: full :class:`~repro.cluster.cluster.ClusterResult`
  equality (frame records, power traces, ledger, fault events), identical
  trace span streams, and identical final Q-tables.  A no-op fault config
  is bitwise identical to running without one.  Correlated zone outages
  (declarative kill schedules and MTBF-drawn) and checkpointed recovery
  hold the same bar.
* **Schedule isolation** — the fault schedule is a pure function of the
  fault seed: turning telemetry on, evaluating SLOs online, or resizing
  the fleet mid-run (autoscaling) must not move a single fault draw.
* **Recovery semantics** — crashed sessions are salvaged and re-dispatched
  under ``<user>#r<attempt>`` record keys with their learning migrated
  (copied in memory, exactly and without serialisation; resuming from the
  last checkpoint when checkpointing is on); the retry budget bounds the
  attempts; the ``failed``/``retried`` ledger reconciles with
  ``admitted``; the drain tail is fault-free; raw user ids that could
  collide with the reserved retry-key marker are rejected at intake.
* **Brownout-aware autoscaling** — a sustained brownout level produces
  exactly one appropriately-sized scale-up (no flapping) and freezes
  scale-downs until the level clears.
* **Fleet census** — under drawn autoscaled chaos fleets, every fleet
  sample and every snapshot admission sees count the warming, draining,
  degraded, failed and recovering servers and the available zones exactly
  as a recount over the slots does, on both engines; a step builds at most
  one snapshot, and the autoscaler's, derived from admission's last one,
  equals a fresh one.
* **Request ledger** — under the same drawn fleets, with the drain tail
  whole, cut or skipped, every arrival ends in exactly one terminal span,
  and the span stream, the Prometheus counters mirroring the ledger and
  the fault kinds, the queue-wait histogram and the fleet trace all agree
  with the ledger, on both engines, whose span streams are equal.
"""

from __future__ import annotations

import builtins
import collections
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_cluster_golden as cluster_golden
import test_telemetry
from engine_fixtures import compensated_sum
from repro.cluster import (
    AutoscaleSignals,
    BrownoutController,
    CapacityThreshold,
    ClusterOrchestrator,
    ClusterSnapshot,
    FailureAware,
    FailureTopology,
    FaultConfig,
    FaultInjector,
    FlashCrowdTraffic,
    KillEntry,
    KillSchedule,
    PoissonTraffic,
    PredictiveScaling,
    ReactiveThreshold,
    ServerSnapshot,
    WorkloadGenerator,
)
from repro.cluster import cluster as cluster_module
from repro.core import persistence
from repro.core.persistence import snapshot_controller
from repro.errors import ClusterError
from repro.manager.factories import static_factory
from repro.manager.pretrain import pretrain_mamut, pretrained_mamut_factory
from repro.metrics.cluster import ClusterSummary
from repro.numeric import ordered_sum
from repro.telemetry import (
    QueueWaitObjective,
    ShedRateObjective,
    Telemetry,
    TelemetryConfig,
    analyze_trace,
)
from repro.telemetry.trace import TERMINAL_KINDS, ListTraceSink
from repro.video.sequence import ResolutionClass


def run_cluster(
    engine,
    *,
    faults,
    seed=3,
    fault_seed=None,
    servers=3,
    rate=0.5,
    duration=40,
    playlist_videos=2,
    frames_per_video=8,
    patience_steps=10,
    controller_factory=None,
    autoscaler=None,
    brownout=None,
    max_servers=8,
    provision_warmup_steps=2,
    trace=False,
    dispatcher=None,
    slo=None,
    drain=True,
):
    if fault_seed is not None and faults is not None:
        faults = dataclasses.replace(faults, seed=fault_seed)
    workload = WorkloadGenerator(
        PoissonTraffic(rate),
        seed=seed,
        playlist_videos=playlist_videos,
        frames_per_video=frames_per_video,
        patience_steps=patience_steps,
    )
    cluster = ClusterOrchestrator(
        servers,
        workload,
        admission=CapacityThreshold(max_sessions_per_server=3, max_queue=6),
        dispatcher=dispatcher,
        controller_factory=controller_factory,
        seed=seed,
        engine=engine,
        autoscaler=autoscaler,
        max_servers=max_servers,
        provision_warmup_steps=provision_warmup_steps,
        brownout=brownout,
        faults=faults,
    )
    sink = ListTraceSink() if trace else None
    telemetry = None
    if trace or slo:
        telemetry = TelemetryConfig(trace_sink=sink, slo=slo or ())
    result = cluster.run(duration, drain=drain, telemetry=telemetry)
    return cluster, result, sink


MIXED_FAULTS = FaultConfig(
    crash_mtbf_steps=40.0,
    crash_mttr_steps=6.0,
    straggler_mtbf_steps=60.0,
    straggler_duration_steps=4.0,
    warmup_failure_rate=0.3,
    max_retries=2,
    retry_backoff_steps=1,
    seed=5,
)

CRASH_ONLY = FaultConfig(
    crash_mtbf_steps=25.0, crash_mttr_steps=5.0, max_retries=3,
    retry_backoff_steps=1, seed=9,
)

ZONAL_TOPOLOGY = FailureTopology(zones=3, racks_per_zone=2, seed=7)

# Pinned declarative schedules: the exact zones die at the exact steps.
ZONAL_KILL_A = FaultConfig(
    max_retries=3,
    retry_backoff_steps=1,
    seed=7,
    topology=ZONAL_TOPOLOGY,
    kill_schedule=KillSchedule((KillEntry(zone=1, step=6, duration=8),)),
    checkpoint_interval_frames=4,
)

ZONAL_KILL_B = FaultConfig(
    crash_mtbf_steps=40.0,
    crash_mttr_steps=6.0,
    max_retries=2,
    retry_backoff_steps=1,
    seed=11,
    topology=ZONAL_TOPOLOGY,
    kill_schedule=KillSchedule(
        (KillEntry(zone=0, step=5, duration=4), KillEntry(zone=2, step=12, duration=6))
    ),
)

# Randomized correlated outages: zones die on MTBF-drawn schedules.
ZONAL_RANDOM = FaultConfig(
    max_retries=3,
    retry_backoff_steps=1,
    seed=13,
    topology=ZONAL_TOPOLOGY,
    zone_mtbf_steps=30.0,
    zone_mttr_steps=5.0,
    checkpoint_interval_frames=4,
)


def controller_states(cluster):
    """(session id, learned-state snapshot) for every session ever run."""
    return [
        (session.session_id, snapshot_controller(session.controller))
        for orchestrator in cluster.orchestrators
        for session in orchestrator.sessions
    ]


def assert_identical(a, b):
    assert a.records_by_server == b.records_by_server
    assert a.samples_by_server == b.samples_by_server
    assert a.queue_waits == b.queue_waits
    assert a.fleet_trace == b.fleet_trace
    assert a.fault_events == b.fault_events
    assert (a.arrivals, a.admitted, a.rejected, a.dropped, a.abandoned) == (
        b.arrivals, b.admitted, b.rejected, b.dropped, b.abandoned
    )
    assert (a.failed, a.retried, a.steps) == (b.failed, b.retried, b.steps)
    assert a.summary() == b.summary()


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ClusterError):
            FaultConfig(crash_mtbf_steps=0.0)
        with pytest.raises(ClusterError):
            FaultConfig(crash_mttr_steps=-1.0)
        with pytest.raises(ClusterError):
            FaultConfig(straggler_mtbf_steps=-2.0)
        with pytest.raises(ClusterError):
            FaultConfig(warmup_failure_rate=1.5)
        with pytest.raises(ClusterError):
            FaultConfig(max_retries=-1)

    def test_enabled_reflects_modes(self):
        assert not FaultConfig().enabled
        assert FaultConfig(crash_mtbf_steps=10.0).enabled
        assert FaultConfig(straggler_mtbf_steps=10.0).enabled
        assert FaultConfig(warmup_failure_rate=0.1).enabled

    def test_orchestrator_takes_a_config_not_an_injector(self):
        # The orchestrator builds its own injector from the config, so the
        # fault schedule always starts from the config's seed.
        workload = WorkloadGenerator(PoissonTraffic(1.0), seed=0)
        with pytest.raises(ClusterError, match="FaultConfig"):
            ClusterOrchestrator(2, workload, faults=FaultInjector(CRASH_ONLY))

    def test_retry_backoff_is_exponential(self):
        injector = FaultInjector(
            FaultConfig(crash_mtbf_steps=10.0, retry_backoff_steps=2)
        )
        assert injector.retry_ready_step(100, 1) == 102
        assert injector.retry_ready_step(100, 2) == 104
        assert injector.retry_ready_step(100, 3) == 108


class TestEngineEquivalence:
    """Bitwise scalar/batch equality under seeded fault schedules."""

    @pytest.mark.parametrize("fault_seed", [5, 17])
    def test_mixed_fault_schedule(self, fault_seed):
        # Crash + straggler + warm-up failure mix with autoscaling: the
        # full result, the span stream and every final Q-table must match.
        autoscale = lambda: ReactiveThreshold(
            sessions_per_server=3, scale_down_cooldown_steps=8
        )
        ca, ra, sa = run_cluster(
            "scalar", faults=MIXED_FAULTS, fault_seed=fault_seed,
            autoscaler=autoscale(), trace=True,
        )
        cb, rb, sb = run_cluster(
            "batch", faults=MIXED_FAULTS, fault_seed=fault_seed,
            autoscaler=autoscale(), trace=True,
        )
        assert_identical(ra, rb)
        assert sa.spans == sb.spans
        assert controller_states(ca) == controller_states(cb)
        # The schedule actually exercised the machinery.
        kinds = {event.kind for event in ra.fault_events}
        assert "crash" in kinds

    def test_crash_only_schedule_with_static_controllers(self):
        _, ra, sa = run_cluster(
            "scalar", faults=CRASH_ONLY,
            controller_factory=static_factory(32, 4, 3.2), trace=True,
        )
        _, rb, sb = run_cluster(
            "batch", faults=CRASH_ONLY,
            controller_factory=static_factory(32, 4, 3.2), trace=True,
        )
        assert_identical(ra, rb)
        assert sa.spans == sb.spans
        assert any(e.kind == "crash" for e in ra.fault_events)

    @pytest.mark.parametrize("seed", [1, 2, 11])
    def test_property_randomized_schedules_with_brownout(self, seed):
        # Property-style sweep: faults layered on autoscaling AND brownout,
        # different workload/fault seeds each time.
        def kwargs():
            return dict(
                faults=MIXED_FAULTS,
                seed=seed,
                fault_seed=seed + 100,
                rate=0.8,
                autoscaler=ReactiveThreshold(
                    sessions_per_server=3, scale_down_cooldown_steps=8
                ),
                brownout=BrownoutController(sessions_per_server=3),
            )

        _, ra, _ = run_cluster("scalar", **kwargs())
        _, rb, _ = run_cluster("batch", **kwargs())
        assert_identical(ra, rb)

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_noop_fault_config_is_bitwise_none(self, engine):
        # Determinism guard: a config with no fault mode enabled must not
        # perturb anything — not a single RNG draw differs from None.
        _, ra, _ = run_cluster(engine, faults=None)
        _, rb, _ = run_cluster(engine, faults=FaultConfig())
        assert ra == rb

    def test_same_config_reproduces(self):
        _, ra, _ = run_cluster("batch", faults=MIXED_FAULTS)
        _, rb, _ = run_cluster("batch", faults=MIXED_FAULTS)
        assert ra == rb


class TestDomainEquivalence:
    """Scalar/batch equality under correlated zone outages and checkpoints."""

    @pytest.mark.parametrize(
        "config",
        [ZONAL_KILL_A, ZONAL_KILL_B],
        ids=["single-zone-checkpointed", "two-zones-plus-crashes"],
    )
    def test_pinned_kill_schedules(self, config):
        # A declarative zonal kill on a 6-server/3-zone fleet with
        # failure-aware routing: full results, span streams and Q-tables
        # must match bitwise across engines.
        ca, ra, sa = run_cluster(
            "scalar", faults=config, servers=6,
            dispatcher=FailureAware(), trace=True,
        )
        cb, rb, sb = run_cluster(
            "batch", faults=config, servers=6,
            dispatcher=FailureAware(), trace=True,
        )
        assert_identical(ra, rb)
        assert sa.spans == sb.spans
        assert controller_states(ca) == controller_states(cb)
        kinds = {event.kind for event in ra.fault_events}
        assert "zone_outage" in kinds
        assert "crash" in kinds

    def test_single_zone_kill_under_compensated_sum(self, monkeypatch):
        # Python 3.12's sum() must not split the engines either.
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        self.test_pinned_kill_schedules(ZONAL_KILL_A)

    def test_randomized_zonal_schedule(self):
        ca, ra, sa = run_cluster(
            "scalar", faults=ZONAL_RANDOM, servers=6,
            dispatcher=FailureAware(), rate=0.7, trace=True,
        )
        cb, rb, sb = run_cluster(
            "batch", faults=ZONAL_RANDOM, servers=6,
            dispatcher=FailureAware(), rate=0.7, trace=True,
        )
        assert_identical(ra, rb)
        assert sa.spans == sb.spans
        assert controller_states(ca) == controller_states(cb)
        assert any(e.kind == "zone_outage" for e in ra.fault_events)

    def test_domain_ledger_is_populated(self):
        _, result, _ = run_cluster(
            "batch", faults=ZONAL_KILL_A, servers=6, dispatcher=FailureAware(),
        )
        summary = result.summary()
        assert summary.failed_domains == sum(
            1 for e in result.fault_events if e.kind == "zone_outage"
        )
        assert summary.failed_domains >= 1
        assert summary.mean_available_domains > 0
        assert any(s.available_domains < 3 for s in result.fleet_trace)
        # Crash events carry the failure domain of the server they hit.
        crashes = [e for e in result.fault_events if e.kind == "crash"]
        assert crashes
        assert all(e.zone is not None and e.rack is not None for e in crashes)
        # Zone-level events name the zone, not a server.
        outages = [e for e in result.fault_events if e.kind == "zone_outage"]
        assert all(e.server == -1 and e.zone == 1 for e in outages)


class TestScheduleIsolation:
    """The fault schedule is a function of the fault seed, nothing else."""

    @staticmethod
    def _zone_schedule(result):
        # (step, zone, drawn downtime) — the victim count in the detail is
        # membership-dependent by design, the drawn schedule is not.
        return [
            (e.step, e.zone, e.detail.rsplit(" down ", 1)[-1])
            for e in result.fault_events
            if e.kind == "zone_outage"
        ]

    def test_telemetry_does_not_perturb_schedule(self):
        _, plain, _ = run_cluster("batch", faults=ZONAL_RANDOM, servers=6)
        _, traced, _ = run_cluster(
            "batch", faults=ZONAL_RANDOM, servers=6, trace=True,
        )
        assert_identical(plain, traced)

    def test_slo_does_not_perturb_schedule(self):
        _, plain, _ = run_cluster("batch", faults=ZONAL_RANDOM, servers=6)
        _, observed, _ = run_cluster(
            "batch", faults=ZONAL_RANDOM, servers=6,
            slo=(QueueWaitObjective(name="wait", window_steps=8),),
        )
        assert_identical(plain, observed)

    def test_autoscale_resize_does_not_perturb_zone_schedule(self):
        # Zone outage draws happen once per zone per step regardless of
        # fleet membership, so commissioning servers mid-run must not move
        # a single outage.  (Per-server *consequences* legitimately differ
        # — the drawn zone schedule must not.)
        _, fixed, _ = run_cluster(
            "batch", faults=ZONAL_RANDOM, servers=6, rate=1.2,
        )
        _, elastic, _ = run_cluster(
            "batch", faults=ZONAL_RANDOM, servers=6, rate=1.2,
            autoscaler=ReactiveThreshold(
                sessions_per_server=3, scale_down_cooldown_steps=8
            ),
            max_servers=10,
        )
        assert any(e.direction == "up" for e in elastic.scaling_events)
        assert self._zone_schedule(fixed) == self._zone_schedule(elastic)


class TestRecoverySemantics:
    def test_migrated_sessions_and_ledger(self):
        _, result, sink = run_cluster("batch", faults=CRASH_ONLY, trace=True)
        assert result.retried > 0
        # Salvaged sessions land under <user>#r<attempt> keys on their
        # replacement server; the crashed server keeps the partial records.
        migrated = [
            key
            for per_server in result.records_by_server
            for key in per_server
            if "#r" in key
        ]
        assert len(migrated) == result.retried
        assert migrated
        # Ledger arithmetic still reconciles.
        assert result.arrivals == (
            result.admitted + result.rejected + result.dropped + result.abandoned
        )
        assert 0 <= result.failed <= result.admitted
        summary = result.summary()
        assert summary.failed == result.failed
        assert summary.retried == result.retried
        assert summary.server_crashes == sum(
            1 for e in result.fault_events if e.kind == "crash"
        )
        assert summary.mean_healthy_servers > 0

    def test_trace_lifecycle_invariant_under_faults(self):
        _, result, sink = run_cluster("batch", faults=MIXED_FAULTS, trace=True)
        spans = [s for s in sink.spans if not s["request"].startswith("server-")]
        arrivals = {s["request"] for s in spans if s["kind"] == "arrival"}
        terminals = {}
        for span in spans:
            if span["kind"] in TERMINAL_KINDS:
                terminals[span["request"]] = terminals.get(span["request"], 0) + 1
        # Exactly one terminal span per arrival, crashes notwithstanding;
        # migrated sessions keep their original user id in the trace.
        assert set(terminals) == arrivals
        assert all(count == 1 for count in terminals.values())
        assert not any("#r" in request for request in terminals)
        failed_spans = [s for s in spans if s["kind"] == "failed"]
        assert len(failed_spans) == result.failed
        retry_dispatches = [
            s for s in spans if s["kind"] == "dispatched" and "retry" in s
        ]
        assert len(retry_dispatches) == result.retried

    def test_zero_retry_budget_sheds_crashed_sessions(self):
        config = FaultConfig(
            crash_mtbf_steps=25.0, crash_mttr_steps=5.0, max_retries=0, seed=9
        )
        _, result, _ = run_cluster("batch", faults=config)
        crashes_with_sessions = sum(
            e.sessions_lost for e in result.fault_events if e.kind == "crash"
        )
        assert crashes_with_sessions > 0
        assert result.retried == 0
        assert result.failed == crashes_with_sessions

    def test_faults_fire_only_in_arrival_window(self):
        duration = 40
        _, result, _ = run_cluster("batch", faults=MIXED_FAULTS, duration=duration)
        assert result.steps > duration  # a drain tail actually ran
        injected = [
            e for e in result.fault_events
            if e.kind in ("crash", "straggler", "warmup_failure")
        ]
        assert injected
        assert all(e.step < duration for e in injected)

    def test_fleet_trace_records_health(self):
        _, result, _ = run_cluster("batch", faults=CRASH_ONLY)
        assert any(s.failed_servers > 0 for s in result.fleet_trace)
        # Capacity comes back: the fleet ends the run with healthy servers.
        assert result.fleet_trace[-1].healthy_servers > 0
        for sample in result.fleet_trace:
            assert sample.healthy_servers <= sample.dispatchable_servers

    def test_warmup_failures_are_retired_not_dispatched(self):
        config = FaultConfig(warmup_failure_rate=1.0, seed=2)
        _, result, _ = run_cluster(
            "batch",
            faults=config,
            rate=1.5,
            autoscaler=ReactiveThreshold(
                sessions_per_server=3, scale_down_cooldown_steps=8
            ),
        )
        failures = [e for e in result.fault_events if e.kind == "warmup_failure"]
        assert failures  # the autoscaler commissioned and every one failed
        # Failed provisions never served: their record maps are empty.
        for event in failures:
            assert result.records_by_server[event.server] == {}


class TestSalvageByCopy:
    """A retry starts from exactly what the dying session had learned."""

    @pytest.fixture(scope="class")
    def knowledge(self):
        return {
            resolution: pretrain_mamut(resolution, frames=300)
            for resolution in (ResolutionClass.HR, ResolutionClass.LR)
        }

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_migration_replaces_pretrained_state(self, engine, knowledge, monkeypatch):
        # A pretrained replacement already holds learned state; the
        # salvage must replace it, not add the dying agents' counts to it.
        salvage_session = cluster_module.snapshot_session
        restore_session = cluster_module.restore_session_state
        at_crash = []
        migrations = []

        def salvage(session, **kwargs):
            salvaged = salvage_session(session, **kwargs)
            at_crash.append((salvaged, snapshot_controller(session.controller)))
            return salvaged

        def restore(controller, salvaged):
            copied = restore_session(controller, salvaged)
            before = next(state for s, state in at_crash if s is salvaged)
            migrations.append((copied, before, snapshot_controller(controller)))
            return copied

        monkeypatch.setattr(cluster_module, "snapshot_session", salvage)
        monkeypatch.setattr(cluster_module, "restore_session_state", restore)
        _, result, _ = run_cluster(
            engine,
            faults=CRASH_ONLY,
            controller_factory=pretrained_mamut_factory(knowledge),
        )
        assert result.retried > 0
        assert len(migrations) == result.retried
        for copied, before, after in migrations:
            assert copied
            assert after == before

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_salvage_serialises_nothing(self, engine, monkeypatch):
        def refuse(*args):
            raise AssertionError("a learned state was serialised inside the run")

        monkeypatch.setattr(persistence, "_state_key", refuse)
        _, result, _ = run_cluster(engine, faults=MIXED_FAULTS)
        assert result.retried > 0


class TestInFlightRegistry:
    """The cluster's in-flight registry holds exactly the running sessions."""

    @staticmethod
    def running(cluster):
        return {
            id(session)
            for orchestrator in cluster.orchestrators
            for session in orchestrator.active_sessions()
        }

    def test_empty_after_a_drained_run(self):
        # Sessions that finish, crash, or migrate all leave the registry.
        cluster, result, _ = run_cluster("batch", faults=MIXED_FAULTS)
        assert result.retried > 0
        assert cluster._inflight == {}

    def test_holds_the_sessions_a_cut_run_left_running(self):
        cluster, result, _ = run_cluster("batch", faults=MIXED_FAULTS, drain=False)
        assert result.retried > 0
        running = self.running(cluster)
        assert running
        assert set(cluster._inflight) == running


class _TaintedWorkload:
    """Wraps a generator, stamping a colliding user id on every arrival."""

    def __init__(self, inner, user_id):
        self._inner = inner
        self._user_id = user_id
        self._count = 0

    @property
    def consumed(self):
        return self._inner.consumed

    def arrivals(self, step):
        for event in self._inner.arrivals(step):
            user_id = f"{self._user_id}.{self._count}"
            self._count += 1
            request = dataclasses.replace(event.request, user_id=user_id)
            yield dataclasses.replace(event, request=request)


class TestRetryKeyGuard:
    """Raw user ids must not collide with ``<user>#r<attempt>`` retry keys."""

    @staticmethod
    def _cluster(user_id, faults):
        workload = _TaintedWorkload(
            WorkloadGenerator(
                PoissonTraffic(2.0), seed=1, playlist_videos=1, frames_per_video=4
            ),
            user_id,
        )
        return ClusterOrchestrator(
            2,
            workload,
            admission=CapacityThreshold(max_sessions_per_server=3, max_queue=6),
            seed=1,
            faults=faults,
        )

    def test_marker_in_user_id_rejected_at_intake(self):
        # "mallory#r2" would collide with retry attempt 2 of user "mallory"
        # in the per-server record maps — refuse it before it can.
        cluster = self._cluster("mallory#r2", CRASH_ONLY)
        with pytest.raises(ClusterError, match="#r"):
            cluster.run(10)

    def test_marker_allowed_when_faults_disabled(self):
        # Without fault injection no retry keys exist, so nothing collides;
        # the pre-fault behavior (any user id) is preserved.
        cluster = self._cluster("mallory#r2", None)
        result = cluster.run(6)
        assert result.admitted > 0


class TestBrownoutAwareAutoscaling:
    @staticmethod
    def signals(step, provisioned, level, active_per_server=1):
        servers = tuple(
            ServerSnapshot(
                server_index=index,
                active_sessions=active_per_server,
                last_power_w=50.0,
                sessions_dispatched=active_per_server,
            )
            for index in range(provisioned)
        )
        snapshot = ClusterSnapshot(
            step=step,
            servers=servers,
            queue_length=0,
            power_cap_w=100.0 * provisioned,
            brownout_level=level,
        )
        return AutoscaleSignals(
            step=step,
            snapshot=snapshot,
            arrivals=0,
            provisioned_servers=provisioned,
            warming_servers=0,
            draining_servers=0,
            min_servers=1,
            max_servers=16,
            brownout_level=level,
        )

    def test_sustained_level_scales_up_exactly_once(self):
        policy = ReactiveThreshold(
            sessions_per_server=4,
            scale_down_cooldown_steps=5,
            brownout_servers_per_level=2,
        )
        first = policy.decide(self.signals(0, provisioned=4, level=1))
        assert first.target_servers == 6
        # The fleet grows to 6; the level persists: hold, do not flap.
        for step in range(1, 10):
            decision = policy.decide(self.signals(step, provisioned=6, level=1))
            assert decision.target_servers == 6

    def test_level_rise_raises_the_target(self):
        policy = ReactiveThreshold(
            sessions_per_server=4,
            scale_down_cooldown_steps=5,
            brownout_servers_per_level=2,
        )
        assert policy.decide(self.signals(0, 4, level=1)).target_servers == 6
        assert policy.decide(self.signals(1, 6, level=2)).target_servers == 8

    def test_no_scale_down_while_browned_out(self):
        policy = ReactiveThreshold(
            sessions_per_server=4,
            scale_down_cooldown_steps=0,
            brownout_servers_per_level=0,
        )
        # Utilization far below the scale-down threshold, but level > 0.
        decision = policy.decide(
            self.signals(20, provisioned=6, level=1, active_per_server=0)
        )
        assert decision.target_servers == 6

    def test_base_resets_between_episodes(self):
        policy = ReactiveThreshold(
            sessions_per_server=4,
            scale_down_cooldown_steps=0,
            brownout_servers_per_level=1,
        )
        assert policy.decide(self.signals(0, 4, level=1)).target_servers == 5
        # Episode clears; fleet shrinks back over time.
        down = policy.decide(self.signals(10, 5, level=0, active_per_server=0))
        assert down.target_servers == 4
        # Next episode is judged from its own base, not the stale one.
        assert policy.decide(self.signals(20, 4, level=1)).target_servers == 5

    def test_queue_pressure_still_wins(self):
        # A real queue fires the ordinary scale-up branch even during
        # brownout (it sizes the move to the backlog).
        policy = ReactiveThreshold(
            sessions_per_server=4, scale_up_queue=4, brownout_servers_per_level=1
        )
        signals = self.signals(0, 4, level=1)
        snapshot = ClusterSnapshot(
            step=0,
            servers=signals.snapshot.servers,
            queue_length=8,
            power_cap_w=400.0,
            brownout_level=1,
        )
        signals = dataclasses.replace(signals, snapshot=snapshot)
        assert policy.decide(signals).target_servers == 6

    def test_orchestrator_passes_level_through(self):
        # End-to-end: a browned-out overloaded fleet with the brownout-aware
        # policy grows beyond what it had at brownout onset.
        autoscaler = ReactiveThreshold(
            sessions_per_server=3,
            scale_down_cooldown_steps=8,
            brownout_servers_per_level=1,
        )
        _, result, _ = run_cluster(
            "batch",
            faults=None,
            rate=2.5,
            servers=2,
            autoscaler=autoscaler,
            brownout=BrownoutController(sessions_per_server=3),
        )
        assert result.summary().brownout_steps > 0
        assert any(e.direction == "up" for e in result.scaling_events)


class TestSummaryRoundTrip:
    def test_fault_fields_round_trip(self):
        _, result, _ = run_cluster("batch", faults=MIXED_FAULTS)
        summary = result.summary()
        clone = ClusterSummary.from_dict(summary.to_dict())
        assert clone == summary
        assert clone.failed == summary.failed
        assert clone.server_crashes == summary.server_crashes

    def test_pre_fault_payloads_still_load(self):
        # A JSON written before the fault fields existed must load with the
        # new fields at their defaults.
        _, result, _ = run_cluster("batch", faults=None, duration=10)
        payload = result.summary().to_dict()
        for key in (
            "failed", "retried", "server_crashes", "stragglers",
            "warmup_failures", "mean_healthy_servers",
        ):
            payload.pop(key)
        loaded = ClusterSummary.from_dict(payload)
        assert loaded.failed == 0
        assert loaded.retried == 0
        assert loaded.server_crashes == 0
        assert loaded.mean_healthy_servers == 0.0
        assert loaded.arrivals == result.arrivals


def recount(cluster, step):
    """The fleet census recounted over every slot, at this moment."""
    slots = cluster._slots
    live = [
        s for s in slots
        if s.state != cluster_module._RETIRED and s.health != cluster_module._FAILED
    ]
    dispatchable = [
        s for s in live
        if s.state == cluster_module._ACTIVE and s.health == cluster_module._HEALTHY
    ]
    offline = [s for s in live if s not in dispatchable]
    warming = [s for s in live if s.state == cluster_module._WARMING]
    return {
        "live_servers": len(live),
        "dispatchable_servers": len(dispatchable),
        "warming_servers": len(warming),
        "draining_servers": sum(s.state == cluster_module._DRAINING for s in live),
        "degraded_servers": sum(s.health == cluster_module._DEGRADED for s in live),
        "failed_servers": sum(
            s.health == cluster_module._FAILED and s.state != cluster_module._RETIRED
            for s in slots
        ),
        "recovering_servers": sum(
            s.health == cluster_module._RECOVERING for s in live
        ),
        "available_domains": len({s.zone for s in dispatchable}),
        "offline_power_w": ordered_sum((s.last_power_w for s in offline), 0.0),
        "warming_ready_in": min(
            (max(0, s.ready_step - step) for s in warming), default=None
        ),
    }


_SAMPLE_COUNTS = (
    "live_servers",
    "dispatchable_servers",
    "warming_servers",
    "draining_servers",
    "degraded_servers",
    "failed_servers",
    "recovering_servers",
    "available_domains",
)
_SNAPSHOT_COUNTS = (
    "warming_servers",
    "degraded_servers",
    "failed_servers",
    "recovering_servers",
    "offline_power_w",
    "warming_ready_in",
)


@st.composite
def chaos_fleets(draw):
    """A 1-6 server autoscaled fleet under every fault mode and brownout."""
    zones = draw(st.integers(1, 3))
    kills = draw(
        st.lists(
            st.builds(
                KillEntry,
                zone=st.integers(0, zones - 1),
                step=st.integers(0, 23),
                duration=st.integers(1, 6),
            ),
            max_size=2,
        )
    )
    faults = FaultConfig(
        crash_mtbf_steps=draw(st.sampled_from([None, 12.0, 40.0])),
        crash_mttr_steps=draw(st.sampled_from([2.0, 6.0])),
        straggler_mtbf_steps=draw(st.sampled_from([None, 8.0, 30.0])),
        straggler_duration_steps=3.0,
        warmup_failure_rate=draw(st.sampled_from([0.0, 0.4])),
        max_retries=draw(st.integers(0, 2)),
        retry_backoff_steps=1,
        seed=draw(st.integers(0, 999)),
        topology=FailureTopology(zones=zones, seed=draw(st.integers(0, 9))),
        zone_mtbf_steps=draw(st.sampled_from([None, 15.0, 40.0])),
        zone_mttr_steps=4.0,
        kill_schedule=KillSchedule(tuple(kills)),
    )
    return {
        "servers": draw(st.integers(1, 6)),
        "autoscaler": draw(st.sampled_from(["reactive", "predictive"])),
        "warmup": draw(st.integers(0, 3)),
        "brownout": draw(st.booleans()),
        "seed": draw(st.integers(0, 999)),
        "faults": faults,
    }


def build_chaos_fleet(engine, fleet):
    """The cluster a :func:`chaos_fleets` draw describes, on ``engine``."""
    workload = WorkloadGenerator(
        FlashCrowdTraffic(0.6, peak_multiplier=5.0, start=4, duration=8),
        seed=fleet["seed"],
        playlist_videos=2,
        frames_per_video=6,
        patience_steps=4,
    )
    if fleet["autoscaler"] == "reactive":
        autoscaler = ReactiveThreshold(sessions_per_server=3, scale_down_cooldown_steps=2)
    else:
        autoscaler = PredictiveScaling(
            sessions_per_server=3, service_steps=12, scale_down_cooldown_steps=2
        )
    return ClusterOrchestrator(
        fleet["servers"],
        workload,
        admission=CapacityThreshold(
            max_sessions_per_server=3, max_queue=6, brownout_extra_sessions=1
        ),
        controller_factory=static_factory(qp=32, threads=2, frequency_ghz=2.4),
        seed=fleet["seed"],
        engine=engine,
        autoscaler=autoscaler,
        max_servers=2 * fleet["servers"] + 2,
        provision_warmup_steps=fleet["warmup"],
        brownout=(
            BrownoutController(sessions_per_server=3, enter_steps=1, exit_steps=2)
            if fleet["brownout"]
            else None
        ),
        faults=fleet["faults"],
    )


def run_census_checked(engine, fleet):
    """Run ``fleet`` on ``engine``, checking every count against a recount.

    Each snapshot admission decides on and each autoscaling signal is
    checked when the policy sees it; each step's fleet sample is checked
    against the recount taken when the step ends.
    """
    cluster = build_chaos_fleet(engine, fleet)

    def check_snapshot(snapshot):
        expected = recount(cluster, snapshot.step)
        assert len(snapshot.servers) == expected["dispatchable_servers"]
        for field in _SNAPSHOT_COUNTS:
            assert getattr(snapshot, field) == expected[field], field

    decide = cluster.admission.decide

    def checked_decide(event, snapshot):
        check_snapshot(snapshot)
        return decide(event, snapshot)

    scale = cluster.autoscaler.decide

    def checked_scale(signals):
        check_snapshot(signals.snapshot)
        expected = recount(cluster, signals.step)
        assert signals.warming_servers == expected["warming_servers"]
        assert signals.draining_servers == expected["draining_servers"]
        assert signals.provisioned_servers == (
            expected["dispatchable_servers"] + expected["warming_servers"]
        )
        return scale(signals)

    cluster.admission.decide = checked_decide
    cluster.autoscaler.decide = checked_scale
    hub = Telemetry()
    recounts = []
    hub.record_step = lambda step: recounts.append(recount(cluster, step))
    result = cluster.run(24, max_drain_steps=30, telemetry=hub)
    assert len(result.fleet_trace) == len(recounts)
    for sample, expected in zip(result.fleet_trace, recounts):
        for field in _SAMPLE_COUNTS:
            assert getattr(sample, field) == expected[field], (sample.step, field)
    return result


class TestFleetCensus:
    """The cached fleet counts equal a recount over the slots at every read."""

    @given(fleet=chaos_fleets())
    @settings(max_examples=30, deadline=None)
    def test_counts_match_a_recount_on_both_engines(self, fleet):
        batch = run_census_checked("batch", fleet)
        scalar = run_census_checked("scalar", fleet)
        assert batch.fleet_trace == scalar.fleet_trace

    def test_the_draws_reach_every_count(self):
        # The recount only guards counts the drawn fleets move: one drawn
        # shape reaches every one of them.
        fleet = {
            "servers": 4,
            "autoscaler": "predictive",
            "warmup": 2,
            "brownout": True,
            "seed": 1,
            "faults": FaultConfig(
                crash_mtbf_steps=12.0,
                crash_mttr_steps=6.0,
                straggler_mtbf_steps=8.0,
                straggler_duration_steps=3.0,
                warmup_failure_rate=0.4,
                max_retries=2,
                retry_backoff_steps=1,
                seed=5,
                topology=FailureTopology(zones=3, seed=1),
                zone_mtbf_steps=15.0,
                zone_mttr_steps=4.0,
                kill_schedule=KillSchedule((KillEntry(zone=1, step=6, duration=4),)),
            ),
        }
        trace = run_census_checked("batch", fleet).fleet_trace
        for field in _SAMPLE_COUNTS:
            assert max(getattr(sample, field) for sample in trace) > 0, field
        assert min(sample.available_domains for sample in trace) < 3

    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_one_snapshot_per_step(self, engine, monkeypatch):
        # The golden chaos run observes brownout, admits, dispatches, queues
        # and autoscales on most steps: the autoscaler's snapshot is derived
        # from the last one admission saw instead of being built again.
        fresh = ClusterOrchestrator.snapshot
        built = collections.Counter()  # step -> snapshot() calls

        def counted(cluster, step, queue_length):
            built[step] += 1
            return fresh(cluster, step, queue_length)

        monkeypatch.setattr(ClusterOrchestrator, "snapshot", counted)
        cluster = cluster_golden.chaos_cluster(engine)
        compared = []
        decide = cluster.autoscaler.decide

        def checked(signals):
            queue = 0 if signals.draining_tail else len(cluster._queue)
            compared.append(signals.snapshot == fresh(cluster, signals.step, queue))
            return decide(signals)

        cluster.autoscaler.decide = checked
        result = cluster.run(60)
        assert max(built.values()) == 1
        assert len(compared) == result.steps and all(compared)


def run_ledger_checked(engine, fleet, max_drain_steps):
    """Run ``fleet`` on ``engine`` with tracing, metrics and an SLO; check
    that the span stream, the mirrored counters and the fleet trace agree
    with the request ledger, and return the spans."""
    cluster = build_chaos_fleet(engine, fleet)
    sink = ListTraceSink()
    telemetry = TelemetryConfig(
        trace_sink=sink, metrics=True, slo=(ShedRateObjective(name="shed"),)
    )
    result = cluster.run(24, max_drain_steps=max_drain_steps, telemetry=telemetry)
    summary = result.summary()
    assert analyze_trace(sink).reconcile(summary) == []
    arrivals = collections.Counter(
        span["request"] for span in sink.spans if span["kind"] == "arrival"
    )
    terminals = collections.Counter(
        span["request"] for span in sink.spans if span["kind"] in TERMINAL_KINDS
    )
    assert terminals == arrivals and set(arrivals.values()) <= {1}
    kinds = collections.Counter(span["kind"] for span in sink.spans)
    for kind in ("rejected", "dropped", "failed", "abandoned"):
        assert kinds[kind] == getattr(result, kind), kind
    metrics = cluster.telemetry.metrics
    published = metrics.scalar_snapshot()
    for name, field in test_telemetry.TestMetrics.LEDGER_COUNTERS.items():
        assert published[name] == getattr(result, field), name
    for name, field in test_telemetry.TestMetrics.FAULT_COUNTERS.items():
        assert published[name] == getattr(summary, field), name
    waits = next(m for m in metrics.collect() if m.name == "repro_queue_wait_steps")
    assert waits.count == result.admitted
    assert sum(sample.arrivals for sample in result.fleet_trace) == result.arrivals
    assert sum(sample.dropped for sample in result.fleet_trace) == result.dropped
    return sink.spans


class TestReconcileFaultFields:
    """``reconcile`` checks the zone outages and degraded dispatches too."""

    #: 4 servers in 3 zones under crash and zone MTBFs, one scheduled zone
    #: kill and brownout: zone outages and degraded dispatches (retries
    #: included) both happen within 24 steps.
    FLEET = {
        "servers": 4,
        "autoscaler": "reactive",
        "warmup": 1,
        "brownout": True,
        "seed": 11,
        "faults": FaultConfig(
            crash_mtbf_steps=12.0,
            crash_mttr_steps=2.0,
            straggler_mtbf_steps=None,
            warmup_failure_rate=0.0,
            max_retries=2,
            retry_backoff_steps=1,
            seed=5,
            topology=FailureTopology(zones=3, seed=3),
            zone_mtbf_steps=15.0,
            zone_mttr_steps=4.0,
            kill_schedule=KillSchedule((KillEntry(zone=1, step=6, duration=3),)),
        ),
    }

    def test_a_summary_the_trace_contradicts_is_named(self):
        sink = ListTraceSink()
        cluster = build_chaos_fleet("batch", self.FLEET)
        summary = cluster.run(24, telemetry=TelemetryConfig(trace_sink=sink)).summary()
        analysis = analyze_trace(sink)
        assert summary.failed_domains > 0
        degraded_requests = sum(lc.degraded for lc in analysis.lifecycles.values())
        assert summary.degraded_sessions > degraded_requests  # retries re-degrade
        assert analysis.reconcile(summary) == []
        for field, label in (
            ("failed_domains", "failed domains"),
            ("degraded_sessions", "degraded sessions"),
        ):
            raised = dataclasses.replace(summary, **{field: getattr(summary, field) + 1})
            mismatches = analysis.reconcile(raised)
            assert len(mismatches) == 1 and mismatches[0].startswith(f"{label}:")


class TestRequestLedger:
    """Each request has one terminal span, counted once: the span stream,
    the Prometheus counters and the fleet trace agree with the ledger."""

    @given(
        fleet=chaos_fleets(), max_drain_steps=st.sampled_from([None, 0, 2])
    )
    @settings(max_examples=40, deadline=None)
    def test_spans_and_counters_match_the_ledger_on_both_engines(
        self, fleet, max_drain_steps
    ):
        batch = run_ledger_checked("batch", fleet, max_drain_steps)
        scalar = run_ledger_checked("scalar", fleet, max_drain_steps)
        assert batch == scalar
