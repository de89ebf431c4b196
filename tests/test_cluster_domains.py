"""Failure domains and checkpointed recovery: the topology-aware units.

Covers the pieces under the correlated-failure machinery exercised
end-to-end in ``test_cluster_faults.py``:

* :class:`FailureTopology` — balanced, seeded, growth-stable ``(zone,
  rack)`` assignment of roster slots;
* :class:`KillEntry` / :class:`KillSchedule` — declarative zone kills,
  their spec parser and validation;
* :class:`FaultConfig` — validation of the new domain/checkpoint fields
  and the extended ``enabled`` contract;
* :class:`FaultInjector` — schedule-free scheduled kills, seeded zone
  outage draws on the dedicated domain substream;
* checkpointed sessions — recomputation bounded by the interval, the
  metered write cost, and the salvage/resume round trip through the
  cluster.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    CapacityThreshold,
    ClusterOrchestrator,
    FailureAware,
    FailureTopology,
    FaultConfig,
    FaultInjector,
    KillEntry,
    KillSchedule,
    PoissonTraffic,
    WorkloadGenerator,
)
from repro.errors import ClusterError
from repro.manager.factories import static_factory


class TestFailureTopology:
    def test_single_zone_default(self):
        topology = FailureTopology()
        assert topology.domain_of(0) == (0, 0)
        assert topology.domain_of(7) == (0, 0)

    def test_zones_balanced_in_every_block(self):
        topology = FailureTopology(zones=3, racks_per_zone=2, seed=4)
        for block in range(4):
            zones = {topology.domain_of(block * 3 + pos)[0] for pos in range(3)}
            assert zones == {0, 1, 2}

    def test_assignment_is_deterministic_and_growth_stable(self):
        a = FailureTopology(zones=4, racks_per_zone=2, seed=9)
        b = FailureTopology(zones=4, racks_per_zone=2, seed=9)
        # Same seed -> same layout; a slot's domain never depends on how
        # many other slots exist (autoscale growth cannot re-shard zones).
        assert [a.domain_of(i) for i in range(16)] == [
            b.domain_of(i) for i in range(16)
        ]

    def test_seed_shuffles_layout(self):
        layouts = {
            tuple(
                FailureTopology(zones=4, seed=seed).domain_of(i)[0]
                for i in range(8)
            )
            for seed in range(6)
        }
        assert len(layouts) > 1

    def test_racks_cycle_per_block(self):
        topology = FailureTopology(zones=2, racks_per_zone=3, seed=0)
        racks = [topology.domain_of(i)[1] for i in range(12)]
        assert racks == [0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]

    def test_rejects_bad_values(self):
        with pytest.raises(ClusterError):
            FailureTopology(zones=0)
        with pytest.raises(ClusterError):
            FailureTopology(racks_per_zone=0)
        with pytest.raises(ClusterError):
            FailureTopology().domain_of(-1)


class TestKillSchedule:
    def test_entry_validation(self):
        with pytest.raises(ClusterError):
            KillEntry(zone=-1, step=0, duration=1)
        with pytest.raises(ClusterError):
            KillEntry(zone=0, step=-1, duration=1)
        with pytest.raises(ClusterError):
            KillEntry(zone=0, step=0, duration=0)

    def test_at_step_preserves_declaration_order(self):
        schedule = KillSchedule(
            (
                KillEntry(zone=2, step=5, duration=3),
                KillEntry(zone=0, step=5, duration=4),
                KillEntry(zone=1, step=9, duration=2),
            )
        )
        assert [e.zone for e in schedule.at_step(5)] == [2, 0]
        assert schedule.at_step(6) == ()
        assert bool(schedule)
        assert not KillSchedule()

    def test_parse_round_trip(self):
        schedule = KillSchedule.parse(["1:6:8", "0:12:4"])
        assert schedule.entries == (
            KillEntry(zone=1, step=6, duration=8),
            KillEntry(zone=0, step=12, duration=4),
        )

    @pytest.mark.parametrize("spec", ["1:6", "1:6:8:2", "a:6:8", "1::8", ""])
    def test_parse_rejects_malformed_specs(self, spec):
        with pytest.raises(ClusterError):
            KillSchedule.parse([spec])


class TestDomainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ClusterError):
            FaultConfig(zone_mtbf_steps=0.0)
        with pytest.raises(ClusterError):
            FaultConfig(zone_mttr_steps=-1.0)
        with pytest.raises(ClusterError):
            FaultConfig(checkpoint_interval_frames=0)
        with pytest.raises(ClusterError):
            FaultConfig(checkpoint_power_w=-1.0)

    def test_kill_zone_must_exist_in_topology(self):
        with pytest.raises(ClusterError, match="zone 3"):
            FaultConfig(
                topology=FailureTopology(zones=3),
                kill_schedule=KillSchedule((KillEntry(zone=3, step=0, duration=1),)),
            )
        # Without a topology the fleet is one zone: only zone 0 exists.
        with pytest.raises(ClusterError, match="zone 2"):
            FaultConfig(
                kill_schedule=KillSchedule((KillEntry(zone=2, step=5, duration=3),)),
                seed=1,
            )
        FaultConfig(kill_schedule=KillSchedule((KillEntry(zone=0, step=5, duration=3),)))

    def test_enabled_reflects_domain_modes(self):
        assert FaultConfig(zone_mtbf_steps=20.0).enabled
        assert FaultConfig(
            kill_schedule=KillSchedule((KillEntry(zone=0, step=1, duration=1),))
        ).enabled
        assert FaultConfig(checkpoint_interval_frames=4).enabled
        # An empty schedule or a bare topology enables nothing.
        assert not FaultConfig(kill_schedule=KillSchedule()).enabled
        assert not FaultConfig(topology=FailureTopology(zones=3)).enabled


class TestInjectorDomainDraws:
    def test_scheduled_kills_consume_no_draws(self):
        schedule = KillSchedule((KillEntry(zone=0, step=3, duration=2),))
        a = FaultInjector(FaultConfig(kill_schedule=schedule, seed=1))
        b = FaultInjector(FaultConfig(kill_schedule=schedule, seed=999))
        for step in range(6):
            assert a.scheduled_kills(step) == b.scheduled_kills(step)
        assert a.scheduled_kills(3) == schedule.entries

    def test_zone_outage_draws_are_seeded(self):
        config = FaultConfig(
            topology=FailureTopology(zones=3, seed=5),
            zone_mtbf_steps=5.0,
            zone_mttr_steps=4.0,
            seed=5,
        )
        injector_a, injector_b = FaultInjector(config), FaultInjector(config)
        schedule_a = [injector_a.zone_outages() for _ in range(30)]
        schedule_b = [injector_b.zone_outages() for _ in range(30)]
        assert schedule_a == schedule_b
        hits = [outage for step in schedule_a for outage in step]
        assert hits  # MTBF 5 over 30 steps: the schedule actually fires
        assert all(0 <= zone < 3 and downtime >= 1 for zone, downtime in hits)

    def test_zone_draws_independent_of_server_stream(self):
        # Consuming per-server draws must not move the zonal schedule: the
        # two live on separate substreams of the same fault seed.
        config = FaultConfig(
            crash_mtbf_steps=3.0,
            topology=FailureTopology(zones=2, seed=8),
            zone_mtbf_steps=6.0,
            seed=8,
        )
        quiet, noisy = FaultInjector(config), FaultInjector(config)
        quiet_schedule, noisy_schedule = [], []
        for _ in range(25):
            quiet_schedule.append(quiet.zone_outages())
            for _ in range(10):  # a big fleet burning per-server draws
                noisy.crashes()
            noisy_schedule.append(noisy.zone_outages())
        assert quiet_schedule == noisy_schedule


def run_zonal(checkpoint_interval, *, duration=36, frames_per_video=16):
    """One pinned single-zone kill on a 6-server/3-zone fleet."""
    workload = WorkloadGenerator(
        PoissonTraffic(0.7),
        seed=3,
        playlist_videos=2,
        frames_per_video=frames_per_video,
        patience_steps=10,
    )
    cluster = ClusterOrchestrator(
        6,
        workload,
        admission=CapacityThreshold(max_sessions_per_server=3, max_queue=6),
        dispatcher=FailureAware(),
        controller_factory=static_factory(32, 4, 3.2),
        seed=3,
        faults=FaultConfig(
            max_retries=3,
            retry_backoff_steps=1,
            seed=7,
            topology=FailureTopology(zones=3, racks_per_zone=2, seed=7),
            kill_schedule=KillSchedule((KillEntry(zone=1, step=12, duration=6),)),
            checkpoint_interval_frames=checkpoint_interval,
        ),
    )
    return cluster.run(duration)


class TestCheckpointedRecovery:
    def test_recomputation_bounded_by_interval(self):
        interval = 4
        without = run_zonal(None)
        with_ckpt = run_zonal(interval)
        assert with_ckpt.retried > 0
        # Every retry resumes from the last multiple of the interval, so
        # it recomputes at most interval - 1 frames.
        assert with_ckpt.recomputed_frames <= with_ckpt.retried * (interval - 1)
        assert with_ckpt.recomputed_frames < without.recomputed_frames

    def test_checkpoint_cost_is_metered(self):
        without = run_zonal(None)
        with_ckpt = run_zonal(4)
        assert without.checkpoint_writes == 0
        assert without.checkpoint_energy_j == 0.0
        assert with_ckpt.checkpoint_writes > 0
        assert with_ckpt.checkpoint_energy_j > 0.0
        # The modeled bandwidth cost lands in the power traces.
        assert (
            with_ckpt.summary().fleet_energy_j > without.summary().fleet_energy_j
        )

    def test_summary_carries_checkpoint_ledger(self):
        result = run_zonal(4)
        summary = result.summary()
        assert summary.recomputed_frames == result.recomputed_frames
        assert summary.checkpoint_writes == result.checkpoint_writes
        assert summary.checkpoint_energy_j == pytest.approx(
            result.checkpoint_energy_j
        )

    def test_checkpoint_only_config_is_benign(self):
        # Checkpointing with no fault mode that can crash anything: writes
        # are metered but nothing retries and nothing fails.
        workload = WorkloadGenerator(
            PoissonTraffic(0.5), seed=2, playlist_videos=1, frames_per_video=8
        )
        cluster = ClusterOrchestrator(
            2,
            workload,
            admission=CapacityThreshold(max_sessions_per_server=3, max_queue=6),
            seed=2,
            faults=FaultConfig(checkpoint_interval_frames=4),
        )
        result = cluster.run(20)
        assert result.checkpoint_writes > 0
        assert result.retried == 0
        assert result.failed == 0
        assert result.recomputed_frames == 0


class TestFailureAwareRouting:
    def test_retries_leave_the_lost_zone(self):
        # With failure-aware routing, every re-dispatch of a session lost
        # to the zone-1 kill lands outside zone 1 (capacity permitting:
        # 4 of 6 servers, 2 zones, stay up).
        result = run_zonal(4)
        assert result.retried > 0
        zone_of = {}
        for event in result.fault_events:
            if event.kind == "crash":
                zone_of[event.server] = event.zone
        retry_records = [
            (server_index, key)
            for server_index, per_server in enumerate(result.records_by_server)
            for key in per_server
            if "#r" in key
        ]
        assert retry_records
        topology = FailureTopology(zones=3, racks_per_zone=2, seed=7)
        for server_index, _ in retry_records:
            assert topology.domain_of(server_index)[0] != 1
