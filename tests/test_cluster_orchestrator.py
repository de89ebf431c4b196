"""End-to-end tests for repro.cluster.cluster.ClusterOrchestrator."""

from __future__ import annotations

import pytest

from repro.errors import ClusterError
from repro.cluster.admission import AlwaysAdmit, CapacityThreshold
from repro.cluster.cluster import ClusterOrchestrator
from repro.cluster.dispatch import DispatchPolicy, PowerAware, RoundRobin
from repro.cluster.workload import PoissonTraffic, WorkloadGenerator
from repro.manager.factories import static_factory


def make_cluster(
    num_servers=2,
    rate=0.5,
    seed=0,
    admission=None,
    dispatcher=None,
    frames_per_video=10,
    **workload_kwargs,
):
    workload = WorkloadGenerator(
        PoissonTraffic(rate),
        seed=seed,
        frames_per_video=frames_per_video,
        **workload_kwargs,
    )
    return ClusterOrchestrator(
        num_servers,
        workload,
        admission=admission,
        dispatcher=dispatcher,
        controller_factory=static_factory(qp=32, threads=4, frequency_ghz=3.2),
        seed=seed,
    )


class TestClusterRun:
    def test_every_admitted_request_lands_on_exactly_one_server(self):
        result = make_cluster(num_servers=3, rate=1.0).run(40)
        placements: dict[str, int] = {}
        for index, records in enumerate(result.records_by_server):
            for session_id in records:
                assert session_id not in placements, "session served by two servers"
                placements[session_id] = index
        assert len(placements) == result.admitted

    def test_admission_ledger_is_complete(self):
        result = make_cluster(num_servers=2, rate=1.5).run(40)
        assert result.arrivals == result.admitted + result.rejected + result.abandoned
        assert result.admitted > 0

    def test_same_seed_identical_summary(self):
        a = make_cluster(seed=11).run(30).summary()
        b = make_cluster(seed=11).run(30).summary()
        assert a == b

    def test_drain_finishes_every_admitted_playlist(self):
        result = make_cluster(rate=1.0, frames_per_video=12).run(25, drain=True)
        for records in result.records_by_server:
            for session_id, session_records in records.items():
                assert len(session_records) == 12, session_id

    def test_no_drain_stops_at_the_arrival_window(self):
        result = make_cluster(rate=1.0).run(25, drain=False)
        assert result.steps == 25
        assert all(len(trace) == 25 for trace in result.samples_by_server)

    def test_max_drain_steps_bounds_the_tail(self):
        result = make_cluster(rate=1.0, frames_per_video=50).run(
            10, drain=True, max_drain_steps=5
        )
        assert result.steps == 15

    def test_every_server_samples_every_step(self):
        result = make_cluster(num_servers=3, rate=0.3).run(20)
        lengths = {len(trace) for trace in result.samples_by_server}
        assert lengths == {result.steps}

    def test_idle_fleet_still_draws_power(self):
        result = make_cluster(rate=0.0).run(15)
        summary = result.summary()
        assert summary.admitted == 0
        assert summary.fleet_mean_power_w > 0
        assert summary.watts_per_session == 0.0
        assert all(server.utilization == 0.0 for server in summary.servers)

    def test_tight_capacity_rejects_overload(self):
        cluster = make_cluster(
            num_servers=1,
            rate=2.0,
            admission=CapacityThreshold(max_sessions_per_server=1, max_queue=1),
            frames_per_video=30,
        )
        summary = cluster.run(40).summary()
        assert summary.rejected > 0
        assert summary.rejection_rate > 0.0

    def test_queue_waits_are_recorded(self):
        cluster = make_cluster(
            num_servers=1,
            rate=1.5,
            admission=CapacityThreshold(max_sessions_per_server=1, max_queue=8),
            frames_per_video=6,
        )
        result = cluster.run(40)
        assert any(wait > 0 for wait in result.queue_waits)
        assert all(wait >= 0 for wait in result.queue_waits)
        assert len(result.queue_waits) == result.admitted

    def test_always_admit_overloads_the_fleet(self):
        cluster = make_cluster(
            num_servers=1, rate=2.0, admission=AlwaysAdmit(), frames_per_video=20
        )
        result = cluster.run(20)
        assert result.rejected == 0
        assert result.admitted == result.arrivals

    def test_round_robin_spreads_evenly(self):
        cluster = make_cluster(
            num_servers=2,
            rate=1.0,
            admission=AlwaysAdmit(),
            dispatcher=RoundRobin(),
        )
        result = cluster.run(30)
        counts = [len(records) for records in result.records_by_server]
        assert abs(counts[0] - counts[1]) <= 1

    def test_power_aware_dispatch_runs(self):
        summary = make_cluster(dispatcher=PowerAware(), rate=1.0).run(20).summary()
        assert summary.admitted > 0

    def test_invalid_dispatch_index_raises(self):
        class Broken(DispatchPolicy):
            def select(self, event, snapshot):
                return 99

        cluster = make_cluster(rate=5.0, dispatcher=Broken())
        with pytest.raises(ClusterError):
            cluster.run(5)

    def test_num_servers_validated(self):
        workload = WorkloadGenerator(PoissonTraffic(1.0))
        with pytest.raises(ClusterError):
            ClusterOrchestrator(0, workload)

    def test_negative_duration_rejected(self):
        with pytest.raises(ClusterError):
            make_cluster().run(-1)

    def test_negative_drain_bound_rejected_before_the_first_step(self):
        # A bound below 0 used to end the tail at once, like 0.
        cluster = make_cluster(rate=2.0)
        with pytest.raises(ClusterError, match="max_drain_steps"):
            cluster.run(10, max_drain_steps=-1)
        assert not any(orch.sessions for orch in cluster.orchestrators)
        assert not cluster.workload.consumed

    def test_consumed_workload_rejected(self):
        # Reusing a workload generator would continue its random stream
        # instead of reproducing the trace — refuse it loudly.
        workload = WorkloadGenerator(PoissonTraffic(1.0), seed=0, frames_per_video=6)
        workload.generate(5)
        cluster = ClusterOrchestrator(
            1, workload, controller_factory=static_factory(32, 4, 3.2)
        )
        with pytest.raises(ClusterError):
            cluster.run(5)

    def test_second_run_rejected(self):
        # Per-server orchestrators keep their sessions, so reuse would mix
        # the runs' records; the orchestrator is single-use.
        cluster = make_cluster()
        cluster.run(10)
        with pytest.raises(ClusterError):
            cluster.run(10)


class TestSnapshot:
    def test_snapshot_reflects_fleet_state(self):
        cluster = make_cluster(num_servers=2, rate=1.0)
        before = cluster.snapshot(step=0, queue_length=3)
        assert before.num_servers == 2
        assert before.queue_length == 3
        assert before.total_active_sessions == 0
        assert before.fleet_power_w > 0  # idle draw
        cluster.run(10, drain=False)
        after = cluster.snapshot(step=10, queue_length=0)
        assert sum(s.sessions_dispatched for s in after.servers) > 0
