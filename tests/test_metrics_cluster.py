"""Unit tests for repro.metrics.cluster aggregation."""

from __future__ import annotations

import pytest

from repro.metrics.cluster import ClusterResult, ClusterSummary, summarize_cluster
from repro.metrics.records import FleetSample, FrameRecord, PowerSample, ScalingEvent
from repro.video.sequence import ResolutionClass


def record(session_id, step, fps, target_fps=24.0):
    return FrameRecord(
        session_id=session_id,
        step=step,
        video_name="Synthetic",
        frame_index=step,
        resolution_class=ResolutionClass.HR,
        qp=32,
        threads=4,
        frequency_ghz=3.2,
        fps=fps,
        psnr_db=40.0,
        bitrate_mbps=4.0,
        encode_time_s=1.0 / max(fps, 1e-6),
        power_w=80.0,
        target_fps=target_fps,
    )


def sample(step, power_w, active, duration_s=0.04):
    return PowerSample(
        step=step, power_w=power_w, duration_s=duration_s, active_sessions=active
    )


def fleet_sample(
    step,
    live,
    *,
    dispatchable=None,
    warming=0,
    draining=0,
    queue=0,
    frames=0,
    violations=0,
):
    return FleetSample(
        step=step,
        live_servers=live,
        dispatchable_servers=dispatchable if dispatchable is not None else live,
        warming_servers=warming,
        draining_servers=draining,
        queue_length=queue,
        arrivals=0,
        active_sessions=0,
        frames=frames,
        qos_violations=violations,
    )


class TestSummarizeCluster:
    def test_two_server_aggregation(self):
        records_a = {"u0": [record("u0", 0, fps=30.0), record("u0", 1, fps=20.0)]}
        records_b = {}
        samples_a = [sample(0, 100.0, 1), sample(1, 100.0, 1)]
        samples_b = [sample(0, 20.0, 0), sample(1, 20.0, 0)]

        summary = summarize_cluster(
            ClusterResult(
                [records_a, records_b],
                [samples_a, samples_b],
                arrivals=4,
                admitted=1,
                rejected=2,
                abandoned=1,
                queue_waits=[0],
                steps=2,
            )
        )

        assert summary.num_servers == 2
        assert summary.frames == 2
        assert summary.rejection_rate == pytest.approx(0.5)
        assert summary.fleet_mean_power_w == pytest.approx(120.0)
        assert summary.mean_active_sessions == pytest.approx(1.0)
        assert summary.watts_per_session == pytest.approx(120.0)
        assert summary.qos_violation_pct == pytest.approx(50.0)  # 20 fps < 24
        assert summary.mean_fps == pytest.approx(25.0)

        busy, idle = summary.servers
        assert busy.utilization == pytest.approx(1.0)
        assert busy.sessions_served == 1
        assert idle.utilization == 0.0
        assert idle.sessions_served == 0
        assert idle.mean_power_w == pytest.approx(20.0)

    def test_queue_wait_statistics(self):
        summary = summarize_cluster(
            ClusterResult(
                [{}],
                [[sample(0, 10.0, 0)]],
                arrivals=3,
                admitted=3,
                rejected=0,
                abandoned=0,
                queue_waits=[0, 2, 4],
                steps=1,
            )
        )
        assert summary.mean_queue_wait_steps == pytest.approx(2.0)
        assert summary.max_queue_wait_steps == 4

    def test_empty_run(self):
        summary = summarize_cluster(
            ClusterResult(
                [{}, {}],
                [[], []],
                arrivals=0,
                admitted=0,
                rejected=0,
                abandoned=0,
                queue_waits=[],
                steps=0,
            )
        )
        assert summary.rejection_rate == 0.0
        assert summary.fleet_mean_power_w == 0.0
        assert summary.watts_per_session == 0.0
        assert summary.mean_fps == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            summarize_cluster(
                ClusterResult(
                    [{}],
                    [[], []],
                    arrivals=0,
                    admitted=0,
                    rejected=0,
                    abandoned=0,
                    queue_waits=[],
                    steps=0,
                )
            )

    def test_late_commissioned_server_aligns_by_sample_step(self):
        # Server 1 joins at step 1: per-step fleet power must sum by the
        # samples' step field, not by list position.
        samples_a = [sample(0, 100.0, 1), sample(1, 100.0, 1)]
        samples_b = [sample(1, 20.0, 0)]
        summary = summarize_cluster(
            ClusterResult(
                [{}, {}],
                [samples_a, samples_b],
                arrivals=0,
                admitted=0,
                rejected=0,
                abandoned=0,
                queue_waits=[],
                steps=2,
            )
        )
        # Step 0: 100 W; step 1: 120 W.
        assert summary.fleet_mean_power_w == pytest.approx(110.0)


class TestElasticityMetrics:
    def summarize(self, **kwargs):
        return summarize_cluster(
            ClusterResult(
                [{}],
                [[sample(0, 10.0, 0)]],
                arrivals=0,
                admitted=0,
                rejected=0,
                abandoned=0,
                queue_waits=[],
                steps=4,
                **kwargs,
            )
        )

    def test_defaults_without_a_trace(self):
        summary = self.summarize()
        assert summary.scale_up_events == 0
        assert summary.mean_fleet_size == pytest.approx(1.0)
        assert summary.peak_fleet_size == 1
        assert summary.transient_steps == 0

    def test_scaling_event_counters(self):
        events = [
            ScalingEvent(2, "up", 2, 1, 3, "ReactiveThreshold", "queue"),
            ScalingEvent(9, "down", 1, 3, 2, "ReactiveThreshold", "idle"),
        ]
        summary = self.summarize(scaling_events=events)
        assert summary.scale_up_events == 1
        assert summary.scale_down_events == 1
        assert summary.servers_added == 2
        assert summary.servers_removed == 1

    def test_fleet_trace_aggregates(self):
        trace = [
            fleet_sample(0, 1, queue=0, frames=4),
            fleet_sample(1, 2, warming=1, queue=3, frames=4, violations=2),
            fleet_sample(2, 2, queue=1, frames=6, violations=1),
            fleet_sample(3, 3, draining=1, queue=1, frames=6, violations=1),
        ]
        summary = self.summarize(fleet_trace=trace)
        assert summary.mean_fleet_size == pytest.approx(2.0)
        assert summary.peak_fleet_size == 3
        assert summary.mean_queue_length == pytest.approx(1.25)
        assert summary.transient_steps == 2
        assert summary.transient_mean_queue_length == pytest.approx(2.0)
        # 3 violations over 10 frames during the two transient steps.
        assert summary.transient_qos_violation_pct == pytest.approx(30.0)


class TestSummarySerialization:
    def summarize(self):
        return summarize_cluster(
            ClusterResult(
                [{"u0": [record("u0", s, 25.0) for s in range(4)]}, {}],
                [[sample(s, 80.0, 1) for s in range(4)], [sample(s, 20.0, 0) for s in range(4)]],
                arrivals=5,
                admitted=1,
                rejected=2,
                abandoned=1,
                dropped=1,
                queue_waits=[0, 3],
                steps=4,
                scaling_events=[ScalingEvent(2, "up", 1, 1, 2, "ReactiveThreshold", "queue")],
                fleet_trace=[fleet_sample(s, 2, queue=s % 2, frames=1) for s in range(4)],
                degraded_sessions=1,
                brownout_steps=2,
            )
        )

    def test_to_dict_is_json_ready(self):
        import json

        data = self.summarize().to_dict()
        assert json.loads(json.dumps(data)) == data
        assert isinstance(data["servers"], list)
        assert data["servers"][0]["server_index"] == 0
        assert data["arrivals"] == 5

    def test_round_trip(self):
        summary = self.summarize()
        assert ClusterSummary.from_dict(summary.to_dict()) == summary

    def test_from_dict_ignores_unknown_keys(self):
        """Benchmark payloads carry derived extras next to the summary fields."""
        data = self.summarize().to_dict()
        data["mean_psnr_db"] = 36.2
        data["servers"][0]["favourite_colour"] = "green"
        summary = ClusterSummary.from_dict(data)
        assert summary == self.summarize()

    def test_pre_domain_payloads_still_load(self):
        """Summary artifacts written before failure domains existed load
        with the domain/checkpoint ledger at its zero defaults, so
        ``repro obs compare`` keeps working against archived baselines."""
        data = self.summarize().to_dict()
        for key in (
            "failed_domains",
            "recomputed_frames",
            "checkpoint_writes",
            "checkpoint_energy_j",
            "mean_available_domains",
        ):
            data.pop(key)
        summary = ClusterSummary.from_dict(data)
        assert summary == self.summarize()
        assert summary.failed_domains == 0
        assert summary.recomputed_frames == 0
        assert summary.checkpoint_writes == 0
        assert summary.checkpoint_energy_j == 0.0
        assert summary.mean_available_domains == 0.0
