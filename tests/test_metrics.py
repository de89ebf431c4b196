"""Unit tests for repro.metrics."""

from __future__ import annotations

import pytest

from repro.metrics.aggregate import summarize_experiment, summarize_session
from repro.metrics.qos import qos_violation_pct, violations
from repro.metrics.records import FrameRecord, PowerSample
from repro.metrics.report import format_table
from repro.video.sequence import ResolutionClass


def record(step=0, fps=25.0, psnr=36.0, bitrate=4.0, power=80.0, threads=8, freq=2.9, qp=32,
           session_id="s0", resolution=ResolutionClass.HR, target=24.0) -> FrameRecord:
    return FrameRecord(
        session_id=session_id,
        step=step,
        video_name="Test",
        frame_index=step,
        resolution_class=resolution,
        qp=qp,
        threads=threads,
        frequency_ghz=freq,
        fps=fps,
        psnr_db=psnr,
        bitrate_mbps=bitrate,
        encode_time_s=1.0 / fps,
        power_w=power,
        target_fps=target,
    )


class TestQos:
    def test_violation_flag(self):
        assert record(fps=23.9).is_violation
        assert not record(fps=24.0).is_violation

    def test_violations_count(self):
        records = [record(fps=f) for f in (20.0, 23.0, 25.0, 30.0)]
        assert violations(records) == 2

    def test_violation_percentage(self):
        records = [record(fps=f) for f in (20.0, 25.0, 25.0, 25.0)]
        assert qos_violation_pct(records) == pytest.approx(25.0)
        assert qos_violation_pct([]) == 0.0


class TestSessionSummary:
    def test_averages(self):
        records = [record(step=i, fps=24.0 + i, threads=6 + i, qp=30 + i) for i in range(4)]
        summary = summarize_session("s0", records)
        assert summary.frames == 4
        assert summary.mean_fps == pytest.approx(25.5)
        assert summary.mean_threads == pytest.approx(7.5)
        assert summary.mean_qp == pytest.approx(31.5)
        assert summary.qos_violation_pct == 0.0
        assert summary.resolution_class is ResolutionClass.HR

    def test_empty_session_rejected(self):
        with pytest.raises(ValueError):
            summarize_session("s0", [])


class TestExperimentSummary:
    def test_aggregates_sessions_and_power(self):
        records = {
            "a": [record(session_id="a", fps=30.0)],
            "b": [record(session_id="b", fps=20.0, resolution=ResolutionClass.LR)],
        }
        samples = [PowerSample(step=0, power_w=100.0, duration_s=0.05, active_sessions=2)]
        summary = summarize_experiment(records, samples)
        assert summary.mean_power_w == pytest.approx(100.0)
        assert summary.energy_j == pytest.approx(5.0)
        assert summary.qos_violation_pct == pytest.approx(50.0)
        assert len(summary.sessions_by_class(ResolutionClass.LR)) == 1

    def test_time_weighted_power_average(self):
        records = {"a": [record()]}
        samples = [
            PowerSample(0, 100.0, 1.0, 1),
            PowerSample(1, 50.0, 3.0, 1),
        ]
        summary = summarize_experiment(records, samples)
        assert summary.mean_power_w == pytest.approx((100.0 + 150.0) / 4.0)

    def test_empty_experiment_rejected(self):
        with pytest.raises(ValueError):
            summarize_experiment({}, [])


class TestReport:
    def test_format_table_alignment_and_floats(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.234], ["beta", 10.0]],
            float_format="{:.2f}",
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.23" in text
        assert "10.00" in text
        assert len(lines) == 4

    def test_format_table_handles_non_floats(self):
        text = format_table(["a", "b"], [["x", 3], ["y", "z"]])
        assert "x" in text and "z" in text
