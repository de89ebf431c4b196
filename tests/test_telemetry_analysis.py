"""Trace analytics and artifact provenance (repro.telemetry.analysis/.provenance).

The headline property pinned here: for ANY seeded cluster run — faults on
or off, scalar or batch engine — the view reconstructed purely from the
span stream reconciles exactly with the run's :class:`ClusterSummary`
ledger: terminal counts, retry totals, and the queue-wait population down
to identical mean/max/p50/p95/p99 floats.  The trace and the ledger are
two independent bookkeeping paths through the orchestrator, so agreement
is a strong end-to-end check on both.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import (
    CapacityThreshold,
    ClusterOrchestrator,
    FaultConfig,
    FlashCrowdTraffic,
    WorkloadGenerator,
)
from repro.manager.factories import static_factory
from repro.metrics.aggregate import linear_percentile
from repro.metrics.cluster import ClusterSummary
from repro.telemetry import (
    LatencyStats,
    ListTraceSink,
    TelemetryConfig,
    analyze_trace,
    load_spans,
    provenance_mismatches,
    provenance_of,
    stamp_provenance,
)

FAULTS = FaultConfig(
    crash_mtbf_steps=25.0,
    crash_mttr_steps=5.0,
    max_retries=3,
    retry_backoff_steps=1,
    seed=9,
)


def run_traced(seed: int, engine: str = "scalar", faults: FaultConfig | None = None):
    workload = WorkloadGenerator(
        FlashCrowdTraffic(0.3, peak_multiplier=6.0, start=8, duration=10),
        seed=seed,
        frames_per_video=12,
        patience_steps=8,
    )
    cluster = ClusterOrchestrator(
        3,
        workload,
        admission=CapacityThreshold(max_sessions_per_server=3, max_queue=5),
        controller_factory=static_factory(qp=32, threads=4, frequency_ghz=3.2),
        seed=seed,
        engine=engine,
        faults=faults,
    )
    sink = ListTraceSink()
    result = cluster.run(40, telemetry=TelemetryConfig(trace_sink=sink))
    return sink, result.summary()


# -- lifecycle reconstruction --------------------------------------------------------


class TestLifecycles:
    def test_reconstruction_basics(self):
        sink, summary = run_traced(seed=0)
        analysis = analyze_trace(sink)
        assert analysis.errors == []
        assert analysis.arrivals == summary.arrivals
        assert analysis.span_count == len(sink.spans)
        served = analysis.served()
        assert served and all(l.terminal_kind == "served" for l in served)
        # First-dispatch metadata is populated for everything admitted.
        for lifecycle in served:
            assert lifecycle.queue_wait_steps is not None
            assert lifecycle.server is not None
            assert lifecycle.service_steps >= 0
            assert lifecycle.total_steps >= lifecycle.service_steps

    def test_queued_requests_marked(self):
        sink, _ = run_traced(seed=0)
        analysis = analyze_trace(sink)
        queued = [l for l in analysis.lifecycles.values() if l.queued]
        assert queued
        # A request that waited in the queue has a positive wait when admitted.
        waited_and_served = [
            l for l in queued if l.terminal_kind == "served"
        ]
        assert all(l.queue_wait_steps > 0 for l in waited_and_served)

    def test_truncated_stream_reports_open_lifecycles(self):
        sink, _ = run_traced(seed=0)
        # Chop the stream mid-run: some lifecycles never reach a terminal.
        analysis = analyze_trace(sink.spans[: len(sink.spans) // 2])
        assert any("no terminal span" in error for error in analysis.errors)

    def test_malformed_streams_are_reported_not_fatal(self):
        spans = [
            {"kind": "dispatched", "step": 1, "request": "ghost", "server": 0},
            {"kind": "arrival", "step": 0, "request": "u1", "service_class": "HR"},
            {"kind": "arrival", "step": 1, "request": "u1", "service_class": "HR"},
            {"kind": "served", "step": 5, "request": "u1", "frames": 3,
             "completed": True},
            {"kind": "served", "step": 6, "request": "u1", "frames": 3,
             "completed": True},
        ]
        analysis = analyze_trace(spans)
        assert any("before any arrival" in e for e in analysis.errors)
        assert any("duplicate arrival" in e for e in analysis.errors)
        assert any("after terminal" in e for e in analysis.errors)


class TestRetryAccounting:
    def test_crash_retry_overhead(self):
        sink, summary = run_traced(seed=3, faults=FAULTS)
        analysis = analyze_trace(sink)
        assert summary.server_crashes > 0  # the scenario must exercise faults
        assert analysis.retried == summary.retried
        interrupted = [
            l for l in analysis.lifecycles.values() if l.interruptions > 0
        ]
        assert interrupted
        for lifecycle in interrupted:
            # Retried requests keep their original queue wait and pay the
            # crash gap on top.
            assert lifecycle.retry_wait_steps >= 0
            assert len(lifecycle.servers) == 1 + lifecycle.retries

    def test_fault_timeline_matches_ledger(self):
        sink, summary = run_traced(seed=3, faults=FAULTS)
        analysis = analyze_trace(sink)
        assert analysis.fault_counts().get("crash", 0) == summary.server_crashes
        # Fault markers never leak into per-request lifecycles.
        assert not any(
            request.startswith("server-") for request in analysis.lifecycles
        )


# -- the reconciliation property -----------------------------------------------------


class TestReconciliation:
    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    @pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faulty"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 11, 23])
    def test_trace_reconciles_with_summary(self, seed, engine, faults):
        sink, summary = run_traced(seed=seed, engine=engine, faults=faults)
        analysis = analyze_trace(sink)
        assert analysis.reconcile(summary) == []

    def test_percentiles_match_summary_exactly(self):
        sink, summary = run_traced(seed=2)
        analysis = analyze_trace(sink)
        stats = analysis.wait_stats()
        assert stats.p50 == summary.p50_queue_wait_steps
        assert stats.p95 == summary.p95_queue_wait_steps
        assert stats.p99 == summary.p99_queue_wait_steps
        assert stats.mean == summary.mean_queue_wait_steps
        assert stats.max == summary.max_queue_wait_steps

    def test_mismatch_is_detected(self):
        sink, summary = run_traced(seed=0)
        analysis = analyze_trace(sink)
        doctored = ClusterSummary.from_dict(
            {**summary.to_dict(), "rejected": summary.rejected + 1}
        )
        mismatches = analysis.reconcile(doctored)
        assert any("rejected" in m for m in mismatches)

    def test_class_and_server_slices_partition_the_population(self):
        sink, summary = run_traced(seed=1)
        analysis = analyze_trace(sink)
        by_class = analysis.wait_stats_by_class()
        by_server = analysis.wait_stats_by_server()
        assert sum(s.count for s in by_class.values()) == summary.admitted
        assert sum(s.count for s in by_server.values()) == summary.admitted


# -- span loading and stats ----------------------------------------------------------


class TestLoadSpans:
    def test_jsonl_round_trip(self, tmp_path):
        sink, summary = run_traced(seed=0)
        path = tmp_path / "trace.jsonl"
        with path.open("w") as handle:
            for span in sink.spans:
                handle.write(json.dumps(span) + "\n")
        assert load_spans(str(path)) == sink.spans
        assert analyze_trace(str(path)).reconcile(summary) == []

    def test_bad_jsonl_names_the_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind": "arrival", "step": 0, "request": "u"}\nnot json\n')
        with pytest.raises(ValueError, match="broken.jsonl:2"):
            load_spans(str(path))

    def test_latency_stats_of_values(self):
        stats = LatencyStats.of([0, 1, 2, 3, 4])
        assert stats.count == 5
        assert stats.mean == 2.0
        assert stats.p50 == linear_percentile([0, 1, 2, 3, 4], 50.0) == 2.0
        assert stats.max == 4.0
        empty = LatencyStats.of([])
        assert empty.count == 0 and empty.mean == 0.0

    def test_to_dict_is_json_ready(self):
        sink, _ = run_traced(seed=0)
        digest = analyze_trace(sink).to_dict()
        json.dumps(digest)  # must not raise
        assert digest["arrivals"] > 0
        assert "queue_wait" in digest and "p95" in digest["queue_wait"]


# -- linear_percentile ---------------------------------------------------------------


class TestLinearPercentile:
    def test_matches_known_values(self):
        values = [1, 2, 3, 4]
        assert linear_percentile(values, 0.0) == 1.0
        assert linear_percentile(values, 100.0) == 4.0
        assert linear_percentile(values, 50.0) == 2.5
        assert linear_percentile([5], 75.0) == 5.0
        assert linear_percentile([], 50.0) == 0.0

    def test_order_independent(self):
        assert linear_percentile([3, 1, 2], 50.0) == 2.0

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            linear_percentile([1.0], 101.0)


# -- provenance ----------------------------------------------------------------------


class TestProvenance:
    def payload(self, **overrides):
        base = stamp_provenance(
            {"metric": 1.0}, kind="cluster", seed=7, config={"servers": 3}
        )
        base["provenance"].update(overrides)
        return base

    def test_stamp_and_read_back(self):
        payload = self.payload()
        block = provenance_of(payload)
        assert block["kind"] == "cluster"
        assert block["seed"] == 7
        assert block["config"] == {"servers": 3}
        assert block["schema_version"] >= 1

    def test_identical_runs_are_comparable(self):
        refusals, warnings = provenance_mismatches(self.payload(), self.payload())
        assert refusals == [] and warnings == []

    @pytest.mark.parametrize(
        "field,value",
        [("kind", "faults"), ("seed", 8), ("config", {"servers": 4}),
         ("schema_version", 999)],
    )
    def test_strict_field_difference_refuses(self, field, value):
        refusals, _ = provenance_mismatches(
            self.payload(), self.payload(**{field: value})
        )
        assert any(field in refusal for refusal in refusals)

    def test_environment_difference_only_warns(self):
        refusals, warnings = provenance_mismatches(
            self.payload(), self.payload(python="0.0.0", machine="vax")
        )
        assert refusals == []
        assert len(warnings) == 2

    def test_missing_block_refuses(self):
        refusals, _ = provenance_mismatches({"metric": 1.0}, self.payload())
        assert any("missing provenance" in refusal for refusal in refusals)
