"""Telemetry subsystem: tracing, metrics, profiler, and the no-op contract.

The load-bearing guarantees pinned here:

* **Lifecycle completeness** — every workload arrival ends in exactly one
  terminal span (served / rejected / dropped / abandoned), and the terminal
  counts reconcile with the :class:`~repro.metrics.cluster.ClusterSummary`
  admission ledger.
* **Seed-neutrality** — enabling any telemetry component changes nothing
  about the simulation: summaries are identical with telemetry on and off,
  and the scalar and batch engines emit the *same* span stream.
* **Determinism** — histograms use fixed bucket edges and the Prometheus
  rendering is byte-stable across identical runs.
* **Disabled mode is a no-op** — ``telemetry=None``, a default config and
  the shared disabled hub all produce bitwise-identical results.
"""

from __future__ import annotations

import io
import json
import logging
import math
from collections import Counter as TallyCounter

import pytest

from repro.cluster import (
    BrownoutController,
    CapacityThreshold,
    ClusterOrchestrator,
    FailureTopology,
    FaultConfig,
    FlashCrowdTraffic,
    KillEntry,
    KillSchedule,
    WorkloadGenerator,
)
from repro.errors import ConfigurationError
from repro.manager.factories import static_factory
from repro.telemetry import (
    TERMINAL_KINDS,
    Counter,
    Gauge,
    Histogram,
    JsonlTraceSink,
    ListTraceSink,
    MetricsRegistry,
    NULL_PROFILER,
    NULL_REGISTRY,
    NULL_TRACER,
    RequestTracer,
    StepProfiler,
    Telemetry,
    TelemetryConfig,
    TimeSeriesRecorder,
    configure_logging,
    resolve_telemetry,
)
from repro.telemetry.metrics import QUEUE_WAIT_EDGES

SEED = 0
DURATION = 30


def make_cluster(seed: int = SEED) -> ClusterOrchestrator:
    """A flash-crowd scenario that exercises every terminal outcome.

    With this seed the run produces admitted, rejected, dropped *and*
    abandoned requests (asserted below), so one trace covers the whole
    lifecycle state machine.
    """
    workload = WorkloadGenerator(
        FlashCrowdTraffic(0.3, peak_multiplier=6.0, start=8, duration=10),
        seed=seed,
        frames_per_video=12,
        patience_steps=8,
    )
    return ClusterOrchestrator(
        2,
        workload,
        admission=CapacityThreshold(max_sessions_per_server=3, max_queue=5),
        controller_factory=static_factory(qp=32, threads=4, frequency_ghz=3.2),
        seed=seed,
    )


def make_faulty_cluster(seed: int = SEED) -> ClusterOrchestrator:
    """``make_cluster``'s flash crowd on a browned-out fleet under faults.

    With this seed and fault seed the run crashes servers, throttles one,
    loses a zone and fails and retries requests, and it also rejects,
    drops and degrades some (asserted where it is used).
    """
    workload = WorkloadGenerator(
        FlashCrowdTraffic(0.3, peak_multiplier=6.0, start=8, duration=10),
        seed=seed,
        frames_per_video=12,
        patience_steps=8,
    )
    return ClusterOrchestrator(
        3,
        workload,
        admission=CapacityThreshold(
            max_sessions_per_server=3, max_queue=5, brownout_extra_sessions=1
        ),
        controller_factory=static_factory(qp=32, threads=4, frequency_ghz=3.2),
        seed=seed,
        brownout=BrownoutController(sessions_per_server=3, enter_steps=2, exit_steps=3),
        faults=FaultConfig(
            crash_mtbf_steps=30.0,
            straggler_mtbf_steps=30.0,
            max_retries=1,
            retry_backoff_steps=1,
            seed=2,
            topology=FailureTopology(zones=2, seed=2),
            kill_schedule=KillSchedule((KillEntry(zone=0, step=20, duration=4),)),
            checkpoint_interval_frames=4,
        ),
    )


def run_traced(engine_seed: int = SEED, **config_kwargs):
    sink = config_kwargs.pop("sink", None) or ListTraceSink()
    cluster = make_cluster(engine_seed)
    result = cluster.run(
        DURATION,
        telemetry=TelemetryConfig(trace_sink=sink, **config_kwargs),
    )
    return cluster, result.summary(), sink


# -- request-lifecycle tracing -------------------------------------------------------


class TestTraceCompleteness:
    def test_scenario_exercises_every_terminal_outcome(self):
        _, summary, _ = run_traced()
        assert summary.admitted > 0
        assert summary.rejected > 0
        assert summary.dropped > 0
        assert summary.abandoned > 0

    def test_every_arrival_has_exactly_one_terminal_span(self):
        _, summary, sink = run_traced()
        arrivals = [span["request"] for span in sink.by_kind("arrival")]
        assert len(arrivals) == len(set(arrivals)) == summary.arrivals

        terminals = TallyCounter(
            span["request"] for span in sink.terminal_spans()
        )
        assert set(terminals) == set(arrivals)
        assert all(count == 1 for count in terminals.values())

    def test_terminal_counts_reconcile_with_summary_ledger(self):
        _, summary, sink = run_traced()
        by_kind = TallyCounter(span["kind"] for span in sink.terminal_spans())
        assert by_kind["served"] == summary.admitted
        assert by_kind["rejected"] == summary.rejected
        assert by_kind["dropped"] == summary.dropped
        assert by_kind["abandoned"] == summary.abandoned
        assert sum(by_kind.values()) == summary.arrivals

    def test_dispatched_spans_cover_exactly_the_admitted_requests(self):
        _, summary, sink = run_traced()
        dispatched = sink.by_kind("dispatched")
        assert len(dispatched) == summary.admitted
        served = {span["request"] for span in sink.by_kind("served")}
        assert {span["request"] for span in dispatched} == served

    def test_span_ordering_within_one_lifecycle(self):
        _, _, sink = run_traced()
        order = {
            "arrival": 0,
            "queued": 1,
            "rejected": 2,
            "dropped": 2,
            "abandoned": 2,
            "dispatched": 2,
            "video_complete": 3,
            "served": 4,
        }
        requests = {span["request"] for span in sink.by_kind("arrival")}
        for request_id in requests:
            spans = sink.for_request(request_id)
            assert spans[0]["kind"] == "arrival"
            assert spans[-1]["kind"] in TERMINAL_KINDS
            ranks = [order[span["kind"]] for span in spans]
            assert ranks == sorted(ranks), spans
            steps = [span["step"] for span in spans]
            assert steps == sorted(steps), spans

    def test_queue_waits_are_consistent(self):
        _, summary, sink = run_traced()
        waits = [span["wait_steps"] for span in sink.by_kind("dispatched")]
        assert all(w >= 0 for w in waits)
        assert max(waits) == summary.max_queue_wait_steps
        assert sum(waits) / len(waits) == pytest.approx(
            summary.mean_queue_wait_steps
        )

    def test_scalar_and_batch_engines_emit_identical_traces(self):
        streams = {}
        for engine in ("scalar", "batch"):
            sink = ListTraceSink()
            cluster = make_cluster()
            cluster.engine = engine
            cluster.run(DURATION, telemetry=TelemetryConfig(trace_sink=sink))
            streams[engine] = sink.spans
        assert streams["scalar"] == streams["batch"]


class TestTraceSinks:
    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        cluster = make_cluster()
        result = cluster.run(
            DURATION, telemetry=TelemetryConfig(trace_path=str(path))
        )
        summary = result.summary()
        spans = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert spans, "the traced run must emit spans"
        assert cluster.telemetry.tracer.emitted == len(spans)
        for span in spans:
            assert set(span) >= {"kind", "step", "request"}
        terminals = [s for s in spans if s["kind"] in TERMINAL_KINDS]
        assert len(terminals) == summary.arrivals

    def test_jsonl_sink_is_lazy(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.close()
        assert not path.exists()

    def test_jsonl_sink_flushes_periodically(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path), flush_every=3)
        for step in range(3):
            sink.write({"kind": "queued", "step": step, "request": "u"})
        # The third write crossed flush_every: all three lines are on disk
        # even though the sink is still open.
        assert len(path.read_text().splitlines()) == 3
        sink.write({"kind": "queued", "step": 3, "request": "u"})
        sink.flush()  # explicit flush pushes the partial batch
        assert len(path.read_text().splitlines()) == 4
        sink.close()

    def test_jsonl_sink_is_a_context_manager(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(str(path)) as sink:
            sink.write({"kind": "queued", "step": 0, "request": "u"})
        # Leaving the block closed (and therefore flushed) the file.
        assert sink._handle is None
        assert len(path.read_text().splitlines()) == 1

    def test_jsonl_sink_rejects_bad_flush_every(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlTraceSink(str(tmp_path / "x.jsonl"), flush_every=0)

    def test_tracer_counts_emitted_spans(self):
        sink = ListTraceSink()
        tracer = RequestTracer(sink)
        tracer.emit("arrival", 3, "u1", frames=12)
        assert tracer.emitted == sink.count == 1
        assert sink.spans[0] == {
            "kind": "arrival", "step": 3, "request": "u1", "frames": 12,
        }


# -- metrics registry ----------------------------------------------------------------


class TestMetrics:
    def test_counter_monotonicity(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value == 3.0

    def test_histogram_buckets_are_upper_bounds(self):
        hist = Histogram("h", edges=(1.0, 2.0, 4.0))
        for value in (0.0, 1.0, 1.5, 4.0, 99.0):
            hist.observe(value)
        assert hist.bucket_counts() == {1.0: 2, 2.0: 3, 4.0: 4, float("inf"): 5}
        assert hist.count == 5
        assert hist.sum == pytest.approx(105.5)

    def test_histogram_edges_are_frozen_and_validated(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=())
        with pytest.raises(ValueError):
            Histogram("h", edges=(1.0, 1.0))

    def test_quantile_returns_exact_edge_on_cumulative_boundary(self):
        # 4 observations <= 1, 4 more in (1, 2]: the 0.5 rank lands exactly
        # on the first bucket's cumulative count, so the quantile is the
        # bucket's upper edge EXACTLY — no interpolation drift.
        hist = Histogram("h", edges=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.0, 1.0, 1.5, 1.5, 2.0, 2.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(1.0) == 2.0

    def test_quantile_interpolates_within_a_bucket(self):
        hist = Histogram("h", edges=(0.0, 4.0))
        for value in (2.0, 2.0, 2.0, 2.0):
            hist.observe(value)
        # All mass in (0, 4]: the median interpolates to the bucket middle.
        assert hist.quantile(0.5) == 2.0
        # The first bucket anchors at min(0, edge), never below zero.
        hist2 = Histogram("h2", edges=(4.0,))
        hist2.observe(1.0)
        assert 0.0 <= hist2.quantile(0.25) <= 4.0

    def test_quantile_edge_cases(self):
        hist = Histogram("h", edges=(1.0, 2.0))
        assert math.isnan(hist.quantile(0.5))  # empty histogram
        hist.observe(99.0)  # overflow bucket
        assert hist.quantile(0.99) == 2.0  # clamps to the last finite edge
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_registry_rejects_kind_mismatch(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x", edges=(1.0,))

    def test_registry_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", labels={"class": "HR"})
        b = registry.counter("hits", labels={"class": "HR"})
        c = registry.counter("hits", labels={"class": "LR"})
        assert a is b and a is not c

    def test_histogram_determinism_across_identical_runs(self):
        """Same seed, same workload → byte-identical Prometheus output."""
        renders = []
        for _ in range(2):
            cluster = make_cluster()
            cluster.run(DURATION, telemetry=TelemetryConfig(metrics=True))
            renders.append(cluster.telemetry.metrics.to_prometheus())
        assert renders[0] == renders[1]
        assert 'le="+Inf"' in renders[0]

    #: Counters mirroring a ClusterResult count, by the count they mirror.
    LEDGER_COUNTERS = {
        "repro_arrivals_total": "arrivals",
        "repro_admitted_total": "admitted",
        "repro_rejected_total": "rejected",
        "repro_dropped_total": "dropped",
        "repro_degraded_total": "degraded_sessions",
        "repro_retried_total": "retried",
        "repro_failed_total": "failed",
        "repro_recomputed_frames_total": "recomputed_frames",
    }
    #: Counters mirroring a fault kind, by the summary field counting it.
    FAULT_COUNTERS = {
        "repro_server_crashes_total": "server_crashes",
        "repro_stragglers_total": "stragglers",
        "repro_zone_outages_total": "failed_domains",
    }

    @pytest.mark.parametrize(
        "build", [make_cluster, make_faulty_cluster], ids=["overload", "faults"]
    )
    def test_cluster_publishes_the_admission_ledger(self, build):
        cluster = build()
        result = cluster.run(DURATION, telemetry=TelemetryConfig(metrics=True))
        summary = result.summary()
        snapshot = cluster.telemetry.metrics.scalar_snapshot()
        for name, field in self.LEDGER_COUNTERS.items():
            assert snapshot[name] == getattr(result, field), name
        for name, field in self.FAULT_COUNTERS.items():
            assert snapshot[name] == getattr(summary, field), name
        wait_hist = next(
            m
            for m in cluster.telemetry.metrics.collect()
            if m.name == "repro_queue_wait_steps"
        )
        assert wait_hist.edges == QUEUE_WAIT_EDGES
        assert wait_hist.count == summary.admitted

    def test_faulty_scenario_moves_every_mirrored_counter(self):
        # The ledger test above only proves equality where the counts are
        # non-zero: keep the fault scenario reaching every one of them.
        result = make_faulty_cluster().run(DURATION)
        summary = result.summary()
        for field in self.LEDGER_COUNTERS.values():
            assert getattr(result, field) > 0, field
        for field in self.FAULT_COUNTERS.values():
            assert getattr(summary, field) > 0, field

    def test_prometheus_export_file(self, tmp_path):
        path = tmp_path / "metrics.prom"
        cluster = make_cluster()
        cluster.run(DURATION, telemetry=TelemetryConfig(metrics_path=str(path)))
        text = path.read_text()
        assert "# TYPE repro_arrivals_total counter" in text
        assert "# TYPE repro_queue_length gauge" in text
        assert "# TYPE repro_queue_wait_steps histogram" in text
        assert "repro_queue_wait_steps_count" in text

    def test_time_series_recorder(self):
        cluster = make_cluster()
        result = cluster.run(
            DURATION, telemetry=TelemetryConfig(metrics=True, record_series=True)
        )
        recorder = cluster.telemetry.recorder
        assert isinstance(recorder, TimeSeriesRecorder)
        assert len(recorder.steps) == result.summary().steps
        arrivals = recorder.series("repro_arrivals_total")
        assert arrivals == sorted(arrivals), "counters are monotone"
        assert arrivals[-1] == result.summary().arrivals
        data = recorder.to_dict()
        assert set(data) == {"steps", "series"}
        assert len(data["series"]["repro_queue_length"]) == len(data["steps"])


# -- step profiler -------------------------------------------------------------------


class TestProfiler:
    def test_batch_engine_phase_attribution(self):
        cluster = make_cluster()
        cluster.run(DURATION, telemetry=TelemetryConfig(profile=True))
        report = cluster.telemetry.profiler.report()
        phases = {phase["name"] for phase in report["phases"]}
        assert {"gather", "evaluate", "scatter", "content"} <= phases
        assert report["steps"] > 0
        assert report["steps_per_s"] > 0
        assert all(p["calls"] > 0 and p["total_s"] >= 0 for p in report["phases"])
        assert sum(p["share"] for p in report["phases"]) == pytest.approx(1.0)

    def test_scalar_engine_phase_attribution(self):
        cluster = make_cluster()
        cluster.engine = "scalar"
        cluster.run(DURATION, telemetry=TelemetryConfig(profile=True))
        phases = {
            p["name"] for p in cluster.telemetry.profiler.report()["phases"]
        }
        assert {"decide", "allocate", "execute"} <= phases

    def test_null_profiler_reports_nothing(self):
        assert not NULL_PROFILER.enabled
        with NULL_PROFILER.phase("anything"):
            pass
        report = NULL_PROFILER.report()
        assert report["steps"] == 0 and report["phases"] == []

    def test_step_profiler_counts(self):
        profiler = StepProfiler()
        with profiler.phase("a"):
            pass
        with profiler.phase("a"):
            pass
        profiler.count_step()
        report = profiler.report()
        assert report["steps"] == 1
        (phase,) = report["phases"]
        assert phase["name"] == "a" and phase["calls"] == 2


# -- disabled mode is a no-op --------------------------------------------------------


class TestDisabledMode:
    def test_disabled_spellings_are_bitwise_identical(self):
        """None, a default config, and the shared hub all change nothing."""
        summaries = []
        for telemetry in (None, TelemetryConfig(), Telemetry.disabled()):
            cluster = make_cluster()
            summaries.append(cluster.run(DURATION, telemetry=telemetry).summary())
        assert summaries[0] == summaries[1] == summaries[2]

    def test_enabling_telemetry_is_seed_neutral(self):
        """Full observability changes nothing about the simulation."""
        baseline = make_cluster().run(DURATION).summary()
        cluster = make_cluster()
        observed = cluster.run(
            DURATION,
            telemetry=TelemetryConfig(
                trace_sink=ListTraceSink(),
                metrics=True,
                profile=True,
                record_series=True,
            ),
        ).summary()
        assert observed == baseline

    def test_seed_neutral_on_scalar_engine_too(self):
        baseline_cluster = make_cluster()
        baseline_cluster.engine = "scalar"
        baseline = baseline_cluster.run(DURATION).summary()
        traced_cluster = make_cluster()
        traced_cluster.engine = "scalar"
        traced = traced_cluster.run(
            DURATION,
            telemetry=TelemetryConfig(trace_sink=ListTraceSink(), metrics=True),
        ).summary()
        assert traced == baseline

    def test_null_objects_expose_disabled_flags(self):
        assert not NULL_TRACER.enabled
        assert not NULL_REGISTRY.enabled
        assert not NULL_PROFILER.enabled
        assert not Telemetry.disabled().enabled
        NULL_TRACER.emit("arrival", 0, "u1")
        assert NULL_TRACER.emitted == 0
        assert NULL_REGISTRY.counter("x") is NULL_REGISTRY.gauge("y")
        assert NULL_REGISTRY.to_prometheus() == ""

    def test_resolve_telemetry_contract(self):
        assert resolve_telemetry(None) is Telemetry.disabled()
        assert resolve_telemetry(TelemetryConfig()) is Telemetry.disabled()
        hub = TelemetryConfig(metrics=True).build()
        assert resolve_telemetry(hub) is hub
        with pytest.raises(TypeError):
            resolve_telemetry("yes please")

    def test_finalize_is_idempotent(self, tmp_path):
        path = tmp_path / "metrics.prom"
        hub = TelemetryConfig(metrics_path=str(path)).build()
        hub.metrics.counter("repro_x_total").inc()
        hub.finalize()
        first = path.read_text()
        hub.metrics.counter("repro_x_total").inc()
        hub.finalize()
        assert path.read_text() == first
        Telemetry.disabled().finalize()  # never raises, never writes


# -- logging setup -------------------------------------------------------------------


class TestLogging:
    def test_configure_logging_is_idempotent(self):
        configure_logging("info")
        logger = logging.getLogger("repro")
        handlers = list(logger.handlers)
        configure_logging("debug")
        assert logger.handlers == handlers
        assert logger.level == logging.DEBUG
        assert not logger.propagate

    def test_unknown_level_is_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("loud")

    def test_a_second_call_writes_to_its_own_stream(self):
        first, second = io.StringIO(), io.StringIO()
        configure_logging("info", stream=first)
        configure_logging("info", stream=second)
        logging.getLogger("repro.test").info("to the second stream")
        assert first.getvalue() == ""
        assert second.getvalue() == "to the second stream\n"


# -- output-path validation ----------------------------------------------------------


class TestOutputPathValidation:
    """Bad ``--trace-out``/``--metrics-out`` paths fail at run *start*.

    Telemetry sinks open lazily and metrics flush at ``finalize()``; without
    up-front validation a typo'd directory would burn the whole run before
    raising.  ``TelemetryConfig.build()`` therefore validates both paths
    eagerly — and side-effect free (no file is created by the check).
    """

    def test_missing_parent_directory_is_rejected(self, tmp_path):
        bad = tmp_path / "no" / "such" / "dir" / "trace.jsonl"
        with pytest.raises(ConfigurationError, match="trace_path"):
            TelemetryConfig(trace_path=str(bad)).build()
        with pytest.raises(ConfigurationError, match="metrics_path"):
            TelemetryConfig(metrics_path=str(bad)).build()

    def test_directory_target_is_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="is a directory"):
            TelemetryConfig(trace_path=str(tmp_path)).build()

    def test_validation_creates_nothing(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        hub = TelemetryConfig(trace_path=str(target)).build()
        assert not target.exists()  # sink stays lazy; check left no droppings
        hub.finalize()

    def test_valid_paths_build_and_write(self, tmp_path):
        hub = TelemetryConfig(
            trace_path=str(tmp_path / "trace.jsonl"),
            metrics_path=str(tmp_path / "metrics.prom"),
        ).build()
        hub.metrics.counter("repro_ok_total").inc()
        hub.finalize()
        assert (tmp_path / "metrics.prom").exists()

    def test_disabled_config_skips_validation(self):
        # No outputs requested: nothing to validate, never raises.
        assert not TelemetryConfig().build().enabled
