"""Online SLO engine (repro.telemetry.slo).

Pins the objective math (rolling windows, error budgets, burn rates), the
gauge and breach-span surfaces, the ``TelemetryConfig.slo`` wiring, and —
the load-bearing contract — that SLO evaluation is observe-only: a run
with objectives enabled is bitwise identical to a bare run, on both
stepping engines.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    CapacityThreshold,
    ClusterOrchestrator,
    FlashCrowdTraffic,
    WorkloadGenerator,
)
from repro.errors import ConfigurationError
from repro.manager.factories import static_factory
from repro.telemetry import (
    ListTraceSink,
    MetricsRegistry,
    QueueWaitObjective,
    RequestTracer,
    ShedRateObjective,
    SloEngine,
    StepDeltas,
    TelemetryConfig,
    ViolationRateObjective,
)

WINDOW = 4


def make_engine(objective, registry=None, tracer=None):
    return SloEngine(
        [objective],
        metrics=registry if registry is not None else MetricsRegistry(),
        tracer=tracer if tracer is not None else RequestTracer(ListTraceSink()),
    )


def feed(engine, step, *, waits=(), arrivals=0, shed=0, frames=0, violations=0):
    """One observe_step call with one step's deltas."""
    engine.observe_step(
        step,
        StepDeltas(
            new_waits=tuple(waits),
            arrivals=arrivals,
            shed=shed,
            frames=frames,
            violations=violations,
        ),
    )


class TestObjectiveValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            QueueWaitObjective(name="")
        with pytest.raises(ConfigurationError):
            QueueWaitObjective(name="w", window_steps=0)
        with pytest.raises(ConfigurationError):
            QueueWaitObjective(name="w", error_budget_pct=0.0)
        with pytest.raises(ConfigurationError):
            QueueWaitObjective(name="w", error_budget_pct=150.0)
        with pytest.raises(ConfigurationError):
            QueueWaitObjective(name="w", quantile=1.5)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            SloEngine([ShedRateObjective(name="x"), QueueWaitObjective(name="x")])

    def test_config_rejects_non_objectives(self):
        with pytest.raises(ConfigurationError):
            TelemetryConfig(slo=("not-an-objective",)).build()


class TestObjectiveMath:
    def test_shed_rate_over_window(self):
        objective = ShedRateObjective(
            name="shed", max_pct=25.0, window_steps=2, error_budget_pct=50.0
        )
        engine = make_engine(objective)
        feed(engine, 0, arrivals=4, shed=1)  # 25% — at threshold, healthy
        assert engine.report()[0]["last_value"] == 25.0
        assert engine.report()[0]["breach_steps"] == 0
        feed(engine, 1, arrivals=4, shed=3)  # window: 4 shed / 8 arrivals
        assert engine.report()[0]["last_value"] == 50.0
        assert engine.report()[0]["breach_steps"] == 1
        # Window slides: the old healthy step falls out.
        feed(engine, 2, arrivals=4, shed=0)
        assert engine.report()[0]["last_value"] == pytest.approx(37.5)

    def test_shed_rate_idle_window_reads_zero(self):
        engine = make_engine(ShedRateObjective(name="shed", max_pct=1.0))
        feed(engine, 0)
        report = engine.report()[0]
        assert report["last_value"] == 0.0 and report["breach_steps"] == 0

    def test_violation_rate_over_window(self):
        objective = ViolationRateObjective(
            name="qos", max_pct=10.0, window_steps=8, error_budget_pct=50.0
        )
        engine = make_engine(objective)
        feed(engine, 0, frames=90, violations=0)
        feed(engine, 1, frames=10, violations=20)
        # 20 violations over 100 frames = 20% > 10%
        report = engine.report()[0]
        assert report["last_value"] == 20.0
        assert report["breach_steps"] == 1

    def test_queue_wait_quantile_uses_histogram(self):
        objective = QueueWaitObjective(
            name="wait", max_steps=2.0, quantile=0.5, window_steps=4,
            error_budget_pct=50.0,
        )
        engine = make_engine(objective)
        feed(engine, 0, waits=[0, 0, 0, 0])
        assert engine.report()[0]["last_value"] == 0.0
        feed(engine, 1, waits=[8, 8, 8, 8, 8])
        # Median of {0 x4, 8 x5} interpolates into the (4, 8] bucket.
        report = engine.report()[0]
        assert report["last_value"] > 2.0
        assert report["breach_steps"] == 1

    def test_queue_wait_empty_window_is_healthy(self):
        engine = make_engine(QueueWaitObjective(name="wait", max_steps=0.5))
        feed(engine, 0, waits=[])
        assert engine.report()[0]["breach_steps"] == 0


class TestBudgetAndBurn:
    def objective(self):
        # 50% budget over a window of 2: breaching every step burns at 2x.
        return ShedRateObjective(
            name="shed", max_pct=10.0, window_steps=2, error_budget_pct=50.0
        )

    def test_budget_consumption_and_health(self):
        engine = make_engine(self.objective())
        for step in range(4):  # shed 100% of arrivals every step
            feed(engine, step, arrivals=2, shed=2)
        report = engine.report()[0]
        assert report["steps"] == 4
        assert report["breach_steps"] == 4
        # 4 breach steps vs an allowance of 0.5 * 4 = 2 -> 200% consumed.
        assert report["budget_consumed_pct"] == 200.0
        assert report["max_burn_rate"] == 2.0
        assert not report["healthy"]

    def test_within_budget_is_healthy(self):
        engine = make_engine(self.objective())
        feed(engine, 0, arrivals=2, shed=2)   # breach
        # Step 1 sheds nothing new, but the window still sees step 0's
        # shed (2/4 = 50%): sustained-pressure smoothing works both ways.
        feed(engine, 1, arrivals=2)
        feed(engine, 2, arrivals=2)   # window clear: healthy
        feed(engine, 3, arrivals=2)   # healthy
        report = engine.report()[0]
        assert report["breach_steps"] == 2
        assert report["budget_consumed_pct"] == 100.0
        assert report["healthy"]


class TestSurfaces:
    def test_gauges_published_with_slo_label(self):
        registry = MetricsRegistry()
        engine = make_engine(
            ShedRateObjective(name="shed", max_pct=10.0), registry=registry
        )
        feed(engine, 0, arrivals=1, shed=1)
        snapshot = registry.scalar_snapshot()
        for gauge in ("repro_slo_value", "repro_slo_breached",
                      "repro_slo_burn_rate", "repro_slo_budget_consumed_pct"):
            assert f'{gauge}{{slo="shed"}}' in snapshot
        assert snapshot['repro_slo_value{slo="shed"}'] == 100.0
        assert snapshot['repro_slo_breached{slo="shed"}'] == 1.0

    def test_breach_span_on_entry_only(self):
        sink = ListTraceSink()
        engine = make_engine(
            ShedRateObjective(name="shed", max_pct=10.0, window_steps=1),
            tracer=RequestTracer(sink),
        )
        feed(engine, 0, arrivals=1, shed=1)   # enter breach
        feed(engine, 1, arrivals=1, shed=1)   # still breached: no new span
        feed(engine, 2, arrivals=1)           # recover
        feed(engine, 3, arrivals=1, shed=1)   # re-enter breach
        breaches = sink.by_kind("slo_breach")
        assert [span["step"] for span in breaches] == [0, 3]
        span = breaches[0]
        assert span["request"] == "slo-shed"
        assert span["slo"] == "shed"
        assert span["value"] == 100.0
        assert span["threshold"] == 10.0

    def test_report_carries_objective_description(self):
        engine = make_engine(QueueWaitObjective(name="w", max_steps=4.0))
        report = engine.report()[0]
        assert "p95 queue wait" in report["objective"]
        assert report["threshold"] == 4.0


# -- cluster wiring ------------------------------------------------------------------


def make_cluster(seed: int = 0, engine: str = "scalar") -> ClusterOrchestrator:
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
        engine=engine,
    )


OBJECTIVES = (
    QueueWaitObjective(name="wait", max_steps=2.0, window_steps=8,
                       error_budget_pct=10.0),
    ShedRateObjective(name="shed", max_pct=5.0, window_steps=8,
                      error_budget_pct=10.0),
    ViolationRateObjective(name="qos", max_pct=25.0, window_steps=8,
                           error_budget_pct=10.0),
)


class TestClusterWiring:
    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_slo_runs_are_bitwise_identical(self, engine):
        bare = make_cluster(engine=engine).run(30)
        instrumented = make_cluster(engine=engine).run(
            30, telemetry=TelemetryConfig(slo=OBJECTIVES)
        )
        assert bare.summary().to_dict() == instrumented.summary().to_dict()
        assert bare.queue_waits == instrumented.queue_waits
        assert bare.records_by_server == instrumented.records_by_server
        assert bare.fleet_trace == instrumented.fleet_trace

    def test_slo_config_implies_metrics_registry(self):
        telemetry = TelemetryConfig(slo=OBJECTIVES).build()
        assert telemetry.metrics.enabled
        assert telemetry.slo is not None
        assert telemetry.enabled

    def test_engine_judges_every_step_and_reports(self):
        cluster = make_cluster()
        result = cluster.run(30, telemetry=TelemetryConfig(slo=OBJECTIVES))
        info = cluster.telemetry.summary()
        assert "slo" in info
        report = {row["name"]: row for row in info["slo"]}
        assert set(report) == {"wait", "shed", "qos"}
        # Every step was judged, including the drain tail.
        assert all(row["steps"] == result.steps for row in report.values())
        # The flash-crowd scenario sheds far more than 5% — the objective
        # must notice.
        assert report["shed"]["breach_steps"] > 0
        assert not report["shed"]["healthy"]

    def test_breach_spans_interleave_with_request_spans(self):
        sink = ListTraceSink()
        cluster = make_cluster()
        cluster.run(
            30, telemetry=TelemetryConfig(trace_sink=sink, slo=OBJECTIVES)
        )
        breaches = sink.by_kind("slo_breach")
        assert breaches
        assert all(span["request"].startswith("slo-") for span in breaches)

    def test_recorder_sees_slo_gauges(self):
        cluster = make_cluster()
        cluster.run(
            30,
            telemetry=TelemetryConfig(slo=OBJECTIVES, record_series=True),
        )
        recorder = cluster.telemetry.recorder
        series = recorder.series('repro_slo_breached{slo="shed"}')
        assert len(series) == len(recorder.steps)
        assert max(series) == 1.0  # the breach is visible step-by-step

    def test_deterministic_report_across_identical_runs(self):
        def report():
            cluster = make_cluster()
            cluster.run(30, telemetry=TelemetryConfig(slo=OBJECTIVES))
            return cluster.telemetry.summary()["slo"]

        assert report() == report()
