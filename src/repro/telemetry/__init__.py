"""Zero-overhead-when-disabled observability for the simulation stack.

Four concerns, one hub:

* :mod:`repro.telemetry.trace` — request-lifecycle spans (arrival →
  admission → queue → dispatch → progress → terminal outcome) as JSONL.
* :mod:`repro.telemetry.metrics` — live counters/gauges/histograms with a
  Prometheus text exporter and per-step time-series recorder.
* :mod:`repro.telemetry.profiler` — per-phase wall-time for the stepping
  engines (gather / evaluate / MAMUT activation / scatter, and the scalar
  decide / allocate / execute loop).
* :mod:`repro.telemetry.logsetup` — the ``repro`` logger hierarchy behind
  the ``--log-level`` flag.

Built on top of the span stream:

* :mod:`repro.telemetry.analysis` — post-hoc trace analytics: lifecycle
  reconstruction, latency breakdowns and percentiles, fault timelines, and
  reconciliation against the run's summary ledger.
* :mod:`repro.telemetry.slo` — online SLO objectives with rolling windows,
  error budgets and burn-rate gauges, evaluated each step through the same
  observe-only hook path.
* :mod:`repro.telemetry.provenance` — the ``provenance`` block stamped on
  comparable run artifacts, so ``repro obs compare`` can refuse
  apples-to-oranges diffs.

Entry points: build a :class:`TelemetryConfig`, pass it to
``ClusterOrchestrator.run(telemetry=...)`` or ``Orchestrator.run(...)``,
and read the hub back from ``cluster.telemetry``.  Everything is
observe-only and seed-neutral: enabling any combination of concerns must
not change a seeded run's results (pinned by ``tests/test_telemetry.py``).
"""

from repro.telemetry.analysis import (
    LatencyStats,
    RequestLifecycle,
    TraceAnalysis,
    analyze_trace,
    load_spans,
)
from repro.telemetry.config import Telemetry, TelemetryConfig, resolve_telemetry
from repro.telemetry.logsetup import LOG_LEVELS, configure_logging
from repro.telemetry.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeriesRecorder,
)
from repro.telemetry.profiler import NULL_PROFILER, StepProfiler
from repro.telemetry.provenance import (
    SCHEMA_VERSION,
    provenance_mismatches,
    provenance_of,
    stamp_provenance,
)
from repro.telemetry.slo import (
    QueueWaitObjective,
    ShedRateObjective,
    SloEngine,
    SloObjective,
    StepDeltas,
    ViolationRateObjective,
)
from repro.telemetry.trace import (
    MARKER_KINDS,
    NULL_TRACER,
    TERMINAL_KINDS,
    JsonlTraceSink,
    ListTraceSink,
    RequestTracer,
    TraceSink,
)

__all__ = [
    "Telemetry",
    "TelemetryConfig",
    "resolve_telemetry",
    "configure_logging",
    "LOG_LEVELS",
    "MetricsRegistry",
    "TimeSeriesRecorder",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_REGISTRY",
    "StepProfiler",
    "NULL_PROFILER",
    "RequestTracer",
    "TraceSink",
    "JsonlTraceSink",
    "ListTraceSink",
    "NULL_TRACER",
    "TERMINAL_KINDS",
    "MARKER_KINDS",
    "LatencyStats",
    "RequestLifecycle",
    "TraceAnalysis",
    "analyze_trace",
    "load_spans",
    "SloObjective",
    "QueueWaitObjective",
    "ShedRateObjective",
    "ViolationRateObjective",
    "SloEngine",
    "StepDeltas",
    "SCHEMA_VERSION",
    "stamp_provenance",
    "provenance_of",
    "provenance_mismatches",
]
