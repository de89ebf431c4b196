"""Telemetry configuration and the per-run hub object.

:class:`TelemetryConfig` is the declarative knob set (what to trace, where
to export, whether to profile) carried by the CLI flags; calling
:meth:`TelemetryConfig.build` materialises it into a :class:`Telemetry`
hub holding the live tracer, metrics registry, recorder and profiler that
the orchestrators publish into.

The disabled path is the common one and must cost nothing:
:meth:`Telemetry.disabled` returns a shared singleton whose components are
the null objects from the sibling modules, so instrumented code holds one
attribute per concern and never branches on "is telemetry on?" beyond the
``enabled`` flags the null objects expose.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional

from repro.errors import ConfigurationError
from repro.telemetry.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    TimeSeriesRecorder,
)
from repro.telemetry.profiler import NULL_PROFILER, StepProfiler
from repro.telemetry.slo import SloEngine, SloObjective, StepDeltas
from repro.telemetry.trace import (
    NULL_TRACER,
    JsonlTraceSink,
    RequestTracer,
    TraceSink,
)

__all__ = ["TelemetryConfig", "Telemetry", "resolve_telemetry"]


def _check_output_path(label: str, path: Optional[str]) -> None:
    """Fail fast on an output destination that can never be written.

    Rejects a path whose parent directory does not exist or is not
    writable, and a path that names an existing directory.  Does NOT
    create anything — validation must be side-effect free.
    """
    if not path:
        return
    target = os.path.abspath(path)
    if os.path.isdir(target):
        raise ConfigurationError(
            f"telemetry {label} {path!r} is a directory, not a writable file"
        )
    parent = os.path.dirname(target)
    if not os.path.isdir(parent):
        raise ConfigurationError(
            f"telemetry {label} {path!r}: directory {parent!r} does not exist"
        )
    if not os.access(parent, os.W_OK):
        raise ConfigurationError(
            f"telemetry {label} {path!r}: directory {parent!r} is not writable"
        )


@dataclasses.dataclass(frozen=True)
class TelemetryConfig:
    """What to observe and where to export it.

    Attributes
    ----------
    trace_path:
        Write request-lifecycle spans as JSONL here (``--trace-out``).
    metrics_path:
        Write the final metrics registry in Prometheus text format here on
        finalize (``--metrics-out``).
    profile:
        Collect per-phase wall-time in the stepping engines (``--profile``).
    trace_sink:
        Explicit sink instance (e.g. :class:`ListTraceSink` in tests);
        overrides ``trace_path``.
    metrics:
        Force the metrics registry on even without ``metrics_path`` —
        useful when the caller wants to inspect instruments in memory.
    record_series:
        Capture per-step counter/gauge snapshots in a
        :class:`~repro.telemetry.metrics.TimeSeriesRecorder` (implied by
        ``metrics``/``metrics_path`` being unset leaves it off).
    slo:
        Declarative :class:`~repro.telemetry.slo.SloObjective` set to
        evaluate online each step.  Any objective implies a live metrics
        registry (the ``repro_slo_*`` gauges need somewhere to live).
    """

    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    profile: bool = False
    trace_sink: Optional[TraceSink] = None
    metrics: bool = False
    record_series: bool = False
    slo: tuple = ()

    @property
    def any_enabled(self) -> bool:
        return bool(
            self.trace_path
            or self.metrics_path
            or self.profile
            or self.trace_sink is not None
            or self.metrics
            or self.record_series
            or self.slo
        )

    def build(self) -> "Telemetry":
        """Materialise the live hub this config describes.

        Output paths are validated here — at run *start* — so a bad
        ``--trace-out``/``--metrics-out`` destination fails immediately
        with a clear error instead of after minutes of simulation (the
        trace sink opens lazily and the metrics file is written on
        finalize, so without this check the failure would surface at the
        very end).
        """
        if not self.any_enabled:
            return Telemetry.disabled()
        _check_output_path("trace_path (--trace-out)", self.trace_path)
        _check_output_path("metrics_path (--metrics-out)", self.metrics_path)
        if self.trace_sink is not None:
            tracer = RequestTracer(self.trace_sink)
        elif self.trace_path:
            tracer = RequestTracer(JsonlTraceSink(self.trace_path))
        else:
            tracer = NULL_TRACER
        if self.metrics or self.metrics_path or self.record_series or self.slo:
            registry = MetricsRegistry()
            recorder = (
                TimeSeriesRecorder(registry) if self.record_series else None
            )
        else:
            registry = NULL_REGISTRY
            recorder = None
        profiler = StepProfiler() if self.profile else NULL_PROFILER
        slo_engine = None
        if self.slo:
            for objective in self.slo:
                if not isinstance(objective, SloObjective):
                    raise ConfigurationError(
                        f"slo entries must be SloObjective instances, "
                        f"got {type(objective).__name__}"
                    )
            slo_engine = SloEngine(list(self.slo), metrics=registry, tracer=tracer)
        return Telemetry(
            tracer=tracer,
            metrics=registry,
            profiler=profiler,
            recorder=recorder,
            slo=slo_engine,
            config=self,
        )


class Telemetry:
    """The live per-run observability hub.

    Holds one component per concern — ``tracer`` (request lifecycles),
    ``metrics`` (registry), ``profiler`` (phase wall-time), ``recorder``
    (per-step metric snapshots, optional) — each individually a null
    object when its concern is off.  :meth:`finalize` flushes exports and
    is idempotent, so orchestrators can call it unconditionally at the end
    of a run.
    """

    _DISABLED: Optional["Telemetry"] = None

    def __init__(
        self,
        tracer=NULL_TRACER,
        metrics=NULL_REGISTRY,
        profiler=NULL_PROFILER,
        recorder: Optional[TimeSeriesRecorder] = None,
        slo: Optional[SloEngine] = None,
        config: Optional[TelemetryConfig] = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.profiler = profiler
        self.recorder = recorder
        self.slo = slo
        self.config = config if config is not None else TelemetryConfig()
        self._finalized = False

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared all-null hub (safe: it holds no per-run state)."""
        if cls._DISABLED is None:
            cls._DISABLED = cls()
        return cls._DISABLED

    @property
    def enabled(self) -> bool:
        return (
            self.tracer.enabled
            or self.metrics.enabled
            or self.profiler.enabled
            or self.recorder is not None
            or self.slo is not None
        )

    def record_step(self, step: int) -> None:
        """Snapshot the registry for this step (no-op without a recorder)."""
        if self.recorder is not None:
            self.recorder.record(step)

    def observe_slo(self, step: int, deltas: StepDeltas) -> None:
        """Feed the SLO engine one step's changes (no-op without one).

        Call *before* :meth:`record_step` so the recorder's snapshot for
        the step already includes the ``repro_slo_*`` gauge updates.
        """
        if self.slo is not None:
            self.slo.observe_step(step, deltas)

    def finalize(self) -> None:
        """Flush exports: close the trace sink, write the metrics file."""
        if self._finalized or self is Telemetry._DISABLED:
            return
        self._finalized = True
        self.tracer.close()
        if self.config.metrics_path and self.metrics.enabled:
            with open(self.config.metrics_path, "w", encoding="utf-8") as handle:
                handle.write(self.metrics.to_prometheus())

    def summary(self) -> dict:
        """Compact description of what was observed, for run output."""
        out: dict = {"enabled": self.enabled}
        if self.tracer.enabled:
            out["trace_events"] = self.tracer.emitted
            if self.config.trace_path:
                out["trace_path"] = self.config.trace_path
        if self.metrics.enabled:
            out["metrics"] = len(self.metrics)
            if self.config.metrics_path:
                out["metrics_path"] = self.config.metrics_path
        if self.profiler.enabled:
            out["profile"] = self.profiler.report()
        if self.slo is not None:
            out["slo"] = self.slo.report()
        return out


def resolve_telemetry(telemetry) -> Telemetry:
    """Accept ``None``, a :class:`TelemetryConfig` or a built hub."""
    if telemetry is None:
        return Telemetry.disabled()
    if isinstance(telemetry, TelemetryConfig):
        return telemetry.build()
    if isinstance(telemetry, Telemetry):
        return telemetry
    raise TypeError(
        f"telemetry must be None, TelemetryConfig or Telemetry, got {type(telemetry)!r}"
    )
