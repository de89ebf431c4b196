"""Trace analytics: turn a span stream back into answers.

PR 6's tracer writes request lifecycles as flat JSONL spans; this module is
the read side.  :func:`load_spans` accepts a JSONL path, a
:class:`~repro.telemetry.trace.ListTraceSink` or an iterable of span dicts,
and :func:`analyze_trace` reconstructs one :class:`RequestLifecycle` per
arrival (fleet-level ``fault``/``slo_breach`` markers are kept separately —
their ``request`` keys are servers and objectives, not users) and derives:

* the **terminal ledger** — served / rejected / dropped / abandoned /
  failed counts, straight from the one-terminal-span-per-arrival invariant;
* **latency breakdowns** — queue wait (first-dispatch ``wait_steps``),
  service steps (first dispatch → terminal), end-to-end steps, and the
  retry overhead crash-migrated requests paid between interruption and
  re-dispatch — each as count/mean/max plus p50/p95/p99
  (:class:`LatencyStats`);
* **slices** — wait percentiles by service class and by first-dispatch
  server;
* the **fault timeline** and SLO breach markers;
* a **reconciliation check** (:meth:`TraceAnalysis.reconcile`) proving the
  span-derived view against the run's
  :class:`~repro.metrics.cluster.ClusterSummary` ledger — the property
  ``tests/test_telemetry_analysis.py`` pins across randomized seeded runs.

Percentiles use the same :func:`~repro.metrics.aggregate.linear_percentile`
arithmetic as the cluster summary, so trace-derived and ledger-derived
percentiles are equal as floats, not just approximately.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Optional, Sequence

from repro.metrics.aggregate import linear_percentile
from repro.metrics.cluster import ClusterSummary
from repro.numeric import ordered_sum
from repro.telemetry.trace import MARKER_KINDS, TERMINAL_KINDS, ListTraceSink

__all__ = [
    "LatencyStats",
    "RequestLifecycle",
    "TraceAnalysis",
    "load_spans",
    "analyze_trace",
]


def load_spans(source) -> list[dict]:
    """Spans from a JSONL path, a ``ListTraceSink`` or an iterable of dicts."""
    if isinstance(source, ListTraceSink):
        return list(source.spans)
    if isinstance(source, (str, os.PathLike)):
        spans = []
        with open(source, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    span = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ValueError(
                        f"{source}:{number}: not a JSON span: {error}"
                    ) from error
                spans.append(span)
        return spans
    return [dict(span) for span in source]


@dataclasses.dataclass(frozen=True)
class LatencyStats:
    """count / mean / percentiles / max of one latency population."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "LatencyStats":
        if not values:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=len(values),
            mean=ordered_sum(values) / len(values),
            p50=linear_percentile(values, 50.0),
            p95=linear_percentile(values, 95.0),
            p99=linear_percentile(values, 99.0),
            max=float(max(values)),
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class RequestLifecycle:
    """One request's reconstructed journey, arrival to terminal span.

    ``queue_wait_steps`` is the first dispatch's ``wait_steps`` (matching
    the ledger's ``queue_waits`` entry exactly) and stays ``None`` for
    requests that never reached a server.  ``retry_wait_steps`` sums the
    gaps between each ``interrupted`` span and the following re-dispatch —
    the latency crashes added on top of the normal queue wait.
    """

    request: str
    service_class: str = ""
    arrival_step: int = 0
    terminal_kind: str = ""
    terminal_step: int = 0
    queued: bool = False
    degraded: bool = False
    queue_wait_steps: Optional[int] = None
    first_dispatch_step: Optional[int] = None
    servers: tuple = ()
    retries: int = 0
    interruptions: int = 0
    retry_wait_steps: int = 0
    frames: int = 0
    videos_completed: int = 0
    completed: bool = False

    @property
    def server(self) -> Optional[int]:
        """First-dispatch server (where the queue wait ended)."""
        return self.servers[0] if self.servers else None

    @property
    def service_steps(self) -> Optional[int]:
        """Steps between first dispatch and the terminal span."""
        if self.first_dispatch_step is None or not self.terminal_kind:
            return None
        return self.terminal_step - self.first_dispatch_step

    @property
    def total_steps(self) -> int:
        """End-to-end steps, arrival to terminal."""
        return self.terminal_step - self.arrival_step


class TraceAnalysis:
    """Derived views over one run's span stream (built by ``analyze_trace``)."""

    def __init__(
        self,
        lifecycles: dict[str, RequestLifecycle],
        fault_events: list[dict],
        slo_breaches: list[dict],
        errors: list[str],
        steps: int,
        span_count: int,
        degraded_dispatches: int = 0,
    ) -> None:
        self.lifecycles = lifecycles
        self.fault_events = fault_events
        self.slo_breaches = slo_breaches
        #: Lifecycle-invariant violations found while reconstructing (a
        #: clean trace has none; a truncated one names its open requests).
        self.errors = errors
        self.steps = steps
        self.span_count = span_count
        #: ``dispatched`` spans marked degraded, retries included (a
        #: request's lifecycle keeps only whether any of its was).
        self.degraded_dispatches = degraded_dispatches

    # -- ledger ------------------------------------------------------------------------

    @property
    def arrivals(self) -> int:
        return len(self.lifecycles)

    def terminal_counts(self) -> dict[str, int]:
        counts = {kind: 0 for kind in sorted(TERMINAL_KINDS)}
        for lifecycle in self.lifecycles.values():
            if lifecycle.terminal_kind:
                counts[lifecycle.terminal_kind] += 1
        return counts

    def served(self) -> list[RequestLifecycle]:
        return [
            l for l in self.lifecycles.values() if l.terminal_kind == "served"
        ]

    # -- latency breakdown -------------------------------------------------------------

    def queue_waits(self) -> list[int]:
        """First-dispatch waits — the trace's copy of the ledger's list."""
        return [
            l.queue_wait_steps
            for l in self.lifecycles.values()
            if l.queue_wait_steps is not None
        ]

    def wait_stats(self) -> LatencyStats:
        return LatencyStats.of(self.queue_waits())

    def service_stats(self) -> LatencyStats:
        return LatencyStats.of(
            [l.service_steps for l in self.served() if l.service_steps is not None]
        )

    def end_to_end_stats(self) -> LatencyStats:
        return LatencyStats.of([l.total_steps for l in self.served()])

    def retry_overhead_stats(self) -> LatencyStats:
        """Extra steps crash-interrupted requests spent awaiting re-dispatch."""
        return LatencyStats.of(
            [
                l.retry_wait_steps
                for l in self.lifecycles.values()
                if l.interruptions > 0
            ]
        )

    def wait_stats_by_class(self) -> dict[str, LatencyStats]:
        by_class: dict[str, list[int]] = {}
        for lifecycle in self.lifecycles.values():
            if lifecycle.queue_wait_steps is not None:
                by_class.setdefault(lifecycle.service_class, []).append(
                    lifecycle.queue_wait_steps
                )
        return {
            cls: LatencyStats.of(waits) for cls, waits in sorted(by_class.items())
        }

    def wait_stats_by_server(self) -> dict[int, LatencyStats]:
        by_server: dict[int, list[int]] = {}
        for lifecycle in self.lifecycles.values():
            if lifecycle.queue_wait_steps is not None and lifecycle.server is not None:
                by_server.setdefault(lifecycle.server, []).append(
                    lifecycle.queue_wait_steps
                )
        return {
            server: LatencyStats.of(waits)
            for server, waits in sorted(by_server.items())
        }

    @property
    def retried(self) -> int:
        """Successful re-dispatches, summed over all lifecycles."""
        return ordered_sum(l.retries for l in self.lifecycles.values())

    @property
    def interrupted(self) -> int:
        return ordered_sum(l.interruptions for l in self.lifecycles.values())

    def fault_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.fault_events:
            counts[event.get("fault", "?")] = counts.get(event.get("fault", "?"), 0) + 1
        return counts

    # -- reconciliation ----------------------------------------------------------------

    def reconcile(self, summary: ClusterSummary) -> list[str]:
        """Check the span-derived view against the run's summary ledger.

        Returns a list of human-readable mismatches — empty when the trace
        and the ledger tell the same story.  Every admitted request ends in
        exactly one ``served`` or ``failed`` span, so ``served`` must equal
        ``admitted - failed``; the queue-wait population must match the
        ledger's in count, mean, max and percentiles (same percentile
        arithmetic on both sides, so equality is exact).  Each fault kind
        the summary counts (crashes, stragglers, warm-up failures, zone
        outages) must match its ``fault`` spans, and the degraded
        dispatches, retries included, the summary's degraded sessions.
        Frames are only
        reconciled on crash-free traces: a migrated session's partial
        records live under the crashed server's original key, which the
        terminal span does not see.
        """
        mismatches: list[str] = []

        def check(label: str, from_trace, from_summary) -> None:
            if from_trace != from_summary:
                mismatches.append(
                    f"{label}: trace={from_trace!r} summary={from_summary!r}"
                )

        mismatches.extend(f"lifecycle error: {error}" for error in self.errors)
        counts = self.terminal_counts()
        check("arrivals", self.arrivals, summary.arrivals)
        check("served", counts["served"], summary.admitted - summary.failed)
        check("rejected", counts["rejected"], summary.rejected)
        check("dropped", counts["dropped"], summary.dropped)
        check("abandoned", counts["abandoned"], summary.abandoned)
        check("failed", counts["failed"], summary.failed)
        check("retried", self.retried, summary.retried)

        waits = self.queue_waits()
        check("admitted (queue-wait population)", len(waits), summary.admitted)
        if waits:
            check("mean queue wait", ordered_sum(waits) / len(waits), summary.mean_queue_wait_steps)
            check("max queue wait", max(waits), summary.max_queue_wait_steps)
            check("p50 queue wait", linear_percentile(waits, 50.0), summary.p50_queue_wait_steps)
            check("p95 queue wait", linear_percentile(waits, 95.0), summary.p95_queue_wait_steps)
            check("p99 queue wait", linear_percentile(waits, 99.0), summary.p99_queue_wait_steps)

        crash_faults = self.fault_counts()
        check("server crashes", crash_faults.get("crash", 0), summary.server_crashes)
        check("stragglers", crash_faults.get("straggler", 0), summary.stragglers)
        check(
            "warm-up failures",
            crash_faults.get("warmup_failure", 0),
            summary.warmup_failures,
        )
        check("failed domains", crash_faults.get("zone_outage", 0), summary.failed_domains)
        check("degraded sessions", self.degraded_dispatches, summary.degraded_sessions)
        if self.interrupted == 0:
            check(
                "frames",
                ordered_sum(l.frames for l in self.served()),
                summary.frames,
            )
        return mismatches

    # -- export ------------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready digest: ledger, breakdowns, slices, fault/SLO markers."""
        return {
            "spans": self.span_count,
            "steps": self.steps,
            "arrivals": self.arrivals,
            "terminals": self.terminal_counts(),
            "retried": self.retried,
            "interrupted": self.interrupted,
            "queue_wait": self.wait_stats().to_dict(),
            "service_steps": self.service_stats().to_dict(),
            "end_to_end_steps": self.end_to_end_stats().to_dict(),
            "retry_overhead_steps": self.retry_overhead_stats().to_dict(),
            "queue_wait_by_class": {
                cls: stats.to_dict()
                for cls, stats in self.wait_stats_by_class().items()
            },
            "queue_wait_by_server": {
                str(server): stats.to_dict()
                for server, stats in self.wait_stats_by_server().items()
            },
            "faults": self.fault_counts(),
            "slo_breaches": len(self.slo_breaches),
            "errors": list(self.errors),
        }


def analyze_trace(source) -> TraceAnalysis:
    """Reconstruct request lifecycles and derived views from a span stream."""
    spans = load_spans(source)
    lifecycles: dict[str, RequestLifecycle] = {}
    fault_events: list[dict] = []
    slo_breaches: list[dict] = []
    errors: list[str] = []
    steps = 0
    degraded_dispatches = 0

    for span in spans:
        kind = span.get("kind")
        step = int(span.get("step", 0))
        steps = max(steps, step)
        if kind == "fault":
            fault_events.append(span)
            continue
        if kind == "slo_breach":
            slo_breaches.append(span)
            continue
        if kind in MARKER_KINDS:  # pragma: no cover - future marker kinds
            continue
        request = span.get("request")
        if request is None:
            errors.append(f"span without a request id: {span!r}")
            continue
        lifecycle = lifecycles.get(request)
        if kind == "arrival":
            if lifecycle is not None:
                errors.append(f"{request}: duplicate arrival at step {step}")
                continue
            lifecycles[request] = RequestLifecycle(
                request=request,
                service_class=str(span.get("service_class", "")),
                arrival_step=step,
            )
            continue
        if lifecycle is None:
            errors.append(f"{request}: {kind} span before any arrival")
            continue
        if lifecycle.terminal_kind:
            errors.append(
                f"{request}: {kind} span after terminal "
                f"{lifecycle.terminal_kind!r}"
            )
            continue
        if kind == "queued":
            lifecycle.queued = True
        elif kind == "dispatched":
            lifecycle.servers = lifecycle.servers + (span.get("server"),)
            if span.get("degraded"):
                lifecycle.degraded = True
                degraded_dispatches += 1
            if "retry" in span:
                lifecycle.retries += 1
                # The gap since the interruption is the retry's latency bill.
                lifecycle.retry_wait_steps += step - lifecycle.terminal_step
            else:
                lifecycle.queue_wait_steps = int(span.get("wait_steps", 0))
                lifecycle.first_dispatch_step = step
        elif kind == "interrupted":
            lifecycle.interruptions += 1
            # Park the crash step in terminal_step until the re-dispatch
            # (or terminal failed span) overwrites it.
            lifecycle.terminal_step = step
        elif kind == "video_complete":
            lifecycle.videos_completed = int(span.get("video", 0))
        elif kind in TERMINAL_KINDS:
            lifecycle.terminal_kind = kind
            lifecycle.terminal_step = step
            if kind == "served":
                lifecycle.frames = int(span.get("frames", 0))
                lifecycle.completed = bool(span.get("completed", False))
            elif kind == "failed":
                lifecycle.frames = int(span.get("frames", 0))
        else:
            errors.append(f"{request}: unknown span kind {kind!r}")

    for lifecycle in lifecycles.values():
        if not lifecycle.terminal_kind:
            errors.append(f"{lifecycle.request}: no terminal span")
    return TraceAnalysis(
        lifecycles=lifecycles,
        fault_events=fault_events,
        slo_breaches=slo_breaches,
        errors=errors,
        steps=steps,
        span_count=len(spans),
        degraded_dispatches=degraded_dispatches,
    )
