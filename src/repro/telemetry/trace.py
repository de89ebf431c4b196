"""Request-lifecycle tracing: one span stream per cluster run.

Every :class:`~repro.cluster.workload.WorkloadEvent` is followed from
arrival to its terminal outcome; the tracer emits one flat JSON object per
span through a pluggable sink.  Span kinds and their extra fields:

``arrival``
    ``service_class``, ``frames`` (total playlist frames), ``patience``.
``queued``
    The admission policy parked the request (``queue_length`` after).
``rejected`` *(terminal)*
    Turned away at arrival (``policy`` label).
``dispatched``
    Sent to a server: ``server`` (global slot index), ``wait_steps``
    (queue steps; 0 = admitted on arrival), ``degraded`` (brownout),
    ``brownout_level``.  A crash-recovery re-dispatch additionally carries
    ``retry`` (the attempt number); the field is absent on first
    dispatches, so fault-free span streams are byte-identical to runs
    without a fault injector.
``video_complete``
    Per-video transcode progress of a running session: ``video`` (playlist
    position just finished), ``videos`` (playlist length).
``served`` *(terminal)*
    Session finished or run ended: ``frames`` actually transcoded,
    ``completed`` (False when the run ended mid-session).
``dropped`` *(terminal)*
    Aged out of the queue past its patience deadline (``waited`` steps).
``abandoned`` *(terminal)*
    Still queued when the run ended (``waited`` steps).
``interrupted``
    The request's server crashed mid-session: ``server``, ``frames``
    transcoded so far, ``attempt`` (the retry this crash triggers).  Not
    terminal — a ``failed`` or another ``dispatched`` span follows.
``failed`` *(terminal)*
    Lost to crashes: the retry budget ran out (``attempts``, ``frames``)
    or the retry was still pending when the run ended (``pending``).
``fault``
    Fleet-level fault marker, keyed by server (``request`` is
    ``server-<index>``, not a user id — excluded from the per-request
    lifecycle invariant): ``fault`` of ``crash``/``straggler``/
    ``warmup_failure`` plus fault-specific fields.
``slo_breach``
    SLO marker, keyed by objective (``request`` is ``slo-<name>``, not a
    user id — excluded from the lifecycle invariant like ``fault``):
    emitted when an objective *enters* breach, with ``slo``, ``value``,
    ``threshold`` and ``burn_rate``.  See :mod:`repro.telemetry.slo`.

All spans whose ``request`` is a user id obey the lifecycle invariant;
trace spans of a crash-migrated session keep the request's ORIGINAL user
id across every retry (the ``<user>#r<attempt>`` key appears only in the
ledger's ``records_by_server``).

Every span carries ``kind``, ``step`` (cluster step; observed simulation
time, never wall clock — determinism) and ``request`` (the request's
user id).  The lifecycle invariant — every arrival ends in exactly one
terminal span, and terminal counts reconcile with the
:class:`~repro.metrics.cluster.ClusterSummary` ledger — is pinned by
``tests/test_telemetry.py``.

Tracing is observe-only: it draws no randomness and mutates no simulation
state, so an enabled trace cannot change the run it describes.  When
disabled, :data:`NULL_TRACER` makes ``emit`` a no-op and exposes
``enabled = False`` so per-step progress bookkeeping can be skipped
entirely.
"""

from __future__ import annotations

import json

__all__ = [
    "TraceSink",
    "JsonlTraceSink",
    "ListTraceSink",
    "RequestTracer",
    "NULL_TRACER",
    "TERMINAL_KINDS",
    "MARKER_KINDS",
]

#: Span kinds that end a request's lifecycle (exactly one per arrival).
TERMINAL_KINDS = frozenset({"served", "rejected", "dropped", "abandoned", "failed"})

#: Fleet-level marker kinds whose ``request`` is NOT a user id (``server-<i>``
#: for faults, ``slo-<name>`` for SLO breaches) — excluded from lifecycles.
MARKER_KINDS = frozenset({"fault", "slo_breach"})


class TraceSink:
    """Receives span dicts; subclasses decide where they go."""

    def write(self, span: dict) -> None:
        raise NotImplementedError

    def flush(self) -> None:  # pragma: no cover - default no-op
        pass

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class JsonlTraceSink(TraceSink):
    """Appends one compact JSON object per line to a file.

    The file is opened lazily on the first span so a run that emits nothing
    leaves nothing behind, and key order is preserved as emitted (``kind``,
    ``step``, ``request`` first) so the JSONL diffs cleanly between seeded
    runs.

    Spans are flushed to the OS every ``flush_every`` writes (and on
    ``flush``/``close``), so a run that dies mid-stream leaves a readable,
    line-complete JSONL prefix instead of whatever happened to fit the stdio
    buffer — the analysis layer can post-mortem a crashed run.  The sink is
    a context manager; leaving the ``with`` block closes the file.
    """

    def __init__(self, path: str, flush_every: int = 256) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = str(path)
        self.flush_every = int(flush_every)
        self.count = 0
        self._unflushed = 0
        self._handle = None

    def write(self, span: dict) -> None:
        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
        self._handle.write(json.dumps(span, separators=(",", ":")) + "\n")
        self.count += 1
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Push buffered spans to the OS; only whole lines ever land."""
        if self._handle is not None:
            self._handle.flush()
        self._unflushed = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._unflushed = 0


class ListTraceSink(TraceSink):
    """Collects spans in memory — the test and analysis sink."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def write(self, span: dict) -> None:
        self.spans.append(span)

    @property
    def count(self) -> int:
        return len(self.spans)

    def by_kind(self, kind: str) -> list[dict]:
        return [span for span in self.spans if span["kind"] == kind]

    def for_request(self, request_id: str) -> list[dict]:
        return [span for span in self.spans if span["request"] == request_id]

    def terminal_spans(self) -> list[dict]:
        return [span for span in self.spans if span["kind"] in TERMINAL_KINDS]


class RequestTracer:
    """Emits lifecycle spans for every workload request through a sink."""

    enabled = True

    def __init__(self, sink: TraceSink) -> None:
        self.sink = sink
        self.emitted = 0

    def emit(self, kind: str, step: int, request_id: str, **fields) -> None:
        span = {"kind": kind, "step": step, "request": request_id}
        span.update(fields)
        self.sink.write(span)
        self.emitted += 1

    def close(self) -> None:
        self.sink.close()


class _NullTracer:
    """Disabled tracer: emits nothing, signals callers to skip bookkeeping."""

    enabled = False
    emitted = 0
    sink = None

    def emit(self, kind: str, step: int, request_id: str, **fields) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = _NullTracer()
