"""Cluster orchestration: N servers, arriving traffic, admission + dispatch.

The :class:`ClusterOrchestrator` closes the gap between the paper's
fixed-cohort experiments and a production service.  It owns one
:class:`~repro.manager.orchestrator.Orchestrator` per server and drives them
step-wise; each step of the arrival window it

1. ages the admission queue — requests past their patience deadline are
   *dropped* (a ledger entry distinct from rejections) — and consults the
   optional brownout controller (:mod:`repro.cluster.brownout`), which may
   degrade the quality of newly admitted sessions fleet-wide instead of
   letting the fleet shed load,
2. offers crash retries, then queued requests (FIFO), then the step's new
   arrivals to the admission policy, all through one admission path,
3. routes admitted requests to a server via the dispatch policy
   (sessions join mid-run through ``Orchestrator.add_session``),
4. consults the optional autoscaling policy
   (:mod:`repro.cluster.autoscale`) and resizes the fleet — commissioning
   servers that idle through a provisioning warm-up before accepting work,
   and draining servers before decommissioning them so active sessions are
   never killed, and
5. advances every powered-on server by one frame, sampling idle power on
   servers with nothing to do (warming servers included) so fleet energy
   accounting includes the machines that are merely switched on.

The drain tail after the window runs the same step body with admission
closed: it injects no faults, ages and admits nothing (requests still
queued end the run *abandoned*), and lets the autoscaler only shrink the
fleet, seeing an empty queue.

Step 5 runs on one of two engines selected by the ``engine`` parameter:
``"batch"`` (the default) advances the whole fleet in one fused NumPy batch
per step via :class:`~repro.cluster.batch.BatchStepper`; ``"scalar"`` steps
server by server and session by session through the scalar model calls.  The
engines are seed-for-seed equivalent — same results, the batch engine is
just what makes thousand-server fleets tractable.  A fleet resize hands the
batch stepper's caches to a new stepper over the new fleet; membership
changes are therefore identical on both engines.

Scheduling decisions are O(servers): per-server active-session counts are
maintained incrementally (updated once per step as the engines advance, and
on every dispatch) instead of walking each orchestrator's session list per
arrival, and consecutive decisions within a step derive their snapshot from
the previous one instead of rebuilding it.  The fleet census (rosters and
server counts by lifecycle and health) is taken once per membership or
health change, and each live server's sessions are listed once per step.

Every request is one record (``_Request``) from its arrival to its
terminal span: the admission queue, the retry queue and the in-flight
registry (the running sessions in dispatch order — what crash recovery
salvages and what the span stream reports progress for) hold that record
while the request is theirs.  The :class:`ClusterResult` ledger and the
fault-event list are the run's only counts.  Every terminal outcome goes
through one method that bumps the ledger count of its name (all but
``served``) and emits its span, so the ledger and the span stream agree by
construction; each fault is recorded by one call that appends its event
and emits its ``fault`` span.  The Prometheus counters mirroring the
ledger and the fault kinds, the queue-wait histogram and the SLO engine
read each step's change in the ledger when the step closes (the counters
once more after the end-of-run outcomes).

An optional seeded fault injector (:mod:`repro.cluster.faults`) exercises
the recovery paths: abrupt server crashes (in-flight sessions salvaged —
the remaining playlist re-dispatched with bounded retries and exponential
backoff, learning copied in memory from the dying controller to the
replacement), transient stragglers (throttled servers leave the dispatchable
roster but keep serving what they have), warm-up failures (a commissioned
server that never comes ready), and *correlated zone outages*: every slot
carries a seeded ``(zone, rack)`` failure domain, and a zone outage —
drawn from a zone MTBF or declared by a kill schedule — takes down every
server of the domain at once.  Periodic frame-level checkpoints (metered
as a bandwidth cost in fleet power) bound a retry's recomputation to the
checkpoint interval, and the failure-aware dispatcher steers work toward
long-uptime servers and retries away from the zone that lost them.
Fault-driven membership changes ride the same roster-refresh path as
autoscaling resizes, so both engines stay seed-for-seed identical under
any fault schedule.

Everything downstream of the seed is deterministic: the same
``(workload seed, policies, cluster seed, fault seed)`` tuple reproduces
the identical :class:`ClusterResult` on either engine.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
from collections import deque
from typing import Optional

from repro.constants import DEFAULT_POWER_CAP_W
from repro.errors import ClusterError
from repro.cluster.admission import AdmissionPolicy, AdmissionVerdict, CapacityThreshold
from repro.cluster.autoscale import AutoscalePolicy, AutoscaleSignals
from repro.cluster.batch import BatchStepper
from repro.cluster.brownout import BrownoutController
from repro.cluster.dispatch import DispatchPolicy, LeastLoaded
from repro.cluster.faults import FailureTopology, FaultConfig, FaultInjector
from repro.cluster.state import ClusterSnapshot, ServerSnapshot
from repro.cluster.workload import WorkloadEvent, WorkloadGenerator
from repro.core.persistence import restore_session_state, snapshot_session
from repro.manager.factories import ControllerFactory, mamut_factory
from repro.manager.orchestrator import Orchestrator
from repro.manager.session import TranscodingSession
from repro.metrics.cluster import ClusterResult
from repro.metrics.records import (
    FaultEvent,
    FleetSample,
    FrameLedger,
    PowerSample,
    ScalingEvent,
)
from repro.numeric import ordered_sum
from repro.platform.server import MulticoreServer
from repro.telemetry.config import Telemetry, resolve_telemetry
from repro.telemetry.metrics import QUEUE_WAIT_EDGES
from repro.telemetry.slo import StepDeltas

__all__ = ["ClusterResult", "ClusterOrchestrator"]

_LOG = logging.getLogger("repro.cluster")

# Lifecycle of one server slot.  Slots are append-only: a decommissioned
# server stops stepping but keeps its records and power trace in the result.
_WARMING = "warming"      # commissioned, idling through the provisioning delay
_ACTIVE = "active"        # dispatchable
_DRAINING = "draining"    # no new sessions; finishing the ones it has
_RETIRED = "retired"      # decommissioned; no longer stepping

# Health of one server slot, orthogonal to the lifecycle above.  Only an
# ACTIVE *and* HEALTHY slot is dispatchable; a FAILED slot is off power
# entirely (not live) until its seeded recovery.
_HEALTHY = "healthy"        # full service
_DEGRADED = "degraded"      # straggler throttle: keeps sessions, takes none
_FAILED = "failed"          # crashed; down until the seeded recovery step
_RECOVERING = "recovering"  # back on power, rebooting through the warm-up


class _ServerSlot:
    """One server's live bookkeeping inside the cluster."""

    __slots__ = (
        "index",
        "orchestrator",
        "state",
        "health",
        "last_power_w",
        "last_active",
        "active_count",
        "samples",
        "ready_step",
        "health_until",
        "warmup_fails",
        "zone",
        "rack",
        "crashes",
        "up_since",
    )

    def __init__(
        self, index: int, orchestrator: Orchestrator, commissioned_step: int
    ) -> None:
        self.index = index
        self.orchestrator = orchestrator
        self.state = _ACTIVE
        self.health = _HEALTHY
        # Before a server's first step its "last power" is its idle draw.
        self.last_power_w = orchestrator.server.idle_power_w
        self.last_active = 0
        self.active_count = 0
        self.samples: list[PowerSample] = []
        self.ready_step = commissioned_step
        # When the health spell ends: FAILED comes back on power,
        # RECOVERING finishes its reboot, DEGRADED's throttle expires.
        self.health_until = 0
        self.warmup_fails = False
        # Failure-domain identity and crash history; the orchestrator
        # assigns the domain from its topology right after construction.
        self.zone = 0
        self.rack = 0
        self.crashes = 0
        self.up_since = commissioned_step


class _Request:
    """One request, from its arrival to its terminal span.

    Built at arrival and held, while the request is theirs, by the
    admission queue, the retry queue and the in-flight registry.  ``event``
    is the arrival — also on a crash retry, so spans keep the request's
    user id — and ``attempt`` its crash count: a retry is a record with
    ``attempt > 0``.  While a session serves it, the record is in the
    in-flight registry: ``session`` is that session and ``videos_done`` the
    videos whose completion span has been emitted.  A crash moves the
    record to the retry queue and sets what the retry needs: ``playlist``
    (the unfinished videos), ``salvage`` (the dying session's
    :func:`~repro.core.persistence.snapshot_session`), ``ready_step`` (the
    end of the exponential backoff) and ``from_zone`` (the failure domain
    it was lost in, for failure-aware dispatch).  The retry dispatch points
    the same record at the replacement session.
    """

    __slots__ = (
        "event",
        "attempt",
        "session",
        "videos_done",
        "playlist",
        "salvage",
        "ready_step",
        "from_zone",
    )

    def __init__(self, event: WorkloadEvent) -> None:
        self.event = event
        self.attempt = 0
        self.session: Optional[TranscodingSession] = None
        self.videos_done = 0
        self.playlist = event.playlist
        self.salvage: Optional[dict] = None
        self.ready_step = 0
        self.from_zone: Optional[int] = None


class ClusterOrchestrator:
    """Runs a fleet of transcoding servers under arriving traffic.

    Parameters
    ----------
    num_servers:
        Servers in the initial fleet; each gets its own fresh
        :class:`~repro.platform.server.MulticoreServer`.
    workload:
        The arrival stream (see :class:`~repro.cluster.workload.WorkloadGenerator`).
    admission:
        Admission policy; defaults to :class:`~repro.cluster.admission.CapacityThreshold`.
    dispatcher:
        Load-balancing policy; defaults to :class:`~repro.cluster.dispatch.LeastLoaded`.
    controller_factory:
        Per-session controller builder ``(request, seed) -> Controller``;
        defaults to fresh MAMUT controllers under ``power_cap_w``.
    server_factory:
        Callable creating one server; also used for servers commissioned by
        the autoscaler mid-run.
    power_cap_w:
        Per-server power cap handed to the default controller factory; the
        fleet budget visible to admission policies is
        ``dispatchable_servers * power_cap_w``, which tracks the fleet as it
        is resized and as faults take servers out of the roster.
    seed:
        Seeds the per-session controller randomness (the workload carries
        its own seed).
    engine:
        ``"batch"`` (default) advances the fleet through the vectorized
        :class:`~repro.cluster.batch.BatchStepper`; ``"scalar"`` steps each
        server's sessions one by one.  Both engines produce identical
        results for the same seed.  The batch engine calls each model's
        ``*_batch`` form, so a model subclass that overrides a method and
        its ``*_batch`` form together runs on it; use ``"scalar"`` for one
        that overrides only the scalar method.
    autoscaler:
        Optional :class:`~repro.cluster.autoscale.AutoscalePolicy` consulted
        once per step (after admission, before stepping); in the drain tail
        it may only shrink the fleet.  ``None`` keeps the fleet fixed at
        ``num_servers``.
    min_servers, max_servers:
        Band the autoscaler's target is clamped to; default ``1`` and
        ``4 * num_servers``.
    provision_warmup_steps:
        Steps a commissioned server idles (drawing idle power) before it
        joins the dispatchable fleet; 0 makes new servers dispatchable on
        the next step.
    brownout:
        Optional :class:`~repro.cluster.brownout.BrownoutController`
        consulted once per arrival-window step (before admission).  While
        it reports a level above 0, the level is published on the
        scheduling snapshot and newly admitted sessions are served degraded
        (relaxed FPS target and/or the controller's ``degraded_factory``)
        instead of the fleet shedding load.
    faults:
        Optional :class:`~repro.cluster.faults.FaultConfig`; the orchestrator
        builds its :class:`~repro.cluster.faults.FaultInjector`, which
        injects seeded crashes, stragglers and warm-up failures during the
        arrival window (the drain tail runs fault-free, so admitted sessions
        always finish).  On a crash, in-flight sessions are salvaged: the
        remaining playlist is re-enqueued with a bounded retry budget and
        exponential backoff, and a successful re-dispatch copies the dying
        controller's learned state (Q-tables and visit counts, in memory)
        into the replacement — learning survives the migration.  Requests
        whose budget runs out land in the ``failed`` ledger.  Fault-driven
        membership changes flow through the same roster-refresh path as
        autoscaling resizes, so the scalar and batch engines stay
        seed-for-seed identical under any fault schedule.  A config with no
        fault mode enabled draws nothing and is bitwise identical to
        ``None``.

        The config's :class:`~repro.cluster.faults.FailureTopology` assigns
        every roster slot a ``(zone, rack)`` failure domain; correlated
        zone outages (drawn per-zone from ``zone_mtbf_steps`` or declared
        by a :class:`~repro.cluster.faults.KillSchedule`) crash every
        server of a zone at once.  With ``checkpoint_interval_frames`` set,
        sessions checkpoint periodically (a modeled bandwidth cost metered
        into fleet power) and crash retries resume the interrupted video
        from the last checkpoint instead of its start, bounding
        recomputation to the interval.
    """

    def __init__(
        self,
        num_servers: int,
        workload: WorkloadGenerator,
        admission: Optional[AdmissionPolicy] = None,
        dispatcher: Optional[DispatchPolicy] = None,
        controller_factory: Optional[ControllerFactory] = None,
        server_factory=MulticoreServer,
        power_cap_w: float = DEFAULT_POWER_CAP_W,
        seed: int = 0,
        engine: str = "batch",
        autoscaler: Optional[AutoscalePolicy] = None,
        min_servers: Optional[int] = None,
        max_servers: Optional[int] = None,
        provision_warmup_steps: int = 3,
        brownout: Optional[BrownoutController] = None,
        faults: Optional[FaultConfig] = None,
    ) -> None:
        if num_servers < 1:
            raise ClusterError(f"num_servers must be >= 1, got {num_servers}")
        if engine not in ("batch", "scalar"):
            raise ClusterError(
                f"engine must be 'batch' or 'scalar', got {engine!r}"
            )
        if provision_warmup_steps < 0:
            raise ClusterError(
                f"provision_warmup_steps must be >= 0, got {provision_warmup_steps}"
            )
        if faults is not None and not isinstance(faults, FaultConfig):
            raise ClusterError(
                f"faults must be a FaultConfig, got {type(faults).__name__}"
            )
        self.workload = workload
        self.admission = admission if admission is not None else CapacityThreshold()
        self.dispatcher = dispatcher if dispatcher is not None else LeastLoaded()
        self.controller_factory = (
            controller_factory
            if controller_factory is not None
            else mamut_factory(power_cap_w=power_cap_w)
        )
        self.server_factory = server_factory
        self.power_cap_w = float(power_cap_w)
        self.seed = int(seed)
        self.engine = engine
        self.autoscaler = autoscaler
        self.min_servers = int(min_servers) if min_servers is not None else 1
        self.max_servers = (
            int(max_servers) if max_servers is not None else 4 * num_servers
        )
        if self.min_servers < 1:
            raise ClusterError(f"min_servers must be >= 1, got {self.min_servers}")
        if self.max_servers < self.min_servers:
            raise ClusterError(
                f"max_servers ({self.max_servers}) must be >= min_servers "
                f"({self.min_servers})"
            )
        self.provision_warmup_steps = int(provision_warmup_steps)
        self._stepper: Optional[BatchStepper] = None
        self._fleet_changed = False
        # Every frame of the run, in one block of rows per dispatched session.
        self._frames = FrameLedger()
        self._slots = [
            _ServerSlot(index, Orchestrator(server=server_factory()), 0)
            for index in range(num_servers)
        ]
        self._scaling_events: list[ScalingEvent] = []
        self._fleet_trace: list[FleetSample] = []
        self._ran = False
        self._queue: deque[_Request] = deque()
        self._queue_class_counts: dict[str, int] = {}
        # The counts of the ClusterResult ledger, written only by _count and
        # _end.  The queue waits and the fault events are the ledger's two
        # lists.
        self._ledger = dict(
            arrivals=0,
            admitted=0,
            rejected=0,
            abandoned=0,
            dropped=0,
            degraded_sessions=0,
            brownout_steps=0,
            failed=0,
            retried=0,
            recomputed_frames=0,
            checkpoint_writes=0,
            checkpoint_energy_j=0.0,
        )
        self._queue_waits: list[int] = []
        self.brownout = brownout
        self._brownout_level = 0
        # A config with no fault mode enabled makes no draws; dropping it
        # here makes the disabled path literally the fault-free code.
        self.faults = (
            FaultInjector(faults) if faults is not None and faults.enabled else None
        )
        self._topology = (
            self.faults.topology if self.faults is not None else FailureTopology()
        )
        for slot in self._slots:
            slot.zone, slot.rack = self._topology.domain_of(slot.index)
        fault_cfg = self.faults.config if self.faults is not None else None
        self._ckpt_interval = (
            fault_cfg.checkpoint_interval_frames if fault_cfg is not None else None
        )
        self._ckpt_power = (
            fault_cfg.checkpoint_power_w if fault_cfg is not None else 0.0
        )
        self._fault_events: list[FaultEvent] = []
        self._failed_slots: list[_ServerSlot] = []
        # The rosters and fleet counts, taken once the slots have domains.
        self._live: list[_ServerSlot] = []
        self._refresh_fleet_views()
        # Crashed requests waiting for their retry, in crash order.
        self._retry_queue: list[_Request] = []
        # Running sessions by id(session), in dispatch order; a session
        # leaves when it ends or its server crashes.
        self._inflight: dict[int, _Request] = {}
        # Telemetry defaults to the shared all-null hub; run(telemetry=...)
        # rebinds before the first step.
        self._bind_telemetry(Telemetry.disabled())

    @property
    def orchestrators(self) -> list[Orchestrator]:
        """Per-server orchestrators, every server ever commissioned."""
        return [slot.orchestrator for slot in self._slots]

    @property
    def num_servers(self) -> int:
        """Servers currently powered on (warming and draining included)."""
        return len(self._live)

    # -- telemetry ---------------------------------------------------------------------

    def _bind_telemetry(self, telemetry: Telemetry) -> None:
        """Attach a telemetry hub: tracer, instruments and the profiler.

        Everything bound here is observe-only; with the disabled hub every
        attribute is a shared null object and each hook below degenerates to
        a no-op method call.
        """
        self.telemetry = telemetry
        self._tracer = telemetry.tracer
        self._profiler = telemetry.profiler
        self._metrics = telemetry.metrics
        for slot in self._slots:
            slot.orchestrator.profiler = telemetry.profiler
        m = telemetry.metrics
        # Counters mirroring a ledger count or a fault kind are keyed by it
        # (see _publish_counts), and gauges mirroring a FleetSample field by
        # the field (see _close_step).  Registration order is the order of
        # the exported text, so the kinds stay interleaved.
        ledger = self._ledger_metrics = {}
        faults = self._fault_metrics = {}
        fleet = self._fleet_metrics = {}
        fleet["queue_length"] = m.gauge(
            "repro_queue_length", "Admission queue length at end of step"
        )
        fleet["live_servers"] = m.gauge(
            "repro_live_servers", "Powered-on servers (warming/draining included)"
        )
        fleet["dispatchable_servers"] = m.gauge(
            "repro_dispatchable_servers", "Servers accepting new sessions"
        )
        fleet["warming_servers"] = m.gauge(
            "repro_warming_servers", "Commissioned servers still provisioning"
        )
        fleet["draining_servers"] = m.gauge(
            "repro_draining_servers", "Servers finishing sessions before retire"
        )
        fleet["active_sessions"] = m.gauge(
            "repro_active_sessions", "Running sessions fleet-wide"
        )
        fleet["brownout_level"] = m.gauge(
            "repro_brownout_level", "Fleet-wide degradation level (0 = normal)"
        )
        self._m_power = m.gauge(
            "repro_fleet_power_w", "Summed package power of powered-on servers"
        )
        ledger["arrivals"] = m.counter(
            "repro_arrivals_total", "Requests generated by the workload"
        )
        ledger["admitted"] = m.counter(
            "repro_admitted_total", "Requests dispatched to a server"
        )
        ledger["rejected"] = m.counter(
            "repro_rejected_total", "Requests turned away by admission"
        )
        ledger["dropped"] = m.counter(
            "repro_dropped_total", "Queued requests dropped past patience"
        )
        ledger["degraded_sessions"] = m.counter(
            "repro_degraded_total", "Sessions admitted at degraded quality"
        )
        self._m_frames = m.counter(
            "repro_frames_total", "Frames transcoded fleet-wide"
        )
        self._m_violations = m.counter(
            "repro_qos_violations_total", "Frames below their session FPS target"
        )
        self._m_wait = m.histogram(
            "repro_queue_wait_steps",
            QUEUE_WAIT_EDGES,
            "Queue wait of admitted requests, in steps",
        )
        fleet["healthy_servers"] = m.gauge(
            "repro_fleet_healthy_servers",
            "Dispatchable servers in full health",
        )
        faults["crash"] = m.counter(
            "repro_server_crashes_total", "Injected abrupt server failures"
        )
        faults["straggler"] = m.counter(
            "repro_stragglers_total", "Injected transient server throttles"
        )
        ledger["retried"] = m.counter(
            "repro_retried_total",
            "Sessions salvaged from a crash and re-dispatched",
        )
        ledger["failed"] = m.counter(
            "repro_failed_total",
            "Admitted requests lost to crashes past their retry budget",
        )
        fleet["available_domains"] = m.gauge(
            "repro_fleet_available_domains",
            "Failure zones with at least one dispatchable server",
        )
        faults["zone_outage"] = m.counter(
            "repro_zone_outages_total",
            "Injected correlated zone outages (drawn or scheduled)",
        )
        ledger["recomputed_frames"] = m.counter(
            "repro_recomputed_frames_total",
            "Frames re-transcoded by crash retries",
        )

    def _count(self, field: str, amount: float = 1) -> None:
        """Bump one ledger count."""
        self._ledger[field] += amount

    def _end(self, entry: _Request, kind: str, step: int, **span) -> None:
        """End a request: count its outcome, then emit its terminal span.

        Every terminal kind but ``served`` is the ledger count of the same
        name, so the span stream and the ledger agree by construction.
        """
        if kind != "served":
            self._ledger[kind] += 1
        self._tracer.emit(kind, step, entry.event.request.user_id, **span)

    def _fault(self, event: FaultEvent, target: Optional[str] = None, **span) -> None:
        """Record one fault or recovery: its event and, when it names a span
        ``target``, its ``fault`` span."""
        self._fault_events.append(event)
        if target is not None:
            self._tracer.emit("fault", event.step, target, fault=event.kind, **span)

    def _publish_counts(self, before: dict, faults: int) -> None:
        """Add each mirrored counter's change: its ledger count's since
        ``before`` (a copy of the ledger), its fault kind's from the
        ``faults``-th fault event on."""
        ledger = self._ledger
        for field, counter in self._ledger_metrics.items():
            change = ledger[field] - before[field]
            if change:
                counter.inc(change)
        for event in self._fault_events[faults:]:
            counter = self._fault_metrics.get(event.kind)
            if counter is not None:
                counter.inc()

    def _count_verdict(self, verdict: AdmissionVerdict) -> None:
        if self._metrics.enabled:
            self._metrics.counter(
                "repro_admission_verdicts_total",
                "Admission decisions by policy and verdict",
                labels={
                    "policy": self.admission.name,
                    "verdict": verdict.name.lower(),
                },
            ).inc()

    def _walk_inflight(self, step: int) -> None:
        """Retire the sessions that ended this step from the in-flight registry.

        Walks the registry in dispatch order — identical on both engines, so
        scalar and batch runs produce the same span stream — emitting each
        session's video-completion spans and, once it has ended, its
        ``served`` span.
        """
        tracer = self._tracer
        ended = []
        for key, entry in self._inflight.items():
            session = entry.session
            if tracer.enabled:
                request_id = entry.event.request.user_id
                while entry.videos_done < session.video_index:
                    entry.videos_done += 1
                    tracer.emit(
                        "video_complete",
                        step,
                        request_id,
                        video=entry.videos_done,
                        videos=len(session.playlist),
                    )
            if not session.active:
                ended.append(key)
                self._end(entry, "served", step, frames=session.step, completed=True)
        for key in ended:
            del self._inflight[key]

    # -- state -------------------------------------------------------------------------

    def _refresh_fleet_views(self) -> None:
        """Take the fleet census after a membership or health change.

        The one place the fleet is counted: the rosters, the live slots that
        are not dispatchable (``_offline``) and the warming ones, and the
        server counts, keyed by their :class:`FleetSample` field.

        Only fully healthy ACTIVE slots are dispatchable — degraded
        (throttled) and recovering servers take no new sessions, which is
        how "dispatch and admission skip unhealthy slots" falls out of the
        existing snapshot machinery for free.  A FAILED slot is off power
        entirely: it leaves the live roster (and therefore the batch
        stepper's fleet) exactly like a decommission, and rejoins like a
        commission once recovered — fault-driven membership changes reuse
        the resize path, which is what keeps both engines bitwise equal
        under any fault schedule.
        """
        live = [
            s for s in self._slots if s.state != _RETIRED and s.health != _FAILED
        ]
        self._dispatchable = [
            s for s in live if s.state == _ACTIVE and s.health == _HEALTHY
        ]
        self._offline = offline = [
            s for s in live if s.state != _ACTIVE or s.health != _HEALTHY
        ]
        self._warming = [s for s in offline if s.state == _WARMING]
        states = [s.state for s in offline]
        healths = [s.health for s in offline]
        self._census = {
            "warming_servers": len(self._warming),
            "draining_servers": states.count(_DRAINING),
            "degraded_servers": healths.count(_DEGRADED),
            "failed_servers": len(self._failed_slots),
            "recovering_servers": healths.count(_RECOVERING),
            "available_domains": len({s.zone for s in self._dispatchable}),
        }
        # A batch stepper is bound to the stepped (live) fleet; state flips
        # that keep the same servers powered on (warming -> active, active
        # -> draining) don't invalidate it.  A stepper holds only caches, so
        # it is dropped with nothing to save: the next one takes them over
        # (its lanes, its MamutBatch and its allocator, moved to the new
        # fleet in place).
        if live != self._live:
            self._fleet_changed = True
        self._live = live
        self.fleet_power_cap_w = len(self._dispatchable) * self.power_cap_w

    def snapshot(self, step: int, queue_length: int) -> ClusterSnapshot:
        """Immutable fleet state as seen by admission/dispatch policies.

        Covers the *dispatchable* servers (warming and draining servers take
        no new sessions); ``server_index`` is the position within this
        snapshot, which is what dispatch policies return.  Warming and
        draining servers are summarised instead: their current draw feeds
        ``offline_power_w`` (so cap-enforcing policies see the whole
        fleet's power, not just the dispatchable slots) and the warming
        pipeline feeds ``warming_servers``/``warming_ready_in`` (so
        admission can queue toward capacity that is about to exist).  Built
        from the incrementally maintained per-server counters and the fleet
        census — O(servers), no session-list walks and no recounts.
        """
        servers = tuple(
            ServerSnapshot(
                server_index=index,
                active_sessions=slot.active_count,
                last_power_w=slot.last_power_w,
                # Sessions join a slot only through _dispatch, and its
                # orchestrator keeps every session it was given.
                sessions_dispatched=len(slot.orchestrator.sessions),
                idle_power_w=slot.orchestrator.server.idle_power_w,
                last_active_sessions=slot.last_active,
                zone=slot.zone,
                rack=slot.rack,
                crash_count=slot.crashes,
                uptime_steps=max(0, step - slot.up_since),
            )
            for index, slot in enumerate(self._dispatchable)
        )
        census = self._census
        return ClusterSnapshot(
            step=step,
            servers=servers,
            queue_length=queue_length,
            power_cap_w=self.fleet_power_cap_w,
            # Powered on but not dispatchable: warming, draining, throttled
            # or rebooting servers all draw real power against the budget.
            offline_power_w=ordered_sum(
                (slot.last_power_w for slot in self._offline), 0.0
            ),
            warming_servers=census["warming_servers"],
            warming_ready_in=min(
                (max(0, slot.ready_step - step) for slot in self._warming),
                default=None,
            ),
            brownout_level=self._brownout_level,
            queue_by_class=self._queue_class_view(queue_length),
            degraded_servers=census["degraded_servers"],
            failed_servers=census["failed_servers"],
            recovering_servers=census["recovering_servers"],
        )

    def _queue_class_view(self, queue_length: int) -> dict[str, int]:
        """The per-class queue breakdown published on snapshots.

        Keyed off the *effective* queue length so a drain-tail snapshot
        (which reports an unservable leftover queue as 0) stays internally
        consistent.
        """
        if queue_length == 0:
            return {}
        return {cls: n for cls, n in self._queue_class_counts.items() if n > 0}

    def _derive_snapshot(
        self,
        step: int,
        queue_length: int,
        base: Optional[ClusterSnapshot],
    ) -> ClusterSnapshot:
        """The snapshot for the next decision or the autoscaler's signals,
        derived from the step's previous one.

        Between two reads in the same step only the queue (its length and
        per-class breakdown) changes — dispatches update the base through
        :meth:`_bump_server` — so the previous snapshot is reused instead of
        being rebuilt from the fleet.
        """
        if base is None:
            return self.snapshot(step, queue_length)
        view = self._queue_class_view(queue_length)
        if base.queue_length != queue_length or base.queue_by_class != view:
            return dataclasses.replace(
                base, queue_length=queue_length, queue_by_class=view
            )
        return base

    @staticmethod
    def _bump_server(snapshot: ClusterSnapshot, index: int) -> ClusterSnapshot:
        """The snapshot after one dispatch to ``index`` (one more session)."""
        server = snapshot.servers[index]
        bumped = dataclasses.replace(
            server,
            active_sessions=server.active_sessions + 1,
            sessions_dispatched=server.sessions_dispatched + 1,
        )
        servers = (
            snapshot.servers[:index] + (bumped,) + snapshot.servers[index + 1 :]
        )
        return dataclasses.replace(snapshot, servers=servers)

    # -- execution ---------------------------------------------------------------------

    def run(
        self,
        duration: int,
        drain: bool = True,
        max_drain_steps: Optional[int] = None,
        telemetry=None,
    ) -> ClusterResult:
        """Serve ``duration`` steps of arriving traffic.

        With ``drain=True`` (the default) the fleet keeps stepping after the
        arrival window until every admitted playlist finishes, so sessions
        admitted late are never cut off mid-video.  Draining closes
        admission: requests still queued when the window ends are *not*
        served by capacity freed during the tail — they are reported as
        ``abandoned``.  ``max_drain_steps`` bounds the tail for overload
        experiments.  The tail runs the window's step body with admission
        closed: no faults are injected, nothing is aged or admitted, and the
        autoscaler keeps running but may only shrink the fleet.

        ``telemetry`` accepts a :class:`~repro.telemetry.TelemetryConfig` or
        a built :class:`~repro.telemetry.Telemetry` hub.  Observation is
        strictly read-only — no RNG draws, no model inputs — so any
        combination of tracing, metrics and profiling leaves the seeded
        results bit-for-bit unchanged (enforced by the telemetry tests).
        The hub stays accessible as ``self.telemetry`` after the run, with
        exports flushed.

        A cluster orchestrator is single-use: the per-server orchestrators
        keep their sessions, so a second ``run()`` would silently mix the
        runs' records.  Build a fresh instance per run instead.
        """
        if duration < 0:
            raise ClusterError(f"duration must be >= 0, got {duration}")
        if max_drain_steps is not None and max_drain_steps < 0:
            raise ClusterError(f"max_drain_steps must be >= 0, got {max_drain_steps}")
        if self._ran:
            raise ClusterError(
                "this ClusterOrchestrator has already run; create a fresh "
                "instance per run"
            )
        if self.workload.consumed:
            raise ClusterError(
                "the workload generator has already produced arrivals, so its "
                "trace would not start from the seed; create a fresh "
                "WorkloadGenerator (the same seed reproduces the trace)"
            )
        self._ran = True
        self._bind_telemetry(resolve_telemetry(telemetry))
        for step in range(duration):
            self._step(step, admitting=True)
        steps = duration
        # Admission closes with the arrival window, so brownout — which
        # only shapes the admission of *new* sessions — ends with it: the
        # drain-tail fleet trace records level 0, consistent with the
        # ``brownout_steps`` counter that stopped with the window.
        self._brownout_level = 0
        if drain:
            while any(slot.active_count > 0 for slot in self._live):
                if max_drain_steps is not None and steps - duration >= max_drain_steps:
                    break
                self._step(steps, admitting=False)
                steps += 1

        # Close every open lifecycle, one terminal span per arrival.  Retries
        # still pending can never be served (admission closed with the
        # arrival window): their requests join the ``failed`` ledger.
        # Sessions cut off by the end of the run (drain disabled or bounded)
        # end ``served`` with ``completed: false``; requests still queued
        # end ``abandoned``.
        before = dict(self._ledger)
        for entry in self._retry_queue:
            self._end(entry, "failed", steps, attempts=entry.attempt, pending=True)
        self._retry_queue = []
        for entry in self._inflight.values():
            self._end(
                entry, "served", steps, frames=entry.session.step, completed=False
            )
        for entry in self._queue:
            self._end(
                entry, "abandoned", steps, waited=steps - entry.event.arrival_step
            )
        if self._metrics.enabled:
            self._publish_counts(before, len(self._fault_events))
        self.telemetry.finalize()

        return ClusterResult(
            records_by_server=tuple(
                {
                    session.session_id: session.records.fixed()
                    for session in slot.orchestrator.sessions
                }
                for slot in self._slots
            ),
            samples_by_server=tuple(tuple(slot.samples) for slot in self._slots),
            queue_waits=tuple(self._queue_waits),
            steps=steps,
            scaling_events=tuple(self._scaling_events),
            fleet_trace=tuple(self._fleet_trace),
            fault_events=tuple(self._fault_events),
            **self._ledger,
        )

    # -- internals ---------------------------------------------------------------------

    def _step(self, step: int, admitting: bool) -> None:
        """One cluster step: the body of the arrival window and the drain tail.

        A window step (``admitting``) injects faults, ages the queue and
        runs admission before the fleet steps.  A drain-tail step does none
        of these, and its autoscaler may only shrink the fleet.  A step
        builds at most one :class:`ClusterSnapshot`: the autoscaler derives
        its own from the last one admission saw.  What the step counted is
        its change in the ledger since the copy taken here: the autoscaler
        reads the arrivals once admission is over, and :meth:`_close_step`
        reads the rest.
        """
        before = dict(self._ledger)
        faults = len(self._fault_events)
        waits = len(self._queue_waits)
        self._update_fleet(step)
        snapshot: Optional[ClusterSnapshot] = None
        if admitting:
            if self.faults is not None:
                self._inject_faults(step)
            # Age the queue before anything gets a claim on capacity:
            # requests past their patience deadline are dropped, never
            # admitted, and never counted in the queue waits.
            self._age_queue(step)
            snapshot = self._admit_step(step)
        if self.autoscaler is not None:
            arrivals = self._ledger["arrivals"] - before["arrivals"]
            self._autoscale(step, arrivals, admitting, snapshot)
        frames, violations = self._advance(step)
        self._close_step(step, before, faults, waits, frames, violations)
        self._walk_inflight(step)

    def _admit_step(self, step: int) -> Optional[ClusterSnapshot]:
        """Brownout, then one admission decision per request; returns the
        step's last snapshot.

        Crash survivors whose backoff has elapsed get first claim on
        capacity — they were admitted before anyone queued — then queued
        requests (FIFO: stop at the first one the policy keeps queued), then
        the step's new arrivals.  The last snapshot is the brownout
        observation's or the last decision's, bumped by every dispatch
        (``None`` when the step observed and decided nothing).
        """
        queue = self._queue
        snapshot: Optional[ClusterSnapshot] = None
        if self.brownout is not None:
            snapshot = self.snapshot(step, len(queue))
            level = self.brownout.observe(snapshot)
            if level != self._brownout_level:
                _LOG.debug(
                    "step %d: brownout level %d -> %d",
                    step,
                    self._brownout_level,
                    level,
                )
                self._brownout_level = level
                snapshot = dataclasses.replace(snapshot, brownout_level=level)
            if level > 0:
                self._count("brownout_steps")

        # Retries bypass the patience queue (the user already paid their
        # wait): a QUEUE or REJECT verdict leaves the retry pending for the
        # next step rather than consuming a retry attempt — attempts are
        # spent only on crashes.
        pending: list[_Request] = []
        for entry in self._retry_queue:
            if step >= entry.ready_step:
                verdict, snapshot = self._admit(step, entry, len(queue), snapshot)
                if verdict is AdmissionVerdict.ADMIT:
                    continue
            pending.append(entry)
        self._retry_queue = pending

        # The head is excluded from the backlog its own decision sees (both
        # the aggregate length and its class's count); a QUEUE verdict puts
        # it back.
        while queue:
            head = queue[0]
            self._queue_class_counts[head.event.service_class] -= 1
            verdict, snapshot = self._admit(step, head, len(queue) - 1, snapshot)
            if verdict is AdmissionVerdict.QUEUE:
                self._queue_class_counts[head.event.service_class] += 1
                break
            queue.popleft()

        for event in self.workload.arrivals(step):
            if self.faults is not None and "#r" in event.request.user_id:
                # Retry re-dispatches are recorded under synthesized
                # "<user>#r<attempt>" keys; a raw user id containing "#r"
                # could collide with them (user "a#r2" vs retry 2 of user
                # "a"), silently merging two requests' ledgers.  Reject at
                # admission instead of risking the collision.
                raise ClusterError(
                    f"user id {event.request.user_id!r} contains the "
                    "reserved retry-key marker '#r'; rename the user — "
                    "crash retries are recorded under '<user>#r<n>' keys"
                )
            self._count("arrivals")
            self._tracer.emit(
                "arrival",
                step,
                event.request.user_id,
                service_class=event.service_class,
                frames=event.total_frames,
                patience=event.patience_steps,
            )
            entry = _Request(event)
            verdict, snapshot = self._admit(step, entry, len(queue), snapshot)
            if verdict is AdmissionVerdict.QUEUE:
                queue.append(entry)
                self._queue_class_counts[event.service_class] = (
                    self._queue_class_counts.get(event.service_class, 0) + 1
                )
                self._tracer.emit(
                    "queued",
                    step,
                    event.request.user_id,
                    queue_length=len(queue),
                )
        return snapshot

    def _admit(
        self,
        step: int,
        entry: _Request,
        queue_length: int,
        snapshot: Optional[ClusterSnapshot],
    ) -> tuple[AdmissionVerdict, ClusterSnapshot]:
        """Decide one request and carry the verdict out.

        The one admission path of crash retries, queued requests and new
        arrivals.  The decision sees the snapshot derived for
        ``queue_length``; an ADMIT dispatches and a REJECT ends the request,
        except that a retry's REJECT, like every QUEUE, is left to the
        caller.  Returns the verdict and the snapshot after it.
        """
        event = entry.event
        snapshot = self._derive_snapshot(step, queue_length, snapshot)
        verdict = self._resolve_verdict(
            self.admission.decide(event, snapshot), snapshot
        )
        self._count_verdict(verdict)
        if verdict is AdmissionVerdict.ADMIT:
            snapshot = self._dispatch(entry, snapshot)
        elif verdict is AdmissionVerdict.REJECT and not entry.attempt:
            self._end(
                entry,
                "rejected",
                step,
                policy=self.admission.name,
                waited=step - event.arrival_step,
            )
        return verdict, snapshot

    @staticmethod
    def _resolve_verdict(
        verdict: AdmissionVerdict, snapshot: ClusterSnapshot
    ) -> AdmissionVerdict:
        """The verdict the orchestrator executes.

        An ``ADMIT`` with zero dispatchable servers (the whole fleet warming
        or draining through a scaling transient) has nowhere to go: hold the
        request instead of crashing dispatch.  The shipped policies already
        answer ``QUEUE``/``REJECT`` in that state; this backstop covers
        :class:`~repro.cluster.admission.AlwaysAdmit` and custom policies.
        """
        if verdict is AdmissionVerdict.ADMIT and not snapshot.servers:
            return AdmissionVerdict.QUEUE
        return verdict

    def _age_queue(self, step: int) -> None:
        """Drop queued requests past their patience deadline."""
        queue = self._queue
        if not queue:
            return
        kept = []
        for entry in queue:
            event = entry.event
            if event.expired(step):
                self._queue_class_counts[event.service_class] -= 1
                self._end(entry, "dropped", step, waited=step - event.arrival_step)
            else:
                kept.append(entry)
        if len(kept) < len(queue):
            queue.clear()
            queue.extend(kept)

    def _dispatch(self, entry: _Request, snapshot: ClusterSnapshot) -> ClusterSnapshot:
        """Route an admitted request using the snapshot its admission saw
        (cluster state cannot change between the two decisions); returns the
        snapshot after the dispatch.

        A retry (``entry.attempt > 0``) is a crash-recovery re-dispatch: the
        session is rebuilt from the record's remaining playlist under a
        ``<user>#r<attempt>`` record key (the crashed server keeps the
        partial records under the original key), resumes the interrupted
        video at the salvaged checkpoint frame, and the dying controller's
        learned state is copied into the replacement — the migrated session
        resumes with its learning intact.  The dispatcher's view of the
        snapshot is annotated with the zone the session was lost in
        (``retry_of_zone``) so failure-aware policies can spread retries
        across domains.  Trace spans keep the ORIGINAL user id throughout,
        so a request's lifecycle stays one stream no matter how often it
        migrates.  A retry counts as ``retried``, not ``admitted`` (the
        request was admitted once already), and its wait does not join the
        queue waits.
        """
        event = entry.event
        retry = entry.attempt > 0
        policy_view = snapshot
        if retry:
            policy_view = dataclasses.replace(
                snapshot, retry_of_zone=entry.from_zone
            )
        index = self.dispatcher.select(event, policy_view)
        if not 0 <= index < len(snapshot.servers):
            raise ClusterError(
                f"{self.dispatcher.name} chose server {index} "
                f"of a {len(snapshot.servers)}-server dispatchable fleet"
            )
        wait = snapshot.step - event.arrival_step
        request = event.request
        if retry:
            request = dataclasses.replace(
                request,
                user_id=f"{request.user_id}#r{entry.attempt}",
                sequence=entry.playlist[0],
            )
        factory = self.controller_factory
        degraded = self._brownout_level > 0 and self.brownout is not None
        if degraded:
            # The brownout bargain: served, but degraded.  The relaxed
            # request is used for the session too, so QoS accounting holds
            # the fleet to the target the user actually got.
            request = self.brownout.degrade_request(request)
            if self.brownout.degraded_factory is not None:
                factory = self.brownout.degraded_factory
            self._count("degraded_sessions")
        # One controller seed per dispatch: first dispatches and retries.
        dispatches = self._ledger["admitted"] + self._ledger["retried"]
        controller = factory(request, self.seed + dispatches)
        start_frame = 0
        retry_fields = {}
        if retry:
            salvage = entry.salvage
            restore_session_state(controller, salvage)
            start_frame = salvage["resume_frame"]
            retry_fields = {"retry": entry.attempt, "resume_frame": start_frame}
            # Recomputation is charged when the retry actually runs: the
            # frames between the resume point and the crash point are work
            # the fleet does twice.
            self._count("recomputed_frames", salvage["recomputed_frames"])
            self._count("retried")
        else:
            self._count("admitted")
            self._queue_waits.append(wait)
        session = TranscodingSession(
            request=request,
            controller=controller,
            playlist=entry.playlist,
            start_frame_index=start_frame,
            ledger=self._frames,
        )
        slot = self._dispatchable[index]
        slot.orchestrator.add_session(session)
        slot.active_count += 1
        entry.session = session
        entry.videos_done = 0
        self._inflight[id(session)] = entry
        self._tracer.emit(
            "dispatched",
            snapshot.step,
            event.request.user_id,
            server=slot.index,
            wait_steps=wait,
            degraded=degraded,
            brownout_level=self._brownout_level,
            **retry_fields,
        )
        return self._bump_server(snapshot, index)

    def _update_fleet(self, step: int) -> None:
        """Activate warmed-up servers; retire drained ones; heal the sick.

        Walks the failed and the non-dispatchable live slots (every slot a
        step can change), not the append-only slot history, so the per-step
        cost tracks the fleet's transients rather than every server ever
        commissioned.  Failure recovery is folded in here: crashed
        servers whose seeded downtime has elapsed come back on power and
        reboot through the provisioning warm-up before rejoining the
        dispatchable roster, and straggler throttles expire.  All of it is
        pure bookkeeping off pre-drawn schedules — no RNG draws — so the
        scalar and batch engines see identical fleets.
        """
        changed = False
        for slot in list(self._failed_slots):
            if step >= slot.health_until:
                # Back on power: reboot through the warm-up like a freshly
                # commissioned server (idle draw, no new sessions) before
                # returning to full health below.
                slot.health = _RECOVERING
                slot.health_until = step + self.provision_warmup_steps
                self._failed_slots.remove(slot)
                changed = True
        for slot in self._offline:
            if slot.health == _RECOVERING and step >= slot.health_until:
                slot.health = _HEALTHY
                # A reboot resets the observed uptime; a throttle expiring
                # below does not (the machine never went down).
                slot.up_since = step
                self._fault(
                    FaultEvent(
                        step=step,
                        kind="recovered",
                        server=slot.index,
                        zone=slot.zone,
                        rack=slot.rack,
                    )
                )
                changed = True
            elif slot.health == _DEGRADED and step >= slot.health_until:
                slot.health = _HEALTHY
                self._fault(
                    FaultEvent(
                        step=step,
                        kind="recovered",
                        server=slot.index,
                        detail="throttle expired",
                    )
                )
                changed = True
            if slot.state == _WARMING and step >= slot.ready_step:
                if slot.warmup_fails:
                    # The provision never comes ready: the slot is written
                    # off as both retired and failed.  It held no sessions,
                    # so nothing is lost; the autoscaler simply sees the
                    # capacity it ordered fail to appear and re-orders.
                    slot.state = _RETIRED
                    slot.health = _FAILED
                    self._fault(
                        FaultEvent(
                            step=step,
                            kind="warmup_failure",
                            server=slot.index,
                            detail="provision never became ready",
                        ),
                        f"server-{slot.index}",
                        server=slot.index,
                    )
                else:
                    slot.state = _ACTIVE
                    slot.up_since = step
                changed = True
            elif slot.state == _DRAINING and slot.active_count == 0:
                slot.state = _RETIRED
                changed = True
        if changed:
            self._refresh_fleet_views()

    def _inject_faults(self, step: int) -> None:
        """Draw this step's faults from the seeded injector and apply them.

        Correlated failures first: scheduled zone kills (no draws), then
        the per-zone MTBF draws on the injector's dedicated domain
        substream — a fixed number of draws per step regardless of fleet
        membership, so the zonal schedule survives autoscale resizes
        bitwise unchanged.  Then the per-server draws: walks the live
        roster in slot order making one Bernoulli draw per vulnerable
        server — the draw order depends only on fleet membership, never on
        which engine steps the fleet, so both engines see the identical
        fault schedule.  Servers a zone kill just took down are skipped by
        the per-server walk (they are no longer vulnerable).  Runs only
        during the arrival window: the drain tail is fault-free, which
        guarantees admitted sessions eventually finish instead of looping
        crash-and-retry forever.
        """
        faults = self.faults
        changed = False
        for entry in faults.scheduled_kills(step):
            changed |= self._kill_zone(
                step, entry.zone, entry.duration, scheduled=True
            )
        for zone, downtime in faults.zone_outages():
            changed |= self._kill_zone(step, zone, downtime, scheduled=False)
        for slot in list(self._live):
            if slot.state not in (_ACTIVE, _DRAINING):
                continue  # warming servers fail via warmup_fails instead
            if slot.health not in (_HEALTHY, _DEGRADED):
                continue
            if faults.crashes():
                self._crash_slot(slot, step)
                changed = True
            elif slot.health == _HEALTHY and faults.straggles():
                slot.health = _DEGRADED
                slot.health_until = step + faults.throttle_steps()
                self._fault(
                    FaultEvent(
                        step=step,
                        kind="straggler",
                        server=slot.index,
                        detail=f"throttled until step {slot.health_until}",
                    ),
                    f"server-{slot.index}",
                    server=slot.index,
                    until=slot.health_until,
                )
                changed = True
        if changed:
            self._refresh_fleet_views()

    def _kill_zone(
        self, step: int, zone: int, downtime: int, scheduled: bool
    ) -> bool:
        """Take a whole failure zone down at once; returns True on change.

        Every powered-on server of the zone that a per-server crash could
        hit (ACTIVE/DRAINING, HEALTHY/DEGRADED) crashes simultaneously,
        all sharing the outage's single downtime — zone power loss, not N
        independent failures.  Warming servers ride out the outage on the
        provisioning path (they hold no sessions).  The outage itself is
        recorded as one ``zone_outage`` fault event (``server=-1``)
        alongside the per-server crash events it causes.
        """
        victims = [
            s
            for s in self._live
            if s.zone == zone
            and s.state in (_ACTIVE, _DRAINING)
            and s.health in (_HEALTHY, _DEGRADED)
        ]
        cause = "scheduled kill" if scheduled else "drawn outage"
        self._fault(
            FaultEvent(
                step=step,
                kind="zone_outage",
                server=-1,
                sessions_lost=ordered_sum(s.active_count for s in victims),
                detail=(
                    f"{cause}: {len(victims)} servers down for "
                    f"{downtime} steps"
                ),
                zone=zone,
            ),
            f"zone-{zone}",
            zone=zone,
            servers=len(victims),
            scheduled=scheduled,
            downtime=downtime,
        )
        for slot in victims:
            self._crash_slot(slot, step, downtime=downtime)
        return bool(victims)

    def _crash_slot(
        self, slot: _ServerSlot, step: int, downtime: Optional[int] = None
    ) -> None:
        """Abruptly kill one server; salvage its in-flight sessions.

        Every session running on the slot is terminated in place (its
        partial records stay in the ledger under the original user id), and
        its in-flight record moves to the retry queue with exponential
        backoff, carrying the unfinished rest of the playlist and the
        salvage (the dying controller, whose learned state the retry copies,
        plus the checkpointed progress) — unless the request has exhausted
        its retry budget, in which case it lands in the ``failed`` ledger.
        The slot itself goes off power until its seeded recovery step.
        ``downtime`` overrides the per-crash MTTR draw — zone outages pass
        the single downtime every victim of the outage shares.
        """
        faults = self.faults
        sessions = slot.orchestrator.active_sessions()
        slot.health = _FAILED
        if downtime is None:
            downtime = faults.downtime_steps()
        slot.health_until = step + downtime
        slot.active_count = 0
        slot.crashes += 1
        self._failed_slots.append(slot)
        self._fault(
            FaultEvent(
                step=step,
                kind="crash",
                server=slot.index,
                sessions_lost=len(sessions),
                detail=f"down until step {slot.health_until}",
                zone=slot.zone,
                rack=slot.rack,
            ),
            f"server-{slot.index}",
            server=slot.index,
            sessions_lost=len(sessions),
            zone=slot.zone,
        )
        for session in sessions:
            entry = self._inflight.pop(id(session))
            frames_done = session.step
            entry.attempt += 1
            self._tracer.emit(
                "interrupted",
                step,
                entry.event.request.user_id,
                server=slot.index,
                frames=frames_done,
                attempt=entry.attempt,
                zone=slot.zone,
            )
            if entry.attempt > faults.config.max_retries:
                self._end(
                    entry, "failed", step, attempts=entry.attempt, frames=frames_done
                )
            else:
                entry.playlist = tuple(session.playlist[session.video_index :])
                entry.salvage = snapshot_session(
                    session, checkpoint_interval=self._ckpt_interval
                )
                entry.ready_step = faults.retry_ready_step(step, entry.attempt)
                entry.from_zone = slot.zone
                self._retry_queue.append(entry)
            session.terminate()

    def _autoscale(
        self,
        step: int,
        arrivals: int,
        admitting: bool,
        snapshot: Optional[ClusterSnapshot],
    ) -> None:
        """Consult the policy and execute its (clamped) fleet-size target.

        In the drain tail (not ``admitting``) the fleet may only shrink, and
        the policy sees an effective queue of 0: the leftover queue can
        never be served, and a backlog nobody will admit must not block
        "scale down only when the queue is empty" rules and keep idle
        servers powered through the whole tail.  The policy's snapshot is
        derived from ``snapshot``, the step's last admission snapshot
        (nothing but the queue moves between the two), or built when the
        step has none.
        """
        warming = self._census["warming_servers"]
        provisioned = len(self._dispatchable) + warming
        signals = AutoscaleSignals(
            step=step,
            snapshot=self._derive_snapshot(
                step, len(self._queue) if admitting else 0, snapshot
            ),
            arrivals=arrivals,
            provisioned_servers=provisioned,
            warming_servers=warming,
            draining_servers=self._census["draining_servers"],
            min_servers=self.min_servers,
            max_servers=self.max_servers,
            draining_tail=not admitting,
            brownout_level=self._brownout_level,
        )
        decision = self.autoscaler.decide(signals)
        target = min(max(decision.target_servers, self.min_servers), self.max_servers)
        if not admitting:
            target = min(target, provisioned)
        if target > provisioned:
            self._commission(target - provisioned, step, provisioned, decision.reason)
        elif target < provisioned:
            self._decommission(provisioned - target, step, provisioned, decision.reason)

    def _commission(self, count: int, step: int, provisioned: int, reason: str) -> None:
        """Grow by ``count``: rescue draining servers, then power on fresh ones.

        A draining server is already warm, so cancelling its decommission
        restores capacity instantly and for free; only the remainder pays
        the provisioning warm-up.  The busiest draining servers are rescued
        first (ties to the oldest) — they hold the most capacity.
        """
        remaining = count
        draining = [s for s in self._offline if s.state == _DRAINING]
        for slot in sorted(draining, key=lambda s: (-s.active_count, s.index)):
            if remaining == 0:
                break
            slot.state = _ACTIVE
            remaining -= 1
        for _ in range(remaining):
            slot = _ServerSlot(
                len(self._slots), Orchestrator(server=self.server_factory()), step
            )
            # The domain is a pure function of the slot index, so a server
            # commissioned mid-run lands in the same zone it would have had
            # in a bigger initial fleet — resizes never reshuffle domains.
            slot.zone, slot.rack = self._topology.domain_of(slot.index)
            slot.orchestrator.profiler = self._profiler
            slot.ready_step = step + self.provision_warmup_steps
            if self.provision_warmup_steps > 0:
                slot.state = _WARMING
                if self.faults is not None:
                    # Whether this provision ever comes ready is drawn at
                    # commission time (one draw per fresh server, in slot
                    # order) and manifests at ready_step — engine-agnostic
                    # by construction, like every other fault draw.
                    slot.warmup_fails = self.faults.provision_fails()
            self._slots.append(slot)
        self._resized(step, count, provisioned, reason)

    def _decommission(self, count: int, step: int, provisioned: int, reason: str) -> None:
        """Shrink by ``count``: cancel warming servers first, then drain.

        Draining servers take no new sessions and retire once their last
        session finishes — active sessions are never killed.  Among the
        dispatchable servers the emptiest drain first (ties to the newest),
        so capacity is released as quickly as possible.
        """
        remaining = count
        for slot in reversed(self._warming):
            if remaining == 0:
                break
            slot.state = _RETIRED
            remaining -= 1
        if remaining > 0:
            candidates = sorted(
                self._dispatchable, key=lambda s: (s.active_count, -s.index)
            )
            for slot in candidates[:remaining]:
                if slot.active_count == 0:
                    slot.state = _RETIRED
                else:
                    slot.state = _DRAINING
        self._resized(step, -count, provisioned, reason)

    def _resized(self, step: int, delta: int, provisioned: int, reason: str) -> None:
        """After a resize by ``delta`` servers: census, log, counter, event."""
        self._refresh_fleet_views()
        direction = "up" if delta > 0 else "down"
        _LOG.debug(
            "step %d: scale %s %+d (%d -> %d): %s",
            step,
            direction,
            delta,
            provisioned,
            provisioned + delta,
            reason,
        )
        if self._metrics.enabled:
            self._metrics.counter(
                "repro_scaling_events_total",
                "Fleet resizes by direction and policy",
                labels={"direction": direction, "policy": self.autoscaler.name},
            ).inc()
        self._scaling_events.append(
            ScalingEvent(
                step=step,
                direction=direction,
                servers=abs(delta),
                fleet_before=provisioned,
                fleet_after=provisioned + delta,
                policy=self.autoscaler.name,
                reason=reason,
            )
        )

    def _advance(self, step: int) -> tuple[int, int]:
        """Step every powered-on server once; returns (frames, violations).

        Idle and warming servers sample their idle power.  The per-slot
        active counts are refreshed here — the once-per-step walk that keeps
        every scheduling decision O(servers) — from the engine's per-server
        counts of sessions still active (on the batch engine, the
        stepper's, taken from its arrays).
        """
        live = self._live
        if not live:
            # Every server down at once (a fault schedule can do what
            # autoscaling never would); nothing to step or sample.
            return 0, 0
        interval = self._ckpt_interval
        if self.engine == "batch":
            if self._stepper is None or self._fleet_changed:
                self._stepper = BatchStepper(
                    [slot.orchestrator for slot in live],
                    profiler=self._profiler,
                    previous=self._stepper,
                )
                self._fleet_changed = False
            stepper = self._stepper
            step_samples = stepper.step(step)
            still_active = stepper.still_active
            writes = stepper.checkpoint_writes(interval) if interval is not None else None
            violations = stepper.violations
        else:
            stepped = [slot.orchestrator.active_sessions() for slot in live]
            step_samples = []
            for slot in live:
                sample = slot.orchestrator.run_step(step)
                if sample is None:
                    sample = slot.orchestrator.idle_step(step)
                step_samples.append(sample)
            still_active = [
                len([session for session in sessions if session.active]) for sessions in stepped
            ]
            writes = None
            if interval is not None:
                # A session checkpoints when the step completed a multiple
                # of the interval within its current video; video
                # boundaries are natural durable points and cost nothing
                # (frame_index resets to 0 there).
                writes = [
                    len(
                        [
                            session
                            for session in sessions
                            if session.active
                            and session.frame_index > 0
                            and session.frame_index % interval == 0
                        ]
                    )
                    for sessions in stepped
                ]
            violations = TranscodingSession.last_frame_violations(
                [session for sessions in stepped for session in sessions]
            )

        frames = 0
        for slot, sample, active, written in zip(
            live, step_samples, still_active, writes or itertools.repeat(0)
        ):
            if written:
                # Checkpoint metering runs here — shared verbatim by both
                # engines, after they produced the step's sample — so the
                # modeled bandwidth cost lands identically on either.
                extra_w = written * self._ckpt_power
                sample = PowerSample(
                    sample.step,
                    sample.power_w + extra_w,
                    sample.duration_s,
                    sample.active_sessions,
                )
                self._count("checkpoint_writes", written)
                self._count("checkpoint_energy_j", extra_w * sample.duration_s)
            slot.samples.append(sample)
            slot.last_power_w = sample.power_w
            slot.last_active = sample.active_sessions
            frames += sample.active_sessions
            slot.active_count = active
        return frames, violations

    def _close_step(
        self,
        step: int,
        before: dict,
        faults: int,
        waits: int,
        frames: int,
        violations: int,
    ) -> None:
        """Record the step: its fleet sample, metrics and SLO observation.

        The step's arrivals, drops, sheds and new queue waits are its change
        in the ledger since ``before``, the copy taken when the step began
        (``faults`` and ``waits`` are the fault-event and queue-wait counts
        then); ``frames`` and ``violations`` are what :meth:`_advance`
        stepped.
        """
        ledger = self._ledger
        arrivals = ledger["arrivals"] - before["arrivals"]
        dropped = ledger["dropped"] - before["dropped"]
        new_waits = self._queue_waits[waits:]
        sample = FleetSample(
            step=step,
            live_servers=len(self._live),
            dispatchable_servers=len(self._dispatchable),
            queue_length=len(self._queue),
            arrivals=arrivals,
            active_sessions=ordered_sum(slot.active_count for slot in self._live),
            frames=frames,
            qos_violations=violations,
            dropped=dropped,
            brownout_level=self._brownout_level,
            healthy_servers=len(self._dispatchable),
            **self._census,
        )
        self._fleet_trace.append(sample)
        self._profiler.count_step()
        if self._metrics.enabled:
            for field, gauge in self._fleet_metrics.items():
                gauge.set(getattr(sample, field))
            self._m_power.set(ordered_sum(slot.last_power_w for slot in self._live))
            self._m_frames.inc(frames)
            self._m_violations.inc(violations)
            self._publish_counts(before, faults)
            for wait in new_waits:
                self._m_wait.observe(wait)
        # SLO evaluation precedes the recorder snapshot so each step's row
        # already reflects this step's repro_slo_* gauge values.
        self.telemetry.observe_slo(
            step,
            StepDeltas(
                new_waits=tuple(new_waits),
                arrivals=arrivals,
                shed=(
                    (ledger["rejected"] - before["rejected"])
                    + dropped
                    + (ledger["failed"] - before["failed"])
                ),
                frames=frames,
                violations=violations,
            ),
        )
        self.telemetry.record_step(step)
