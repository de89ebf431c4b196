"""Fleet-level metrics: per-server utilization and cluster-wide summaries.

The single-server :class:`~repro.metrics.aggregate.ExperimentSummary` answers
"how well were these sessions served?"; the cluster layer additionally needs
"how well was the *traffic* served?" — how many requests got in, how long
they queued, how busy each server was, and what the fleet paid in power for
every concurrent session.  This module aggregates the per-server record/power
traces plus the admission ledger — together a :class:`ClusterResult`, the raw
output of one cluster run — into a :class:`ClusterSummary`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Mapping, Sequence

from repro.metrics.aggregate import linear_percentile, power_trace_stats
from repro.metrics.qos import violations
from repro.metrics.records import (
    FaultEvent,
    FleetSample,
    FrameRecord,
    FrameRecordView,
    PowerSample,
    ScalingEvent,
)
from repro.numeric import ordered_sum

__all__ = ["ClusterResult", "ServerSummary", "ClusterSummary", "summarize_cluster"]


@dataclasses.dataclass(frozen=True)
class ClusterResult:
    """Raw output of one cluster run.

    Attributes
    ----------
    records_by_server:
        One ``{session_id: records}`` mapping per server, in commissioning
        order (decommissioned servers keep their entry).  Each ``records``
        is a :class:`~repro.metrics.records.FrameRecordView` of the run's
        frame ledger, fixed at the frames the session committed: a
        read-only sequence of :class:`~repro.metrics.records.FrameRecord`
        that builds each record when it is read, compares equal to another
        view, tuple or list of the same records and has the ``repr`` of
        their tuple.
    samples_by_server:
        One power trace per server; a server contributes one sample per
        cluster step it was powered on (idle and warm-up steps included), so
        traces of servers commissioned or decommissioned mid-run are shorter
        than the run.
    arrivals, admitted, rejected, abandoned:
        The admission ledger; ``abandoned`` counts requests still queued
        when the run ended.
    dropped:
        Queued requests that aged past their patience deadline and were
        dropped before ever reaching a server — distinct from ``rejected``
        (turned away on decision) and ``abandoned`` (still queued at the
        end).  0 when the workload carries no patience stamps.
    queue_waits:
        Steps each admitted request spent queued (0 = admitted on arrival).
        Dropped requests never appear here — they were never admitted.
    steps:
        Cluster steps executed, drain included.
    scaling_events:
        Fleet resizes executed by the autoscaling policy (empty without one).
    fleet_trace:
        One :class:`~repro.metrics.records.FleetSample` per cluster step —
        the elasticity trace (fleet size, queue, per-step QoS).
    degraded_sessions:
        Sessions admitted while the fleet was browned out (served at
        degraded quality instead of being shed).
    brownout_steps:
        Cluster steps spent at a brownout level above 0.
    failed:
        Admitted requests lost to server crashes whose retry budget ran out
        (or whose retry was still pending when the run ended).  A session
        salvaged and re-dispatched appears in ``records_by_server`` under a
        ``<user>#r<attempt>`` key on its replacement server; the crashed
        server keeps the partial records under the original key.
    retried:
        Successful crash-recovery re-dispatches (session migrations).
    fault_events:
        Every injected fault and recovery, in order (empty without a fault
        injector).
    recomputed_frames:
        Frames crash retries had to re-transcode — the gap between the
        last checkpoint (or video start) and the crash point, summed over
        every dispatched retry.
    checkpoint_writes:
        Frame-level session checkpoints written (0 when checkpointing is
        off).
    checkpoint_energy_j:
        Modeled bandwidth/IO energy of those writes, already included in
        the per-server power traces.
    """

    records_by_server: tuple[Mapping[str, FrameRecordView], ...]
    samples_by_server: tuple[tuple[PowerSample, ...], ...]
    arrivals: int
    admitted: int
    rejected: int
    abandoned: int
    queue_waits: tuple[int, ...]
    steps: int
    scaling_events: tuple[ScalingEvent, ...] = ()
    fleet_trace: tuple[FleetSample, ...] = ()
    dropped: int = 0
    degraded_sessions: int = 0
    brownout_steps: int = 0
    failed: int = 0
    retried: int = 0
    fault_events: tuple[FaultEvent, ...] = ()
    recomputed_frames: int = 0
    checkpoint_writes: int = 0
    checkpoint_energy_j: float = 0.0

    def summary(self) -> ClusterSummary:
        """Aggregate the run into fleet-level metrics."""
        return summarize_cluster(self)


@dataclasses.dataclass(frozen=True)
class ServerSummary:
    """Aggregates of one server's run inside a cluster.

    Attributes
    ----------
    server_index:
        Position of the server in the fleet.
    sessions_served:
        Sessions dispatched to this server over the run.
    frames:
        Frames the server transcoded in total.
    busy_steps:
        Steps with at least one active session.
    total_steps:
        Steps the server was powered on (the whole run).
    utilization:
        ``busy_steps / total_steps`` (0 on an empty run).
    mean_power_w:
        Time-weighted average package power, idle periods included.
    energy_j:
        Total package energy over the run.
    mean_fps:
        Average per-frame throughput (0 when no frames were served).
    qos_violation_pct:
        Δ over the frames served by this server.
    """

    server_index: int
    sessions_served: int
    frames: int
    busy_steps: int
    total_steps: int
    utilization: float
    mean_power_w: float
    energy_j: float
    mean_fps: float
    qos_violation_pct: float


@dataclasses.dataclass(frozen=True)
class ClusterSummary:
    """Aggregated results of one cluster run.

    Attributes
    ----------
    servers:
        Per-server summaries, indexed by server position.
    steps:
        Cluster steps executed (requested duration plus any drain steps).
    arrivals:
        Requests generated by the workload.
    admitted:
        Requests that reached a server (directly or via the queue).
    rejected:
        Requests turned away by the admission policy.
    abandoned:
        Requests still queued when the run ended.
    dropped:
        Queued requests dropped after aging past their patience deadline —
        load shed *after* the user already waited, the costliest kind.
    rejection_rate:
        ``rejected / arrivals`` (0 when there were no arrivals).
    shed_rate:
        ``(rejected + dropped + abandoned + failed) / arrivals`` — the
        fraction of traffic not served, whatever the mechanism (0 without
        arrivals).
    mean_queue_wait_steps, max_queue_wait_steps:
        Queue wait of admitted requests (0 for requests admitted on arrival).
    p50_queue_wait_steps, p95_queue_wait_steps, p99_queue_wait_steps:
        Linear-interpolated percentiles of the same queue waits (shared
        definition: :func:`~repro.metrics.aggregate.linear_percentile`, so
        they reconcile exactly with trace-derived percentiles); 0 when
        nothing was admitted.
    mean_active_sessions:
        Average number of concurrently running sessions, fleet-wide.
    fleet_mean_power_w:
        Average over steps of the summed per-server package power — an
        unweighted per-step mean (servers' step clocks are aligned by step
        index, not wall time), so it can differ slightly from the sum of
        the duration-weighted per-server ``mean_power_w`` values.
    fleet_energy_j:
        Total fleet energy over the run.
    watts_per_session:
        ``fleet_mean_power_w / mean_active_sessions`` — the power efficiency
        figure the fleet-sizing benchmark reports (0 on an idle run).
    mean_fps:
        Average per-frame throughput over all served frames.
    qos_violation_pct:
        Δ over all frames of all sessions on all servers.
    scale_up_events, scale_down_events:
        Fleet resizes executed by the autoscaling policy (0 without one).
    servers_added, servers_removed:
        Total servers the resizes commissioned / decommissioned.
    mean_fleet_size:
        Time-weighted number of powered-on servers (warming and draining
        included) — the elasticity figure autoscaling trades against
        abandoned requests.  Falls back to the server count when no fleet
        trace was recorded.
    peak_fleet_size:
        Largest number of powered-on servers at any step.
    mean_queue_length:
        Average admission-queue length over the run.
    transient_steps:
        Steps during which the fleet was resizing (servers warming or
        draining).
    transient_mean_queue_length:
        Average queue length over the transient steps (0 without any).
    transient_qos_violation_pct:
        Δ over the frames served during transient steps — what users
        experienced *while* the fleet was scaling.
    degraded_sessions:
        Sessions admitted while the fleet was browned out (served at
        degraded quality instead of being shed).
    brownout_steps:
        Cluster steps spent at a brownout level above 0.
    failed:
        Admitted requests that were lost to server crashes and exhausted
        their retry budget (or were still awaiting a retry when the run
        ended) — the only way an *admitted* request is not served.
        Distinct from ``rejected``/``dropped``/``abandoned``, which all
        precede admission; ``failed`` requests count into ``shed_rate``.
    retried:
        Successful crash-recovery re-dispatches: sessions salvaged from a
        crashed server and migrated to a replacement, whose controller gets
        a copy of the dying controller's learned state.  One request can
        contribute several retries.
    server_crashes, stragglers, warmup_failures:
        Injected fault counts by kind (0 without a fault injector).
    mean_healthy_servers:
        Time-weighted count of fully healthy dispatchable servers (0 when
        no fleet trace recorded health).
    failed_domains:
        Correlated domain outages injected over the run (``zone_outage``
        fault events — one per zone kill, whether drawn from the zone MTBF
        or declared by a kill schedule).
    recomputed_frames:
        Frames re-transcoded by crash retries — work between the last
        checkpoint (or video start, without checkpointing) and the crash
        point, counted when the retry is actually dispatched.
    checkpoint_writes:
        Frame-level session checkpoints written over the run (0 when
        checkpointing is off).
    checkpoint_energy_j:
        Modeled bandwidth/IO energy the checkpoint writes added to fleet
        power — the cost side of the recomputation bound.
    mean_available_domains:
        Time-weighted count of failure zones with at least one
        dispatchable server (0 when no fleet trace recorded domains).
    """

    servers: tuple[ServerSummary, ...]
    steps: int
    arrivals: int
    admitted: int
    rejected: int
    abandoned: int
    rejection_rate: float
    mean_queue_wait_steps: float
    max_queue_wait_steps: int
    mean_active_sessions: float
    fleet_mean_power_w: float
    fleet_energy_j: float
    watts_per_session: float
    mean_fps: float
    qos_violation_pct: float
    scale_up_events: int = 0
    scale_down_events: int = 0
    servers_added: int = 0
    servers_removed: int = 0
    mean_fleet_size: float = 0.0
    peak_fleet_size: int = 0
    mean_queue_length: float = 0.0
    transient_steps: int = 0
    transient_mean_queue_length: float = 0.0
    transient_qos_violation_pct: float = 0.0
    dropped: int = 0
    shed_rate: float = 0.0
    degraded_sessions: int = 0
    brownout_steps: int = 0
    failed: int = 0
    retried: int = 0
    server_crashes: int = 0
    stragglers: int = 0
    warmup_failures: int = 0
    mean_healthy_servers: float = 0.0
    p50_queue_wait_steps: float = 0.0
    p95_queue_wait_steps: float = 0.0
    p99_queue_wait_steps: float = 0.0
    failed_domains: int = 0
    recomputed_frames: int = 0
    checkpoint_writes: int = 0
    checkpoint_energy_j: float = 0.0
    mean_available_domains: float = 0.0

    @property
    def num_servers(self) -> int:
        """Servers ever commissioned (decommissioned ones keep their entry)."""
        return len(self.servers)

    @property
    def frames(self) -> int:
        """Frames transcoded fleet-wide."""
        return ordered_sum(server.frames for server in self.servers)

    def to_dict(self) -> dict:
        """JSON-ready dict: every field, with ``servers`` as a list of dicts.

        The benchmark scripts serialize their summaries with this instead of
        hand-picking fields; :meth:`from_dict` round-trips the result.
        """
        out = dataclasses.asdict(self)
        out["servers"] = [dataclasses.asdict(s) for s in self.servers]
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ClusterSummary":
        """Rebuild a summary from :meth:`to_dict` output.

        Unknown keys are ignored, so payloads that carry extra derived
        metrics next to the summary fields still load.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in fields}
        server_fields = {f.name for f in dataclasses.fields(ServerSummary)}
        kwargs["servers"] = tuple(
            ServerSummary(**{k: v for k, v in s.items() if k in server_fields})
            for s in data.get("servers", ())
        )
        return cls(**kwargs)


def _frame_columns(records: Sequence[FrameRecord]) -> tuple[list[float], int]:
    """One session's frames as the fold reads them: FPS values in order and
    the number of violations.

    A :class:`~repro.metrics.records.FrameRecordView` reads its ledger
    columns; any other sequence of records is read record by record.
    """
    if isinstance(records, FrameRecordView):
        return records.fps_and_violations()
    return [record.fps for record in records], violations(records)


def _frame_figures(sessions: list[tuple[list[float], int]]) -> tuple[int, float, float]:
    """Frames, mean FPS and Δ of the sessions' frames (0 for each without frames).

    The FPS values are added session by session, frame by frame, left to
    right.
    """
    frames = ordered_sum(len(fps) for fps, _ in sessions)
    if not frames:
        return 0, 0.0, 0.0
    fps_sum = ordered_sum(itertools.chain.from_iterable(fps for fps, _ in sessions))
    below = ordered_sum(count for _, count in sessions)
    return frames, fps_sum / frames, 100.0 * below / frames


def _summarize_server(
    index: int,
    sessions: list[tuple[list[float], int]],
    samples: Sequence[PowerSample],
) -> ServerSummary:
    frames, mean_fps, violation_pct = _frame_figures(sessions)
    busy_steps = ordered_sum(1 for sample in samples if sample.active_sessions > 0)
    energy, elapsed, mean_power = power_trace_stats(samples)
    return ServerSummary(
        server_index=index,
        sessions_served=len(sessions),
        frames=frames,
        busy_steps=busy_steps,
        total_steps=len(samples),
        utilization=busy_steps / len(samples) if samples else 0.0,
        mean_power_w=mean_power,
        energy_j=energy,
        mean_fps=mean_fps,
        qos_violation_pct=violation_pct,
    )


def summarize_cluster(result: ClusterResult) -> ClusterSummary:
    """Aggregate a cluster run into fleet-level metrics.

    ``records_by_server`` and ``samples_by_server`` are parallel sequences,
    one entry per server; a server contributes one power sample per cluster
    step it was powered on (idle steps included).  Per-step fleet sums are
    keyed by the samples' ``step`` field, so servers commissioned or
    decommissioned mid-run (shorter traces) aggregate onto the steps they
    actually ran.

    Each session's records are read once, as FPS values and a violation
    count (ledger views read their columns; any other sequence of
    :class:`~repro.metrics.records.FrameRecord` record by record), and every
    frame figure is folded from those in the servers', sessions' and
    frames' order, left to right.
    """
    records_by_server = result.records_by_server
    samples_by_server = result.samples_by_server
    if len(records_by_server) != len(samples_by_server):
        raise ValueError(
            "records_by_server and samples_by_server must have one entry per server"
        )
    columns = [
        [_frame_columns(records) for records in by_session.values()]
        for by_session in records_by_server
    ]
    servers = tuple(
        _summarize_server(index, sessions, samples)
        for index, (sessions, samples) in enumerate(zip(columns, samples_by_server))
    )
    _, mean_fps, violation_pct = _frame_figures(
        [session for sessions in columns for session in sessions]
    )

    fleet_power_by_step: dict[int, float] = {}
    active_by_step: dict[int, int] = {}
    for samples in samples_by_server:
        for sample in samples:
            fleet_power_by_step[sample.step] = (
                fleet_power_by_step.get(sample.step, 0.0) + sample.power_w
            )
            active_by_step[sample.step] = (
                active_by_step.get(sample.step, 0) + sample.active_sessions
            )
    num_steps = len(fleet_power_by_step)
    fleet_mean_power = (
        ordered_sum(fleet_power_by_step.values()) / num_steps if num_steps > 0 else 0.0
    )
    mean_active = ordered_sum(active_by_step.values()) / num_steps if num_steps > 0 else 0.0

    fleet_trace = result.fleet_trace
    queue_waits = result.queue_waits
    scale_ups = [e for e in result.scaling_events if e.direction == "up"]
    scale_downs = [e for e in result.scaling_events if e.direction == "down"]
    transients = [
        s for s in fleet_trace if s.warming_servers > 0 or s.draining_servers > 0
    ]
    transient_frames = ordered_sum(s.frames for s in transients)
    fault_kinds = [e.kind for e in result.fault_events]
    arrivals = result.arrivals
    shed = result.rejected + result.dropped + result.abandoned + result.failed

    return ClusterSummary(
        servers=servers,
        steps=result.steps,
        arrivals=arrivals,
        admitted=result.admitted,
        rejected=result.rejected,
        abandoned=result.abandoned,
        rejection_rate=result.rejected / arrivals if arrivals > 0 else 0.0,
        dropped=result.dropped,
        shed_rate=shed / arrivals if arrivals > 0 else 0.0,
        degraded_sessions=result.degraded_sessions,
        brownout_steps=result.brownout_steps,
        failed=result.failed,
        retried=result.retried,
        server_crashes=fault_kinds.count("crash"),
        stragglers=fault_kinds.count("straggler"),
        warmup_failures=fault_kinds.count("warmup_failure"),
        mean_healthy_servers=(
            ordered_sum(s.healthy_servers for s in fleet_trace) / len(fleet_trace)
            if fleet_trace
            else 0.0
        ),
        failed_domains=fault_kinds.count("zone_outage"),
        recomputed_frames=result.recomputed_frames,
        checkpoint_writes=result.checkpoint_writes,
        checkpoint_energy_j=result.checkpoint_energy_j,
        mean_available_domains=(
            ordered_sum(s.available_domains for s in fleet_trace) / len(fleet_trace)
            if fleet_trace
            else 0.0
        ),
        mean_queue_wait_steps=(
            ordered_sum(queue_waits) / len(queue_waits) if queue_waits else 0.0
        ),
        max_queue_wait_steps=max(queue_waits, default=0),
        p50_queue_wait_steps=linear_percentile(queue_waits, 50.0),
        p95_queue_wait_steps=linear_percentile(queue_waits, 95.0),
        p99_queue_wait_steps=linear_percentile(queue_waits, 99.0),
        mean_active_sessions=mean_active,
        fleet_mean_power_w=fleet_mean_power,
        fleet_energy_j=ordered_sum(server.energy_j for server in servers),
        watts_per_session=(
            fleet_mean_power / mean_active if mean_active > 0 else 0.0
        ),
        mean_fps=mean_fps,
        qos_violation_pct=violation_pct,
        scale_up_events=len(scale_ups),
        scale_down_events=len(scale_downs),
        servers_added=ordered_sum(e.servers for e in scale_ups),
        servers_removed=ordered_sum(e.servers for e in scale_downs),
        mean_fleet_size=(
            ordered_sum(s.live_servers for s in fleet_trace) / len(fleet_trace)
            if fleet_trace
            else float(len(servers))
        ),
        peak_fleet_size=(
            max((s.live_servers for s in fleet_trace), default=len(servers))
        ),
        mean_queue_length=(
            ordered_sum(s.queue_length for s in fleet_trace) / len(fleet_trace)
            if fleet_trace
            else 0.0
        ),
        transient_steps=len(transients),
        transient_mean_queue_length=(
            ordered_sum(s.queue_length for s in transients) / len(transients)
            if transients
            else 0.0
        ),
        transient_qos_violation_pct=(
            100.0 * ordered_sum(s.qos_violations for s in transients) / transient_frames
            if transient_frames > 0
            else 0.0
        ),
    )
