"""Read-only cluster state snapshots shared by admission and dispatch.

Policies never touch live orchestrators: each scheduling decision sees an
immutable :class:`ClusterSnapshot` built by the
:class:`~repro.cluster.cluster.ClusterOrchestrator` at the moment of the
decision.  This keeps policies pure functions of observable state — easy to
test in isolation and impossible to corrupt the fleet from.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Mapping, Optional

__all__ = ["ServerSnapshot", "ClusterSnapshot"]


@dataclasses.dataclass(frozen=True)
class ServerSnapshot:
    """Observable state of one server at a scheduling decision.

    Attributes
    ----------
    server_index:
        Position of the server in the fleet (0-based).
    active_sessions:
        Sessions currently transcoding on the server.
    last_power_w:
        Package power of the server's most recent step (its idle power
        before the first step).
    sessions_dispatched:
        Total sessions ever routed to this server.
    idle_power_w:
        Package power the server draws with no sessions at all (base plus
        parked cores); lets policies reason about *incremental* power.
    last_active_sessions:
        Sessions that were running when ``last_power_w`` was measured.
        ``active_sessions`` can exceed this within a step (sessions admitted
        since the last sample have not drawn power yet), which is what lets
        policies project the power already committed this step.
    zone / rack:
        The server's ``(zone, rack)`` failure domain
        (:class:`~repro.cluster.faults.FailureTopology`); both 0 when no
        topology was configured.
    crash_count:
        Injected crashes this server has suffered so far — the fault
        ledger's view of its reliability, for crash-history-weighted
        dispatch.
    uptime_steps:
        Steps since the server last (re)entered healthy service; longer
        observed uptimes are weak evidence of a more reliable machine.
    """

    server_index: int
    active_sessions: int
    last_power_w: float
    sessions_dispatched: int
    idle_power_w: float = 0.0
    last_active_sessions: int = 0
    zone: int = 0
    rack: int = 0
    crash_count: int = 0
    uptime_steps: int = 0

    def marginal_session_power_w(self, fallback_w: float) -> float:
        """Estimated package power one more session would add.

        Derived from the server's draw *above idle* at the last measurement
        (base and parked-core power would grossly overstate the marginal
        cost), falling back to ``fallback_w`` when nothing was measured
        running.
        """
        busy_w = self.last_power_w - self.idle_power_w
        if self.last_active_sessions > 0 and busy_w > 0:
            return busy_w / self.last_active_sessions
        return fallback_w

    def projected_power_w(self, fallback_marginal_w: float) -> float:
        """Power projected to the sessions admitted since the last sample.

        Power is only sampled once per step, so scheduling decisions made
        within a step would otherwise act on a stale reading; the projection
        adds one marginal-session estimate for every session admitted since
        the sample was taken.
        """
        marginal_w = self.marginal_session_power_w(fallback_marginal_w)
        pending = max(0, self.active_sessions - self.last_active_sessions)
        return self.last_power_w + marginal_w * pending


@dataclasses.dataclass(frozen=True)
class ClusterSnapshot:
    """Observable state of the whole fleet at a scheduling decision.

    Attributes
    ----------
    step:
        Cluster step at which the snapshot was taken.
    servers:
        Per-server snapshots of the *dispatchable* fleet, indexed by server
        position.
    queue_length:
        Requests currently waiting in the admission queue.
    queue_by_class:
        Queued requests broken down by service class (empty when nothing is
        queued or the breakdown was not taken) — what lets per-class SLAs
        bound each class's backlog independently instead of interfering
        through the shared aggregate.
    power_cap_w:
        Fleet-wide power budget admission policies may enforce.
    offline_power_w:
        Package power currently drawn by servers that are powered on but not
        dispatchable (warming through their provisioning delay or draining
        toward decommission).  Those machines share the fleet's power budget
        even though they take no new sessions, so the cap projections below
        include this draw.
    warming_servers:
        Commissioned servers still inside their provisioning warm-up —
        capacity that is *about to* exist.
    warming_ready_in:
        Steps until the soonest warming server becomes dispatchable
        (``None`` when nothing is warming).
    brownout_level:
        Fleet-wide degradation level set by the
        :class:`~repro.cluster.brownout.BrownoutController` (0 = normal
        operation).  Admission policies may trade quality for capacity when
        it is raised.
    degraded_servers:
        Powered-on servers inside a straggler throttle.  They keep serving
        their in-flight sessions but are excluded from ``servers`` (the
        dispatchable roster), so policies can tell throttled capacity from
        capacity that simply does not exist.
    failed_servers:
        Servers currently down after an injected crash — capacity the fleet
        has *lost* until their seeded recovery (autoscalers see the smaller
        dispatchable roster and can replace it).
    recovering_servers:
        Crashed servers back on power, rebooting through the provisioning
        warm-up before they rejoin the dispatchable roster.
    retry_of_zone:
        When the decision routes a *crash retry*, the zone the session was
        lost in; ``None`` for ordinary dispatches.  Failure-aware policies
        use it to spread retries across failure domains instead of
        re-landing them where the outage struck.
    """

    step: int
    servers: tuple[ServerSnapshot, ...]
    queue_length: int
    power_cap_w: float
    offline_power_w: float = 0.0
    warming_servers: int = 0
    warming_ready_in: Optional[int] = None
    brownout_level: int = 0
    queue_by_class: Mapping[str, int] = dataclasses.field(default_factory=dict)
    degraded_servers: int = 0
    failed_servers: int = 0
    recovering_servers: int = 0
    retry_of_zone: Optional[int] = None

    def __iter__(self) -> Iterator[ServerSnapshot]:
        return iter(self.servers)

    def class_queue_length(self, service_class: str) -> int:
        """Queued requests of one service class.

        Falls back to the aggregate ``queue_length`` when no per-class
        breakdown was recorded (hand-built snapshots) — a non-empty queue
        recorded by the orchestrator always carries one.
        """
        if not self.queue_by_class:
            return self.queue_length
        return self.queue_by_class.get(service_class, 0)

    @property
    def num_servers(self) -> int:
        """Number of servers in the fleet."""
        return len(self.servers)

    @property
    def total_active_sessions(self) -> int:
        """Sessions currently running anywhere in the fleet."""
        return sum(server.active_sessions for server in self.servers)

    @property
    def dispatchable_power_w(self) -> float:
        """Sum of the dispatchable servers' most recent package powers."""
        return sum(server.last_power_w for server in self.servers)

    @property
    def fleet_power_w(self) -> float:
        """Most recent package power of *every* powered-on server.

        Includes ``offline_power_w`` — warming and draining servers draw
        real power against the same budget even though they take no new
        sessions, so a cap-enforcing policy that ignored them would
        overshoot the fleet budget during every scaling transient.
        """
        return self.dispatchable_power_w + self.offline_power_w

    @property
    def fleet_idle_power_w(self) -> float:
        """Power the fleet would draw with every server idle."""
        return sum(server.idle_power_w for server in self.servers)

    @property
    def total_last_active_sessions(self) -> int:
        """Fleet-wide session count at the last power measurement."""
        return sum(server.last_active_sessions for server in self.servers)

    def least_loaded(self) -> ServerSnapshot:
        """The server with the fewest active sessions (lowest index on ties)."""
        return min(self.servers, key=lambda s: (s.active_sessions, s.server_index))

    def marginal_session_power_w(self, fallback_w: float) -> float:
        """Fleet-level analogue of :meth:`ServerSnapshot.marginal_session_power_w`.

        Estimated from the fleet's draw above idle at the last measurement,
        falling back to ``fallback_w`` when nothing was measured running.
        """
        measured = self.total_last_active_sessions
        busy_w = self.dispatchable_power_w - self.fleet_idle_power_w
        if measured > 0 and busy_w > 0:
            return busy_w / measured
        return fallback_w

    def projected_power_w(self, fallback_marginal_w: float) -> float:
        """Fleet power projected to sessions admitted since the last sample.

        Fleet-level analogue of :meth:`ServerSnapshot.projected_power_w`:
        without it, a burst arriving within one step would be evaluated
        wholesale against a stale fleet-power reading.  Starts from
        :attr:`fleet_power_w`, so warming/draining servers' draw counts
        against the cap.
        """
        marginal_w = self.marginal_session_power_w(fallback_marginal_w)
        unmeasured = max(0, self.total_active_sessions - self.total_last_active_sessions)
        return self.fleet_power_w + marginal_w * unmeasured
