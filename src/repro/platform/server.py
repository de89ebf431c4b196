"""Multicore transcoding server: thread allocation, contention, power.

Each simulation step, every active transcoding session demands a number of
WPP threads at a chosen per-core frequency.  The server grants each thread a
fair share of the machine's effective capacity (dedicated cores first, then
SMT sharing, then time-slicing), reports the resulting per-session
*contention scale* that the encoder simulator applies to its WPP speedup, and
computes the package power for the step.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

from repro.errors import AllocationError
from repro.platform.dvfs import DvfsDriver, DvfsPolicy
from repro.platform.power import PowerModel
from repro.platform.topology import CpuTopology

__all__ = [
    "SessionDemand",
    "SessionAllocation",
    "ServerAllocation",
    "MulticoreServer",
]


@dataclasses.dataclass(frozen=True)
class SessionDemand:
    """Per-step resource demand of one transcoding session.

    Attributes
    ----------
    session_id:
        Identifier of the session (unique within the orchestrator).
    threads:
        Number of WPP threads the session wants for the next frame.
    frequency_ghz:
        Frequency the session's controller selected for its cores.
    activity:
        Expected busy fraction of each of the session's threads (the WPP
        efficiency reported by the encoder model).
    """

    session_id: str
    threads: int
    frequency_ghz: float
    activity: float = 1.0

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise AllocationError(f"threads must be >= 1, got {self.threads}")
        if self.frequency_ghz <= 0:
            raise AllocationError(
                f"frequency_ghz must be positive, got {self.frequency_ghz}"
            )
        if not 0.0 <= self.activity <= 1.0:
            raise AllocationError(f"activity must be in [0, 1], got {self.activity}")


@dataclasses.dataclass(frozen=True)
class SessionAllocation:
    """What the server granted to one session for the current step.

    Attributes
    ----------
    session_id:
        The session this allocation belongs to.
    threads_granted:
        Software threads the session may run (always its full demand; the
        machine is shared in time rather than by refusing threads).
    contention_scale:
        Multiplier in ``(0, 1]`` on the session's parallel speedup caused by
        SMT sharing and oversubscription.
    frequency_ghz:
        Frequency applied to the session's cores.
    busy_cores:
        Physical-core equivalents attributed to the session (fractional).
    power_w:
        Package power attributed to the session, including a proportional
        share of base and idle power.
    """

    session_id: str
    threads_granted: int
    contention_scale: float
    frequency_ghz: float
    busy_cores: float
    power_w: float


@dataclasses.dataclass(frozen=True)
class ServerAllocation:
    """Result of allocating one simulation step across all sessions.

    Attributes
    ----------
    sessions:
        Mapping from session id to its :class:`SessionAllocation`.
    total_power_w:
        Package power for this step.
    total_threads:
        Sum of threads demanded by all sessions.
    busy_cores:
        Physical cores with at least one busy thread.
    idle_cores:
        Physical cores with no work this step.
    oversubscribed:
        True when more software threads than hardware threads were demanded.
    """

    sessions: Mapping[str, SessionAllocation]
    total_power_w: float
    total_threads: int
    busy_cores: float
    idle_cores: float
    oversubscribed: bool

    def contention_scale(self, session_id: str) -> float:
        """Convenience accessor for one session's contention scale."""
        return self.sessions[session_id].contention_scale


class MulticoreServer:
    """The shared platform on which all transcoding sessions run.

    Parameters
    ----------
    topology:
        CPU resources of the server.
    power_model:
        Package power model.
    dvfs_driver:
        Per-core frequency driver (kept in sync with each allocation so its
        state reflects the last step).
    dvfs_policy:
        ``PER_CORE`` parks idle cores at the minimum frequency; ``CHIP_WIDE``
        leaves idle cores at the highest frequency any session requested.
    """

    def __init__(
        self,
        topology: CpuTopology | None = None,
        power_model: PowerModel | None = None,
        dvfs_driver: DvfsDriver | None = None,
        dvfs_policy: DvfsPolicy = DvfsPolicy.PER_CORE,
    ) -> None:
        self.topology = topology if topology is not None else CpuTopology()
        self.power_model = power_model if power_model is not None else PowerModel()
        self.dvfs = (
            dvfs_driver if dvfs_driver is not None else DvfsDriver(topology=self.topology)
        )
        self.dvfs_policy = dvfs_policy
        # Every core idles at the lowest frequency under either DVFS policy,
        # so an empty server's power is fixed by its own models.
        self._idle_power_w = self.power_model.package_power(
            busy_cores=[],
            idle_cores=[self.dvfs.min_frequency_ghz] * self.topology.physical_cores,
        )

    @property
    def idle_power_w(self) -> float:
        """Package power of a step with no sessions (what ``allocate([])`` reports)."""
        return self._idle_power_w

    # -- allocation -------------------------------------------------------------

    def allocate(self, demands: Iterable[SessionDemand]) -> ServerAllocation:
        """Allocate one simulation step across the given session demands."""
        demands = list(demands)
        if not demands:
            return ServerAllocation(
                sessions={},
                total_power_w=self._idle_power_w,
                total_threads=0,
                busy_cores=0.0,
                idle_cores=float(self.topology.physical_cores),
                oversubscribed=False,
            )

        seen: set[str] = set()
        for demand in demands:
            if demand.session_id in seen:
                raise AllocationError(f"duplicate session id {demand.session_id!r}")
            seen.add(demand.session_id)

        cores = self.topology.physical_cores
        hw_threads = self.topology.hardware_threads
        total_threads = sum(d.threads for d in demands)
        scale = self.topology.contention_scale(total_threads)

        busy_physical = float(min(total_threads, cores))
        smt_cores = float(max(0, min(total_threads, hw_threads) - cores))
        single_cores = busy_physical - smt_cores
        idle_cores = float(cores) - busy_physical

        idle_freq = self._idle_frequency(demands)
        idle_power = idle_cores * self.power_model.idle_core_power(idle_freq)
        base_power = self.power_model.params.base_power_w
        shared_power = base_power + idle_power

        allocations: dict[str, SessionAllocation] = {}
        busy_power_total = 0.0
        session_busy_power: dict[str, float] = {}
        session_busy_cores: dict[str, float] = {}
        for demand in demands:
            share = demand.threads / total_threads
            own_single = share * single_cores
            own_smt = share * smt_cores
            # Threads that are time-sliced or SMT-shared end up fully busy.
            effective_activity = min(1.0, demand.activity / scale) if scale > 0 else 1.0
            per_single = self.power_model.busy_core_power(
                demand.frequency_ghz, effective_activity, smt_threads=1
            )
            per_smt = self.power_model.busy_core_power(
                demand.frequency_ghz, effective_activity, smt_threads=2
            )
            power = own_single * per_single + own_smt * per_smt
            session_busy_power[demand.session_id] = power
            session_busy_cores[demand.session_id] = own_single + own_smt
            busy_power_total += power

        total_power = shared_power + busy_power_total

        for demand in demands:
            share = demand.threads / total_threads
            allocations[demand.session_id] = SessionAllocation(
                session_id=demand.session_id,
                threads_granted=demand.threads,
                contention_scale=scale,
                frequency_ghz=demand.frequency_ghz,
                busy_cores=session_busy_cores[demand.session_id],
                power_w=session_busy_power[demand.session_id] + share * shared_power,
            )

        self._apply_to_driver(demands, idle_freq)

        return ServerAllocation(
            sessions=allocations,
            total_power_w=total_power,
            total_threads=total_threads,
            busy_cores=busy_physical,
            idle_cores=idle_cores,
            oversubscribed=total_threads > hw_threads,
        )

    # -- helpers ---------------------------------------------------------------

    def _idle_frequency(self, demands: list[SessionDemand]) -> float:
        """Frequency at which idle cores sit under the current DVFS policy."""
        if self.dvfs_policy is DvfsPolicy.CHIP_WIDE and demands:
            return max(d.frequency_ghz for d in demands)
        return self.dvfs.min_frequency_ghz

    def _apply_to_driver(self, demands: list[SessionDemand], idle_freq: float) -> None:
        """Mirror the allocation into the DVFS driver state (best effort).

        Sessions get contiguous physical cores in demand order, one core per
        thread until the machine runs out; remaining cores get the idle
        frequency.  Frequencies are snapped to the nearest supported point.
        """
        next_core = 0
        cores = self.topology.physical_cores
        for demand in demands:
            wanted = min(demand.threads, cores - next_core)
            freq = self.dvfs.closest_available(demand.frequency_ghz)
            for core in range(next_core, next_core + wanted):
                self.dvfs.set_frequency(core, freq)
            next_core += wanted
            if next_core >= cores:
                break
        idle = self.dvfs.closest_available(idle_freq)
        for core in range(next_core, cores):
            self.dvfs.set_frequency(core, idle)
