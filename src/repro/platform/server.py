"""Multicore transcoding server: thread allocation, contention, power.

Each simulation step, every active transcoding session demands a number of
WPP threads at a chosen per-core frequency.  The server grants each thread a
fair share of the machine's effective capacity (dedicated cores first, then
SMT sharing, then time-slicing), reports the resulting *contention scale*
that the encoder simulator applies to every session's WPP speedup, and
computes the package power for the step.

The allocation has two forms side by side: :meth:`MulticoreServer.allocate`
for one server (the scalar engine) and :meth:`FleetAllocator.allocate_batch`
for a whole fleet at once (the batch engine,
:mod:`repro.cluster.batch`).  Both evaluate the same IEEE-754 operations in
the same order, session powers included, so their outputs are bitwise
identical; ``tests/test_batch_models.py`` pins the pair.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import AllocationError
from repro.numeric import ordered_sum
from repro.platform.dvfs import DvfsDriver, DvfsPolicy
from repro.platform.power import PowerModel
from repro.platform.topology import CpuTopology

__all__ = [
    "SessionDemand",
    "ServerAllocation",
    "MulticoreServer",
    "FleetAllocator",
]

#: ``smt_threads`` as a column: one busy_core_power_batch call returns each
#: lane's per-core power with one busy SMT sibling (row 0) and two (row 1).
_SMT_OCCUPANCIES = np.array([[1], [2]])


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
class ServerAllocation:
    """Result of allocating one simulation step across all sessions.

    Attributes
    ----------
    contention_scale:
        Multiplier in ``(0, 1]`` on every session's parallel speedup caused
        by SMT sharing and oversubscription (the server shares its capacity
        fairly, so one scale holds for all sessions).
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

    contention_scale: float
    total_power_w: float
    total_threads: int
    busy_cores: float
    idle_cores: float
    oversubscribed: bool


class MulticoreServer:
    """The shared platform on which all transcoding sessions run.

    Parameters
    ----------
    topology:
        CPU resources of the server.
    power_model:
        Package power model.
    dvfs_driver:
        The platform's frequency driver.  The server reads only its lowest
        frequency, at which idle cores are parked; the driver's per-core
        state is not written by allocations.
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
                contention_scale=1.0,
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
        total_threads = ordered_sum(d.threads for d in demands)
        scale = self.topology.contention_scale(total_threads)

        busy_physical = float(min(total_threads, cores))
        smt_cores = float(max(0, min(total_threads, hw_threads) - cores))
        single_cores = busy_physical - smt_cores
        idle_cores = float(cores) - busy_physical

        if self.dvfs_policy is DvfsPolicy.CHIP_WIDE:
            # Idle cores stay at the highest frequency any session requested.
            idle_freq = max(d.frequency_ghz for d in demands)
        else:
            idle_freq = self.dvfs.min_frequency_ghz
        idle_power = idle_cores * self.power_model.idle_core_power(idle_freq)
        base_power = self.power_model.params.base_power_w
        shared_power = base_power + idle_power

        busy_power_total = 0.0
        for demand in demands:
            share = demand.threads / total_threads
            own_single = share * single_cores
            own_smt = share * smt_cores
            # Threads that are time-sliced or SMT-shared end up fully busy.
            effective_activity = min(1.0, demand.activity / scale)
            per_single = self.power_model.busy_core_power(
                demand.frequency_ghz, effective_activity, smt_threads=1
            )
            per_smt = self.power_model.busy_core_power(
                demand.frequency_ghz, effective_activity, smt_threads=2
            )
            busy_power_total += own_single * per_single + own_smt * per_smt

        return ServerAllocation(
            contention_scale=scale,
            total_power_w=shared_power + busy_power_total,
            total_threads=total_threads,
            busy_cores=busy_physical,
            idle_cores=idle_cores,
            oversubscribed=total_threads > hw_threads,
        )


class FleetAllocator:
    """Batch form of :meth:`MulticoreServer.allocate` over a fleet of servers.

    Built once per fleet, it caches every server's core count, hardware
    threads, SMT efficiency, base power, parked-core idle power and idle
    power, and groups the servers by power model (class, parameters and
    voltage table) so each group costs one ``busy_core_power_batch`` call per
    step.  Each server's ``dvfs_policy`` is read at every step, because a
    joining chip-wide session switches it.

    Parameters
    ----------
    servers:
        The fleet, in the order :meth:`allocate_batch` lays out its arrays.
    previous:
        Optional allocator of an earlier fleet, not used again.  All of a
        server's cached values are fixed for its life, so the new allocator
        takes over the previous one's and reads only the servers that joined.
    """

    def __init__(
        self,
        servers: Sequence[MulticoreServer],
        previous: Optional["FleetAllocator"] = None,
    ) -> None:
        self.servers = list(servers)
        # Power-model keys interned to ids, and one model per id.
        self._power_ids: dict[tuple, int] = {}
        self._power_table: list[PowerModel] = []
        known: dict[MulticoreServer, tuple] = {}
        if previous is not None:
            self._power_ids, self._power_table = previous._power_ids, previous._power_table
            known = previous._rows
        rows = [known.get(server) or self._read(server) for server in self.servers]
        self._rows = dict(zip(self.servers, rows))
        cores, threads, smt, base, parked, idle, power_ids = (
            [list(column) for column in zip(*rows)] if rows else [[]] * 7
        )
        self._cores = np.array(cores, dtype=np.int64)
        self._hw_threads = np.array(threads, dtype=np.int64)
        self._smt_efficiency = np.array(smt, dtype=float)
        self._base_power_w = np.array(base, dtype=float)
        self._parked_core_w = np.array(parked, dtype=float)
        self._idle_power_w = np.array(idle, dtype=float)

        # Models with equal keys compute the same doubles, so any one of
        # them serves its group; the fleet's groups are numbered in order of
        # first appearance.
        present = list(dict.fromkeys(power_ids))
        number = dict(zip(present, range(len(present))))
        self._power_models = [self._power_table[power_id] for power_id in present]
        self._power_group = np.array([number[p] for p in power_ids], dtype=np.int64)

    def _read(self, server: MulticoreServer) -> tuple:
        """A joining server's cached values, in the order ``__init__`` unpacks."""
        model = server.power_model
        table = model.voltage_table
        key = (type(model), model.params, tuple(table._freqs), tuple(table._volts))
        power_id = self._power_ids.setdefault(key, len(self._power_ids))
        if power_id == len(self._power_table):
            self._power_table.append(model)
        topology = server.topology
        return (
            topology.physical_cores,
            topology.hardware_threads,
            topology.smt_efficiency,
            model.params.base_power_w,
            model.idle_core_power(server.dvfs.min_frequency_ghz),
            server.idle_power_w,
            power_id,
        )

    def allocate_batch(
        self,
        counts: Sequence[int],
        threads: np.ndarray,
        frequency_ghz: np.ndarray,
        activity: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Allocate one step on every server of the fleet at once.

        ``counts`` holds each server's number of sessions, in fleet order;
        ``threads``, ``frequency_ghz`` and ``activity`` hold one entry per
        session, server-major and in each server's demand order.  Returns
        each session's contention scale and each server's package power (a
        server without sessions reports its ``idle_power_w``, as
        ``allocate([])`` does).  Bitwise-identical to calling
        :meth:`MulticoreServer.allocate` on each server.
        """
        counts = np.asarray(counts, dtype=np.int64)
        threads = np.asarray(threads, dtype=np.int64)
        frequency_ghz = np.asarray(frequency_ghz, dtype=float)
        activity = np.asarray(activity, dtype=float)
        power = self._idle_power_w.copy()
        busy = np.flatnonzero(counts)
        if not busy.size:
            return np.empty(0), power

        busy_counts = counts[busy]
        busy_starts = (np.cumsum(counts) - counts)[busy]
        total_threads = np.add.reduceat(threads, busy_starts)
        cores = self._cores[busy]

        # CpuTopology.contention_scale: dedicated cores, then SMT siblings
        # at smt_efficiency, then time-slicing that adds no capacity.
        shared = np.minimum(total_threads, self._hw_threads[busy]) - cores
        capacity = np.where(
            total_threads <= cores,
            total_threads.astype(float),
            (cores - shared) + 2 * shared * self._smt_efficiency[busy],
        )
        scale = np.minimum(1.0, capacity / total_threads)

        busy_physical = np.minimum(total_threads, cores).astype(float)
        smt_cores = np.maximum(0, shared).astype(float)
        single_cores = busy_physical - smt_cores
        idle_cores = cores - busy_physical

        lane_scale = np.repeat(scale, busy_counts)
        effective_activity = np.minimum(1.0, activity / lane_scale)
        core_power = np.empty((2, len(threads)))
        lane_group = np.repeat(self._power_group, counts)
        for group, model in enumerate(self._power_models):
            lanes = lane_group == group
            core_power[:, lanes] = model.busy_core_power_batch(
                frequency_ghz[lanes], effective_activity[lanes], _SMT_OCCUPANCIES
            )
        per_single, per_smt = core_power
        share = threads / np.repeat(total_threads, busy_counts)
        session_power = (
            share * np.repeat(single_cores, busy_counts) * per_single
            + share * np.repeat(smt_cores, busy_counts) * per_smt
        )

        # allocate's += loop across servers at once: each server's session
        # powers are added from 0.0, left to right, one position at a time
        # (np.sum and np.add.reduceat would reassociate the additions).
        busy_power_total = np.zeros(busy.size)
        for position in range(int(busy_counts.max())):
            present = busy_counts > position
            busy_power_total[present] += session_power[busy_starts[present] + position]

        idle_core_w = self._parked_core_w[busy]
        servers = [self.servers[index] for index in busy.tolist()]
        chip_wide = [
            k for k, server in enumerate(servers) if server.dvfs_policy is DvfsPolicy.CHIP_WIDE
        ]
        if chip_wide:
            # Idle cores stay at the highest frequency any session requested.
            top_frequency = np.maximum.reduceat(frequency_ghz, busy_starts).tolist()
            for k in chip_wide:
                idle_core_w[k] = servers[k].power_model.idle_core_power(top_frequency[k])
        shared_power = self._base_power_w[busy] + idle_cores * idle_core_w
        power[busy] = shared_power + busy_power_total
        return lane_scale, power
