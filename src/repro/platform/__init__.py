"""Platform substrate: multicore server, per-core DVFS, and power modelling.

The paper's platform is a 16-core (32-thread) dual-socket Intel Xeon
E5-2667 v4 server with per-core DVFS (1.2-3.2 GHz) and power measured at the
package level.  This package models that platform:

* :mod:`repro.platform.topology` — sockets, cores, SMT threads;
* :mod:`repro.platform.dvfs` — the supported frequency points, behind a
  sysfs-like facade;
* :mod:`repro.platform.power` — voltage/frequency table and power model;
* :mod:`repro.platform.server` — thread allocation, contention, and the
  per-step power computation, once per server for the multi-user
  orchestrator (``MulticoreServer.allocate``) and once per fleet for the
  batch engine (``FleetAllocator.allocate_batch``); an empty server draws
  its fixed ``idle_power_w``.

There is no energy meter here: energy is accounted once, by
:func:`~repro.metrics.aggregate.power_trace_stats` over the orchestrators'
per-step power samples.
"""

from repro.platform.topology import CpuTopology
from repro.platform.dvfs import DvfsDriver, DvfsPolicy
from repro.platform.power import PowerModel, PowerModelParameters, VoltageTable
from repro.platform.thermal import ThermalModel, ThermalModelParameters, temperature_trace
from repro.platform.server import (
    FleetAllocator,
    MulticoreServer,
    ServerAllocation,
    SessionDemand,
)

__all__ = [
    "CpuTopology",
    "DvfsDriver",
    "DvfsPolicy",
    "PowerModel",
    "PowerModelParameters",
    "VoltageTable",
    "ThermalModel",
    "ThermalModelParameters",
    "temperature_trace",
    "MulticoreServer",
    "FleetAllocator",
    "ServerAllocation",
    "SessionDemand",
]
