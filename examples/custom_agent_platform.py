"""Customising the platform and the controller's design space.

Shows the extension points of the library:

* a different server (single socket, 8 cores, no SMT) with a recalibrated
  power model;
* a MAMUT controller restricted to a smaller QP set and a coarser DVFS set,
  with a custom agent schedule;
* the last frame's operating point, read from the session's frame records;
* the platform's operating points, read through the sysfs-like DVFS
  driver as one would on real hardware.

Run with::

    python examples/custom_agent_platform.py
"""

from __future__ import annotations

import argparse
import logging

from repro import (
    MamutConfig,
    MamutController,
    Orchestrator,
    TranscodingRequest,
    TranscodingSession,
    make_sequence,
)
from repro.core.actions import ActionSet
from repro.core.rewards import RewardConfig
from repro.core.schedule import AgentSchedule, AgentSlot
from repro.core.states import StateSpace
from repro.metrics.report import format_table
from repro.platform.dvfs import DvfsDriver
from repro.platform.power import PowerModel, PowerModelParameters
from repro.platform.server import MulticoreServer
from repro.platform.topology import CpuTopology

from repro.telemetry import LOG_LEVELS, configure_logging

_LOG = logging.getLogger("repro.examples.custom_agent_platform")


def build_small_server() -> MulticoreServer:
    """A single-socket 8-core server without SMT, with a lower power budget."""
    topology = CpuTopology(sockets=1, cores_per_socket=8, smt=1, smt_efficiency=0.75)
    power_model = PowerModel(
        PowerModelParameters(base_power_w=20.0, core_dynamic_w=4.5, core_leakage_w=1.2)
    )
    driver = DvfsDriver(topology=topology)
    return MulticoreServer(topology=topology, power_model=power_model, dvfs_driver=driver)


def build_controller(request: TranscodingRequest) -> MamutController:
    """MAMUT restricted to a smaller design space with a custom schedule."""
    power_cap_w = 70.0
    config = MamutConfig(
        qp_actions=ActionSet("qp", (27, 32, 37)),
        thread_actions=ActionSet("threads", (2, 4, 6, 8)),
        dvfs_actions=ActionSet("dvfs", (1.9, 2.6, 3.2)),
        reward=RewardConfig(
            fps_target=request.target_fps,
            bandwidth_mbps=request.bandwidth_mbps,
            power_cap_w=power_cap_w,
        ),
        state_space=StateSpace(fps_target=request.target_fps, power_cap_w=power_cap_w),
        schedule=AgentSchedule(
            [AgentSlot("qp", 18, 0), AgentSlot("threads", 9, 1), AgentSlot("dvfs", 3, 2)]
        ),
        record_history=True,
        seed=1,
    )
    return MamutController(config)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="verbosity of the repro logger",
    )
    configure_logging(parser.parse_args().log_level)
    server = build_small_server()
    sequence = make_sequence("ParkScene", num_frames=400, seed=1)
    request = TranscodingRequest(user_id="edge-node", sequence=sequence)
    controller = build_controller(request)

    session = TranscodingSession(request, controller)
    result = Orchestrator([session], server=server).run()
    summary = result.summary()
    per_session = summary.sessions["edge-node"]

    _LOG.info("=== MAMUT on a custom 8-core platform with a reduced design space ===")
    _LOG.info(
        format_table(
            ["metric", "value"],
            [
                ["mean FPS", per_session.mean_fps],
                ["QoS violations (Δ, %)", per_session.qos_violation_pct],
                ["mean threads", per_session.mean_threads],
                ["mean frequency (GHz)", per_session.mean_frequency_ghz],
                ["mean server power (W)", summary.mean_power_w],
            ],
            float_format="{:.2f}",
        )
    )

    last = session.records[-1]
    _LOG.info(
        f"\nLast frame: {last.threads} threads at {last.frequency_ghz:.1f} GHz"
    )
    khz = server.dvfs.sysfs_read(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies"
    )
    points = ", ".join(f"{int(value) / 1e6:.1f}" for value in khz.split())
    _LOG.info(f"Operating points (via the sysfs facade): {points} GHz")

    # A short excerpt of the agent activation history.
    _LOG.info("\nLast five agent activations:")
    for activation in controller.history[-5:]:
        _LOG.info(
            f"  frame {activation.frame_index:4d}  {activation.agent:8s} "
            f"-> {activation.action_value}  ({activation.phase.value})"
        )


if __name__ == "__main__":
    main()
