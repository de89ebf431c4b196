"""Crash-and-recover: a fleet that loses servers and keeps its users.

The other cluster examples assume servers stay up.  This one injects
seeded chaos — servers crash with exponentially distributed uptimes and
come back after a mean-time-to-recovery — and shows the recovery machinery
at work: sessions aboard a crashed server are salvaged, their learned
controller state copied into a replacement controller, and the users
re-admitted under bounded retries with exponential backoff.  An autoscaler
watches healthy (not just provisioned) capacity, so lost servers also show
up as lost capacity.

The same fault schedule is served twice from identical seeds:

* **shed** — ``max_retries=0``: every session on a crashed server is lost;
* **recover** — ``max_retries=3``: salvaged sessions ride out the crash.

Run with::

    python examples/chaos_fleet.py
"""

from __future__ import annotations

import argparse
import logging

from repro.cluster import (
    CapacityThreshold,
    ClusterOrchestrator,
    FaultConfig,
    PoissonTraffic,
    ReactiveThreshold,
    WorkloadGenerator,
)
from repro.metrics.report import format_table
from repro.telemetry import LOG_LEVELS, configure_logging

_LOG = logging.getLogger("repro.examples.chaos_fleet")

SERVERS = 3
SESSIONS_PER_SERVER = 3
DURATION = 80
SEED = 11
FAULT_SEED = 9


def make_workload():
    return WorkloadGenerator(
        PoissonTraffic(0.5),
        seed=SEED,
        playlist_videos=2,
        frames_per_video=10,
        patience_steps=12,
    )


def run_config(label, *, max_retries):
    cluster = ClusterOrchestrator(
        SERVERS,
        make_workload(),
        admission=CapacityThreshold(
            max_sessions_per_server=SESSIONS_PER_SERVER, max_queue=8
        ),
        seed=SEED,
        autoscaler=ReactiveThreshold(
            sessions_per_server=SESSIONS_PER_SERVER, scale_down_cooldown_steps=10
        ),
        max_servers=6,
        provision_warmup_steps=2,
        faults=FaultConfig(
            crash_mtbf_steps=30.0,
            crash_mttr_steps=6.0,
            straggler_mtbf_steps=80.0,
            straggler_duration_steps=4.0,
            max_retries=max_retries,
            retry_backoff_steps=1,
            seed=FAULT_SEED,
        ),
    )
    result = cluster.run(DURATION)
    return label, result, result.summary()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="verbosity of the repro logger",
    )
    configure_logging(parser.parse_args().log_level)

    runs = [
        run_config("shed", max_retries=0),
        run_config("recover", max_retries=3),
    ]

    _LOG.info("=== Same crash schedule, two responses, identical seeds ===")
    _LOG.info(
        format_table(
            [
                "config",
                "arrivals",
                "served",
                "failed",
                "retried",
                "crashes",
                "stragglers",
                "healthy (mean)",
            ],
            [
                [
                    label,
                    s.arrivals,
                    s.admitted - s.failed,
                    s.failed,
                    s.retried,
                    s.server_crashes,
                    s.stragglers,
                    s.mean_healthy_servers,
                ]
                for label, _, s in runs
            ],
            float_format="{:.2f}",
        )
    )

    _, result, summary = runs[-1]
    _LOG.info("\nFault timeline (recover config):")
    _LOG.info(
        format_table(
            ["step", "event", "server", "sessions lost", "detail"],
            [
                [e.step, e.kind, e.server, e.sessions_lost, e.detail]
                for e in result.fault_events
            ],
        )
    )

    crashes = [e for e in result.fault_events if e.kind == "crash"]
    if crashes:
        first = crashes[0]
        around = [
            s
            for s in result.fleet_trace
            if first.step - 2 <= s.step <= first.step + 12
        ]
        _LOG.info(
            f"\nFleet health around the first crash (step {first.step}, "
            f"server {first.server}, {first.sessions_lost} sessions aboard):"
        )
        _LOG.info(
            format_table(
                ["step", "healthy", "degraded", "failed", "recovering", "queue"],
                [
                    [
                        s.step,
                        s.healthy_servers,
                        s.degraded_servers,
                        s.failed_servers,
                        s.recovering_servers,
                        s.queue_length,
                    ]
                    for s in around
                ],
            )
        )
    migrated = sorted(
        key
        for per_server in result.records_by_server
        for key in per_server
        if "#r" in key
    )
    _LOG.info(
        f"\n{summary.retried} sessions migrated to replacement servers: "
        f"{', '.join(migrated) if migrated else 'none'}"
    )


if __name__ == "__main__":
    main()
